"""Batch command line with machine-readable reports and exit codes.

This module only wires: it parses arguments, adds to a ``RunReport`` the
checks built by the modules that own their math (or a rejection standing in
for a check that cannot run), and writes the report.

Exit code contract: 0 when every executed check is confirmed, 1 when any
check is refuted, 2 when any check is inconclusive and none is refuted,
3 for configuration/usage errors (unreadable or malformed spec documents,
bad flag combinations).  Each check on a spec document named on the
command line, and each extremal-series check, has its own guard: an error
inside it becomes one inconclusive ``spec-rejected`` check whose quantity
names that check, the later checks still run, and the report is still
written.  The other ``report-all`` checks on the shipped specs have none:
no admitted ``--precision`` or ``--n-max`` makes one of them fail.

Without ``--out`` the report document goes to stdout (JSON, or CSV for a
single-check command) and the human summary to stderr; with ``--out``, and
for ``report-all`` always, the document lands in files named by a content
hash of the configuration (under ``reports/`` when ``--out`` is absent).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from fractions import Fraction
from importlib import resources
from pathlib import Path

from ._version import __version__
from .bang import BangSeries
from .coefficients import (
    verify_ckn_bound,
    verify_ckn_oracle_equivalence,
    verify_diagonal_derivatives,
    verify_factorial_inequality_sweep,
    verify_root_series_bounds,
    verify_root_series_magnitude_bound,
)
from .criteria import (
    check_derivation_closed,
    check_inclusion,
    check_log_convex,
    check_monotone,
    quasianalyticity_report,
    value_table,
)
from .errors import CarlemanError, SpecFormatError, TailUncertifiedError
from .intervals import mpf_str
from .outcomes import rejection_report
from .reporting import RunReport, check_to_csv, write_once, write_report
from .sequences import (
    DEFAULT_MAX_INDEX,
    MAX_PRECISION,
    SequenceSpec,
    WeightSequence,
    dump_spec,
    load_spec,
)
from .substitution import coeff_level_check, final_bound_assembly, transform_report


class UsageError(Exception):
    """Maps to exit code 3."""


def _shipped_spec(name: str) -> Path:
    return Path(str(resources.files("carleman").joinpath(f"data/specs/{name}.json")))


def _load(path: str, precision: int | None) -> SequenceSpec:
    spec = load_spec(path)
    if precision is not None:
        spec = dataclasses.replace(spec, precision=precision)
    return spec


#: the seq-check checks in their default order: name -> runner(ws, n_max)
_SEQ_CHECKS = {
    "monotone": check_monotone,
    "log-convex": lambda ws, n_max: check_log_convex(ws, "M", max(2, n_max)),
    "log-convex-prime": lambda ws, n_max: check_log_convex(ws, "Mprime", max(2, n_max)),
    "derivation-closed": check_derivation_closed,
    "quasianalytic": quasianalyticity_report,
}


#: the largest value of a count flag other than --n-max and --precision: a
#: range for the flag's value, not a bound on the work a command does
MAX_DEPTH = 1000


def _int_in(minimum: int, maximum: int = MAX_DEPTH):
    """argparse type: an integer from ``minimum`` to ``maximum``; anything
    else is a usage error (exit 3)."""

    def integer(text: str) -> int:
        value = int(text)
        if not minimum <= value <= maximum:
            raise argparse.ArgumentTypeError(f"must be from {minimum} to {maximum}")
        return value

    return integer


_COUNT = _int_in(1)
#: the quasianalyticity and derivation-closure rows and the primed ratio of
#: seq-show read index n + 1, so the deepest sweep stops one short of the
#: largest index a sequence evaluates
_N_MAX = _int_in(1, DEFAULT_MAX_INDEX - 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carleman",
        description="Certified checks for Denjoy-Carleman weight sequences: "
        "quasianalyticity criteria, exact coefficient bounds, the extremal "
        "cosine series, and the power-substitution bound.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, n_max_default: int | None = None) -> None:
        p.add_argument("--out", default=None, help="output file or directory")
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--precision", type=_int_in(1, MAX_PRECISION), default=None,
                       help=f"override working precision (decimal digits, at most {MAX_PRECISION})")
        if n_max_default is not None:
            p.add_argument("--n-max", type=_N_MAX, default=n_max_default)

    p = sub.add_parser("seq-show", help="tabulate M_n, M'_n and the primed ratios")
    p.add_argument("--spec", required=True)
    common(p, n_max_default=10)

    p = sub.add_parser("seq-check", help="run sequence criteria checks")
    p.add_argument("--spec", required=True)
    p.add_argument("--checks", default=",".join(_SEQ_CHECKS),
                   help=f"comma list: {', '.join(_SEQ_CHECKS)}")
    common(p, n_max_default=40)

    p = sub.add_parser("seq-compare", help="inclusion criterion between two sequences")
    p.add_argument("--spec", required=True, help="the smaller class M")
    p.add_argument("--other", required=True, help="the candidate superclass N")
    common(p, n_max_default=40)

    p = sub.add_parser("seq-transform", help="index-dilated sequence and its verdicts")
    p.add_argument("--spec", required=True)
    p.add_argument("--p", type=_COUNT, default=2)
    common(p, n_max_default=30)

    p = sub.add_parser("ckn", help="log-power coefficient bounds and oracle equivalence")
    p.add_argument("--k-max", type=_COUNT, default=10)
    common(p, n_max_default=30)

    p = sub.add_parser("alpha", help="root-substitution series bounds")
    p.add_argument("--p", type=_int_in(2), default=2)
    p.add_argument("--k-max", type=_COUNT, default=5)
    common(p, n_max_default=40)

    p = sub.add_parser("ineq62", help="elementary factorial inequality sweep")
    p.add_argument("--p", type=_int_in(2), default=2)
    common(p, n_max_default=20)

    p = sub.add_parser("bang", help="extremal cosine series: derivative bounds at 0")
    p.add_argument("--spec", required=True)
    p.add_argument("--deriv-n-max", type=_COUNT, default=8,
                   help="j range for the F^(2j)(0) lower bounds")
    p.add_argument("--sharpness-n-max", type=_COUNT, default=6)
    p.add_argument("--plot-data", default=None,
                   help="write (xi, F_lo, F_hi) samples to this CSV path")
    p.add_argument("--plot-points", type=_COUNT, default=33)
    p.add_argument("--plot-k", type=_COUNT, default=48,
                   help="series truncation for the plot samples")
    common(p, n_max_default=12)

    p = sub.add_parser("thm61", help="power-substitution bound: coefficient level "
                                     "and assembled final bound")
    p.add_argument("--spec", required=True)
    p.add_argument("--p", type=_int_in(2), default=2)
    p.add_argument("--A", default="1", help="class radius of the hypothesis bound")
    p.add_argument("--assembly-n-max", type=_COUNT, default=10)
    common(p, n_max_default=20)

    p = sub.add_parser("report-all", help="full verification battery on the shipped configs")
    p.add_argument("--spec", action="append", default=[],
                   help="additional sequence spec documents to check (repeatable)")
    common(p, n_max_default=None)
    p.add_argument("--n-max", type=_N_MAX, default=None,
                   help="scale every battery sweep down to at most this depth")

    return parser


# ---------------------------------------------------------------------------
# command handlers (each returns a RunReport)
# ---------------------------------------------------------------------------


def _start(args, *specs: SequenceSpec) -> RunReport:
    """An empty report echoing every flag but --out and --format, keyed by
    the loaded ``specs``."""
    config = {k.replace("_", "-"): v for k, v in vars(args).items() if k not in ("out", "format")}
    return RunReport(config=config, spec_texts=[dump_spec(spec) for spec in specs])


def _timed(run: RunReport, producer, *args,
           guard: tuple[str, str] | None = None) -> bool:
    """Add ``producer(*args)`` to ``run`` with its wall time and return
    True.  With ``guard=(label, name)`` an error inside the producer adds
    one inconclusive spec-rejected check for the sweeps of check ``name`` on
    the spec(s) named ``label`` instead, and returns False; a malformed
    spec stays a usage error, and without a guard the error propagates."""
    t0 = time.perf_counter()
    try:
        report, ran = producer(*args), True
    except CarlemanError as exc:
        if guard is None or isinstance(exc, SpecFormatError):
            raise
        label, name = guard
        work = f"{name} sweeps"
        report, ran = rejection_report(
            "spec-rejected", f"{work} require every swept value to be computable",
            work, label, f"{type(exc).__name__}: {exc}",
        ), False
    run.add(report, ms=(time.perf_counter() - t0) * 1000.0)
    return ran


def cmd_seq_show(args) -> RunReport:
    spec = _load(args.spec, args.precision)
    label = spec.label()
    run = _start(args, spec)
    ws = WeightSequence(spec)
    _timed(run, value_table, f"seq-show[{label}]", "log-space values of M_n, M'_n and m_n",
           (("n_max", str(args.n_max)), ("spec", label)), "M_n (log)", args.n_max,
           ws.log_M, (("mprime", ws.log_Mprime), ("ratio", ws.ratio_m)),
           guard=(label, "seq-show"))
    return run


def cmd_seq_check(args) -> RunReport:
    names = [c.strip() for c in args.checks.split(",") if c.strip()]
    if not names:
        raise UsageError(f"--checks names no check; available: {', '.join(_SEQ_CHECKS)}")
    for name in names:
        if name not in _SEQ_CHECKS:
            raise UsageError(f"unknown check {name!r}; available: {', '.join(_SEQ_CHECKS)}")
    if len(set(names)) != len(names):
        raise UsageError(f"--checks names a check more than once: {args.checks!r}")
    spec = _load(args.spec, args.precision)
    run = _start(args, spec)
    ws = WeightSequence(spec)
    for name in names:
        _timed(run, _SEQ_CHECKS[name], ws, args.n_max, guard=(spec.label(), name))
    return run


def cmd_seq_compare(args) -> RunReport:
    specM = _load(args.spec, args.precision)
    specN = _load(args.other, args.precision)
    run = _start(args, specM, specN)
    _timed(run, check_inclusion, WeightSequence(specM), WeightSequence(specN), args.n_max,
           guard=(f"{specM.label()} vs {specN.label()}", "inclusion"))
    return run


def cmd_seq_transform(args) -> RunReport:
    # the dilated quasianalyticity check reads the base at p (depth + 1)
    p, depth = args.p, max(8, args.n_max)
    if p * (depth + 1) > DEFAULT_MAX_INDEX:
        raise UsageError(f"--p {p} with --n-max {args.n_max} reads index {p * (depth + 1)}, "
                         f"beyond the maximum {DEFAULT_MAX_INDEX}")
    spec = _load(args.spec, args.precision)
    label = spec.label()
    run = _start(args, spec)
    ws = WeightSequence(spec)
    if p >= 2:
        _timed(run, value_table, f"transform-values[{label}, p={p}]",
               "log-space values of the dilated sequence and its primed normalization",
               (("p", str(p)), ("n_max", str(args.n_max)), ("spec", label)),
               "M_(pn) (log)", args.n_max, ws.dilation(p).log_M,
               (("mprime_sub", lambda n: ws.log_Mprime_sub(p, n)),),
               guard=(label, "transform-values"))
    _timed(run, transform_report, ws, p, depth, guard=(label, "transform-quasianalytic"))
    return run


def cmd_ckn(args) -> RunReport:
    run = _start(args)
    _timed(run, verify_ckn_bound, args.k_max, args.n_max)
    _timed(run, verify_ckn_oracle_equivalence, min(6, args.k_max), min(18, args.n_max))
    return run


def cmd_alpha(args) -> RunReport:
    run = _start(args)
    _timed(run, verify_root_series_magnitude_bound, args.p, args.n_max)
    for k in range(1, args.k_max + 1):
        _timed(run, verify_root_series_bounds, args.p, k, args.n_max)
    _timed(run, verify_diagonal_derivatives, args.p, args.k_max, min(args.n_max, 8))
    return run


def cmd_ineq62(args) -> RunReport:
    run = _start(args)
    _timed(run, verify_factorial_inequality_sweep, args.p, args.n_max)
    return run


def _run_bang(run: RunReport, ws: WeightSequence, deriv_n_max: int, n_max: int,
              sharpness_n_max: int) -> BangSeries | None:
    """Add the three extremal-series checks to ``run``, each with its own
    guard, and return the series, or None when one of them was rejected.  A
    family with no all-index log-convexity rule for M' gets one
    bang-rejected check instead, and None."""
    label = ws.spec.label()
    try:
        series = BangSeries(ws)
    except TailUncertifiedError as exc:
        run.add(rejection_report(
            "bang-rejected", "extremal series requires all-index log-convexity of M'",
            "construction", label, str(exc),
        ))
        return None
    checks = (("bang-lower-bounds", series.verify_derivative_lower_bounds, deriv_n_max),
              ("bang-membership", series.verify_membership, n_max),
              ("bang-sharpness", series.sharpness_evidence, sharpness_n_max))
    ran = [_timed(run, producer, depth, guard=(label, name)) for name, producer, depth in checks]
    return series if all(ran) else None


def _write_plot_data(series: BangSeries, path: str, points: int, K: int) -> None:
    lines = ["xi,F_lo,F_hi"]
    for i in range(points):
        xi = Fraction(2 * i, points - 1) - 1 if points > 1 else Fraction(0)
        enc = series.eval_F(xi, K)
        lines.append(f"{xi},{mpf_str(enc.lo)},{mpf_str(enc.hi)}")
    write_once(Path(path), "\n".join(lines) + "\n")


def cmd_bang(args) -> RunReport:
    spec = _load(args.spec, args.precision)
    run = _start(args, spec)
    series = _run_bang(run, WeightSequence(spec), args.deriv_n_max, args.n_max,
                       args.sharpness_n_max)
    if args.plot_data:
        if series is None:
            # a spec one of the checks could not compute has no samples to plot
            print(f"skipped {args.plot_data}: no certified series for {spec.label()}",
                  file=sys.stderr)
        else:
            _write_plot_data(series, args.plot_data, args.plot_points, args.plot_k)
    return run


def cmd_thm61(args) -> RunReport:
    spec = _load(args.spec, args.precision)
    try:
        A = Fraction(args.A)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {args.A!r}") from exc
    if A <= 0:
        raise UsageError("--A must be positive")
    label = spec.label()
    run = _start(args, spec)
    _timed(run, coeff_level_check, WeightSequence(spec), args.p, A, args.n_max,
           guard=(label, "substitution-coefficients"))
    _timed(run, final_bound_assembly, spec, args.p, args.assembly_n_max,
           guard=(label, "substitution-assembly"))
    return run


# ---------------------------------------------------------------------------
# report-all battery
# ---------------------------------------------------------------------------


def run_battery(
    precision: int | None = None,
    n_max: int | None = None,
    extra_specs: list[str] | None = None,
    config: dict | None = None,
) -> RunReport:
    """The full verification battery over the shipped family configs, plus
    criteria sweeps for any user-supplied spec documents."""
    d = lambda default, minimum=1: default if n_max is None else max(minimum, min(default, n_max))

    shipped = [_load(_shipped_spec(name), precision)
               for name in ("constant", "gevrey1", "iterated_log1", "iterated_log2", "paper8")]
    extras = [_load(path, precision) for path in extra_specs or []]
    run = RunReport(config=config or {},
                    spec_texts=[dump_spec(spec) for spec in (*shipped, *extras)])
    built_ins = [WeightSequence(spec) for spec in shipped]
    constant, gevrey1, il1, il2, paper8 = built_ins

    # exact coefficient oracle
    _timed(run, verify_ckn_bound, d(10), d(30))
    _timed(run, verify_ckn_oracle_equivalence, d(5), d(14))
    for p in (2, 3):
        _timed(run, verify_root_series_magnitude_bound, p, d(60))
        _timed(run, verify_root_series_bounds, p, 2, d(40))
        _timed(run, verify_factorial_inequality_sweep, p, d(15))

    # sequence criteria
    _timed(run, check_log_convex, constant, "M", d(40, 2))
    _timed(run, check_log_convex, gevrey1, "Mprime", d(40, 2))
    _timed(run, check_log_convex, il1, "M", d(40, 2))
    _timed(run, check_log_convex, il2, "M", d(40, 2))
    # the double-log family starts below its convexity threshold: measured
    # segments only (non-convexity at small n is expected and reported by
    # seq-check, not asserted here)
    _timed(run, check_log_convex, paper8, "M", d(60, 9), 7)
    _timed(run, check_log_convex, paper8, "Mprime", d(60, 4), 2)
    _timed(run, check_monotone, paper8, d(80))
    for ws in built_ins:
        _timed(run, check_derivation_closed, ws, d(40))

    # quasianalyticity: base families and dilations
    _timed(run, quasianalyticity_report, constant, d(400))
    _timed(run, quasianalyticity_report, gevrey1, d(2000))
    _timed(run, quasianalyticity_report, paper8, d(300))
    _timed(run, transform_report, il1, 2, d(300))
    _timed(run, transform_report, il2, 2, d(300))
    _timed(run, transform_report, il2, 3, d(300))
    _timed(run, transform_report, paper8, 3, d(200))

    # inclusion in the dilated class, plus the strict non-inclusion witness
    for ws in built_ins:
        for p in (2, 3):
            _timed(run, check_inclusion, ws, ws.dilation(p), d(40))
    _timed(run, check_inclusion, gevrey1, constant, d(40))

    # extremal series
    for ws in (constant, gevrey1):
        _run_bang(run, ws, d(8), d(12), d(6))

    # power-substitution bound
    for ws in (gevrey1, paper8):
        for p in (2, 3, 5):
            for A in (Fraction(1), Fraction(3)):
                _timed(run, coeff_level_check, ws, p, A, d(12))
    _timed(run, final_bound_assembly, gevrey1.spec, 2, d(8))

    # user-supplied documents: seq-check's criteria sweeps (negative
    # fixtures land here), clamped to the indices the family defines, each
    # with its own guard
    for spec in extras:
        extra_ws = WeightSequence(spec)
        top = DEFAULT_MAX_INDEX if extra_ws.last_index is None else extra_ws.last_index
        clamp = lambda default, slack=0: max(1, min(d(default), top - slack))
        depths = {"monotone": clamp(20), "log-convex": clamp(20), "quasianalytic": clamp(50, 1)}
        if top < 2:
            del depths["log-convex"]
        for name, depth in depths.items():
            _timed(run, _SEQ_CHECKS[name], extra_ws, depth, guard=(spec.label(), name))
    return run


def cmd_report_all(args) -> RunReport:
    return run_battery(precision=args.precision, n_max=args.n_max,
                       extra_specs=args.spec, config=_start(args).config)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


_HANDLERS = {
    "seq-show": cmd_seq_show,
    "seq-check": cmd_seq_check,
    "seq-compare": cmd_seq_compare,
    "seq-transform": cmd_seq_transform,
    "ckn": cmd_ckn,
    "alpha": cmd_alpha,
    "ineq62": cmd_ineq62,
    "bang": cmd_bang,
    "thm61": cmd_thm61,
    "report-all": cmd_report_all,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help/--version, 2 for usage errors; usage
        # errors are exit code 3 in this tool's contract
        return 0 if exc.code == 0 else 3
    try:
        run = _HANDLERS[args.command](args)
    except (UsageError, SpecFormatError, OSError) as exc:
        # OSError: an output written by the handler itself (--plot-data)
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CarlemanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in run.summary_lines():
        print(line, file=sys.stderr)

    if args.out is None and args.command != "report-all":
        if args.format == "json":
            sys.stdout.write(run.to_json())
        else:
            if len(run.checks) != 1:
                print("error: csv to stdout requires a single-check command; pass --out",
                      file=sys.stderr)
                return 3
            sys.stdout.write(check_to_csv(run.checks[0].report))
    else:
        try:
            written = write_report(run, args.out, args.format)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        for path in written:
            print(f"wrote {path}", file=sys.stderr)
    return run.exit_code()


if __name__ == "__main__":
    sys.exit(main())
