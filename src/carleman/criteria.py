"""Sequence-level criteria: monotonicity, log-convexity, the quasianalyticity
series, derivation closure, and class inclusion.

Two kinds of evidence feed every verdict here:

* interval rows: per-index enclosures compared under the safe discipline
  (a claim X <= Y is confirmed only when upper(X) <= lower(Y));
* encoded symbolic rules: per-family closed-form term asymptotics routed
  through the classical comparison, p-series, and Cauchy condensation
  tests.  Only these rules can confirm a divergence/convergence or
  boundedness claim; numerical summation alone never does, because the
  criteria are limit statements.

The quasianalyticity series is streamed: its terms are made one at a time
and summed in one pass, so the check holds no list that grows with n_max.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction

from .intervals import LogReal, mpf_str, partial_sums
from .outcomes import (
    CheckReport,
    EvidenceRow,
    Outcome,
    Reason,
    Verdict,
    aggregate_rows,
)
from .sequences import FAMILIES, SequenceSpec, WeightSequence


def log_row(index, quantity, value: LogReal, outcome=None, note="", extra=()) -> EvidenceRow:
    """An evidence row whose lo and hi are the log endpoints of ``value``."""
    return EvidenceRow(
        index=index,
        quantity=quantity,
        lo=mpf_str(value.log_lo),
        hi=mpf_str(value.log_hi),
        outcome=outcome,
        note=note,
        extra=extra,
    )


def check_monotone(ws: WeightSequence, n_max: int) -> CheckReport:
    """Per-index check of M_n <= M_{n+1} on [0, n_max)."""
    rows = []
    for n in range(0, n_max):
        outcome = ws.log_M(n).leq(ws.log_M(n + 1))
        rows.append(log_row((n,), "M_n (log)", ws.log_M(n), outcome))
    return aggregate_rows(
        f"monotone[{ws.spec.label()}]",
        "M_n <= M_{n+1} on the tested range",
        rows,
        params=(("n_max", str(n_max)), ("n_min", "0"), ("spec", ws.spec.label())),
        index_columns=("n",),
    )


def convexity_sides(value, n: int) -> tuple[LogReal, LogReal]:
    """X_n^2 and X_(n-1) X_(n+1) for X_j = ``value(j)``."""
    return value(n).pow_int(2), value(n - 1) * value(n + 1)


def check_log_convex(
    ws: WeightSequence, variant: str, n_max: int, n_min: int = 1
) -> CheckReport:
    """Per-index check of X_n^2 <= X_{n-1} X_{n+1} for X = M or M'.

    Equality (exact families) counts as confirmed; overlapping enclosures
    are inconclusive at that index.
    """
    if variant not in ("M", "Mprime"):
        raise ValueError("variant must be 'M' or 'Mprime'")
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    value = ws.log_M if variant == "M" else ws.log_Mprime
    rows = []
    for n in range(max(1, n_min), n_max):
        lhs, rhs = convexity_sides(value, n)
        rows.append(
            log_row(
                (n,),
                f"{variant}_n^2 (log) vs {variant}_(n-1)*{variant}_(n+1)",
                lhs,
                lhs.leq(rhs),
                extra=(("rhs_lo", mpf_str(rhs.log_lo)), ("rhs_hi", mpf_str(rhs.log_hi))),
            )
        )
    return aggregate_rows(
        f"log-convex-{variant}[{ws.spec.label()}]",
        f"{variant} is log-convex on the tested range",
        rows,
        params=(
            ("variant", variant),
            ("n_max", str(n_max)),
            ("n_min", str(n_min)),
            ("spec", ws.spec.label()),
        ),
        index_columns=("n",),
    )


# ---------------------------------------------------------------------------
# quasianalyticity: symbolic rule + partial-sum trend
# ---------------------------------------------------------------------------


def quasianalyticity_rule(spec: SequenceSpec) -> tuple[str, str] | None:
    """Symbolic convergence/divergence of sum M_n / ((n+1) M_{n+1}) for a
    built-in family, else None.

    The term asymptotics are closed-form per family (the ``quasianalytic``
    fact of :data:`~carleman.sequences.FAMILIES`); each claim is settled by
    the harmonic/p-series comparison or Cauchy condensation.
    """
    base, p = spec.base_chain()
    rule = FAMILIES[base.family].quasianalytic
    return None if rule is None else rule(base, p)


def carleman_terms(ws: WeightSequence, n_max: int) -> Iterator[LogReal]:
    """The terms M_n / ((n+1) M_{n+1}) for n = 1..n_max, one at a time.

    The summation starts at n = 1; the constant n = 0 term does not affect
    the criterion.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return _carleman_terms(ws, n_max)


def _carleman_terms(ws: WeightSequence, n_max: int) -> Iterator[LogReal]:
    # each M_(n+1) is carried into the next term, so it is looked up once
    upper = ws.log_M(1)
    for n in range(1, n_max + 1):
        lower, upper = upper, ws.log_M(n + 1)
        yield lower / LogReal.from_int(n + 1, ws.bits) / upper


def quasianalyticity_report(ws: WeightSequence, n_max: int) -> CheckReport:
    """The family's symbolic quasianalyticity verdict, with the partial sums
    S_N of :func:`carleman_terms` at N = 1, n_max/4, n_max/2 and n_max as
    its trend rows, taken in one pass over the terms.  Without a symbolic
    rule the verdict is inconclusive and carries the empirical trend only."""
    sums = partial_sums(
        carleman_terms(ws, n_max), {1, n_max // 4, n_max // 2, n_max} - {0}, ws.bits
    )
    rule = quasianalyticity_rule(ws.spec)
    if rule is None:
        claim = "quasianalyticity undecided (no symbolic rule for this family)"
        note = "no symbolic rule; empirical trend only"
        outcome, reason = Outcome.INCONCLUSIVE, Reason.DEPTH_EXHAUSTED
    else:
        claim = f"sum M_n/((n+1) M_(n+1)) is {rule[0]}"
        note = f"{rule[0]}: {rule[1]}"
        outcome, reason = Outcome.CONFIRMED, Reason.SYMBOLIC_COMPARISON
    trend = tuple(
        log_row((n,), "partial sum S_n (log)", total, note=note)
        for n, total in sums.items()
    )
    return CheckReport(
        name=f"quasianalytic[{ws.spec.label()}]",
        claim=claim,
        verdict=Verdict(outcome, reason, trend),
        params=(("n_max", str(n_max)), ("spec", ws.spec.label())),
        rows=trend,
        index_columns=("n",),
    )


# ---------------------------------------------------------------------------
# derivation closure: sup (M_{n+1}/M_n)^(1/n)
# ---------------------------------------------------------------------------


def derivation_closed_rule(spec: SequenceSpec) -> str | None:
    """Symbolic boundedness of sup_n (M_{n+1}/M_n)^(1/n), else None.

    Reads the ``derivation_closed`` fact of the innermost base family.  For
    every built-in family the single-step ratio grows at most polynomially
    in n, so its n-th root tends to 1 and the sup is finite; index dilation
    raises the ratio to at most a fixed power and preserves boundedness.
    """
    base, _ = spec.base_chain()
    rule = FAMILIES[base.family].derivation_closed
    return None if rule is None else rule(base)


def check_derivation_closed(ws: WeightSequence, n_max: int) -> CheckReport:
    """Report the running sup enclosure of (M_{n+1}/M_n)^(1/n) together with
    the family's symbolic boundedness verdict (trend only for tables)."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    rows = _running_sup_rows(
        lambda n: ws.log_M(n + 1) / ws.log_M(n), n_max, "(M_(n+1)/M_n)^(1/n) (log)"
    )
    rule = derivation_closed_rule(ws.spec)
    if rule is not None:
        verdict = Verdict(Outcome.CONFIRMED, Reason.SYMBOLIC_COMPARISON, (rows[-1],))
        claim = "sup_n (M_(n+1)/M_n)^(1/n) < oo (closed under derivation/division)"
    else:
        verdict = Verdict(Outcome.INCONCLUSIVE, Reason.DEPTH_EXHAUSTED, (rows[-1],))
        claim = "boundedness of sup_n (M_(n+1)/M_n)^(1/n) undecided (trend only)"
    return CheckReport(
        name=f"derivation-closed[{ws.spec.label()}]",
        claim=claim,
        verdict=verdict,
        params=(
            ("n_max", str(n_max)),
            ("spec", ws.spec.label()),
            ("rule", rule or "none"),
        ),
        rows=tuple(rows),
        index_columns=("n",),
    )


# ---------------------------------------------------------------------------
# inclusion: sup (M_n/N_n)^(1/n)
# ---------------------------------------------------------------------------


def _gevrey_index(spec: SequenceSpec) -> Fraction | None:
    """Gevrey exponent of a non-dilated spec; constant counts as s = 0."""
    index = FAMILIES[spec.family].gevrey_index
    return None if index is None else index(spec)


def check_inclusion(wsM: WeightSequence, wsN: WeightSequence, n_max: int) -> CheckReport:
    """Decide the inclusion criterion sup_n (M_n/N_n)^(1/n) < oo.

    Symbolic routes, in order:

    * identical structure: sup = 1;
    * N is an index dilation of M (or a coarser dilation of the same base):
      pointwise M_{an} <= M_{bn} follows from measured monotonicity, so the
      sup enclosure is <= 1;
    * pure gevrey-vs-gevrey (constant = gevrey 0): included when s <= t,
      otherwise the ratio root grows like n^(s-t) by the Stirling lower
      bound n! >= (n/e)^n and the sup is confirmed unbounded.

    Anything else reports the running sup enclosure and stays inconclusive.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    rows = _running_sup_rows(
        lambda n: wsM.log_M(n) / wsN.log_M(n), n_max, "(M_n/N_n)^(1/n) (log)"
    )
    specM, specN = wsM.spec, wsN.spec
    baseM, pM = specM.base_chain()
    baseN, pN = specN.base_chain()

    def report(claim: str, verdict: Verdict | None = None) -> CheckReport:
        """The check with its rows; the verdict defaults to a symbolic confirmation."""
        return CheckReport(
            name=f"inclusion[{specM.label()} vs {specN.label()}]",
            claim=claim,
            verdict=verdict
            or Verdict(Outcome.CONFIRMED, Reason.SYMBOLIC_COMPARISON, (rows[-1],)),
            params=(("n_max", str(n_max)), ("seqM", specM.label()), ("seqN", specN.label())),
            rows=tuple(rows),
            index_columns=("n",),
        )

    if specM.structure_key() == specN.structure_key():
        return report("included: identical sequences (sup = 1)")

    if baseM.structure_key() == baseN.structure_key() and pN % pM == 0 and pN >= pM:
        monotone = check_monotone(wsM, n_max * (pN // pM))
        if monotone.verdict.outcome is Outcome.CONFIRMED:
            return report(
                "included: N is an index dilation of M and M is "
                "non-decreasing on the range (sup <= 1)"
            )
        return report(
            "dilation rule prerequisite (monotonicity) not confirmed",
            Verdict(
                monotone.verdict.outcome
                if monotone.verdict.outcome is Outcome.REFUTED
                else Outcome.INCONCLUSIVE,
                Reason.PRECISION_EXHAUSTED,
                monotone.verdict.evidence,
            ),
        )

    sM = _gevrey_index(specM)
    sN = _gevrey_index(specN)
    if sM is not None and sN is not None:
        if sM <= sN:
            return report(f"included: (n!)^({sM}-{sN}) <= 1 pointwise (sup <= 1)")
        return report(
            f"not included: sup unbounded, ratio root >= (n/e)^({sM - sN}) "
            "by the Stirling lower bound"
        )

    return report(
        "inclusion undecided (no symbolic rule for this pair)",
        Verdict(Outcome.INCONCLUSIVE, Reason.DEPTH_EXHAUSTED, (rows[-1],)),
    )


def _running_sup_rows(ratio, n_max: int, quantity: str) -> list[EvidenceRow]:
    """Rows n = 1..n_max of the enclosure of ratio(n)^(1/n), each carrying
    the running sup of those roots."""
    rows = []
    running: LogReal | None = None
    for n in range(1, n_max + 1):
        root = ratio(n).pow_fraction(Fraction(1, n))
        running = root if running is None else running.max_with(root)
        rows.append(
            log_row(
                (n,),
                quantity,
                root,
                extra=(
                    ("sup_lo", mpf_str(running.log_lo)),
                    ("sup_hi", mpf_str(running.log_hi)),
                ),
            )
        )
    return rows
