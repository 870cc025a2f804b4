"""Cold-process benchmark of the carleman CLI.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload battery --seed 1 --seconds 30 --trace 0

A run repeats the workload until ``--seconds`` have passed (at least
:data:`MIN_REPEATS` times).  A repeat runs each of the workload's CLI
invocations as a fresh single-threaded child process, one at a time: a
closed loop with one client, so every repeat pays the cold module caches a
CLI user pays.  Reports go to a new ``--out`` directory per invocation under
``.bench_work/``, which the run deletes when it ends.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced repeats and reports the per-layer metrics
plus the tracing overhead.  Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from tracing import LAYERS

HERE = Path(__file__).resolve().parent
MIN_REPEATS = 3
#: a child that runs longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 150

NOT_MEASURED = (
    "Tier-1 suite wall time (about 120 s, too long per repeat)",
    "multi-threaded contention on the precision RLock",
    "the gmpy2 mpmath backend",
    "disk durability of the reports",
)

#: per-layer metrics: name -> unit
LAYER_METRICS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "intervals.logreal_ops": "count",
    "intervals.logreal_builds": "count",
    "intervals.sum_terms": "count",
    "intervals.precision_switches": "count",
    "intervals.mpf_str_calls": "count",
    "intervals.mpf_str_s": "s",
    "sequences.log_M_calls": "count",
    "sequences.log_M_hit_ratio": "ratio",
    "sequences.log_factorial_exact_calls": "count",
    "sequences.log_factorial_gamma_calls": "count",
    "coefficients.series_products": "count",
    "coefficients.pow_tables_built": "count",
    "coefficients.root_series_builds": "count",
    "coefficients.dec_str_calls": "count",
    "bang.F_deriv_calls": "count",
    "bang.head_terms": "count",
    "reporting.bytes": "bytes",
}
#: printed, but left out of the result line: it is exactly 0 s on the
#: workloads that render no exact rationals (extremal, sweep)
PRINTED_ONLY = {"coefficients.dec_str_s": "s"}


@dataclass
class Repeat:
    """One pass over a workload's invocations."""

    traced: bool
    wall_s: float = 0.0
    run_s: float = 0.0
    setup_s: list[float] = field(default_factory=list)
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    self_s: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    timers: dict[str, float] = field(default_factory=dict)


class Runner:
    """Runs one workload's repeats inside a scratch directory."""

    def __init__(self, root: Path, work: Path, workload: workloads.Workload):
        self.root = root
        self.work = work
        self.workload = workload
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.repeats_started = 0

    def warm_up(self) -> None:
        """Compile the package's bytecode once, outside any measurement."""
        code = (f"import sys; sys.path.insert(0, {str(self.root / 'src')!r}); "
                "import carleman.cli")
        subprocess.run([sys.executable, "-c", code], cwd=self.work, env=self.env,
                       check=True, timeout=CHILD_TIMEOUT_S)

    def repeat(self, traced: bool) -> Repeat:
        k = self.repeats_started
        self.repeats_started += 1
        rep = Repeat(traced=traced)
        digest = hashlib.sha256()
        t0 = time.monotonic()
        for i, inv in enumerate(self.workload.invocations):
            self._invoke(rep, inv, f"r{k}-{i}", traced, digest)
        rep.wall_s = time.monotonic() - t0
        rep.digest = digest.hexdigest()
        return rep

    def _invoke(self, rep: Repeat, inv: workloads.Invocation, tag: str,
                traced: bool, digest) -> None:
        out_dir = self.work / f"out-{tag}"
        result_path = self.work / f"result-{tag}.json"
        log_path = self.work / f"log-{tag}.txt"
        cmd = [sys.executable, str(HERE / "child.py"), result_path.name, None,
               "1" if traced else "0", "--", *inv.args, "--out", out_dir.name]
        with open(log_path, "wb") as log:
            cmd[3] = repr(time.monotonic())
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=log, stderr=log)
            status, rusage = _wait(proc)
        rep.rss_mb = max(rep.rss_mb, rusage.ru_maxrss / 1024.0)
        if status != 0 or not result_path.exists():
            tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            rep.problems.append(f"{' '.join(inv.args)}: child exited {status}\n{tail}")
            rep.attempted += len(inv.expect)
            rep.failed += len(inv.expect)
            return
        result = json.loads(result_path.read_text(encoding="utf-8"))
        rep.run_s += result["run_s"]
        rep.setup_s.append(result["setup_s"])
        if result["exit_code"] != inv.exit_code:
            rep.problems.append(f"{' '.join(inv.args)}: exit code {result['exit_code']}, "
                                f"expected {inv.exit_code}")
        reports = sorted(out_dir.glob("report-*.json"))
        if len(reports) != 1:
            rep.problems.append(f"{' '.join(inv.args)}: {len(reports)} report files")
            rep.attempted += len(inv.expect)
            rep.failed += len(inv.expect)
            return
        data = reports[0].read_bytes()
        digest.update(len(data).to_bytes(8, "big") + data)
        got = [(c["name"], c["verdict"]["outcome"]) for c in json.loads(data)["checks"]]
        attempted, failed = score(got, list(inv.expect))
        rep.attempted += attempted
        rep.failed += failed
        if failed:
            rep.problems.append(f"{' '.join(inv.args)}: {failed} of {attempted} checks "
                                f"differ from the pinned verdicts: {got}")
        if traced:
            trace = result["trace"]
            for layer, value in trace["self_s"].items():
                rep.self_s[layer] = rep.self_s.get(layer, 0.0) + value
            for name, value in trace["counts"].items():
                rep.counts[name] = rep.counts.get(name, 0) + value
            for name, value in trace["timers"].items():
                rep.timers[name] = rep.timers.get(name, 0.0) + value
        shutil.rmtree(out_dir)
        result_path.unlink()
        log_path.unlink()


def _wait(proc: subprocess.Popen):
    """Wait for the child and return (exit status, its own rusage); a child
    past :data:`CHILD_TIMEOUT_S` is killed."""
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        while True:
            pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, rusage
            if time.monotonic() > deadline:
                proc.kill()
            time.sleep(0.005)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()


def score(got: list, expect: list) -> tuple[int, int]:
    """(checks attempted, checks whose name or verdict differs from the
    pinned expectation); a missing or extra check counts as failed."""
    attempted = max(len(got), len(expect))
    matched = sum(1 for g, e in zip(got, expect) if g == e)
    return attempted, attempted - matched


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile that still has at least ten samples above it, as
    (percentile, value); None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    k = n - 11
    return 100.0 * k / (n - 1), sorted(values)[k]


def describe(name: str, values: list[float], unit: str) -> str:
    line = (f"{name:<12} median={statistics.median(values):.4f} {unit}  "
            f"min={min(values):.4f} max={max(values):.4f}")
    tail = tail_percentile(values)
    if tail is None:
        line += "  tail: n/a (needs >= 11 samples)"
    else:
        line += f"  p{tail[0]:.0f}={tail[1]:.4f} {unit}"
    return line + f"  (n={len(values)})"


def run_schedule(runner: Runner, seconds: float, traced: bool) -> list[Repeat]:
    """Untraced: repeat until the time is up.  Traced: one untraced and two
    traced repeats first, then alternate."""
    start = time.monotonic()
    plan = [False, True, True] if traced else [False] * MIN_REPEATS
    repeats: list[Repeat] = []
    while True:
        if len(repeats) < len(plan):
            kind = plan[len(repeats)]
        else:
            walls = [r.wall_s for r in repeats]
            if time.monotonic() - start + statistics.median(walls) > seconds:
                break
            kind = traced and not repeats[-1].traced
        repeats.append(runner.repeat(kind))
    return repeats


def environment(root: Path) -> str:
    import mpmath
    import mpmath.libmp

    src = hashlib.sha256()
    for path in sorted((root / "src" / "carleman").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return (f"# env python={platform.python_version()} mpmath={mpmath.__version__} "
            f"backend={mpmath.libmp.BACKEND} nproc={os.cpu_count()} "
            f"commit={_commit(root)} src_sha256={src.hexdigest()[:16]}")


def _commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = root / ".git" / ref[5:]
        if ref_file.is_file():
            return ref_file.read_text().strip()[:12]
        return "unknown (packed ref)"
    return ref[:12]


def summarize(wl: workloads.Workload, repeats: list[Repeat],
              traced: bool) -> tuple[list[str], dict, list[str]]:
    lines = []
    plain = [r for r in repeats if not r.traced]
    attempted = sum(r.attempted for r in repeats)
    failed = sum(r.failed for r in repeats)
    problems = [p for r in repeats for p in r.problems]
    digests = {r.digest for r in repeats}
    correct = failed == 0 and not problems and len(digests) == 1

    run_s = [r.run_s for r in plain]
    setup_s = [s for r in plain for s in r.setup_s]
    rss = [r.rss_mb for r in plain]
    lines.append(describe("run_s", run_s, "s"))
    lines.append(describe("setup_s", setup_s, "s"))
    lines.append(describe("peak_rss_mb", rss, "MiB"))
    lines.append(f"failed_share {failed / max(attempted, 1):.4f} ratio "
                 f"({failed} of {attempted} checks)")
    digest = repeats[0].digest
    pinned = workloads.PINNED_DIGESTS.get(wl.name)
    if wl.seed != workloads.DEFAULT_SEED or pinned is None:
        flag = f"n/a (pinned for seed {workloads.DEFAULT_SEED} only)"
    else:
        flag = "match" if digest == pinned else f"MISMATCH (pinned {pinned[:16]})"
    lines.append(f"digest sha256={digest} same_in_all_repeats={len(digests) == 1} "
                 f"pinned={flag}")

    if not traced:
        metrics = {
            "run_s": {"value": statistics.median(run_s), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MiB"},
        }
        return lines, _result(correct, attempted, failed, metrics), problems

    traced_reps = [r for r in repeats if r.traced]
    counts_repeat = all(r.counts == traced_reps[0].counts for r in traced_reps)
    if not counts_repeat:
        correct = False
        problems.append("per-layer counts differ between traced repeats")
    counts = traced_reps[0].counts
    overhead = statistics.median(r.run_s for r in traced_reps) - statistics.median(run_s)
    lines.append(f"traced digest equals untraced: {len(digests) == 1}; "
                 f"counts repeat exactly: {counts_repeat}")
    lines.append(f"tracing overhead: traced run_s - untraced run_s = {overhead:.4f} s "
                 f"({100 * overhead / statistics.median(run_s):.1f} % of untraced)")
    values = {
        f"{layer}.self_s": statistics.median(r.self_s.get(layer, 0.0) for r in traced_reps)
        for layer in LAYERS
    }
    for name in ("intervals.mpf_str_s", "coefficients.dec_str_s"):
        values[name] = statistics.median(r.timers.get(name, 0.0) for r in traced_reps)
    log_m = counts.get("sequences.log_M_calls", 0)
    values["sequences.log_M_hit_ratio"] = (
        1.0 - counts.get("sequences.compute_log_M_calls", 0) / log_m if log_m else 0.0
    )
    metrics = {}
    for name, unit in {**LAYER_METRICS, **PRINTED_ONLY}.items():
        value = values[name] if name in values else counts.get(name, 0)
        lines.append(f"  {name:<40} {value:.6g} {unit}")
        if name in LAYER_METRICS:
            metrics[name] = {"value": value, "unit": unit}
    return lines, _result(correct, attempted, failed, metrics), problems


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "carleman" / "__init__.py").is_file():
        print(f"error: no carleman source under {root / 'src'}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = workloads.build(args.workload, args.seed, work / "inputs")
        runner = Runner(root, work, wl)
        runner.warm_up()
        repeats = run_schedule(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    print(environment(root))
    print("# not measured: " + "; ".join(NOT_MEASURED))
    print(f"# workload={wl.name} seed={wl.seed} choices={json.dumps(wl.choices)} "
          f"invocations={len(wl.invocations)} repeats={len(repeats)} "
          f"traced={sum(r.traced for r in repeats)} loop=closed clients=1")
    print(f"# why: {workloads.WHY[wl.name]}")
    lines, result, problems = summarize(wl, repeats, bool(args.trace))
    for line in lines:
        print(line)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
