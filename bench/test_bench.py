"""Self-checks of the benchmark: span arithmetic, wrapper installation and
a tiny-depth run of every workload.

Run with ``python -m pytest bench`` from the repository root.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_on_synthetic_span_tree():
    # cli [0, 10] -> criteria [1, 6] -> intervals [2, 3] and [4, 5]
    #            -> sequences [7, 9]
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    events = [
        (0, "cli"), (1, "criteria"), (2, "intervals"), (3, None), (4, "intervals"),
        (5, None), (6, None), (7, "sequences"), (9, None), (10, None),
    ]
    for t, layer in events:
        clock.now = float(t)
        if layer is None:
            tracer.exit()
        else:
            tracer.enter(layer)
    assert tracer.open_spans == 0
    assert dict(tracer.self_s) == {
        "cli": 3.0, "criteria": 3.0, "intervals": 2.0, "sequences": 2.0,
    }
    # self times partition the root span
    assert sum(tracer.self_s.values()) == 10.0


def _snapshot(modules):
    snap = {}
    for mod in modules:
        for name, value in vars(mod).items():
            snap[(mod.__name__, name)] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    snap[(mod.__name__, name, attr)] = member
            elif type(value) is dict and not name.startswith("__"):
                for key, item in value.items():
                    snap[(mod.__name__, name, "[]", key)] = item
    return snap


def test_every_wrapper_restores_the_original():
    import carleman.cli  # noqa: F401  (imports every layer)

    modules = [m for n, m in sorted(sys.modules.items())
               if n == "carleman" or n.startswith("carleman.")]
    before = _snapshot(modules)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        from carleman import cli, criteria, intervals, sequences

        during = _snapshot(modules)
        changed = [key for key, value in before.items() if during[key] is not value]
        assert len(changed) > 100
        # module attribute, from-import copy and handler table share one wrapper
        assert cli.check_monotone is criteria.check_monotone
        assert criteria.check_monotone is not before[("carleman.criteria", "check_monotone")]
        assert cli._HANDLERS["seq-check"] is cli.cmd_seq_check
        ws = sequences.WeightSequence(sequences.SequenceSpec(family="constant"))
        report = cli.check_monotone(ws, 3)
        assert report.verdict.outcome.value == "confirmed"
        assert tracer.counts["sequences.log_M_calls"] == 9  # three per index
        assert tracer.self_s["criteria"] > 0
        assert isinstance(intervals.LogReal.one(), intervals.LogReal)
    finally:
        uninstall()
    after = _snapshot(modules)
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []


def test_score_counts_missing_and_extra_checks():
    expect = [("a", "confirmed"), ("b", "refuted")]
    assert run.score(expect, expect) == (2, 0)
    assert run.score([("a", "confirmed")], expect) == (2, 1)
    assert run.score(expect + [("c", "confirmed")], expect) == (3, 1)
    assert run.score([("a", "inconclusive"), ("b", "refuted")], expect) == (2, 1)


def test_tail_percentile_keeps_ten_samples_above():
    assert run.tail_percentile([1.0] * 10) is None
    pct, value = run.tail_percentile([float(v) for v in range(20)])
    assert value == 9.0
    assert sum(v > value for v in range(20)) == 10
    assert pct == pytest.approx(100 * 9 / 19)


def test_seeded_inputs_repeat_and_vary(tmp_path):
    a = workloads.build("sweep", 7, tmp_path / "a")
    b = workloads.build("sweep", 7, tmp_path / "b")
    assert a == b
    assert sorted(p.read_text() for p in (tmp_path / "a").iterdir()) == \
        sorted(p.read_text() for p in (tmp_path / "b").iterdir())
    seeds = {_choices(workloads.build("sweep", s, tmp_path / str(s))) for s in range(8)}
    assert len(seeds) > 1


def _choices(wl):
    return repr(sorted(wl.choices.items()))


@pytest.mark.parametrize("name", sorted(workloads.WHY))
def test_smoke_run_of_each_workload(tmp_path, name):
    wl = workloads.build(name, workloads.DEFAULT_SEED, tmp_path / "inputs", smoke=True)
    runner = run.Runner(ROOT, tmp_path, wl)
    plain = runner.repeat(traced=False)
    traced = runner.repeat(traced=True)
    for rep in (plain, traced):
        assert rep.problems == []
        assert rep.failed == 0
        assert rep.attempted == sum(len(inv.expect) for inv in wl.invocations)
        assert rep.run_s > 0 and all(s > 0 for s in rep.setup_s)
    assert traced.digest == plain.digest
    assert set(traced.self_s) == set(tracing.LAYERS)
    assert all(value > 0 for value in traced.self_s.values())
    assert traced.counts["intervals.precision_switches"] > 0
