"""Memoized Bang head sums against the per-call route they replaced.

The per-call route rebuilt every head term from fresh enclosures: a new
``LogReal.from_int(2)``, an unmemoized M'_k = k! M_k, the product 2 m_k,
its power, and ``sum_values`` plus the tail bound.  The memoized route
(``WeightSequence.log_Mprime``/``ratio_m``, ``BangSeries.two_m`` and
``BangSeries.head_sum``) must reproduce it bit for bit, in any evaluation
order and from several threads at once.
"""

import sys
import threading
from fractions import Fraction

import pytest

from carleman import sequences as seq
from carleman.bang import BangSeries
from carleman.intervals import LogReal, mpf_str, sum_values, working_precision
from carleman.reporting import check_to_csv
from carleman.sequences import SequenceSpec, WeightSequence, log_factorial
from conftest import log_iv

N_MAX = 24

SPECS = {
    "constant": SequenceSpec(family="constant", precision=20),
    "gevrey(1)": SequenceSpec(family="gevrey", s=Fraction(1), precision=20),
    "iterated_log(1)": SequenceSpec(family="iterated_log", k=1, precision=20),
}


def _bits(x: LogReal) -> tuple:
    return x.log_lo, x.log_hi


def _old_mprime(ws: WeightSequence, n: int) -> LogReal:
    m = ws.log_M(n)
    if n <= 1:
        return m
    with working_precision(ws.bits):
        return LogReal.from_mpi((log_iv(log_factorial(n, ws.bits)) + log_iv(m))._mpi_, ws.bits)


def _old_head(ws: WeightSequence, n: int, K: int) -> LogReal:
    """Head of K+1 terms plus the tail, every factor computed afresh."""
    with working_precision(ws.bits):
        head = []
        for k in range(0, K + 1):
            ratio = _old_mprime(ws, k + 1) / _old_mprime(ws, k)
            two_mk = LogReal.from_int(2, ws.bits) * ratio
            head.append(_old_mprime(ws, k) * two_mk.pow_int(n - k))
        tail = _old_mprime(ws, n) * LogReal.from_int(2, ws.bits).pow_int(n - K)
        return sum_values(head, tail_upper=tail)


@pytest.fixture(scope="module", params=sorted(SPECS))
def spec(request):
    return SPECS[request.param]


@pytest.fixture(scope="module")
def old_heads(spec):
    """The per-call route at the default truncation, n = 0..N_MAX."""
    ws = WeightSequence(spec)
    probe = BangSeries(WeightSequence(spec))
    return {
        n: _bits(_old_head(ws, n, probe.default_truncation(n)))
        for n in range(N_MAX + 1)
    }


def test_head_sum_equals_per_call_route(spec, old_heads):
    series = BangSeries(WeightSequence(spec))
    for n in range(N_MAX + 1):
        assert _bits(series.head_sum(n)) == old_heads[n], n
        if n % 2 == 0:
            assert _bits(series.F_deriv_at_zero(n).magnitude) == old_heads[n], n


def test_memoized_factors_equal_fresh_ones(spec):
    series = BangSeries(WeightSequence(spec))
    ws = WeightSequence(spec)
    for k in range(0, 40):
        assert _bits(series.ws.log_Mprime(k)) == _bits(_old_mprime(ws, k))
        with working_precision(ws.bits):
            ratio = _old_mprime(ws, k + 1) / _old_mprime(ws, k)
            two_mk = LogReal.from_int(2, ws.bits) * ratio
        assert _bits(series.ws.ratio_m(k)) == _bits(ratio)
        assert _bits(series.two_m(k)) == _bits(two_mk)


def test_membership_total_equals_F_magnitude(spec):
    # separate instances, so equality is of values and not of one memo entry
    report = BangSeries(WeightSequence(spec)).verify_membership(N_MAX)
    series = BangSeries(WeightSequence(spec))
    for row in report.rows:
        (n,) = row.index
        if n % 2 == 0:
            mag = series.F_deriv_at_zero(n).magnitude
            assert (row.lo, row.hi) == (mpf_str(mag.log_lo), mpf_str(mag.log_hi)), n


def test_evaluation_order_does_not_change_bytes(spec, old_heads):
    down = BangSeries(WeightSequence(spec))
    up = BangSeries(WeightSequence(spec))
    for n in range(N_MAX, -1, -1):
        assert _bits(down.head_sum(n)) == old_heads[n], n
    for n in range(0, N_MAX + 1):
        assert _bits(up.head_sum(n)) == old_heads[n], n
    for build in (
        lambda s: s.verify_derivative_lower_bounds(N_MAX // 2),
        lambda s: s.verify_membership(N_MAX),
        lambda s: s.sharpness_evidence(N_MAX // 2),
    ):
        assert check_to_csv(build(down)) == check_to_csv(build(up))


def test_memo_hit_is_the_same_object():
    series = BangSeries(WeightSequence(SPECS["constant"]))
    first = series.head_sum(6)
    assert series.head_sum(6) is first
    assert series.F_deriv_at_zero(6).magnitude is first
    assert series.two_m(3) is series.two_m(3)
    assert series.ws.log_Mprime(5) is series.ws.log_Mprime(5)


# ---------------------------------------------------------------------------
# concurrent fills
# ---------------------------------------------------------------------------


@pytest.fixture()
def fast_switching():
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


def _cold_pair(spec):
    """A fresh series and a fresh sequence, with the tower cache emptied
    after the series is built so the sequence fill finds it cold."""
    series = BangSeries(WeightSequence(spec))
    seq.tower_threshold.cache_clear()
    return WeightSequence(spec), series


def _fill(ws, series, sync=lambda: None):
    sync()
    mprime = [ws.log_Mprime(k) for k in range(40, -1, -1)]
    ratios = [ws.ratio_m(k) for k in range(40)]
    sync()
    heads = [series.head_sum(n) for n in range(10)]
    two_m = [series.two_m(k) for k in range(40)]
    F = [series.F_deriv_at_zero(2 * j).magnitude for j in range(5)]
    return mprime, ratios, heads, two_m, F


def _values(fill) -> list:
    return [[_bits(x) for x in part] for part in fill]


def test_concurrent_memo_fill_matches_serial(fast_switching):
    spec = SPECS["iterated_log(1)"]
    serial = _values(_fill(*_cold_pair(spec)))
    workers = 2
    for _ in range(5):
        ws, series = _cold_pair(spec)
        barrier = threading.Barrier(workers, timeout=60)
        results = []

        def worker():
            try:
                results.append(_fill(ws, series, barrier.wait))
            except Exception as exc:
                results.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert [_values(r) for r in results] == [serial] * workers
        # every thread got the memo's own entries
        for mprime, ratios, heads, two_m, _ in results:
            assert all(x is ws.log_Mprime(k) for k, x in zip(range(40, -1, -1), mprime))
            assert all(x is series.head_sum(n) for n, x in enumerate(heads))
            assert all(x is series.two_m(k) for k, x in enumerate(two_m))


def test_default_precision_spot_check(gevrey1_spec):
    series = BangSeries(WeightSequence(gevrey1_spec))
    ws = WeightSequence(gevrey1_spec)
    for n in (0, 1, 8):
        K = series.default_truncation(n)
        assert _bits(series.head_sum(n)) == _bits(_old_head(ws, n, K)), n
