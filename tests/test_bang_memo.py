"""Bang head sums: the memoized route against its per-call twin, and the
ratio-tail truncation against the halving truncation it replaced.

The per-call route rebuilds every head term from fresh enclosures (a new
``LogReal.from_int(2)``, an unmemoized M'_k = k! M_k, the product 2 m_k and
its power) and stops by the same rule as ``BangSeries.truncated_head``.
The memoized route (``WeightSequence.log_Mprime``/``ratio_m``,
``BangSeries.two_m`` and ``BangSeries.head_sum``) must reproduce it bit for
bit, in any evaluation order and from several threads at once.

The halving twin is the truncation the package used before: a head of
K = max(2n + 8, n + bits + 2) terms and the tail M'_n 2^(n-K), which
assumes only that each term past n halves.  Every head sum must overlap the
twin's enclosure and be no wider than :data:`WIDTH_FACTOR` times it, and the
tail bound must cover the next terms past the head.  Two mutations of
``bang.py``, run from its own source, must each break one of these checks,
and a count of head terms keeps the truncation from growing back.
"""

import sys
import threading
import types
from fractions import Fraction
from pathlib import Path

import pytest

from carleman import bang
from carleman import sequences as seq
from carleman.bang import BangSeries
from carleman.intervals import LogReal, mpf_str, sum_values, working_precision
from carleman.outcomes import Outcome
from carleman.reporting import check_to_csv
from carleman.sequences import SequenceSpec, WeightSequence, log_factorial
from conftest import as_mpf, log_iv, mpf_to_fraction

N_MAX = 24

SPECS = {
    "constant": SequenceSpec(family="constant", precision=20),
    "gevrey(1)": SequenceSpec(family="gevrey", s=Fraction(1), precision=20),
    "iterated_log(1)": SequenceSpec(family="iterated_log", k=1, precision=20),
}

#: the families of the twin comparison, each at 20 and at 80 digits
TWIN_FAMILIES = {
    "constant": dict(family="constant"),
    "gevrey(1/2)": dict(family="gevrey", s=Fraction(1, 2)),
    "gevrey(1)": dict(family="gevrey", s=Fraction(1)),
    "gevrey(2)": dict(family="gevrey", s=Fraction(2)),
    "iterated_log(1)": dict(family="iterated_log", k=1),
    "iterated_log(2)": dict(family="iterated_log", k=2),
}

#: a head sum's log width is at most this multiple of the halving twin's (the
#: widest at 20 and 80 digits, n <= 40, is exactly the twin's width)
WIDTH_FACTOR = 1

#: how many terms past the head the tail bound must cover
REST_TERMS = 12


def _bits(x: LogReal) -> tuple:
    return x.log_lo, x.log_hi


# ---------------------------------------------------------------------------
# the per-call route (bit for bit) and the halving twin (overlap)
# ---------------------------------------------------------------------------


def _old_mprime(ws: WeightSequence, n: int) -> LogReal:
    m = ws.log_M(n)
    if n <= 1:
        return m
    with working_precision(ws.bits):
        return LogReal.from_mpi((log_iv(log_factorial(n, ws.bits)) + log_iv(m))._mpi_, ws.bits)


def _fresh_term(ws: WeightSequence, k: int, n: int) -> LogReal:
    ratio = _old_mprime(ws, k + 1) / _old_mprime(ws, k)
    two_mk = LogReal.from_int(2, ws.bits) * ratio
    return _old_mprime(ws, k) * two_mk.pow_int(n - k)


def _per_call_head(ws: WeightSequence, n: int) -> LogReal:
    """Head and ratio tail with every factor computed afresh: the head
    stops at the first K >= n with 2 term_(K+1) certainly below 2^(-bits)
    M'_n, or at the halving twin's K."""
    two = LogReal.from_int(2, ws.bits)
    floor = _old_mprime(ws, n) * two.pow_int(-ws.bits)
    cap = max(2 * n + 8, n + ws.bits + 2)
    head = [_fresh_term(ws, k, n) for k in range(n + 1)]
    while True:
        term = _fresh_term(ws, len(head), n)
        tail = two * term
        if len(head) > cap or tail.leq(floor) is Outcome.CONFIRMED:
            return sum_values(head, tail_upper=tail)
        head.append(term)


def _halving_head(series: BangSeries, n: int) -> LogReal:
    """The truncation before the ratio tail: K = max(2n + 8, n + bits + 2)
    and the tail M'_n 2^(n-K)."""
    K = max(2 * n + 8, n + series.bits + 2)
    terms = [series.deriv_term(k, n) for k in range(K + 1)]
    tail = series.ws.log_Mprime(n) * LogReal.from_int(2, series.bits).pow_int(n - K)
    return sum_values(terms, tail_upper=tail)


def _width(x: LogReal) -> Fraction:
    return mpf_to_fraction(as_mpf(x.log_hi)) - mpf_to_fraction(as_mpf(x.log_lo))


def _faults(series: BangSeries, n_max: int) -> list[tuple[str, int]]:
    """(kind, n) for each head sum n <= n_max that misses the halving twin
    ("overlap"), is wider than WIDTH_FACTOR times it ("width"), or whose
    tail bound is below the next REST_TERMS terms past its head ("tail")."""
    faults = []
    for n in range(n_max + 1):
        total, twin = series.head_sum(n), _halving_head(series, n)
        if total.leq(twin) is Outcome.REFUTED or twin.leq(total) is Outcome.REFUTED:
            faults.append(("overlap", n))
        if _width(total) > WIDTH_FACTOR * _width(twin):
            faults.append(("width", n))
        head, tail = series.truncated_head(n)
        rest = sum_values([series.deriv_term(k, n)
                           for k in range(len(head), len(head) + REST_TERMS)])
        if rest.leq(tail) is not Outcome.CONFIRMED:
            faults.append(("tail", n))
    return faults


@pytest.fixture(scope="module", params=sorted(SPECS))
def spec(request):
    return SPECS[request.param]


@pytest.fixture(scope="module")
def per_call_heads(spec):
    """The per-call route, n = 0..N_MAX."""
    ws = WeightSequence(spec)
    return {n: _bits(_per_call_head(ws, n)) for n in range(N_MAX + 1)}


def test_head_sum_equals_per_call_route(spec, per_call_heads):
    series = BangSeries(WeightSequence(spec))
    for n in range(N_MAX + 1):
        assert _bits(series.head_sum(n)) == per_call_heads[n], n
        if n % 2 == 0:
            assert _bits(series.F_deriv_at_zero(n).magnitude) == per_call_heads[n], n


@pytest.mark.parametrize("digits", [20, 80])
@pytest.mark.parametrize("family", sorted(TWIN_FAMILIES))
def test_head_sums_overlap_the_halving_twin(family, digits):
    spec = SequenceSpec(precision=digits, **TWIN_FAMILIES[family])
    assert _faults(BangSeries(WeightSequence(spec)), 40) == []


# ---------------------------------------------------------------------------
# mutations of bang.py, run from its own source
# ---------------------------------------------------------------------------


def _mutant(old: str, new: str) -> type:
    """``BangSeries`` of ``bang.py`` with its one line ``old`` replaced."""
    path = Path(bang.__file__)
    source = path.read_text(encoding="utf-8")
    assert source.count(old) == 1, old
    module = types.ModuleType("carleman._bang_mutant")
    module.__package__ = "carleman"
    exec(compile(source.replace(old, new), str(path), "exec"), module.__dict__)
    return module.BangSeries


def test_a_tail_without_its_factor_two_is_caught():
    mutant = _mutant("tail = self._two * term", "tail = term")
    series = mutant(WeightSequence(SequenceSpec(family="constant", precision=20)))
    assert {kind for kind, _ in _faults(series, 8)} == {"tail"}


def test_a_ratio_bound_started_below_n_is_caught():
    # the walk for K starts at 0: for gevrey(2) the terms below n are so
    # small that the head stops before the dominant term k = n
    mutant = _mutant("for k in range(n + 1)]", "for k in range(1)]")
    spec = SequenceSpec(family="gevrey", s=Fraction(2), precision=20)
    assert "overlap" in {kind for kind, _ in _faults(mutant(WeightSequence(spec)), 40)}


# ---------------------------------------------------------------------------
# the number of head terms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family, digits, limit", [
    ("constant", 20, 260),
    ("constant", 80, 615),
    ("gevrey(3/2)", 20, 190),
    ("gevrey(3/2)", 80, 390),
])
def test_head_term_count(family, digits, limit, monkeypatch):
    # the halving truncation took 446 terms at 20 digits and 1,242 at 80
    params = {"constant": dict(family="constant"),
              "gevrey(3/2)": dict(family="gevrey", s=Fraction(3, 2))}[family]
    calls = []
    deriv_term = BangSeries.deriv_term

    def counted(self, k, n):
        calls.append((k, n))
        return deriv_term(self, k, n)

    monkeypatch.setattr(BangSeries, "deriv_term", counted)
    series = BangSeries(WeightSequence(SequenceSpec(precision=digits, **params)))
    for n in (2, 8, 16, 24):
        series.head_sum(n)
    assert len(calls) <= limit


# ---------------------------------------------------------------------------
# the memo
# ---------------------------------------------------------------------------


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


def test_evaluation_order_does_not_change_bytes(spec, per_call_heads):
    down = BangSeries(WeightSequence(spec))
    up = BangSeries(WeightSequence(spec))
    for n in range(N_MAX, -1, -1):
        assert _bits(down.head_sum(n)) == per_call_heads[n], n
    for n in range(0, N_MAX + 1):
        assert _bits(up.head_sum(n)) == per_call_heads[n], n
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
        assert _bits(series.head_sum(n)) == _bits(_per_call_head(ws, n)), n
