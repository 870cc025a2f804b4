"""Bang head sums: the linear sweep against its per-call twin, against the
log-domain route it replaced, and against the halving truncation before
that.

The per-call route computes one order at a time, with every factor made
afresh (a new ``LogReal.from_int(2)``, an unmemoized M'_k = k! M_k, the
product 2 m_k, their exps) and the general ``libmpi`` product and sum in
place of the positive kernels.  It walks each term t_k(n) from its anchor
M'_k by the same chain of factors W_k = 2 m_k or 1/W_k and stops by the
same rule, so the memoized sweep (``BangSeries.head_sum``) must reproduce it
bit for bit, in any evaluation order and from several threads at once.

The log-domain twin is the route the package used before the sweep: each
term t_k(n) = M'_k (2 m_k)^(n-k) as a ``LogReal`` (``deriv_term``), summed
by exp / log round trips (:func:`conftest.sum_values`), with the same stop
rule decided on log enclosures.  Every head sum must overlap it and be no
wider than :data:`WIDTH_FACTOR` times it, and the ratio tail of every order
must cover the next terms past its head.  The halving twin is the
truncation before that: a head of K = max(2n + 8, n + bits + 2) terms and
the tail M'_n 2^(n-K); every head sum must still overlap it.

Three mutations of ``bang.py``, run from its own source, must each break
one of these checks, and a count of kernel products keeps the sweep from
growing back.
"""

import sys
import threading
import types
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath.libmp import (
    fzero,
    mpf_exp,
    mpf_le,
    mpf_neg,
    mpf_shift,
    mpi_add,
    mpi_exp,
    mpi_log,
    mpi_mul,
    round_ceiling,
)

from carleman import bang
from carleman import sequences as seq
from carleman.bang import BangSeries
from carleman.intervals import LogReal, mpf_str, working_precision
from carleman.outcomes import Outcome
from carleman.reporting import check_to_csv
from carleman.sequences import SequenceSpec, WeightSequence, log_factorial
from conftest import as_mpf, log_iv, mpf_to_fraction, sum_values

N_MAX = 24

SPECS = {
    "constant": SequenceSpec(family="constant", precision=20),
    "gevrey(1)": SequenceSpec(family="gevrey", s=Fraction(1), precision=20),
    "iterated_log(1)": SequenceSpec(family="iterated_log", k=1, precision=20),
}

#: the families of the twin comparisons, each at 20 and at 80 digits
TWIN_FAMILIES = {
    "constant": dict(family="constant"),
    "gevrey(1/2)": dict(family="gevrey", s=Fraction(1, 2)),
    "gevrey(1)": dict(family="gevrey", s=Fraction(1)),
    "gevrey(2)": dict(family="gevrey", s=Fraction(2)),
    "iterated_log(1)": dict(family="iterated_log", k=1),
    "iterated_log(2)": dict(family="iterated_log", k=2),
}

#: a head sum's log width is at most this multiple of the log-domain
#: twin's (the widest at 20 and 80 digits, n <= 40, is 1.22 times it)
WIDTH_FACTOR = Fraction(5, 4)

#: how many terms past the head the tail bound must cover
REST_TERMS = 12


def _bits(x: LogReal) -> tuple:
    return x.log_lo, x.log_hi


# ---------------------------------------------------------------------------
# the per-call route (bit for bit), the log-domain twin and the halving twin
# ---------------------------------------------------------------------------


def _old_mprime(ws: WeightSequence, n: int) -> LogReal:
    m = ws.log_M(n)
    if n <= 1:
        return m
    with working_precision(ws.bits):
        return LogReal.from_mpi((log_iv(log_factorial(n, ws.bits)) + log_iv(m))._mpi_, ws.bits)


def _fresh_anchor(ws: WeightSequence, k: int) -> tuple:
    """Linear M'_k, W_k and 1/W_k from fresh log enclosures."""
    bits = ws.bits
    two_mk = LogReal.from_int(2, bits) * (_old_mprime(ws, k + 1) / _old_mprime(ws, k))
    return (mpi_exp(_bits(_old_mprime(ws, k)), bits),
            mpi_exp(_bits(two_mk), bits),
            mpi_exp((mpf_neg(two_mk.log_hi), mpf_neg(two_mk.log_lo)), bits))


def _per_call_head(ws: WeightSequence, n: int) -> LogReal:
    """Head and ratio tail of order n alone: every k <= n enters, and past
    n the head stops at the first K with t_(K+1) certainly at most
    2^(-bits-1) M'_n, or past max(2n + 8, n + bits + 2)."""
    bits = ws.bits
    floor = mpf_shift(_fresh_anchor(ws, n)[0][0], -bits - 1)
    cap = max(2 * n + 8, n + bits + 2)
    acc, k = (fzero, fzero), 0
    while True:
        term, up, down = _fresh_anchor(ws, k)
        for _ in range(abs(n - k)):
            term = mpi_mul(term, up if n > k else down, bits)
        if k > n and (k > cap or mpf_le(term[1], floor)):
            total = mpi_add(acc, (fzero, mpf_shift(term[1], 1)), bits)
            return LogReal.from_mpi(mpi_log(total, bits), bits)
        acc = mpi_add(acc, term, bits)
        k += 1


def _log_head(series: BangSeries, n: int) -> LogReal:
    """The log-domain route: terms ``deriv_term(k, n)``, the stop test
    2 term_(K+1) <= 2^(-bits) M'_n on log enclosures, the tail
    2 term_(K+1), all summed by exp / log round trips."""
    two = LogReal.from_int(2, series.bits)
    floor = series.ws.log_Mprime(n) * two.pow_int(-series.bits)
    cap = max(2 * n + 8, n + series.bits + 2)
    head = [series.deriv_term(k, n) for k in range(n + 1)]
    while True:
        term = series.deriv_term(len(head), n)
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


def _overlap(x: LogReal, y: LogReal) -> bool:
    return Outcome.REFUTED not in (x.leq(y), y.leq(x))


def _faults(series: BangSeries, n_max: int) -> list[tuple[str, int]]:
    """(kind, n) for each head sum n <= n_max that misses the log-domain
    twin ("overlap") or the halving twin ("halving"), is wider than
    WIDTH_FACTOR times the log-domain twin ("width"), or whose ratio tail is
    below the next REST_TERMS terms past its head ("tail")."""
    faults = []
    sweep = series._sweep(list(range(n_max + 1)))
    for n in range(n_max + 1):
        total, twin = series.head_sum(n), _log_head(series, n)
        if not _overlap(total, twin):
            faults.append(("overlap", n))
        if not _overlap(total, _halving_head(series, n)):
            faults.append(("halving", n))
        if _width(total) > WIDTH_FACTOR * _width(twin):
            faults.append(("width", n))
        _, tail_hi, stop = sweep[n]
        rest = sum_values([series.deriv_term(k, n) for k in range(stop, stop + REST_TERMS)])
        if not mpf_le(mpf_exp(rest.log_hi, series.bits, round_ceiling), tail_hi):
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
    # and the log-domain twin, within its width, with a covering tail
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
    mutant = _mutant("mpf_shift(term[1], 1), k)", "term[1], k)")
    series = mutant(WeightSequence(SequenceSpec(family="constant", precision=20)))
    assert {kind for kind, _ in _faults(series, 8)} == {"tail"}


def test_a_ratio_bound_started_below_n_is_caught():
    # the stop test also runs for 1 <= k <= n: for gevrey(2) the terms
    # below n are so small that the head stops before the dominant term
    mutant = _mutant("if n < k and (", "if 0 < k and (")
    spec = SequenceSpec(family="gevrey", s=Fraction(2), precision=20)
    assert "overlap" in {kind for kind, _ in _faults(mutant(WeightSequence(spec)), 40)}


def test_a_downward_step_by_w_is_caught():
    # t_k(n) for k > n walked down with W_k instead of 1/W_k
    mutant = _mutant("(down, range(k - 1,", "(up, range(k - 1,")
    series = mutant(WeightSequence(SequenceSpec(family="constant", precision=20)))
    assert "overlap" in {kind for kind, _ in _faults(series, 8)}


# ---------------------------------------------------------------------------
# the number of kernel products
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family, digits, products", [
    ("constant", 20, 3175),
    ("constant", 80, 14945),
    ("gevrey(3/2)", 20, 1910),
    ("gevrey(3/2)", 80, 6842),
], ids=["constant-20", "constant-80", "gevrey(3/2)-20", "gevrey(3/2)-80"])
def test_kernel_product_count(family, digits, products, monkeypatch):
    # one sweep over the orders <= 24; the log-domain route made one
    # log-domain power and product per term and was held to at most 260
    # terms for constant at 20 digits and 615 at 80, for the orders 2, 8,
    # 16 and 24 alone
    params = {"constant": dict(family="constant"),
              "gevrey(3/2)": dict(family="gevrey", s=Fraction(3, 2))}[family]
    calls = []
    pos_mul = bang.pos_mul

    def counted(s, t, bits):
        calls.append(bits)
        return pos_mul(s, t, bits)

    monkeypatch.setattr(bang, "pos_mul", counted)
    BangSeries(WeightSequence(SequenceSpec(precision=digits, **params))).head_sum(24)
    assert len(calls) == products


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
        # the anchor memo holds W_k itself, then its three linear enclosures
        assert series._anchor(k) == (series.two_m(k), *_fresh_anchor(ws, k))


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


@pytest.mark.parametrize("n", [0, 3, 8, 12])
def test_a_head_sum_is_the_same_alone_and_after_a_deeper_sweep(spec, n):
    alone = BangSeries(WeightSequence(spec)).head_sum(n)
    swept = BangSeries(WeightSequence(spec))
    swept.head_sum(2 * n + 1)
    assert _bits(swept.head_sum(n)) == _bits(alone)


def test_memo_hit_is_the_same_object():
    series = BangSeries(WeightSequence(SPECS["constant"]))
    first = series.head_sum(6)
    assert series.head_sum(6) is first
    assert series.F_deriv_at_zero(6).magnitude is first
    assert series.head_sum(3) is series.head_sum(3)
    assert series.two_m(3) is series.two_m(3)
    assert series._anchor(3) is series._anchor(3)
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
