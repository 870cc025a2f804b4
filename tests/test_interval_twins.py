"""The explicit-precision interval primitives against the reference route.

Each primitive of :mod:`carleman.intervals` (and the three sequence helpers
that round) must give exactly the endpoints of the ``mpmath.iv`` route the
package used before values carried their precision, kept in
``tests/conftest.py`` as ``ref_*``.  The two positive kernels must give
exactly the endpoints of the general ``libmpi`` product and sum.  Two more properties follow from
values carrying their precision: the ambient mpmath precision changes no
result, and concurrent callers at different precisions agree with a
serial run.
"""

import sys
import threading
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import iv, mp
from mpmath.libmp import (
    from_int,
    from_man_exp,
    mpf_le,
    mpf_sign,
    mpi_add,
    mpi_exp,
    mpi_mul,
)

from carleman import sequences
from carleman.bang import BangSeries
from carleman.criteria import check_log_convex
from carleman.errors import PrecisionExhaustedError
from carleman.intervals import LogReal, bits_for_digits, pos_add, pos_mul
from carleman.memo import Memo
from carleman.sequences import (
    SequenceSpec,
    WeightSequence,
    log_factorial,
    tower_threshold,
)
from conftest import (
    encloses_fraction,
    iv_endpoints,
    log_hi,
    log_lo,
    ref_cosine_sum,
    ref_div,
    ref_from_fraction,
    ref_from_log_fraction,
    ref_log_factorials,
    ref_mul,
    ref_partial_sums,
    ref_pow,
    ref_shifted_log_M,
    ref_sum_values,
    ref_tower_threshold,
    same_endpoints,
    sum_values,
)

precisions = st.sampled_from([33, 53, 96, 113, 295, 400])
positive_fractions = st.fractions(
    min_value=Fraction(1, 10**6), max_value=Fraction(10**6)
).filter(lambda f: f > 0)
log_fractions = st.fractions(min_value=-(10**4), max_value=10**4)


@settings(max_examples=60, deadline=None)
@given(fr=positive_fractions, n=st.integers(min_value=1, max_value=10**30), bits=precisions)
def test_constructors_match_the_reference(fr, n, bits):
    for value, ref in (
        (LogReal.from_fraction(fr, bits), ref_from_fraction(fr, bits)),
        (LogReal.from_int(n, bits), ref_from_fraction(Fraction(n), bits)),
        (LogReal.from_log_fraction(fr - 1, bits), ref_from_log_fraction(fr - 1, bits)),
        (LogReal.one(bits), iv.mpf(0)),
    ):
        assert same_endpoints(value, ref)
        assert value.bits == bits


@settings(max_examples=60, deadline=None)
@given(a=log_fractions, b=log_fractions, bits_a=precisions, bits_b=precisions)
def test_mul_div_round_at_the_larger_precision(a, b, bits_a, bits_b):
    x, y = LogReal.from_log_fraction(a, bits_a), LogReal.from_log_fraction(b, bits_b)
    bits = max(bits_a, bits_b)
    assert same_endpoints(x * y, ref_mul(x, y, bits)) and (x * y).bits == bits
    assert same_endpoints(x / y, ref_div(x, y, bits)) and (x / y).bits == bits


@settings(max_examples=60, deadline=None)
@given(a=positive_fractions, k=st.integers(min_value=-40, max_value=40),
       f=st.fractions(min_value=-8, max_value=8, max_denominator=50), bits=precisions)
def test_powers_match_the_reference(a, k, f, bits):
    x = LogReal.from_fraction(a, bits)
    assert same_endpoints(x.pow_int(k), ref_pow(x, Fraction(k), bits))
    assert same_endpoints(x.pow_fraction(f), ref_pow(x, f, bits))


@settings(max_examples=40, deadline=None)
@given(terms=st.lists(positive_fractions, min_size=1, max_size=12),
       tail=positive_fractions, bits=precisions)
def test_sums_match_the_reference(terms, tail, bits):
    values = [LogReal.from_fraction(t, bits) for t in terms]
    tail_upper = LogReal.from_fraction(tail, bits)
    assert same_endpoints(
        sum_values(values, tail_upper=tail_upper), ref_sum_values(values, tail_upper, bits)
    )
    prefixes = [sum_values(values[:n]) for n in range(1, len(values) + 1)]
    assert all(map(same_endpoints, prefixes, ref_partial_sums(values, bits)))


#: positive finite mpfs far apart in scale, each exact at up to 400 bits
positive_mpfs = st.builds(from_man_exp, st.integers(min_value=1, max_value=2**400),
                          st.integers(min_value=-600, max_value=600))


def _ordered(a, b) -> tuple:
    return (a, b) if mpf_le(a, b) else (b, a)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(s=st.tuples(positive_mpfs, positive_mpfs), t=st.tuples(positive_mpfs, positive_mpfs),
       bits=st.sampled_from([33, 96, 295]))
def test_positive_kernels_are_mpi_mul_and_mpi_add(s, t, bits):
    s, t = _ordered(*s), _ordered(*t)
    assert pos_mul(s, t, bits) == mpi_mul(s, t, bits)
    assert pos_add(s, t, bits) == mpi_add(s, t, bits)


@pytest.mark.parametrize("bits", [33, 96, 295])
def test_the_positive_kernel_precondition(bits):
    # the kernels' operands are exps of log endpoints, and mpf_exp rounds
    # no log inside the LogReal cap down to 0
    cap = from_int(-(10**24))
    low = mpi_exp((cap, cap), bits)
    assert mpf_sign(low[0]) == 1
    assert pos_mul(low, low, bits) == mpi_mul(low, low, bits)
    # a lower endpoint at or below 0 breaks the precondition, and the
    # product is then no enclosure
    s, t = (from_int(-1), from_int(2)), (from_int(3), from_int(4))
    assert pos_mul(s, t, bits) != mpi_mul(s, t, bits) == (from_int(-4), from_int(8))


@pytest.mark.parametrize("n", [20000, 20001])
def test_log_factorial_matches_the_reference_on_both_sides_of_the_seam(n):
    # 20000 is _LOGFACT_INCREMENTAL_MAX, where the benchmark's per-integer
    # table stops; log_factorial takes one route on both sides of it
    bits = bits_for_digits(30)
    value = log_factorial(n, bits)
    assert value.bits == bits
    ref_lo, ref_hi = iv_endpoints(ref_log_factorials(n, bits)[n])
    assert log_lo(value) <= ref_hi and ref_lo <= log_hi(value)
    assert encloses_fraction(value, Fraction(factorial(n)), bits)


@pytest.mark.parametrize("digits", [20, 30, 80])
def test_log_factorial_overlaps_the_accumulation_and_encloses_n_factorial(digits):
    # the twin's sum of n outward-rounded logs is wider than the log-gamma
    # enclosure, so the two overlap rather than agree bit for bit
    bits = bits_for_digits(digits)
    ref = ref_log_factorials(20001, bits)
    for n in (*range(301), *(2**j for j in range(9, 15)), 20000, 20001):
        value = log_factorial(n, bits)
        assert value.bits == bits
        ref_lo, ref_hi = iv_endpoints(ref[n])
        assert log_lo(value) <= ref_hi and ref_lo <= log_hi(value), n
        assert encloses_fraction(value, Fraction(factorial(n)), bits), n


@pytest.mark.parametrize("digits", [20, 30, 80])
@pytest.mark.parametrize("k, paper8", [(1, False), (2, False), (2, True)],
                         ids=["iterated_log1", "iterated_log2", "paper8"])
def test_shifted_log_M_matches_the_reference(k, paper8, digits):
    bits = bits_for_digits(digits)
    start = 3 if paper8 else tower_threshold(k, bits)
    for n in (*range(401), *range(20000, 20101)):
        value = sequences._shifted_log_M(start, k, n, bits)
        assert same_endpoints(value, ref_shifted_log_M(start, k, n, bits)), n
        assert value.bits == bits


@settings(max_examples=80, deadline=None)
@given(n=st.integers(min_value=-5, max_value=10**30)
       | st.builds(lambda m, j: m << j, st.integers(min_value=1, max_value=2**40),
                   st.integers(min_value=0, max_value=12000)),
       bits=precisions | st.sampled_from([2480, 2481, 2600]))
# the single-log route: the smallest integer it takes, the top of mpmath's
# Taylor range (bits + 20 = 2500), a magnitude of exactly 10000 bits
@example(n=3, bits=33)
@example(n=10**30 + 1, bits=2480)
@example(n=3 << 9998, bits=53)
# mpi_log itself: log 1 and the powers of two, n inexact at bits, a
# precision past the Taylor range, a magnitude past 10000 bits
@example(n=1, bits=53)
@example(n=2, bits=53)
@example(n=2**4000, bits=96)
@example(n=3**200, bits=33)
@example(n=10**30 + 1, bits=2481)
@example(n=10**30 + 1, bits=2600)
@example(n=3 << 9999, bits=53)
def test_from_int_is_from_fraction_bit_for_bit(n, bits):
    # from_int skips the Fraction; it must round exactly as from_fraction does
    if n <= 0:
        with pytest.raises(ValueError):
            LogReal.from_int(n, bits)
        return
    value, twin = LogReal.from_int(n, bits), LogReal.from_fraction(Fraction(n), bits)
    assert (value.log_lo, value.log_hi, value.bits) == (twin.log_lo, twin.log_hi, bits)



@pytest.mark.parametrize("bits", [33, 96, 295])
def test_pow_int_is_pow_fraction_bit_for_bit(bits):
    # pow_int rounds the integer exponent directly; it must round exactly as
    # pow_fraction does through the Fraction and its cache
    for a in (Fraction(2), Fraction(3, 7), Fraction(10**40 + 1, 3)):
        x = LogReal.from_fraction(a, bits)
        for k in range(-100, 100):
            value, twin = x.pow_int(k), x.pow_fraction(Fraction(k))
            assert (value.log_lo, value.log_hi, value.bits) == (twin.log_lo, twin.log_hi, bits)


@pytest.mark.parametrize("n", [Fraction(1, 2), Fraction(2), 2.0, True, False, "2", None])
def test_from_int_rejects_what_is_not_an_int(n):
    # raised before any rounding: a Fraction once never returned, and a
    # float or a bool was taken as its integer value
    with pytest.raises(TypeError):
        LogReal.from_int(n, 96)

def test_cold_log_caches_filled_by_two_threads_match_a_serial_fill(monkeypatch):
    # each worker alternates log k! at one precision with log k at the
    # other, so log k! fills at both precisions at once while each
    # worker's other calls race them
    low, high = bits_for_digits(20), bits_for_digits(80)
    work = [
        [(f, k, bits) for k in range(1, 1501) for f, bits in pairs]
        for pairs in (((log_factorial, low), (LogReal.from_int, high)),
                      ((LogReal.from_int, low), (log_factorial, high)))
    ]

    def endpoints(calls) -> list:
        return [(v.log_lo, v.log_hi, v.bits) for v in (f(k, bits) for f, k, bits in calls)]

    monkeypatch.setattr(sequences, "_logfact_cache", Memo())
    serial = [endpoints(calls) for calls in work]
    monkeypatch.setattr(sequences, "_logfact_cache", Memo())
    start = threading.Barrier(len(work), timeout=60)
    results: list = [None] * len(work)

    def worker(i: int) -> None:
        start.wait()
        results[i] = endpoints(work[i])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(work))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(old)
    assert results == serial


@pytest.mark.parametrize("bits", [53, bits_for_digits(20), bits_for_digits(80)])
def test_tower_threshold_matches_the_reference(bits):
    for k in (1, 2, 3, 4):
        expected = ref_tower_threshold(k, bits)
        if expected is None:
            with pytest.raises(PrecisionExhaustedError):
                tower_threshold(k, bits)
        else:
            assert tower_threshold(k, bits) == expected


@pytest.fixture(scope="module")
def gevrey_series():
    spec = SequenceSpec(family="gevrey", s=Fraction(1), precision=20)
    return BangSeries(WeightSequence(spec))


@settings(max_examples=20, deadline=None)
@given(xi=st.fractions(min_value=-1, max_value=1, max_denominator=1000),
       K=st.integers(min_value=1, max_value=12))
def test_eval_F_cosine_sum_matches_the_reference(gevrey_series, xi, K):
    series = gevrey_series
    terms = [(series.deriv_term(k, 0), series.ws.ratio_m(k)) for k in range(K + 1)]
    tail = LogReal.from_int(2, series.bits).pow_int(-K)
    enc = series.eval_F(xi, K)
    assert (enc.lo, enc.hi) == ref_cosine_sum(terms, xi, tail, series.bits)._mpi_


def _arithmetic(bits: int) -> tuple:
    """Endpoints of a mix of every LogReal operation at ``bits``."""
    x, y = LogReal.from_fraction(Fraction(22, 7), bits), LogReal.from_int(10**40 + 1, bits)
    values = [
        x * y, x / y, x.pow_int(-13), y.pow_fraction(Fraction(5, 3)), x.max_with(y),
        LogReal.from_log_fraction(Fraction(-1, 3), bits),
        sum_values([x, y, x.pow_int(3)], tail_upper=x),
        sum_values([x]), sum_values([x, y]),
    ]
    return tuple((v.log_lo, v.log_hi, v.bits) for v in values)


@pytest.mark.parametrize("bits", [bits_for_digits(20), bits_for_digits(80)])
def test_ambient_precision_changes_no_endpoint(bits):
    saved = iv.prec, mp.prec
    results = []
    try:
        for ambient in (53, 113, 400):
            iv.prec = mp.prec = ambient
            results.append(_arithmetic(bits))
    finally:
        iv.prec, mp.prec = saved
    assert results[0] == results[1] == results[2]


def _log_convex_rows(digits: int) -> list:
    spec = SequenceSpec(family="gevrey", s=Fraction(3, 2), precision=digits)
    report = check_log_convex(WeightSequence(spec), "Mprime", 60)
    return [(row.lo, row.hi, row.extra, row.outcome) for row in report.rows]


def test_threads_at_two_precisions_match_a_serial_run():
    # two workers per precision, more than the cores, switching as often as
    # the interpreter allows: an operation that read the global precision
    # would round at the other workers' setting
    digits = (20, 80, 20, 80)
    serial = {d: _log_convex_rows(d) for d in set(digits)}
    start = threading.Barrier(len(digits), timeout=60)
    results: list = [None] * len(digits)

    def worker(i: int) -> None:
        start.wait()
        results[i] = _log_convex_rows(digits[i])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(digits))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(old)
    assert results == [serial[d] for d in digits]
