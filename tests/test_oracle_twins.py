"""The closed-form primary routes of the exact oracle against their twins.

* c(k, n) from Stirling numbers of the first kind against the dense-series
  convolution, against sympy's ``stirling`` as a third oracle, and against
  one convolution step of its own lower row;
* the closed-form root series against the convolution power of the
  a-series;
* the diagonal derivative at x = 1, scaled by x^(-(pn-k)/p), against
  sympy's symbolic derivative at sample points x = q^p;
* the integer-sum composition enumeration against a plain Fraction sum,
  and its one-pass sum over the last two parts against the enumeration of
  every cut point;
* the integer ``dec_str`` against the mpmath rendering at 192 bits under
  the global-precision guard and against its former route on mpmath's raw
  ``from_int``/``mpf_div``/``to_str``, on both sides of the 3500-bit
  exponent seam where mpmath rescales by a power of ten; its 192-bit
  quotient against ``mpf_div`` itself;
* ``exact_row``, whose ``E_LO`` ceiling is an integer pair, against its
  former route through the ``Fraction`` product, on every row of the
  oracle checks at the depths of the benchmark;
* the on-demand caches filled from two threads at once against a serial
  fill.
"""

import itertools
import random
import sys
import threading
from fractions import Fraction
from math import factorial, lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import iv, mp
from mpmath.libmp import from_int, from_man_exp, mpf_div, round_nearest, to_str
from sympy.functions.combinatorial.numbers import stirling

from carleman import coefficients as co
from carleman import substitution as su
from carleman.outcomes import EvidenceRow, worst_outcome
from carleman.sequences import SequenceSpec
from carleman.intervals import working_precision
from carleman.memo import Memo
from conftest import pow_convolve, root_series_signed


def _sympy_ckn(k: int, n: int) -> Fraction:
    return Fraction(factorial(k) * int(stirling(n, k, kind=1)), factorial(n))


class TestStirlingCkn:
    def test_equals_convolution_on_full_grid(self):
        table = co.log_power_table(30, 60)
        for k in range(1, 31):
            for n in range(0, 61):
                assert co.ckn(k, n) == table[k][n], (k, n)

    def test_equals_sympy_on_full_grid(self):
        for k in range(1, 31):
            for n in range(k, 61):
                assert co.ckn(k, n) == _sympy_ckn(k, n), (k, n)

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(min_value=1, max_value=40), n=st.integers(min_value=0, max_value=120))
    def test_random_point_matches_sympy_and_one_convolution_step(self, k, n):
        # c(k, .) = c(1, .) * c(k-1, .): with c(1, i) = 1/i this single
        # step, at every (k, n), is the whole convolution route by induction
        value = co.ckn(k, n)
        if n < k:
            assert value == 0
            return
        assert value == _sympy_ckn(k, n)
        if k == 1:
            assert value == Fraction(1, n)
        else:
            step = sum(Fraction(1, i) * co.ckn(k - 1, n - i) for i in range(1, n - k + 2))
            assert value == step

    def test_stirling_rows(self):
        # [4 k] = 0, 6, 11, 6, 1 and every row sums to n!
        assert co._stirling_row(4) == (0, 6, 11, 6, 1)
        for n in range(0, 30):
            assert sum(co._stirling_row(n)) == factorial(n)


def _convolution_root_series(p: int, k: int, n_max: int) -> list[Fraction]:
    powered = pow_convolve(root_series_signed(p, n_max), k)
    return [c / factorial(k) for c in powered.coeffs]


class TestClosedFormRootSeries:
    @pytest.mark.parametrize("p,k,n_max", [(2, 5, 60), (3, 5, 60), (2, 10, 120)])
    def test_equals_convolution(self, p, k, n_max):
        assert co.root_power_series(p, k, n_max) == _convolution_root_series(p, k, n_max)

    @settings(max_examples=40, deadline=None)
    @given(
        p=st.integers(min_value=2, max_value=7),
        k=st.integers(min_value=1, max_value=6),
        n_max=st.integers(min_value=1, max_value=25),
    )
    def test_random_small_triples(self, p, k, n_max):
        assert co.root_power_series(p, k, n_max) == _convolution_root_series(p, k, n_max)

    def test_memo_prefix_after_growth(self):
        long = co.root_power_series(7, 3, 40)
        short = co.root_power_series(7, 3, 12)
        assert short == long[:13] == _convolution_root_series(7, 3, 12)

    def test_returned_list_is_a_copy(self):
        b = co.root_power_series(2, 2, 6)
        b[2] = Fraction(99)
        assert co.root_power_series(2, 2, 6)[2] == Fraction(1, 8)

    def test_rejects_bad_arguments(self):
        for args in [(2, 0, 5), (1, 2, 5), (2, 2, 0)]:
            with pytest.raises(ValueError):
                co.root_power_series(*args)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("q", [Fraction(1), Fraction(1, 2), Fraction(3, 4)], ids="q={}".format)
def test_diagonal_derivative_scales_with_sympy(p, q):
    # alpha_k^(n)(x, x) = x^(-(pn-k)/p) n! b_n at x = q^p: differentiate
    # (X^(1/p) - q)^k / k! symbolically n times and evaluate at X = q^p
    X = sympy.Symbol("X", positive=True)
    root = sympy.Rational(q.numerator, q.denominator)
    for k in range(1, 6):
        expr = (X ** sympy.Rational(1, p) - root) ** k / sympy.factorial(k)
        for n in range(k, 6):
            expr_n = sympy.diff(expr, X, n) if n == k else sympy.diff(expr_n, X)
            value = expr_n.subs(X, root**p)
            assert value.is_Rational, (p, q, k, n, value)
            expected = q ** (-(p * n - k)) * co.diagonal_derivative(p, k, n)
            assert Fraction(int(value.p), int(value.q)) == expected, (p, q, k, n)


def _fraction_sum_enumeration(k: int, n: int) -> Fraction:
    if n < k:
        return Fraction(0)
    total = Fraction(0)
    for cuts in itertools.combinations(range(1, n), k - 1):
        parts = [b - a for a, b in zip((0,) + cuts, cuts + (n,))]
        prod = 1
        for part in parts:
            prod *= part
        total += Fraction(1, prod)
    return total


def test_integer_enumeration_equals_fraction_enumeration():
    for n in range(0, 13):
        for k in range(1, max(n, 1) + 2):
            assert co.ckn_bruteforce(k, n) == _fraction_sum_enumeration(k, n), (k, n)


def _cut_enumeration(k: int, n: int) -> Fraction:
    """The integer-sum enumeration over all k-1 cut points in 1..n-1."""
    if n < k:
        return Fraction(0)
    scale = lcm(*range(1, n + 1)) ** k
    total = 0
    for cuts in itertools.combinations(range(1, n), k - 1):
        prod = 1
        for a, b in zip((0,) + cuts, cuts + (n,)):
            prod *= b - a
        total += scale // prod
    return Fraction(total, scale)


def test_last_two_parts_in_one_pass_equal_the_full_cut_enumeration():
    for k in range(1, 7):
        for n in range(0, co.ENUMERATION_CAP + 1):
            assert co.ckn_bruteforce(k, n) == _cut_enumeration(k, n), (k, n)


def _reference_dec_str(x) -> str:
    fr = Fraction(x)
    with working_precision(192):
        return mp.nstr(mp.mpf(fr.numerator) / mp.mpf(fr.denominator), 17)


def _mpf_quotient(x):
    """The former route's 192-bit quotient, a raw mpf."""
    num = from_int(x.numerator, 192, round_nearest)
    den = from_int(x.denominator, 192, round_nearest)
    return mpf_div(num, den, 192, round_nearest)


def _mpf_dec_str(x) -> str:
    """The former route of ``dec_str``: mpmath's raw quotient and ``to_str``."""
    return to_str(_mpf_quotient(x), 17)


#: both sides of mpmath's seam: a quotient whose leading bit lies more
#: than 3500 places from the point is rescaled by a power of ten first
SEAM_VALUES = [
    Fraction(1, 3**2300),
    Fraction(-(2**3600) - 1, 3),
    10**1100,
    Fraction(7, 2**3499),
    Fraction(1, 2**3500),
    Fraction(1, 2**3501),
    Fraction(-1, 2**3502),
    2**3499,
    -(2**3499) - 1,
    2**3500,
    Fraction(2**3500 + 1, 3),
    Fraction(10**1053 + 7, 3),
    Fraction(3, 10**1053 + 7),
]


def _near_ties(rng):
    """Rationals a hair from a decimal tie of the 18th digit and from a
    binary tie of the 192-bit rounding."""
    d, e = rng.randrange(10**17, 10**18), rng.randrange(-40, 40)
    tie = Fraction(10 * d + 5, 10) * Fraction(10) ** e
    a, shift = rng.getrandbits(192) | 1 << 191, rng.randrange(1, 60)
    half = (a << shift) + (1 << (shift - 1))
    return [tie, tie + Fraction(1, 10**60), tie - Fraction(1, 10**60),
            Fraction(half, 3), Fraction(3, half), Fraction(half, half - 2)]


class TestDecStr:
    @settings(max_examples=300, deadline=None)
    @given(x=st.fractions())
    def test_random_rationals(self, x):
        assert co.dec_str(x) == _reference_dec_str(x)

    @settings(max_examples=10_000, deadline=None, derandomize=True)
    @given(num=st.integers(min_value=-(2**700), max_value=2**700),
           den=st.integers(min_value=1, max_value=2**700))
    def test_many_rationals_match_the_reference(self, num, den):
        x = Fraction(num, den)
        assert co.dec_str(x) == _reference_dec_str(x)

    def test_matches_the_former_route_and_its_quotient(self):
        rng = random.Random(30)
        values = [*SEAM_VALUES]
        for _ in range(3000):
            values.append(Fraction(rng.getrandbits(rng.randrange(1, 900)) * rng.choice((1, -1)),
                                   rng.getrandbits(rng.randrange(1, 900)) or 1))
            values += _near_ties(rng)
        for x in map(Fraction, values):
            assert co.dec_str(x) == _mpf_dec_str(x), x
            if x:
                man, exp = co._quotient(abs(x.numerator), x.denominator)
                assert from_man_exp(man if x > 0 else -man, exp) == _mpf_quotient(x), x

    @pytest.mark.parametrize("x", SEAM_VALUES, ids=range(len(SEAM_VALUES)))
    def test_both_sides_of_the_exponent_seam(self, x):
        assert co.dec_str(x) == _reference_dec_str(x)

    @settings(max_examples=100, deadline=None)
    @given(num=st.integers(min_value=-(10**300), max_value=10**300), den=st.integers(min_value=1, max_value=10**200))
    def test_wide_rationals(self, num, den):
        x = Fraction(num, den)
        assert co.dec_str(x) == _reference_dec_str(x)

    @pytest.mark.parametrize(
        "x",
        [
            0,
            1,
            -1,
            7,
            -(10**40) - 3,
            2**300,
            Fraction(-22, 7),
            Fraction(1, 3),
            Fraction(3, 2**2000),
            Fraction(-(3**900), 2**2600),
            Fraction(5 * 2**2500, 3**101),
            # ties and near-ties at the 192-bit rounding of each integer
            Fraction(2**193 + 1, 3),
            Fraction(3, 2**193 + 1),
            Fraction(2**200 - 1, 2**200 + 1),
        ],
    )
    def test_edge_values(self, x):
        assert co.dec_str(x) == _reference_dec_str(x)

    def test_factorial_sweep_values(self):
        for p in (2, 3, 4, 5):
            for n in range(1, 41, 3):
                for k in range(0, p * n, max(1, p * n // 7)):
                    m = p * n - k
                    lhs = Fraction(n**m)
                    rhs = factorial(m) * co.e_lo_pow(p * n)
                    assert co.dec_str(lhs) == _reference_dec_str(lhs)
                    assert co.dec_str(rhs) == _reference_dec_str(rhs)

    def test_leaves_global_precision_alone(self):
        x = Fraction(10**50 + 7, 3 * 2**2100)
        expected = _reference_dec_str(x)
        saved = (mp.prec, iv.prec)
        try:
            mp.prec, iv.prec = 61, 83
            assert co.dec_str(x) == expected
            assert (mp.prec, iv.prec) == (61, 83)
        finally:
            mp.prec, iv.prec = saved
        before = (mp.prec, iv.prec)
        co.dec_str(x)
        assert (mp.prec, iv.prec) == before


def _fraction_exact_row(index, quantity, lhs, coeff, e_exp, also=(), **fields):
    """The former route of ``exact_row``: the ``E_LO`` ceiling as a
    ``Fraction`` product, rendered by the former ``dec_str``."""
    ceiling = coeff * co.e_lo_pow(e_exp)
    outcome = co.leq_with_e_power(lhs, coeff, e_exp, ceiling)
    return EvidenceRow(index=index, quantity=quantity, lo=_mpf_dec_str(lhs),
                       hi=_mpf_dec_str(ceiling), outcome=worst_outcome([*also, outcome]),
                       **fields)


#: every check that decides through ``exact_row``, at the benchmark's depths
EXACT_ROW_CHECKS = {
    "ckn-bound": lambda: [co.verify_ckn_bound(24, 48)],
    "factorial-inequality": lambda: [co.verify_factorial_inequality_sweep(p, 32)
                                     for p in (2, 3, 4)],
    "root-series-bound": lambda: [co.verify_root_series_bounds(p, k, 40)
                                  for p in (2, 3, 4) for k in range(1, 5)],
    "diag-derivative": lambda: [co.verify_diagonal_derivatives(p, 4, 40) for p in (2, 3, 4)],
    "substitution-assembly": lambda: [su.final_bound_assembly(SequenceSpec(family="constant"),
                                                              p, 10) for p in (2, 3, 4)],
}


def _checking_ceilings(monkeypatch, run):
    """``run()`` with every ceiling that ``exact_row`` passes to
    ``leq_with_e_power`` checked against the ``Fraction`` product: the
    integer pair must be that product in lowest terms, which the 17 printed
    digits alone would hardly ever tell apart from an unreduced pair."""
    decide, ceilings = co.leq_with_e_power, []

    def recording(lhs, coeff, e_exp, lo_ceiling):
        ceilings.append((lo_ceiling, coeff * co.e_lo_pow(e_exp)))
        return decide(lhs, coeff, e_exp, lo_ceiling)

    with monkeypatch.context() as patch:
        patch.setattr(co, "leq_with_e_power", recording)
        result = run()
    assert ceilings
    for pair, product in ceilings:
        assert (pair.numerator, pair.denominator) == (product.numerator, product.denominator)
    return result


@pytest.mark.parametrize("check", sorted(EXACT_ROW_CHECKS))
def test_exact_row_matches_the_fraction_route(check, monkeypatch):
    reports = _checking_ceilings(monkeypatch, EXACT_ROW_CHECKS[check])
    with monkeypatch.context() as patch:
        patch.setattr(co, "exact_row", _fraction_exact_row)
        patch.setattr(su, "exact_row", _fraction_exact_row)
        twins = EXACT_ROW_CHECKS[check]()
    for report, twin in zip(reports, twins, strict=True):
        assert [(row.outcome, row.lo, row.hi) for row in report.rows] == \
            [(row.outcome, row.lo, row.hi) for row in twin.rows]
        assert report == twin


def test_exact_row_ceiling_cancels_against_both_parts_of_e(monkeypatch):
    # E_LO's numerator has no prime factor below 200, so the oracle's own
    # coefficients hardly ever cancel against it
    num, den = co.E_LO.numerator, co.E_LO.denominator
    coeffs = [Fraction(den, num), Fraction(7 * den**2, 11 * num), Fraction(3, num**3),
              Fraction(den**5), Fraction(1, 3)]
    _checking_ceilings(monkeypatch, lambda: [co.exact_row((m,), "1 vs c e^m", Fraction(1), c, m)
                                             for c in coeffs for m in (0, 1, 2, 5)])


@pytest.fixture
def cold_caches(monkeypatch):
    """Installs fresh oracle caches now and at each call of the yielded
    function."""
    def install():
        for name in ("_stirling_rows", "_root_cache", "_pow_table_cache"):
            monkeypatch.setattr(co, name, Memo())

    install()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield install
    finally:
        sys.setswitchinterval(old)


def _fill(sync=lambda: None):
    """Grow every oracle cache from cold in one large step, then read it;
    ``sync`` runs before each cache is touched."""
    sync()
    ckn = [co.ckn(20, 150)] + [co.ckn(k, n) for n in range(0, 151, 7) for k in range(1, 21)]
    sync()
    roots = [co.root_power_series(2, 3, 400), co.root_power_series(2, 3, 100)]
    sync()
    tables = [co.log_power_table(6, 40)]
    return ckn, roots, tables


def test_concurrent_cache_fill_matches_serial(cold_caches):
    # three threads on two cores, all growing each cache from cold at once
    workers = 3
    serial = _fill()
    for _ in range(10):
        cold_caches()
        barrier = threading.Barrier(workers, timeout=60)
        results = []

        def worker():
            try:
                results.append(_fill(barrier.wait))
            except Exception as exc:  # a race shows as a wrong index too
                results.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert results == [serial] * workers
        assert [len(co._stirling_row(n)) for n in range(151)] == list(range(1, 152))
        # every thread got the same row objects
        rows = results[0][2][0]
        assert all(all(a is b for a, b in zip(r[2][0], rows, strict=True)) for r in results)
