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
* single-rounding ``dec_str`` against the mpmath rendering at 192 bits
  under the global-precision guard;
* the on-demand caches filled from two threads at once against a serial
  fill.
"""

import itertools
import sys
import threading
from fractions import Fraction
from math import factorial, lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import iv, mp
from sympy.functions.combinatorial.numbers import stirling

from carleman import coefficients as co
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


class TestDecStr:
    @settings(max_examples=300, deadline=None)
    @given(x=st.fractions())
    def test_random_rationals(self, x):
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
