"""Exact coefficient oracle: frozen examples, dual-route equivalence, and
the proof-chain inequalities.

Expected values below were produced by independent routes before being
frozen: composition enumeration for the log-power coefficients, term-by-term
binomial expansion for the root series, and exact integer arithmetic for the
factorial inequality instances.
"""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from carleman import coefficients as co
from carleman.errors import EnumerationCapError
from carleman.outcomes import Outcome
from conftest import pow_convolve, pow_squaring, root_series_signed


class TestEEnclosure:
    def test_width_at_least_30_digits(self):
        assert co.E_UP - co.E_LO < Fraction(1, 10**30)

    def test_contains_e(self):
        with mp.workprec(300):
            e_ref = mp.e
            assert mp.mpf(co.E_LO.numerator) / co.E_LO.denominator < e_ref
            assert mp.mpf(co.E_UP.numerator) / co.E_UP.denominator > e_ref

    def test_strict_order(self):
        assert co.E_LO < co.E_UP


class TestLogSeries:
    def test_coefficients(self):
        s = co.log_series(3)
        assert s.coeffs == (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3))

    def test_requires_positive_order(self):
        with pytest.raises(ValueError):
            co.log_series(0)

    def test_mul_requires_matching_order(self):
        with pytest.raises(ValueError):
            co.log_series(3).mul(co.log_series(4))


class TestCkn:
    def test_first_row_is_harmonic(self):
        for n in range(1, 12):
            assert co.ckn(1, n) == Fraction(1, n)

    def test_zero_below_diagonal(self):
        assert co.ckn(2, 1) == 0
        assert co.ckn(5, 4) == 0
        assert co.ckn(3, 0) == 0

    def test_known_small_values(self):
        # compositions of 3 into 2 parts: (1,2), (2,1) -> 1/2 + 1/2
        assert co.ckn(2, 3) == 1
        # only (1,1,1)
        assert co.ckn(3, 3) == 1
        # only (1,1)
        assert co.ckn(2, 2) == 1

    def test_k_zero_excluded(self):
        with pytest.raises(ValueError):
            co.ckn(0, 3)

    def test_equivalence_with_enumeration(self):
        for k in range(1, 7):
            for n in range(0, 15):
                assert co.ckn(k, n) == co.ckn_bruteforce(k, n)

    def test_enumeration_cap(self):
        with pytest.raises(EnumerationCapError):
            co.ckn_bruteforce(2, 19)

    def test_positive_on_and_above_diagonal(self):
        for k in range(1, 8):
            for n in range(k, 25):
                assert co.ckn(k, n) > 0

    def test_cauchy_estimate(self):
        for k in range(1, 10):
            for n in range(1, 30):
                assert co.ckn(k, n) <= 2**n

    def test_power_routes_agree_at_order_60(self):
        base = co.log_series(60)
        for k in (2, 3, 5, 8):
            assert pow_convolve(base, k).coeffs == pow_squaring(base, k).coeffs


@settings(max_examples=30, deadline=None)
@given(
    a=st.lists(st.fractions(min_value=-3, max_value=3), min_size=4, max_size=4),
    b=st.lists(st.fractions(min_value=-3, max_value=3), min_size=4, max_size=4),
    c=st.lists(st.fractions(min_value=-3, max_value=3), min_size=4, max_size=4),
)
def test_series_product_commutes_and_associates(a, b, c):
    pa, pb, pc = (co.SeriesPoly(tuple(x)) for x in (a, b, c))
    assert pa.mul(pb).coeffs == pb.mul(pa).coeffs
    assert pa.mul(pb).mul(pc).coeffs == pa.mul(pb.mul(pc)).coeffs


class TestCknBoundSweep:
    def test_small_grid_confirmed(self):
        report = co.verify_ckn_bound(6, 20)
        assert report.verdict.outcome is Outcome.CONFIRMED
        assert len(report.rows) == 6 * 20

    def test_example_rows(self):
        # c(2,2) = 1 <= (2e)^2 * 2!/2^2 ~ 14.78; c(1,1) = 1 <= 2e
        assert co.ckn(2, 2) <= (2 * co.E_LO) ** 2 * Fraction(2, 4)
        assert co.ckn(1, 1) <= 2 * co.E_LO


class TestRootSeries:
    def test_first_magnitude_is_inverse_p(self):
        for p in (2, 3, 5):
            assert co.root_series_magnitudes(p, 3)[1] == Fraction(1, p)

    def test_p2_second_magnitude(self):
        # |a_2| = (1/2!) * (2-1)/2^2 = 1/8
        assert co.root_series_magnitudes(2, 4)[2] == Fraction(1, 8)

    def test_magnitude_times_index_bounded_by_one(self):
        for p in (2, 3, 5, 7):
            mags = co.root_series_magnitudes(p, 60)
            for i in range(1, 61):
                assert mags[i] * i <= 1

    def test_signs_alternate(self):
        signed = root_series_signed(2, 6)
        assert signed[1] > 0 > signed[2]
        assert signed[3] > 0 > signed[4]

    def test_direct_binomial_expansion_oracle(self):
        # independent route: a_i = binom(1/p, i) up to sign, via the
        # falling-product definition
        for p in (2, 3):
            mags = co.root_series_magnitudes(p, 10)
            s = Fraction(1, p)
            binom = Fraction(1)
            for i in range(1, 11):
                binom = binom * (s - (i - 1)) / i
                assert abs(binom) == mags[i]

    def test_b_series_k1_equals_a(self):
        a = root_series_signed(3, 12)
        b = co.root_power_series(3, 1, 12)
        assert tuple(b) == a.coeffs

    def test_b_series_zero_below_k(self):
        b = co.root_power_series(2, 3, 8)
        assert b[0] == b[1] == b[2] == 0
        assert b[3] != 0

    def test_b_series_p2_k2_example(self):
        # b_2 = (1/2!) a_1^2 = 1/8 and c(2,2)/2! = 1/2
        b = co.root_power_series(2, 2, 4)
        assert b[2] == Fraction(1, 8)
        assert b[2] <= co.ckn(2, 2) / 2

    def test_b_series_squared_consistency(self):
        # (a-series)^2 scaled by 1/2! matches the k = 2 series term-by-term
        a = root_series_signed(2, 20)
        direct = a.mul(a)
        b = co.root_power_series(2, 2, 20)
        for j in range(21):
            assert b[j] == direct[j] / 2

    def test_bound_sweep(self):
        for p in (2, 3):
            for k in (1, 2, 4):
                report = co.verify_root_series_bounds(p, k, 30)
                assert report.verdict.outcome is Outcome.CONFIRMED


class TestDiagonalDerivative:
    def test_zero_below_k(self):
        assert co.diagonal_derivative(2, 3, 2) == 0

    def test_p2_k1_n1_at_one(self):
        # first derivative at the diagonal: a_1 = 1/2
        assert co.diagonal_derivative(2, 1, 1) == Fraction(1, 2)

    def test_p2_k1_n2_magnitude(self):
        # |2! b_2| = 2 * 1/8 = 1/4 at x = 1
        assert abs(co.diagonal_derivative(2, 1, 2)) == Fraction(1, 4)

    def test_companion_bound(self):
        for p, k, n in [(2, 1, 1), (2, 1, 2), (2, 2, 3), (3, 2, 5)]:
            row = co.diagonal_derivative_row(p, k, n)
            assert row.outcome is Outcome.CONFIRMED
            assert row.index == (p, k, n)
            assert row.lo == co.dec_str(abs(co.diagonal_derivative(p, k, n)))
            bound = (2 * co.E_LO) ** n * Fraction(n) ** (n - k)
            assert row.hi == co.dec_str(bound)


class TestFactorialInequality:
    def test_examples(self):
        # p=2, n=1, k=1: 1 <= e^2 * 1!
        assert co.verify_factorial_inequality(2, 1, 1).outcome is Outcome.CONFIRMED
        # p=2, n=1, k=0: 1/2! <= e^2
        assert co.verify_factorial_inequality(2, 1, 0).outcome is Outcome.CONFIRMED

    def test_boundary_k(self):
        # k = pn - 1: n <= e^(pn) * 1!
        for p in (2, 3):
            for n in (1, 5, 9):
                v = co.verify_factorial_inequality(p, n, p * n - 1)
                assert v.outcome is Outcome.CONFIRMED

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            co.verify_factorial_inequality(2, 0, 0)
        with pytest.raises(ValueError):
            co.verify_factorial_inequality(2, 1, 2)

    def test_sweep(self):
        report = co.verify_factorial_inequality_sweep(3, 8)
        assert report.verdict.outcome is Outcome.CONFIRMED
        assert len(report.rows) == sum(3 * n for n in range(1, 9))

    def test_exact_integer_route(self):
        # independent check of a handful of rows with raw integers
        for p, n, k in [(2, 3, 1), (3, 4, 7), (5, 2, 9)]:
            m = p * n - k
            lhs = n**m
            assert Fraction(lhs) <= co.e_lo_pow(p * n) * factorial(m)
