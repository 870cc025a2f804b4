"""Extremal cosine series: derivative identities at the origin, the derived
sup ceiling, tail-certification behavior, and pointwise evaluation.

Frozen expected values: for the constant family M'_k = k! and m_k = k + 1,
so F(0) = sum_k k!/(2k+2)^k = 1 + 1/4 + 2/36 + ... and the n = 1 membership
sum is sum_k k! (2k+2)^(1-k) = 2 + 1 + 1/3 + 3/32 + ... ~ 3.46; both were
cross-computed by direct rational summation below.
"""

from fractions import Fraction
from math import factorial

import pytest

from carleman.bang import BangSeries
from carleman.errors import TailUncertifiedError
from carleman.outcomes import Outcome
from carleman.sequences import SequenceSpec, WeightSequence, power_substitute
from conftest import (
    as_mpf,
    encloses_fraction,
    log_hi,
    log_lo,
    mpf_to_fraction,
    value_endpoints,
)


@pytest.fixture(scope="module")
def bang_constant(constant_ws):
    return BangSeries(constant_ws)


@pytest.fixture(scope="module")
def bang_gevrey(gevrey1_ws):
    return BangSeries(gevrey1_ws)


class TestConstruction:
    def test_rejects_measured_only_family(self, paper8_ws):
        with pytest.raises(TailUncertifiedError):
            BangSeries(paper8_ws)

    def test_rejects_table(self):
        spec = SequenceSpec(family="table", log_values=("0", "1", "2", "3"))
        with pytest.raises(TailUncertifiedError):
            BangSeries(WeightSequence(spec))

    def test_rejects_dilation(self, gevrey1_spec):
        tspec = power_substitute(gevrey1_spec, 2)
        with pytest.raises(TailUncertifiedError):
            BangSeries(WeightSequence(tspec))

    def test_accepts_iterated_log(self):
        series = BangSeries(WeightSequence(SequenceSpec(family="iterated_log", k=1)))
        # the head sum at n = 0 confirms log-convexity of M' up to the term
        # its tail bound reads
        series.head_sum(0)


class TestDerivTerm:
    def test_k_equals_n_gives_mprime(self, bang_constant):
        for n in (0, 3, 7):
            t = bang_constant.deriv_term(n, n)
            assert encloses_fraction(t, Fraction(factorial(n)), bang_constant.bits)

    def test_first_term_first_derivative(self, bang_constant):
        # M'_0 (2 m_0)^1 = 2 since m_0 = 1
        t = bang_constant.deriv_term(0, 1)
        assert encloses_fraction(t, Fraction(2), bang_constant.bits)

    def test_tail_terms_halve(self, bang_constant):
        # beyond k = n the terms drop below M'_n 2^(n-k): the exact term
        # k! (2k+2)^(n-k) must obey the bound, and the enclosure must
        # contain the exact term
        n = 4
        for k in range(n + 1, n + 10):
            bound = Fraction(factorial(n)) * Fraction(2) ** (n - k)
            exact = Fraction(factorial(k)) * (2 * Fraction(k + 1)) ** (n - k)
            assert exact <= bound
            assert encloses_fraction(bang_constant.deriv_term(k, n), exact, bang_constant.bits)


class TestDerivativesAtZero:
    def test_odd_orders_vanish_exactly(self, bang_constant):
        for n in (1, 3, 9, 17):
            se = bang_constant.F_deriv_at_zero(n)
            assert se.sign == 0 and se.magnitude is None

    def test_sign_alternates(self, bang_constant):
        signs = [bang_constant.F_deriv_at_zero(2 * j).sign for j in range(6)]
        assert signs == [1, -1, 1, -1, 1, -1]

    def test_value_at_zero_exact_route(self, bang_constant):
        # independent oracle: the exact rational head sum of k!/(2k+2)^k
        # brackets F(0) together with the 2^(-K) tail bound, so the
        # computed magnitude must land in [head, head + tail]
        from carleman.intervals import LogReal

        K = 40
        head = sum(
            Fraction(factorial(k)) / (2 * Fraction(k + 1)) ** k for k in range(K + 1)
        )
        tail = Fraction(2) ** (-K)
        mag = bang_constant.F_deriv_at_zero(0).magnitude
        assert log_lo(mag) >= 0  # F(0) > 1: the k = 0 term alone is 1
        head_enc = LogReal.from_fraction(head, bang_constant.bits)
        upper_enc = LogReal.from_fraction(head + tail, bang_constant.bits)
        assert log_lo(head_enc) <= log_hi(mag)
        assert log_lo(mag) <= log_hi(upper_enc)

    def test_lower_bound_with_separation(self, bang_constant, bang_gevrey):
        for series in (bang_constant, bang_gevrey):
            for j in range(0, 12):
                F2 = series.F_deriv_at_zero(2 * j)
                lower = series.ws.log_Mprime(2 * j)
                assert F2.magnitude.geq(lower) is Outcome.CONFIRMED

    def test_factored_scaling_is_exact(self, bang_gevrey):
        for j in (0, 2, 5):
            F2 = bang_gevrey.F_deriv_at_zero(2 * j)
            fj = bang_gevrey.f_deriv_at_zero(j)
            scale = Fraction(factorial(j), factorial(2 * j))
            rescaled = F2.scale_fraction(scale)
            assert fj.sign == rescaled.sign
            assert fj.magnitude.log_lo == rescaled.magnitude.log_lo
            assert fj.magnitude.log_hi == rescaled.magnitude.log_hi

    def test_f_sign_alternates(self, bang_constant):
        signs = [bang_constant.f_deriv_at_zero(n).sign for n in range(5)]
        assert signs == [1, -1, 1, -1, 1]

    def test_truncation_validation(self, bang_constant):
        with pytest.raises(ValueError):
            bang_constant.F_deriv_at_zero(-2)


class TestMembership:
    def test_ceiling_on_builtin_families(self, bang_constant, bang_gevrey):
        for series in (bang_constant, bang_gevrey):
            report = series.verify_membership(15)
            assert report.verdict.outcome is Outcome.CONFIRMED
            cert = report.certificate
            assert cert.interval_id == "R"
            assert encloses_fraction(cert.C, Fraction(2), series.bits)
            assert encloses_fraction(cert.R, Fraction(2), series.bits)

    def test_constant_n1_sum_below_four(self, bang_constant):
        # frozen oracle: sum_k k! (2k+2)^(1-k) = 2 + 1 + 1/3 + ... < 4;
        # rational head to k = 30 gives 3.4616...
        head = sum(
            Fraction(factorial(k)) * (2 * Fraction(k + 1)) ** (1 - k)
            for k in range(31)
        )
        assert Fraction(169, 50) < head < Fraction(174, 50)
        report = bang_constant.verify_membership(1)
        row = report.rows[0]
        assert row.outcome is Outcome.CONFIRMED
        assert float(row.hi) < float(dict(row.extra)["ceiling_log"])

    def test_single_term_below_ceiling(self, bang_constant):
        # the k = n term alone respects the ceiling trivially
        from carleman.intervals import LogReal

        n = 5
        term = bang_constant.deriv_term(n, n)
        ceiling = LogReal.from_int(2, bang_constant.bits).pow_int(n + 1) * (
            bang_constant.ws.log_Mprime(n)
        )
        assert term.leq(ceiling) is Outcome.CONFIRMED


class TestSharpness:
    def test_sandwich(self, bang_constant, bang_gevrey):
        for series in (bang_constant, bang_gevrey):
            report = series.sharpness_evidence(8)
            assert report.verdict.outcome is Outcome.CONFIRMED
            for row in report.rows:
                assert float(row.lo) >= 0


class TestEvalF:
    def test_agrees_with_derivative_at_zero(self, bang_constant):
        enc = bang_constant.eval_F(Fraction(0), 48)
        se = bang_constant.F_deriv_at_zero(0)
        lo, hi = value_endpoints(se, bang_constant.bits)
        assert as_mpf(enc.lo) <= hi and lo <= as_mpf(enc.hi)  # overlapping enclosures

    def test_even_function(self, bang_constant):
        a = bang_constant.eval_F(Fraction(2, 7), 40)
        b = bang_constant.eval_F(Fraction(-2, 7), 40)
        assert a.lo == b.lo and a.hi == b.hi

    def test_bounded_by_term_sum(self, bang_constant):
        # |F(xi)| <= F-term magnitude sum <= F(0)-style head + tail
        enc = bang_constant.eval_F(Fraction(1, 3), 40)
        zero = bang_constant.eval_F(Fraction(0), 40)
        assert abs(float(as_mpf(enc.lo))) <= float(as_mpf(zero.hi))
        assert abs(float(as_mpf(enc.hi))) <= float(as_mpf(zero.hi))

    def test_width_shrinks_with_K(self, bang_constant):
        wide = bang_constant.eval_F(Fraction(1, 2), 20)
        narrow = bang_constant.eval_F(Fraction(1, 2), 44)
        # exact widths: no rounding between the two enclosures
        width = lambda enc: mpf_to_fraction(as_mpf(enc.hi)) - mpf_to_fraction(as_mpf(enc.lo))
        assert width(narrow) < width(wide)
        assert as_mpf(wide.lo) <= as_mpf(narrow.lo) and as_mpf(narrow.hi) <= as_mpf(wide.hi)

    def test_domain_validation(self, bang_constant):
        with pytest.raises(ValueError):
            bang_constant.eval_F(Fraction(3, 2), 10)
        with pytest.raises(ValueError):
            bang_constant.eval_F(Fraction(1, 2), 0)
