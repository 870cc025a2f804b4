"""Soundness of the log-space enclosure layer.

The contract under test: every operation returns an interval containing the
exact mathematical result.  Exact rationals provide the independent route:
products, quotients, and integer powers of positive rationals are computed
exactly with Fraction and must land inside the corresponding LogReal.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import iv, libmp, mp

from carleman.errors import PrecisionExhaustedError
from carleman.intervals import (
    LinearEnclosure,
    LogReal,
    SignedEnclosure,
    bits_for_digits,
    iv_endpoints,
    iv_from_fraction,
    mpf_to_fraction,
    sum_values,
    working_precision,
)
from carleman.outcomes import Outcome

BITS = bits_for_digits(50)

positive_fractions = st.fractions(
    min_value=Fraction(1, 10**6), max_value=Fraction(10**6)
).filter(lambda f: f > 0)


def test_one_is_exact_zero_log():
    one = LogReal.one()
    assert one.is_exact
    assert one.log_lo == 0 == one.log_hi
    assert one.radius == 0


def test_log_interval_must_be_ordered():
    with working_precision(BITS):
        lo, hi = iv_endpoints(iv.log(iv.mpf(3)))
    with pytest.raises(PrecisionExhaustedError):
        LogReal(hi + 1, lo)


@pytest.mark.parametrize("bits", [33, 53, BITS])
def test_log_cap_is_exactly_ten_to_the_24(bits):
    # 10^24 = 5^24 * 2^24 needs a 56-bit mantissa: a 53-bit conversion
    # would move the cap below 10^24 and reject the boundary itself; the
    # check must not depend on the active precision either
    cap = mp.make_mpf(libmp.from_int(10**24))
    neg_cap = mp.make_mpf(libmp.from_int(-(10**24)))
    # the next mpf above 10^24 at 56 bits, and the next integer above it
    above = (
        mp.make_mpf(libmp.from_man_exp(5**24 + 1, 24)),
        mp.make_mpf(libmp.from_int(10**24 + 1)),
    )
    below = tuple(mp.make_mpf(libmp.mpf_neg(x._mpf_)) for x in above)
    with working_precision(bits):
        x = LogReal(neg_cap, cap)
        assert (x.log_lo, x.log_hi) == (-(10**24), 10**24)
        for hi, lo in zip(above, below):
            with pytest.raises(PrecisionExhaustedError):
                LogReal(cap, hi)
            with pytest.raises(PrecisionExhaustedError):
                LogReal(lo, neg_cap)


def test_from_int_encloses_exact_value():
    with working_precision(BITS):
        x = LogReal.from_int(1_000_003)
        assert x.encloses_fraction(Fraction(1_000_003))


@settings(max_examples=60, deadline=None)
@given(a=positive_fractions, b=positive_fractions)
def test_mul_div_enclose_exact_rationals(a, b):
    with working_precision(BITS):
        xa, xb = LogReal.from_fraction(a), LogReal.from_fraction(b)
        assert (xa * xb).encloses_fraction(a * b)
        assert (xa / xb).encloses_fraction(a / b)


@settings(max_examples=40, deadline=None)
@given(a=positive_fractions, k=st.integers(min_value=-6, max_value=9))
def test_pow_int_encloses_exact_rationals(a, k):
    with working_precision(BITS):
        assert LogReal.from_fraction(a).pow_int(k).encloses_fraction(a**k)


@settings(max_examples=40, deadline=None)
@given(a=positive_fractions, b=positive_fractions, c=positive_fractions)
def test_sum_values_encloses_exact_sum(a, b, c):
    with working_precision(BITS):
        total = sum_values([LogReal.from_fraction(f) for f in (a, b, c)])
        assert total.encloses_fraction(a + b + c)


def test_sum_values_tail_interval_is_one_sided():
    # the tail only ever extends the upper endpoint
    with working_precision(BITS):
        base = sum_values([LogReal.from_int(2), LogReal.from_int(3)])
        padded = sum_values(
            [LogReal.from_int(2), LogReal.from_int(3)],
            tail_upper=LogReal.from_fraction(Fraction(1, 7)),
        )
        assert padded.log_lo == base.log_lo
        assert padded.encloses_fraction(Fraction(5))
        assert padded.encloses_fraction(Fraction(5) + Fraction(1, 7))


def test_pow_fraction_matches_integer_root():
    # (x^(1/2))^2 must still enclose x
    with working_precision(BITS):
        x = LogReal.from_int(7)
        root = x.pow_fraction(Fraction(1, 2))
        assert root.pow_int(2).encloses_fraction(Fraction(7))


def test_comparison_discipline():
    with working_precision(BITS):
        two, three = LogReal.from_int(2), LogReal.from_int(3)
        assert two.leq(three) is Outcome.CONFIRMED
        assert three.leq(two) is Outcome.REFUTED
        assert two.leq(two) in (Outcome.CONFIRMED, Outcome.INCONCLUSIVE)
        # equal exact values confirm: 1 <= 1 via zero-radius logs
        assert LogReal.one().leq(LogReal.one()) is Outcome.CONFIRMED


def test_max_with_running_sup():
    with working_precision(BITS):
        a, b = LogReal.from_int(2), LogReal.from_int(5)
        sup = a.max_with(b)
        assert sup.encloses_fraction(Fraction(5))


def test_precision_changes_do_not_change_cached_values():
    with working_precision(BITS):
        x = LogReal.from_int(17)
    with working_precision(bits_for_digits(15)):
        y = x.pow_int(1)
    # reusing the endpoints at lower precision must still enclose
    with working_precision(BITS):
        assert y.encloses_fraction(Fraction(17))


class TestSignedEnclosure:
    def test_zero_invariant(self):
        z = SignedEnclosure.zero()
        assert z.sign == 0 and z.magnitude is None
        with pytest.raises(ValueError):
            SignedEnclosure(0, LogReal.one())
        with pytest.raises(ValueError):
            SignedEnclosure(1, None)
        with pytest.raises(ValueError):
            SignedEnclosure(2, LogReal.one())

    def test_value_endpoints_sign(self):
        with working_precision(BITS):
            pos = SignedEnclosure(1, LogReal.from_int(2))
            neg = SignedEnclosure(-1, LogReal.from_int(2))
            plo, phi = pos.value_endpoints()
            nlo, nhi = neg.value_endpoints()
            assert plo > 0 and nhi < 0
            assert plo == -nhi and phi == -nlo

    def test_scale_fraction_flips_sign(self):
        with working_precision(BITS):
            pos = SignedEnclosure(1, LogReal.from_int(3))
            scaled = pos.scale_fraction(Fraction(-1, 2))
            assert scaled.sign == -1
            assert scaled.magnitude.encloses_fraction(Fraction(3, 2))
            assert pos.scale_fraction(Fraction(0)).sign == 0


class TestLinearEnclosure:
    def test_from_signed_round_trip(self):
        with working_precision(BITS):
            se = SignedEnclosure(-1, LogReal.from_int(4))
            lin = LinearEnclosure.from_signed(se)
            assert lin.hi < 0
            assert not lin.contains_zero()

    def test_containment_and_width(self):
        with working_precision(BITS):
            wide = LinearEnclosure.from_iv(iv.mpf([-1, 2]))
            narrow = LinearEnclosure.from_iv(iv.mpf([0, 1]))
            assert wide.encloses(narrow)
            assert wide.contains_zero()
            assert wide.width >= 3


def test_iv_from_fraction_outward():
    with working_precision(BITS):
        x = iv_from_fraction(Fraction(1, 3))
        lo, hi = iv_endpoints(x)
    assert lo < hi  # 1/3 is not binary-representable: genuine interval
    # exact dyadic comparison against the true value
    assert mpf_to_fraction(lo) < Fraction(1, 3) < mpf_to_fraction(hi)
