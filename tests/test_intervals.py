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
from mpmath import libmp, mp
from mpmath.libmp import fnan, finf, fninf, fzero, mpf_gt, mpf_le, mpf_lt, mpf_neg

from carleman.errors import PrecisionExhaustedError
from carleman.intervals import (
    LogReal,
    SignedEnclosure,
    bits_for_digits,
    mpf_str,
    working_precision,
)
from carleman.outcomes import Outcome
from conftest import (
    encloses_fraction,
    log_hi,
    log_lo,
    mpf_to_fraction,
    ref_rejects,
    sum_values,
    value_endpoints,
)

BITS = bits_for_digits(50)

positive_fractions = st.fractions(
    min_value=Fraction(1, 10**6), max_value=Fraction(10**6)
).filter(lambda f: f > 0)


def test_one_is_exact_zero_log():
    one = LogReal.one()
    assert log_lo(one) == 0 == log_hi(one)


def test_log_interval_must_be_ordered():
    x = LogReal.from_int(3, BITS)
    with pytest.raises(PrecisionExhaustedError):
        LogReal((log_hi(x) + 1)._mpf_, x.log_lo, BITS)


@pytest.mark.parametrize("bits", [33, 53, BITS])
def test_log_cap_is_exactly_ten_to_the_24(bits):
    # 10^24 = 5^24 * 2^24 needs a 56-bit mantissa: a 53-bit conversion
    # would move the cap below 10^24 and reject the boundary itself; the
    # check must not depend on the active precision either
    cap = libmp.from_int(10**24)
    neg_cap = libmp.from_int(-(10**24))
    # the next mpf above 10^24 at 56 bits, and the next integer above it
    above = (libmp.from_man_exp(5**24 + 1, 24), libmp.from_int(10**24 + 1))
    below = tuple(libmp.mpf_neg(x) for x in above)
    x = LogReal(neg_cap, cap, bits)
    assert (log_lo(x), log_hi(x)) == (-(10**24), 10**24)
    for hi, lo in zip(above, below):
        with pytest.raises(PrecisionExhaustedError):
            LogReal(cap, hi, bits)
        with pytest.raises(PrecisionExhaustedError):
            LogReal(lo, neg_cap, bits)


CAP, NEG_CAP = libmp.from_int(10**24), libmp.from_int(-(10**24))
#: the next mpf above 10^24 at 56 bits, and its negation
ABOVE_CAP = libmp.from_man_exp(5**24 + 1, 24)
BELOW_NEG_CAP = mpf_neg(ABOVE_CAP)
#: finite raw mpfs of every magnitude up to 2^280, the caps and their neighbours
finite_raw = st.one_of(
    st.builds(
        lambda negative, man, exp: libmp.from_man_exp(-man if negative else man, exp),
        st.booleans(), st.integers(min_value=0, max_value=2**200),
        st.integers(min_value=-120, max_value=80),
    ),
    st.sampled_from([CAP, NEG_CAP, ABOVE_CAP, BELOW_NEG_CAP]),
)


@pytest.mark.parametrize("bits", [33, 53, BITS])
def test_raw_constructor_rejects_what_the_mpf_route_rejected(bits):
    values = (fzero, libmp.from_int(3), libmp.from_int(-3), CAP, NEG_CAP, ABOVE_CAP,
              BELOW_NEG_CAP, fnan, finf, fninf)
    for lo in values:
        for hi in values:
            try:
                LogReal(lo, hi, bits)
                rejected = False
            except PrecisionExhaustedError:
                rejected = True
            assert rejected == ref_rejects(lo, hi), (lo, hi)


#: raw mpfs on both sides of the cap's top bit 80 (2^79 < 10^24 < 2^80), and
#: the zero and the specials, which the fast decisions leave to libmp
near_cap = st.sampled_from([
    libmp.from_int(sign * m) for sign in (1, -1)
    for m in (2**79 - 1, 2**79, 10**24 - 1, 10**24, 10**24 + 1, 2**80 - 1, 2**80, 2**81)
])
specials = st.sampled_from([fzero, finf, fninf, fnan])


@st.composite
def equal_top_bits(draw):
    """Two raw mpfs of one sign whose mantissas only compare once aligned:
    the second is the first with its mantissa shifted up and nudged."""
    sign, man, exp, _ = draw(finite_raw.filter(lambda x: x[1] != 0))
    shift = draw(st.integers(min_value=0, max_value=8))
    nudged = (man << shift) + draw(st.integers(min_value=-3, max_value=3))
    twin = libmp.from_man_exp(-nudged if sign else nudged, exp - shift)
    return (twin, libmp.from_man_exp(-man if sign else man, exp))[::draw(st.sampled_from([1, -1]))]


@settings(max_examples=500, deadline=None)
@given(pair=st.tuples(finite_raw | near_cap | specials, finite_raw | near_cap | specials)
       | equal_top_bits())
def test_order_and_cap_decisions_equal_the_libmp_comparisons(pair):
    # the constructor decides most endpoints from signs, top bits and aligned
    # mantissas; its verdict and its reason must be those of the comparisons
    lo, hi = pair
    if not mpf_le(lo, hi):
        expected = "invalid log interval"
    elif mpf_lt(lo, NEG_CAP) or mpf_gt(hi, CAP):
        expected = "exceeds the supported exponent range"
    else:
        expected = None
    try:
        LogReal(lo, hi, 53)
    except PrecisionExhaustedError as exc:
        assert expected is not None and expected in str(exc)
    else:
        assert expected is None


@settings(max_examples=300, deadline=None)
@given(x=finite_raw | st.sampled_from([fzero, fnan, finf, fninf]))
def test_mpf_str_renders_raw_endpoints_as_nstr(x):
    assert mpf_str(x) == mp.nstr(mp.make_mpf(x), 24)


def test_from_int_encloses_exact_value():
    x = LogReal.from_int(1_000_003, BITS)
    assert encloses_fraction(x, Fraction(1_000_003), BITS)


@settings(max_examples=60, deadline=None)
@given(a=positive_fractions, b=positive_fractions)
def test_mul_div_enclose_exact_rationals(a, b):
    xa, xb = LogReal.from_fraction(a, BITS), LogReal.from_fraction(b, BITS)
    assert encloses_fraction(xa * xb, a * b, BITS)
    assert encloses_fraction(xa / xb, a / b, BITS)


@settings(max_examples=40, deadline=None)
@given(a=positive_fractions, k=st.integers(min_value=-6, max_value=9))
def test_pow_int_encloses_exact_rationals(a, k):
    assert encloses_fraction(LogReal.from_fraction(a, BITS).pow_int(k), a**k, BITS)


@settings(max_examples=40, deadline=None)
@given(a=positive_fractions, b=positive_fractions, c=positive_fractions)
def test_sum_values_encloses_exact_sum(a, b, c):
    total = sum_values([LogReal.from_fraction(f, BITS) for f in (a, b, c)])
    assert encloses_fraction(total, a + b + c, BITS)


def test_sum_values_of_an_iterator_equals_the_list():
    # the precision scan must not consume the terms the loop then sums
    terms = [LogReal.from_int(2, 96), LogReal.from_int(3, 96)]
    streamed, listed = sum_values(iter(terms)), sum_values(terms)
    assert (streamed.log_lo, streamed.log_hi, streamed.bits) == (
        listed.log_lo, listed.log_hi, listed.bits
    )
    assert encloses_fraction(streamed, Fraction(5), 96)


def test_sum_values_of_nothing():
    # with no term the sum has no positive lower bound, tail or not
    for tail_upper in (None, LogReal.from_int(2, BITS)):
        with pytest.raises(ValueError, match="at least one term"):
            sum_values([], tail_upper=tail_upper)
        with pytest.raises(ValueError, match="at least one term"):
            sum_values(iter(()), tail_upper=tail_upper)


def test_sum_values_tail_interval_is_one_sided():
    # the tail only ever extends the upper endpoint
    base = sum_values([LogReal.from_int(2, BITS), LogReal.from_int(3, BITS)])
    padded = sum_values(
        [LogReal.from_int(2, BITS), LogReal.from_int(3, BITS)],
        tail_upper=LogReal.from_fraction(Fraction(1, 7), BITS),
    )
    assert padded.log_lo == base.log_lo
    assert encloses_fraction(padded, Fraction(5), BITS)
    assert encloses_fraction(padded, Fraction(5) + Fraction(1, 7), BITS)


def test_pow_fraction_matches_integer_root():
    # (x^(1/2))^2 must still enclose x
    x = LogReal.from_int(7, BITS)
    root = x.pow_fraction(Fraction(1, 2))
    assert encloses_fraction(root.pow_int(2), Fraction(7), BITS)


def test_comparison_discipline():
    two, three = LogReal.from_int(2, BITS), LogReal.from_int(3, BITS)
    assert two.leq(three) is Outcome.CONFIRMED
    assert three.leq(two) is Outcome.REFUTED
    assert two.leq(two) in (Outcome.CONFIRMED, Outcome.INCONCLUSIVE)
    # equal exact values confirm: 1 <= 1 via zero-radius logs
    assert LogReal.one(BITS).leq(LogReal.one(BITS)) is Outcome.CONFIRMED


def test_max_with_running_sup():
    a, b = LogReal.from_int(2, BITS), LogReal.from_int(5, BITS)
    sup = a.max_with(b)
    assert encloses_fraction(sup, Fraction(5), BITS)


def test_precision_changes_do_not_change_cached_values():
    x = LogReal.from_int(17, BITS)
    with working_precision(bits_for_digits(15)):
        y = x.pow_int(1)
    # the ambient precision is never read: the endpoints stay those of x
    assert (y.log_lo, y.log_hi, y.bits) == (x.log_lo, x.log_hi, BITS)
    assert encloses_fraction(y, Fraction(17), BITS)


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
        pos = SignedEnclosure(1, LogReal.from_int(2, BITS))
        neg = SignedEnclosure(-1, LogReal.from_int(2, BITS))
        plo, phi = value_endpoints(pos, BITS)
        nlo, nhi = value_endpoints(neg, BITS)
        assert plo > 0 and nhi < 0
        # compared as exact rationals: negating an mpf rounds at the ambient precision
        assert mpf_to_fraction(plo) == -mpf_to_fraction(nhi)
        assert mpf_to_fraction(phi) == -mpf_to_fraction(nlo)

    def test_scale_fraction_flips_sign(self):
        pos = SignedEnclosure(1, LogReal.from_int(3, BITS))
        scaled = pos.scale_fraction(Fraction(-1, 2))
        assert scaled.sign == -1
        assert encloses_fraction(scaled.magnitude, Fraction(3, 2), BITS)
        assert pos.scale_fraction(Fraction(0)).sign == 0


def test_from_log_fraction_outward():
    x = LogReal.from_log_fraction(Fraction(1, 3), BITS)
    lo, hi = log_lo(x), log_hi(x)
    assert lo < hi  # 1/3 is not binary-representable: genuine interval
    # exact dyadic comparison against the true value
    assert mpf_to_fraction(lo) < Fraction(1, 3) < mpf_to_fraction(hi)
