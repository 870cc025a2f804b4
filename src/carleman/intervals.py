"""Directed-rounding enclosures for positive reals, stored in log space.

Weight-sequence magnitudes overflow any fixed-width float long before the
index ranges of interest, so every inexact quantity in this package is a
:class:`LogReal`: an interval ``[exp(lo), exp(hi)]`` whose endpoints are
arbitrary-precision floats of the *logarithm*, held as raw ``libmp`` tuples,
together with the binary precision it was computed at.  Every operation
rounds outward at the larger precision of its operands through mpmath's
``libmpi``, and every endpoint comparison goes through ``libmp``, so results
are genuine enclosures (the true value always lies inside) and never depend
on mpmath's process-global precision.

Multiplication, division, and powers are exact linear operations on the log
interval; sums of values (:func:`sum_values`) re-enter the linear domain
through exp / log round trips, which widen by outward rounding only.

The cold memo fill builds one value per index, so each piece of interval
arithmetic on that path is done once: the log of an integer is evaluated
once for both roundings and cached per ``(n, bits)``, a rational exponent is
rounded once per precision, and the constructor decides order and the
exponent-range cap from signs, top bits and aligned mantissas, leaving only
zeros, infinities, NaN and values near the cap to the ``libmp`` comparisons.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath import iv, mp
from mpmath.libmp import (
    from_int,
    from_man_exp,
    fzero,
    mpf_exp,
    mpf_gt,
    mpf_le,
    mpf_lt,
    mpf_neg,
    mpi_add,
    mpi_cos,
    mpi_div,
    mpi_exp,
    mpi_log,
    mpi_mul,
    mpi_sub,
    round_ceiling,
    round_floor,
    to_str,
)
from mpmath.libmp.libelefun import LOG_TAYLOR_PREC, ln2_fixed, log_taylor_cached

from .errors import PrecisionExhaustedError
from .outcomes import Outcome

DEFAULT_DIGITS = 80
_GUARD_BITS = 30
_BITS_PER_DIGIT = 3.3219280948873626
#: log values outside [-cap, cap] are treated as exponent-range overflow.
#: Both bounds are exact raw mpfs (10^24 needs 56 bits).
_LOG_CAP = from_int(10**24)
_NEG_LOG_CAP = from_int(-(10**24))
#: a nonzero finite mpf whose top bit ``exp + bc`` is at most this is below
#: 2^79 < 10^24 in magnitude, so inside the cap without a comparison
_CAP_FREE_TOP_BIT = 79

_prec_lock = threading.RLock()


def bits_for_digits(digits: int) -> int:
    if digits < 1:
        raise ValueError("precision must be a positive digit count")
    return int(digits * _BITS_PER_DIGIT) + _GUARD_BITS


#: the precision of a spec that does not set one
DEFAULT_BITS = bits_for_digits(DEFAULT_DIGITS)


@contextmanager
def working_precision(bits: int):
    """Run a block at a fixed binary precision for both mpmath contexts.

    mpmath precision is global state; this guard sets it for a block and
    keeps concurrent callers consistent.  No computation of the package
    reads it: :class:`LogReal` arithmetic and every family ``log_M`` body
    round at their own precision.  Its one caller is the fill of M
    (``sequences.WeightSequence._compute_log_M``).
    """
    with _prec_lock:
        old_iv, old_mp = iv.prec, mp.prec
        iv.prec = bits
        mp.prec = bits
        try:
            yield
        finally:
            iv.prec = old_iv
            mp.prec = old_mp


def _int_mpi(n: int, bits: int):
    """Outward-rounded endpoints of an integer at ``bits``."""
    return from_int(n, bits, round_floor), from_int(n, bits, round_ceiling)


@lru_cache(maxsize=256)
def _fraction_mpi(fr: Fraction, bits: int):
    """Outward-rounded endpoints of an exact rational at ``bits``: numerator
    and denominator are each rounded outward, then divided.  Cached, so a
    power such as gevrey's exponent is rounded once, not once per term."""
    num = _int_mpi(fr.numerator, bits)
    return num if fr.denominator == 1 else mpi_div(num, _int_mpi(fr.denominator, bits), bits)


def mpf_str(x) -> str:
    """Deterministic decimal rendering of a raw mpf endpoint (24 digits),
    the digits ``mp.nstr`` gives for the same value."""
    return to_str(x, 24)


class LogReal:
    """Enclosure of a positive real, as an interval around its natural log.

    The represented set is ``[exp(log_lo), exp(log_hi)]``, with the log
    endpoints as raw ``libmp`` tuples computed at ``bits`` of binary
    precision.  Construction and arithmetic guarantee the interval is well
    ordered and finite; violations raise :class:`PrecisionExhaustedError`
    rather than wrapping silently.
    """

    __slots__ = ("log_lo", "log_hi", "bits")

    def __init__(self, log_lo, log_hi, bits: int):
        lo_sign, lo_man, lo_exp, lo_bc = log_lo
        hi_sign, hi_man, hi_exp, hi_bc = log_hi
        if lo_man and hi_man:
            # both endpoints nonzero and finite: the signs, the top bits
            # exp + bc and, on a tie, the mantissas aligned to one exponent
            # decide the order exactly, with no mpf subtraction
            lo_top, hi_top = lo_exp + lo_bc, hi_exp + hi_bc
            if lo_sign != hi_sign:
                ordered = lo_sign
            elif lo_top != hi_top:
                ordered = (lo_top < hi_top) != lo_sign
            else:
                shift = lo_exp - hi_exp
                if shift >= 0:
                    lo_man <<= shift
                else:
                    hi_man <<= -shift
                ordered = lo_man == hi_man or (lo_man < hi_man) != lo_sign
            # only a negative lo or a positive hi can pass a cap
            near_cap = ((lo_sign and lo_top > _CAP_FREE_TOP_BIT)
                        or (not hi_sign and hi_top > _CAP_FREE_TOP_BIT))
        else:
            # zero, an infinity or NaN: the libmp comparisons decide
            ordered, near_cap = mpf_le(log_lo, log_hi), True
        if not ordered:
            raise PrecisionExhaustedError(
                f"invalid log interval [{mpf_str(log_lo)}, {mpf_str(log_hi)}]"
            )
        if near_cap and (mpf_lt(log_lo, _NEG_LOG_CAP) or mpf_gt(log_hi, _LOG_CAP)):
            raise PrecisionExhaustedError(
                "log magnitude exceeds the supported exponent range"
            )
        self.log_lo = log_lo
        self.log_hi = log_hi
        self.bits = bits

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_mpi(cls, log_mpi, bits: int) -> "LogReal":
        """From raw ``libmp`` endpoints ``(lo, hi)`` of the log, made at ``bits``."""
        lo, hi = log_mpi
        return cls(lo, hi, bits)

    @classmethod
    def one(cls, bits: int = DEFAULT_BITS) -> "LogReal":
        """The exact value 1 (log interval [0, 0], zero radius)."""
        return cls.from_mpi((fzero, fzero), bits)

    @classmethod
    def from_int(cls, n: int, bits: int) -> "LogReal":
        """log n for a positive integer n, bit for bit
        ``from_fraction(Fraction(n))`` without building the Fraction.  The
        last 256 ``(n, bits)`` are cached, so the log-factorial fill and the
        quasianalyticity term share log(n + 1)."""
        if n <= 0:
            raise ValueError("LogReal represents positive reals only")
        return _log_int(n, bits)

    @classmethod
    def from_fraction(cls, fr: Fraction, bits: int) -> "LogReal":
        if fr <= 0:
            raise ValueError("LogReal represents positive reals only")
        return cls.from_mpi(mpi_log(_fraction_mpi(fr, bits), bits), bits)

    @classmethod
    def from_log_fraction(cls, fr: Fraction, bits: int) -> "LogReal":
        """Value exp(fr) for an exact rational log value."""
        return cls.from_mpi(_fraction_mpi(fr, bits), bits)

    def _mpi(self):
        """The raw ``libmp`` endpoints ``(lo, hi)`` of the log."""
        return self.log_lo, self.log_hi

    # -- arithmetic (exact in the log domain up to outward rounding) --------
    # each result is rounded at the larger precision of its operands

    def __mul__(self, other: "LogReal") -> "LogReal":
        bits = max(self.bits, other.bits)
        return LogReal.from_mpi(mpi_add(self._mpi(), other._mpi(), bits), bits)

    def __truediv__(self, other: "LogReal") -> "LogReal":
        bits = max(self.bits, other.bits)
        return LogReal.from_mpi(mpi_sub(self._mpi(), other._mpi(), bits), bits)

    def pow_int(self, k: int) -> "LogReal":
        return self.pow_fraction(Fraction(k))

    def pow_fraction(self, f: Fraction) -> "LogReal":
        factor = _fraction_mpi(f, self.bits)
        return LogReal.from_mpi(mpi_mul(self._mpi(), factor, self.bits), self.bits)

    def max_with(self, other: "LogReal") -> "LogReal":
        """Enclosure of max(x, y): used for running suprema."""
        lo = other.log_lo if mpf_lt(self.log_lo, other.log_lo) else self.log_lo
        hi = other.log_hi if mpf_lt(self.log_hi, other.log_hi) else self.log_hi
        return LogReal(lo, hi, max(self.bits, other.bits))

    # -- comparisons (the confirmation discipline) ---------------------------

    def leq(self, other: "LogReal") -> Outcome:
        """Three-valued ``self <= other``."""
        if mpf_le(self.log_hi, other.log_lo):
            return Outcome.CONFIRMED
        if mpf_gt(self.log_lo, other.log_hi):
            return Outcome.REFUTED
        return Outcome.INCONCLUSIVE

    def geq(self, other: "LogReal") -> Outcome:
        return other.leq(self)

    def __repr__(self) -> str:
        return f"LogReal(log=[{mpf_str(self.log_lo)}, {mpf_str(self.log_hi)}], bits={self.bits})"


@lru_cache(maxsize=256)
def _log_int(n: int, bits: int) -> LogReal:
    """log n for an integer n >= 1, bit for bit ``mpi_log`` of its
    outward-rounded endpoints at ``bits``.

    For an n exact at ``bits`` both endpoints are one mpf, and ``mpi_log``
    evaluates mpmath's fixed-point log of it twice, once per rounding.  Here
    the general branch of ``mpf_log`` (Taylor series with cached argument
    reduction, plus mag * log 2) runs once, and its fixed-point value is
    rounded down and up: the two roundings ``mpi_log`` makes.  An n that is
    not exact at ``bits``, a power of two, a huge magnitude and a precision
    past the Taylor range take other branches of ``mpf_log``, so they go
    through ``mpi_log`` itself.
    """
    _, man, exp, bc = from_int(n)
    wp, mag = bits + 20, exp + bc
    if bc > bits or man == 1 or wp > LOG_TAYLOR_PREC or mag > 10000:
        return LogReal.from_mpi(mpi_log(_int_mpi(n, bits), bits), bits)
    log_n = log_taylor_cached(man << (wp - bc), wp) + mag * ln2_fixed(wp)
    return LogReal(from_man_exp(log_n, -wp, bits, round_floor),
                   from_man_exp(log_n, -wp, bits, round_ceiling), bits)


def sum_values(terms: Iterable[LogReal], tail_upper: LogReal | None = None) -> LogReal:
    """Enclosure of a finite sum of positive values, plus an optional
    certified tail interval ``[0, tail_upper]``, at the largest precision of
    its operands.

    Accumulates in the linear domain; the result is exact up to outward
    rounding of the exp/log round trips.  ``terms`` may be any non-empty
    iterable: with no term the sum has no positive lower bound.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("sum_values needs at least one term")
    bits = max(t.bits for t in (*terms, tail_upper) if t is not None)
    acc = (fzero, fzero)
    for t in terms:
        acc = mpi_add(acc, mpi_exp(t._mpi(), bits), bits)
    if tail_upper is not None:
        acc = mpi_add(acc, (fzero, mpf_exp(tail_upper.log_hi, bits, round_ceiling)), bits)
    return LogReal.from_mpi(mpi_log(acc, bits), bits)


def cosine_sum(terms: Sequence[tuple[LogReal, LogReal]], xi: Fraction,
               tail_upper: LogReal) -> "LinearEnclosure":
    """Enclosure of sum c cos(2 m xi) over the pairs (c, m) of ``terms``, for
    an exact rational xi, plus a certified tail interval ``[-tail_upper,
    tail_upper]``, at the largest precision of its operands."""
    bits = max(tail_upper.bits, *(x.bits for pair in terms for x in pair))
    two, xi_mpi = _int_mpi(2, bits), _fraction_mpi(xi, bits)
    acc = (fzero, fzero)
    for c, m in terms:
        angle = mpi_mul(mpi_mul(two, mpi_exp(m._mpi(), bits), bits), xi_mpi, bits)
        acc = mpi_add(acc, mpi_mul(mpi_exp(c._mpi(), bits), mpi_cos(angle, bits), bits), bits)
    tail_hi = mpf_exp(tail_upper.log_hi, bits, round_ceiling)
    return LinearEnclosure(*mpi_add(acc, (mpf_neg(tail_hi), tail_hi), bits))


@dataclass(frozen=True)
class SignedEnclosure:
    """A signed real with certified magnitude: sign in {+1, -1, 0}.

    Sign 0 means the value is exactly zero, in which case there is no
    magnitude interval (``magnitude is None``); the invariant is enforced.
    """

    sign: int
    magnitude: LogReal | None

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0, or +1")
        if (self.sign == 0) != (self.magnitude is None):
            raise ValueError("sign 0 if and only if the magnitude is exactly zero")

    @classmethod
    def zero(cls) -> "SignedEnclosure":
        return cls(0, None)

    def scale_fraction(self, f: Fraction) -> "SignedEnclosure":
        """Multiply by an exact rational (sign-aware)."""
        if self.sign == 0 or f == 0:
            return SignedEnclosure.zero()
        sign = self.sign if f > 0 else -self.sign
        return SignedEnclosure(
            sign, self.magnitude * LogReal.from_fraction(abs(f), self.magnitude.bits)
        )


@dataclass(frozen=True)
class LinearEnclosure:
    """Plain linear-domain interval with raw ``libmp`` endpoints, for
    quantities that may cross zero (partial sums of a cosine series, plot
    samples)."""

    lo: tuple
    hi: tuple

    def __post_init__(self) -> None:
        if not mpf_le(self.lo, self.hi):
            raise PrecisionExhaustedError(
                f"invalid interval [{mpf_str(self.lo)}, {mpf_str(self.hi)}]"
            )
