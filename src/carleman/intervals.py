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
interval; sums of values re-enter the linear domain through exp / log round
trips, which widen by outward rounding only.  One accumulation loop serves
both :func:`sum_values` and :func:`partial_sums`, which streams its terms and
takes the log only at the requested partial sums.
"""

from __future__ import annotations

import threading
from collections.abc import Collection, Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

from mpmath import iv, mp
from mpmath.libmp import (
    from_int,
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

from .errors import PrecisionExhaustedError
from .outcomes import Outcome

DEFAULT_DIGITS = 80
_GUARD_BITS = 30
_BITS_PER_DIGIT = 3.3219280948873626
#: log values outside [-cap, cap] are treated as exponent-range overflow.
#: Both bounds are exact raw mpfs (10^24 needs 56 bits).
_LOG_CAP = from_int(10**24)
_NEG_LOG_CAP = from_int(-(10**24))

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

    mpmath precision is global state; this guard runs code written against
    ``mpmath.iv`` at a chosen precision and keeps concurrent callers
    consistent.  :class:`LogReal` arithmetic never needs it.
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


def _fraction_mpi(fr: Fraction, bits: int):
    """Outward-rounded endpoints of an exact rational at ``bits``: numerator
    and denominator are each rounded outward, then divided."""
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
        if not mpf_le(log_lo, log_hi):
            raise PrecisionExhaustedError(
                f"invalid log interval [{mpf_str(log_lo)}, {mpf_str(log_hi)}]"
            )
        if mpf_lt(log_lo, _NEG_LOG_CAP) or mpf_gt(log_hi, _LOG_CAP):
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
        ``from_fraction(Fraction(n))`` without building the Fraction."""
        if n <= 0:
            raise ValueError("LogReal represents positive reals only")
        return cls.from_mpi(mpi_log(_int_mpi(n, bits), bits), bits)

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


def _running_sums(terms: Iterable[LogReal], bits: int) -> Iterator[tuple]:
    """The raw ``libmpi`` running sums of the values of ``terms``, one per
    term, accumulated at ``bits``; a term made at more bits raises
    ``ValueError`` rather than being rounded down.  The one summation loop:
    :func:`sum_values` and :func:`partial_sums` both read it."""
    acc = (fzero, fzero)
    for t in terms:
        if t.bits > bits:
            raise ValueError(f"a term made at {t.bits} bits cannot be summed at {bits}")
        acc = mpi_add(acc, mpi_exp(t._mpi(), bits), bits)
        yield acc


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
    for acc in _running_sums(terms, bits):
        pass
    if tail_upper is not None:
        acc = mpi_add(acc, (fzero, mpf_exp(tail_upper.log_hi, bits, round_ceiling)), bits)
    return LogReal.from_mpi(mpi_log(acc, bits), bits)


def partial_sums(terms: Iterable[LogReal], at: Collection[int], bits: int) -> dict[int, LogReal]:
    """Enclosures of the partial sums S_N of the values of ``terms`` at each
    N in ``at``, by increasing N, in one pass at ``bits`` that holds no term.

    Each S_N is bit for bit ``sum_values`` of the first N terms when every
    term is made at ``bits``: the fold from zero runs in the same order.
    """
    wanted = set(at)
    sums = {
        n: LogReal.from_mpi(mpi_log(acc, bits), bits)
        for n, acc in enumerate(_running_sums(terms, bits), 1)
        if n in wanted
    }
    if sums.keys() != wanted:
        raise ValueError("partial sums asked for at an index without a term")
    return sums


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
