"""Directed-rounding enclosures for positive reals, stored in log space.

Weight-sequence magnitudes overflow any fixed-width float long before the
index ranges of interest, so every inexact quantity in this package is a
:class:`LogReal`: an interval ``[exp(lo), exp(hi)]`` whose endpoints are
arbitrary-precision floats of the *logarithm*.  All arithmetic goes through
mpmath's interval context (``mpmath.iv``), which rounds outward, so results
are genuine enclosures: the true value always lies inside.

Multiplication, division, and powers are exact linear operations on the log
interval; sums of values re-enter the linear domain through ``iv.exp`` /
``iv.log`` round trips, which widen by outward rounding only.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

from mpmath import iv, libmp, mp

from .errors import PrecisionExhaustedError
from .outcomes import Outcome

DEFAULT_DIGITS = 80
_GUARD_BITS = 30
_BITS_PER_DIGIT = 3.3219280948873626
#: log values outside [-cap, cap] are treated as exponent-range overflow.
#: Both bounds are exact mpfs (10^24 needs 56 bits), compared without abs()
#: or negation, which would round at the active precision.
_LOG_CAP = mp.make_mpf(libmp.from_int(10**24))
_NEG_LOG_CAP = mp.make_mpf(libmp.from_int(-(10**24)))

_prec_lock = threading.RLock()


def bits_for_digits(digits: int) -> int:
    if digits < 1:
        raise ValueError("precision must be a positive digit count")
    return int(digits * _BITS_PER_DIGIT) + _GUARD_BITS


@contextmanager
def working_precision(bits: int):
    """Run a block at a fixed binary precision for both mpmath contexts.

    mpmath precision is global state; this guard makes every public
    operation a pure function of (inputs, precision) and keeps concurrent
    callers consistent.
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


def iv_endpoints(x):
    """Raw mpf endpoints of an ``iv.mpf``."""
    lo_raw, hi_raw = x._mpi_
    return mp.make_mpf(lo_raw), mp.make_mpf(hi_raw)


def iv_from_endpoints(lo, hi):
    return iv.mpf([lo, hi])


def iv_from_fraction(fr: Fraction):
    """Outward-rounded interval for an exact rational."""
    num = iv.mpf(fr.numerator)
    if fr.denominator == 1:
        return num
    return num / iv.mpf(fr.denominator)


def mpf_str(x) -> str:
    """Deterministic decimal rendering of an mpf endpoint (24 digits)."""
    return mp.nstr(x, 24)


class LogReal:
    """Enclosure of a positive real, as an interval around its natural log.

    The represented set is ``[exp(log_lo), exp(log_hi)]``.  Construction and
    arithmetic guarantee the interval is well ordered and finite; violations
    raise :class:`PrecisionExhaustedError` rather than wrapping silently.
    """

    __slots__ = ("log_lo", "log_hi")

    def __init__(self, log_lo, log_hi):
        if not (log_lo <= log_hi):
            raise PrecisionExhaustedError(
                f"invalid log interval [{log_lo}, {log_hi}]"
            )
        if log_lo < _NEG_LOG_CAP or log_hi > _LOG_CAP:
            raise PrecisionExhaustedError(
                "log magnitude exceeds the supported exponent range"
            )
        self.log_lo = log_lo
        self.log_hi = log_hi

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls) -> "LogReal":
        """The exact value 1 (log interval [0, 0], zero radius)."""
        z = mp.mpf(0)
        return cls(z, z)

    @classmethod
    def from_log_iv(cls, x) -> "LogReal":
        lo, hi = iv_endpoints(x)
        return cls(lo, hi)

    @classmethod
    def from_int(cls, n: int) -> "LogReal":
        if n < 1:
            raise ValueError("LogReal represents positive reals only")
        if n == 1:
            return cls.one()
        return cls.from_log_iv(iv.log(iv.mpf(n)))

    @classmethod
    def from_fraction(cls, fr: Fraction) -> "LogReal":
        if fr <= 0:
            raise ValueError("LogReal represents positive reals only")
        if fr == 1:
            return cls.one()
        return cls.from_log_iv(iv.log(iv_from_fraction(fr)))

    @classmethod
    def from_log_fraction(cls, fr: Fraction) -> "LogReal":
        """Value exp(fr) for an exact rational log value."""
        if fr == 0:
            return cls.one()
        lo, hi = iv_endpoints(iv_from_fraction(fr))
        return cls(lo, hi)

    @classmethod
    def from_value_iv(cls, x) -> "LogReal":
        lo, _ = iv_endpoints(x)
        if lo <= 0:
            raise ValueError("cannot take log of an interval touching zero")
        return cls.from_log_iv(iv.log(x))

    # -- views -------------------------------------------------------------

    def log_iv(self):
        return iv_from_endpoints(self.log_lo, self.log_hi)

    def value_iv(self):
        """Linear-domain interval enclosure (outward-rounded exp)."""
        return iv.exp(self.log_iv())

    # -- arithmetic (exact in the log domain up to outward rounding) --------

    def __mul__(self, other: "LogReal") -> "LogReal":
        return LogReal.from_log_iv(self.log_iv() + other.log_iv())

    def __truediv__(self, other: "LogReal") -> "LogReal":
        return LogReal.from_log_iv(self.log_iv() - other.log_iv())

    def pow_int(self, k: int) -> "LogReal":
        if k == 0:
            return LogReal.one()
        return LogReal.from_log_iv(self.log_iv() * k)

    def pow_fraction(self, f: Fraction) -> "LogReal":
        if f == 0:
            return LogReal.one()
        return LogReal.from_log_iv(self.log_iv() * iv_from_fraction(f))

    def max_with(self, other: "LogReal") -> "LogReal":
        """Enclosure of max(x, y): used for running suprema."""
        return LogReal(max(self.log_lo, other.log_lo), max(self.log_hi, other.log_hi))

    # -- comparisons (the confirmation discipline) ---------------------------

    def leq(self, other: "LogReal") -> Outcome:
        """Three-valued ``self <= other``."""
        if self.log_hi <= other.log_lo:
            return Outcome.CONFIRMED
        if self.log_lo > other.log_hi:
            return Outcome.REFUTED
        return Outcome.INCONCLUSIVE

    def geq(self, other: "LogReal") -> Outcome:
        return other.leq(self)

    def __repr__(self) -> str:
        return f"LogReal(log=[{mpf_str(self.log_lo)}, {mpf_str(self.log_hi)}])"


def sum_values(terms, tail_upper: "LogReal | None" = None) -> LogReal:
    """Enclosure of a finite sum of positive values, plus an optional
    certified tail interval ``[0, tail_upper]``.

    Accumulates in the linear domain; the result is exact up to outward
    rounding of the exp/log round trips.
    """
    acc = iv.mpf(0)
    for t in terms:
        acc += t.value_iv()
    if tail_upper is not None:
        _, tail_hi = iv_endpoints(tail_upper.value_iv())
        acc += iv_from_endpoints(mp.mpf(0), tail_hi)
    return LogReal.from_value_iv(acc)


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
        return SignedEnclosure(sign, self.magnitude * LogReal.from_fraction(abs(f)))


@dataclass(frozen=True)
class LinearEnclosure:
    """Plain linear-domain interval, for quantities that may cross zero
    (partial sums of a cosine series, plot samples)."""

    lo: object
    hi: object

    def __post_init__(self) -> None:
        if not (self.lo <= self.hi):
            raise PrecisionExhaustedError(f"invalid interval [{self.lo}, {self.hi}]")

    @classmethod
    def from_iv(cls, x) -> "LinearEnclosure":
        lo, hi = iv_endpoints(x)
        return cls(lo, hi)
