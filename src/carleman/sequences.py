"""Weight-sequence families and their certified log-space evaluation.

A weight sequence is an increasing sequence M = (M_n) with M_0 = 1 that
controls derivative growth |f^(n)| <= C R^n n! M_n of a smoothness class.
Built-in families:

* ``constant``: M_n = 1.
* ``gevrey(s)``: M_n = (n!)^s for a positive rational s.
* ``iterated_log(k)``: with L the k-fold iterated logarithm and n_k the
  smallest integer greater than the k-fold exponential tower e^^k, the
  shifted normalized sequence M_n = L(n_k)^(-n_k) * L(n_k + n)^(n_k + n).
  The thresholds n_k are not hardcoded: they are recovered from certified
  enclosures of e^^k (n_1 = 3, n_2 = 16), and the computation refuses to
  answer when the enclosure cannot isolate the integer.
* ``paper8``: the fixed double-log variant M_n =
  (log log 3)^(-3) * (log log (n+3))^(n+3), which starts below the e^e
  threshold; its small-index log-convexity is measured, never assumed.
* ``table``: explicit log M_n values supplied as exact decimal strings.
* ``transformed``: index dilation M_n -> M_{p n} for an integer p >= 2.

All magnitudes are :class:`~carleman.intervals.LogReal` enclosures at the
spec's working precision (significant decimal digits, default 80).  The same
spec and precision always reproduce bit-identical values, regardless of
evaluation order or memo state.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from mpmath import iv, mp

from .errors import IndexRangeError, PrecisionExhaustedError, SpecFormatError
from .intervals import (
    LogReal,
    bits_for_digits,
    iv_endpoints,
    iv_from_fraction,
    working_precision,
)

DEFAULT_MAX_INDEX = 10**6

FAMILIES = ("constant", "gevrey", "iterated_log", "paper8", "table", "transformed")

SPEC_FORMAT_VERSION = 1

#: boundary between the incremental exact-accumulation path for log n! and
#: the direct interval log-gamma path; a pure function of n so results never
#: depend on call order.
_LOGFACT_INCREMENTAL_MAX = 20000

_logfact_lock = threading.RLock()
_logfact_cache: dict[int, list[tuple[object, object]]] = {}


def log_factorial(n: int) -> LogReal:
    """Enclosure of log(n!) at the active working precision.

    Small n accumulate exact per-integer logs (one outward-rounded iv.log
    per step); large n go through the interval log-gamma.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > _LOGFACT_INCREMENTAL_MAX:
        return LogReal.from_log_iv(iv.loggamma(iv.mpf(n + 1)))
    bits = iv.prec
    with _logfact_lock:
        cache = _logfact_cache.setdefault(bits, [(mp.mpf(0), mp.mpf(0))])
        while len(cache) <= n:
            m = len(cache)
            prev_lo, prev_hi = cache[-1]
            step = iv.mpf([prev_lo, prev_hi]) + iv.log(iv.mpf(m))
            cache.append(iv_endpoints(step))
        lo, hi = cache[n]
    return LogReal(lo, hi)


_tower_lock = threading.RLock()
_tower_cache: dict[tuple[int, int], int] = {}


def tower_threshold(k: int) -> int:
    """Smallest integer strictly greater than the k-fold tower e^^k,
    recovered from a certified enclosure at the active precision.

    Raises :class:`PrecisionExhaustedError` when the enclosure straddles an
    integer boundary (for k >= 4 the tower has millions of digits and no
    practical precision can isolate it).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    key = (iv.prec, k)
    with _tower_lock:
        cached = _tower_cache.get(key)
        if cached is not None:
            return cached
        t = iv.exp(iv.mpf(1))
        for _ in range(k - 1):
            t = iv.exp(t)
        lo, hi = iv_endpoints(t)
        try:
            floor_lo = int(mp.floor(lo))
            floor_hi = int(mp.floor(hi))
        except (OverflowError, ValueError) as exc:
            raise PrecisionExhaustedError(f"tower e^^{k} exceeds the exponent range") from exc
        if floor_lo != floor_hi:
            raise PrecisionExhaustedError(
                f"enclosure of e^^{k} cannot isolate an integer at this precision"
            )
        result = floor_lo + 1
        _tower_cache[key] = result
        return result


# ---------------------------------------------------------------------------
# sequence specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SequenceSpec:
    """Deterministic description of a weight-sequence family.

    ``precision`` is the working precision in significant decimal digits;
    together with the family parameters it fixes every emitted enclosure
    bit-for-bit.
    """

    family: str
    s: Fraction | None = None
    k: int | None = None
    log_values: tuple[str, ...] | None = None
    base: "SequenceSpec | None" = None
    p: int | None = None
    precision: int = 80

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise SpecFormatError(f"unknown family {self.family!r}")
        if not _is_int(self.precision) or self.precision < 1:
            raise SpecFormatError("precision must be a positive integer")
        if self.family == "gevrey":
            if self.s is None or self.s <= 0:
                raise SpecFormatError("gevrey requires a positive rational s")
        elif self.family == "iterated_log":
            if not _is_int(self.k) or self.k < 1:
                raise SpecFormatError("iterated_log requires an integer k >= 1")
        elif self.family == "table":
            if not self.log_values:
                raise SpecFormatError("table requires a non-empty log_values list")
            vals = [_parse_decimal(v) for v in self.log_values]
            if vals[0] != 0:
                raise SpecFormatError("table log_values must start with log M_0 = 0")
            if any(b < a for a, b in zip(vals, vals[1:])):
                raise SpecFormatError("table log_values must be non-decreasing")
        elif self.family == "transformed":
            if self.base is None or not _is_int(self.p) or self.p < 2:
                raise SpecFormatError("transformed requires a base spec and integer p >= 2")

    @property
    def bits(self) -> int:
        return bits_for_digits(self.precision)

    def label(self) -> str:
        if self.family == "gevrey":
            return f"gevrey(s={self.s})"
        if self.family == "iterated_log":
            return f"iterated_log(k={self.k})"
        if self.family == "table":
            return f"table(len={len(self.log_values)})"
        if self.family == "transformed":
            return f"transformed({self.base.label()}, p={self.p})"
        return self.family

    def base_chain(self) -> tuple["SequenceSpec", int]:
        """Innermost non-transformed spec and the product of all dilation
        factors along the chain (1 when not transformed)."""
        spec, power = self, 1
        while spec.family == "transformed":
            power *= spec.p
            spec = spec.base
        return spec, power

    def structure_key(self) -> tuple:
        """Family + parameters, ignoring precision (used by symbolic rules)."""
        if self.family == "gevrey":
            return ("gevrey", self.s)
        if self.family == "iterated_log":
            return ("iterated_log", self.k)
        if self.family == "table":
            return ("table", self.log_values)
        if self.family == "transformed":
            return ("transformed", self.base.structure_key(), self.p)
        return (self.family,)

    def to_dict(self) -> dict:
        params: dict = {}
        if self.family == "gevrey":
            params["s"] = str(self.s)
        elif self.family == "iterated_log":
            params["k"] = self.k
        elif self.family == "table":
            params["log_values"] = list(self.log_values)
        elif self.family == "transformed":
            params["p"] = self.p
            params["base"] = self.base.to_dict()
        return {
            "version": SPEC_FORMAT_VERSION,
            "family": self.family,
            "params": params,
            "precision": self.precision,
        }


def _is_int(x) -> bool:
    """True for a genuine integer; JSON ``true``/``false`` are not counts."""
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_decimal(text: str) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecFormatError(f"not a decimal/rational literal: {text!r}") from exc


def spec_from_dict(doc: dict) -> SequenceSpec:
    if not isinstance(doc, dict):
        raise SpecFormatError("spec document must be a JSON object")
    version = doc.get("version", SPEC_FORMAT_VERSION)
    if version != SPEC_FORMAT_VERSION:
        raise SpecFormatError(f"unsupported spec version {version!r}")
    family = doc.get("family")
    params = doc.get("params", {}) or {}
    if not isinstance(params, dict):
        raise SpecFormatError("params must be an object")
    precision = doc.get("precision", 80)
    if not _is_int(precision):
        raise SpecFormatError("precision must be an integer")
    kwargs: dict = {"family": family, "precision": precision}
    if family == "gevrey":
        if "s" not in params:
            raise SpecFormatError("gevrey params require s")
        kwargs["s"] = _parse_decimal(params["s"])
    elif family == "iterated_log":
        if not _is_int(params.get("k")):
            raise SpecFormatError("iterated_log params require integer k")
        kwargs["k"] = params["k"]
    elif family == "table":
        values = params.get("log_values")
        if not isinstance(values, list):
            raise SpecFormatError("table params require a log_values list")
        kwargs["log_values"] = tuple(str(v) for v in values)
    elif family == "transformed":
        if not _is_int(params.get("p")):
            raise SpecFormatError("transformed params require integer p")
        kwargs["p"] = params["p"]
        kwargs["base"] = spec_from_dict({**params.get("base", {}),
                                         "version": SPEC_FORMAT_VERSION})
    elif family not in ("constant", "paper8"):
        raise SpecFormatError(f"unknown family {family!r}")
    return SequenceSpec(**kwargs)


def load_spec(path: str | Path) -> SequenceSpec:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SpecFormatError(f"cannot read spec file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"spec file {path} is not valid JSON: {exc}") from exc
    return spec_from_dict(doc)


def dump_spec(spec: SequenceSpec) -> str:
    return json.dumps(spec.to_dict(), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


class WeightSequence:
    """Memoized log-space evaluator for one spec.

    Evaluation is a pure function of (spec, index): the memo only avoids
    recomputation, and refilling any index reproduces the identical
    interval.  Fills are idempotent and safe under concurrent readers.
    """

    def __init__(self, spec: SequenceSpec, max_index: int = DEFAULT_MAX_INDEX):
        self.spec = spec
        self.max_index = max_index
        self.bits = spec.bits
        self._memo: dict[int, LogReal] = {}
        self._mprime_memo: dict[int, LogReal] = {}
        self._ratio_memo: dict[int, LogReal] = {}
        self._lock = threading.RLock()
        self._base: WeightSequence | None = None
        if spec.family == "transformed":
            self._base = WeightSequence(spec.base, max_index=max_index)
        self._table: list[Fraction] | None = None
        if spec.family == "table":
            self._table = [_parse_decimal(v) for v in spec.log_values]
        self._nk: int | None = None

    # -- plumbing ------------------------------------------------------------

    def _check_index(self, n: int) -> None:
        if not isinstance(n, int) or n < 0:
            raise IndexRangeError(f"index must be a nonnegative integer, got {n!r}")
        if n > self.max_index:
            raise IndexRangeError(f"index {n} beyond configured maximum {self.max_index}")
        if self._table is not None and n >= len(self._table):
            raise IndexRangeError(f"table family has no value at index {n}")

    def _iterated_log(self, m: int, k: int):
        x = iv.mpf(m)
        for _ in range(k):
            x = iv.log(x)
        return x

    def _compute_log_M(self, n: int) -> LogReal:
        # precondition: working precision is active and the index is valid
        if n == 0:
            return LogReal.one()
        family = self.spec.family
        if family == "constant":
            return LogReal.one()
        if family == "gevrey":
            return LogReal.from_log_iv(
                log_factorial(n).log_iv() * iv_from_fraction(self.spec.s)
            )
        if family == "iterated_log":
            if self._nk is None:
                self._nk = tower_threshold(self.spec.k)
            nk, k = self._nk, self.spec.k
            head = iv.log(self._iterated_log(nk + n, k)) * (nk + n)
            norm = iv.log(self._iterated_log(nk, k)) * nk
            return LogReal.from_log_iv(head - norm)
        if family == "paper8":
            head = iv.log(self._iterated_log(n + 3, 2)) * (n + 3)
            norm = iv.log(self._iterated_log(3, 2)) * 3
            return LogReal.from_log_iv(head - norm)
        if family == "table":
            return LogReal.from_log_fraction(self._table[n])
        if family == "transformed":
            return self._base.log_M(self.spec.p * n)
        raise AssertionError(f"unhandled family {family}")

    # -- public surface --------------------------------------------------------

    def log_M(self, n: int) -> LogReal:
        """Enclosure of M_n (log M_0 = 0 exactly, zero radius)."""
        self._check_index(n)
        with self._lock:
            hit = self._memo.get(n)
        if hit is not None:
            return hit
        with working_precision(self.bits):
            value = self._compute_log_M(n)
        with self._lock:
            return self._memo.setdefault(n, value)

    def recompute_log_M(self, n: int) -> LogReal:
        """Memo-bypassing evaluation, for idempotence audits."""
        self._check_index(n)
        with working_precision(self.bits):
            return self._compute_log_M(n)

    def log_Mprime(self, n: int) -> LogReal:
        """Enclosure of M'_n = n! * M_n, memoized like :meth:`log_M`."""
        self._check_index(n)
        with self._lock:
            hit = self._mprime_memo.get(n)
        if hit is not None:
            return hit
        value = self.log_M(n)
        if n > 1:
            with working_precision(self.bits):
                value = LogReal.from_log_iv(log_factorial(n).log_iv() + value.log_iv())
        with self._lock:
            return self._mprime_memo.setdefault(n, value)

    def ratio_m(self, k: int) -> LogReal:
        """Enclosure of the primed ratio m_k = M'_{k+1} / M'_k, memoized."""
        with self._lock:
            hit = self._ratio_memo.get(k)
        if hit is not None:
            return hit
        hi, lo = self.log_Mprime(k + 1), self.log_Mprime(k)
        with working_precision(self.bits):
            value = hi / lo
        with self._lock:
            return self._ratio_memo.setdefault(k, value)


def power_substitute(spec: SequenceSpec, p: int):
    """Index dilation of a sequence: returns the spec of the sequence
    n -> M_{p n} together with the primed-normalization evaluator
    n -> n^(-(p-1) n) * M'_{p n}  (value 1 at n = 0, by the 0^0 = 1
    convention, consistent with M_0 = 1).
    """
    if not isinstance(p, int) or p < 2:
        raise ValueError("p must be an integer >= 2")
    tspec = SequenceSpec(family="transformed", base=spec, p=p, precision=spec.precision)
    base_ws = WeightSequence(spec)

    def log_mprime_sub(n: int) -> LogReal:
        if not isinstance(n, int) or n < 0:
            raise IndexRangeError(f"index must be a nonnegative integer, got {n!r}")
        if n == 0:
            return LogReal.one()
        base_m = base_ws.log_M(p * n)
        with working_precision(base_ws.bits):
            log_iv = (
                log_factorial(p * n).log_iv()
                + base_m.log_iv()
                - iv.log(iv.mpf(n)) * ((p - 1) * n)
            )
            return LogReal.from_log_iv(log_iv)

    return tspec, log_mprime_sub


@dataclass(frozen=True)
class BoundCertificate:
    """Constants (C, R) asserting a derivative growth bound of the class
    form |f^(n)| <= C * R^n * M'_n on the named interval."""

    C: LogReal
    R: LogReal
    interval_id: str
    seq: SequenceSpec

    def __post_init__(self) -> None:
        # LogReal values are positive by construction; keep the invariant
        # explicit anyway.
        if self.C is None or self.R is None:
            raise ValueError("certificate constants must be present")

    def as_dict(self) -> dict:
        from .intervals import mpf_str

        return {
            "C_log": [mpf_str(self.C.log_lo), mpf_str(self.C.log_hi)],
            "R_log": [mpf_str(self.R.log_lo), mpf_str(self.R.log_hi)],
            "interval_id": self.interval_id,
            "seq": self.seq.label(),
        }

