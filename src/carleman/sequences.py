"""Weight-sequence families and their certified log-space evaluation.

A weight sequence is an increasing sequence M = (M_n) with M_0 = 1 that
controls derivative growth |f^(n)| <= C R^n n! M_n of a smoothness class.
Each family (constant, gevrey, iterated_log, paper8, table, transformed) is
one entry of :data:`FAMILIES`: its parameters, label, evaluation, index
range and the per-family facts the criteria rely on.

All magnitudes are :class:`~carleman.intervals.LogReal` enclosures at the
spec's working precision (significant decimal digits), computed on raw
``libmpi`` endpoints that round at that precision: no family reads mpmath's
global precision.  The same spec and precision always reproduce
bit-identical values, regardless of evaluation order or memo state.  Each
sequence memoizes M and M' in a :class:`~carleman.memo.Memo`, as the module
does log n! per (n, precision); ``lru_cache`` holds the tower thresholds
and the normaliser of each shifted iterated-log sequence.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from mpmath.libmp import (
    fone,
    from_int,
    mpi_add,
    mpi_div,
    mpi_exp,
    mpi_log,
    mpi_loggamma,
    mpi_mul,
    mpi_sub,
    round_floor,
    to_int,
)

from .errors import IndexRangeError, PrecisionExhaustedError, SpecFormatError
from .intervals import (DEFAULT_DIGITS, LogReal, _int_mpi, bits_for_digits, mpf_str,
                        working_precision)
from .memo import Memo

DEFAULT_MAX_INDEX = 10**6

#: the largest working precision a spec or ``--precision`` may ask for, in
#: significant decimal digits
MAX_PRECISION = 1000

#: the most digits, and the largest decimal exponent magnitude, of a decimal
#: or rational literal in a spec (``s``, ``log_values``).  Both are decided
#: on the string before any integer is built, and together they keep every
#: accepted value under CPython's 4,300-digit ``int_max_str_digits``
MAX_LITERAL_DIGITS = 1000
MAX_LITERAL_EXPONENT = 1000

SPEC_FORMAT_VERSION = 1

#: read only by the benchmark, which splits its count of ``log_factorial``
#: calls at this index; ``log_factorial`` has one route at every n
_LOGFACT_INCREMENTAL_MAX = 20000

#: (n, bits) -> log n!
_logfact_cache = Memo()


def log_factorial(n: int, bits: int) -> LogReal:
    """Enclosure of log(n!) at ``bits``: the interval log-gamma of n + 1,
    memoized per (n, bits).  It is exactly 0 at n = 0 and n = 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _logfact_cache.get((n, bits), _log_gamma, n + 1, bits)


def _log_gamma(x: int, bits: int) -> LogReal:
    return LogReal.from_mpi(mpi_loggamma((from_int(x),) * 2, bits), bits)


@lru_cache(maxsize=None)
def tower_threshold(k: int, bits: int) -> int:
    """Smallest integer strictly greater than the k-fold tower e^^k,
    recovered from a certified enclosure at ``bits``.

    Raises :class:`PrecisionExhaustedError` when the enclosure of some
    level e^^j, j <= k, straddles an integer boundary (for j >= 4 the tower
    has millions of digits and no practical precision can isolate it).  The
    check runs at every level, so a k >= 5 fails at level 4 instead of
    exponentiating e^^4.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    t = (fone, fone)
    for _ in range(k):
        t = mpi_exp(t, bits)
        try:
            floor_lo, floor_hi = (to_int(x, round_floor) for x in t)
        except (OverflowError, ValueError) as exc:
            raise PrecisionExhaustedError(f"tower e^^{k} exceeds the exponent range") from exc
        if floor_lo != floor_hi:
            raise PrecisionExhaustedError(
                f"enclosure of e^^{k} cannot isolate an integer at this precision"
            )
    return floor_lo + 1


# ---------------------------------------------------------------------------
# sequence specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SequenceSpec:
    """Deterministic description of a weight-sequence family.

    ``precision`` is the working precision in significant decimal digits;
    together with the family parameters it fixes every emitted enclosure
    bit-for-bit.  A nested ``base`` takes the outer spec's precision.  The
    parameters a family declares in :data:`FAMILIES` are parsed and
    validated on construction.
    """

    family: str
    s: Fraction | None = None
    k: int | None = None
    log_values: tuple[str, ...] | None = None
    base: "SequenceSpec | None" = None
    p: int | None = None
    precision: int = DEFAULT_DIGITS

    def __post_init__(self) -> None:
        entry = _family(self.family)
        if not _is_int(self.precision) or not 1 <= self.precision <= MAX_PRECISION:
            raise SpecFormatError(f"precision must be an integer from 1 to {MAX_PRECISION}")
        declared = {param.name for param in entry.params} | {"family", "precision"}
        for field in fields(self):
            if field.name not in declared and getattr(self, field.name) is not None:
                raise SpecFormatError(f"{self.family} takes no parameter {field.name}")
        for param in entry.params:
            object.__setattr__(self, param.name, param.parse(getattr(self, param.name)))
        if self.base is not None and self.base.precision != self.precision:
            # a dilation chain computes at one precision: the outermost spec's
            object.__setattr__(self, "base", replace(self.base, precision=self.precision))

    @property
    def bits(self) -> int:
        return bits_for_digits(self.precision)

    def label(self) -> str:
        return FAMILIES[self.family].label(self)

    def base_chain(self) -> tuple["SequenceSpec", int]:
        """Innermost non-transformed spec and the product of all dilation
        factors along the chain (1 when not transformed)."""
        spec, power = self, 1
        while spec.base is not None:
            power *= spec.p
            spec = spec.base
        return spec, power

    def to_dict(self) -> dict:
        return {
            "version": SPEC_FORMAT_VERSION,
            "family": self.family,
            "params": {
                param.name: param.dump(getattr(self, param.name))
                for param in FAMILIES[self.family].params
            },
            "precision": self.precision,
        }


def _is_int(x) -> bool:
    """True for a genuine integer; JSON ``true``/``false`` are not counts."""
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_decimal(text, field: str) -> Fraction:
    """The exact value of the decimal or rational literal ``text`` of the
    spec field ``field``.  The literal's size is decided on the string
    first, so no literal past :data:`MAX_LITERAL_DIGITS` or
    :data:`MAX_LITERAL_EXPONENT` builds its integers."""
    text = str(text)
    mantissa, _, exponent = text.lower().partition("e")
    if sum(c.isdigit() for c in mantissa) > MAX_LITERAL_DIGITS:
        raise SpecFormatError(f"{field}: literal has more than {MAX_LITERAL_DIGITS} digits")
    magnitude = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if magnitude.isdecimal() and (len(magnitude) > len(str(MAX_LITERAL_EXPONENT))
                                  or int(magnitude) > MAX_LITERAL_EXPONENT):
        raise SpecFormatError(
            f"{field}: literal exponent exceeds {MAX_LITERAL_EXPONENT} in magnitude")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecFormatError(f"{field}: not a decimal/rational literal: {text!r}") from exc


def _reject_unknown(keys, known, where: str) -> None:
    unknown = sorted(set(keys) - set(known))
    if unknown:
        raise SpecFormatError(f"unknown {where} {', '.join(map(repr, unknown))}")


def spec_from_dict(doc: dict) -> SequenceSpec:
    if not isinstance(doc, dict):
        raise SpecFormatError("spec document must be a JSON object")
    _reject_unknown(doc, ("version", "family", "params", "precision"), "spec key")
    version = doc.get("version", SPEC_FORMAT_VERSION)
    if not _is_int(version) or version != SPEC_FORMAT_VERSION:
        raise SpecFormatError(f"unsupported spec version {version!r}")
    family = doc.get("family")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise SpecFormatError("params must be an object")
    names = [param.name for param in _family(family).params]
    _reject_unknown(params, names, f"{family} parameter")
    precision = doc.get("precision", DEFAULT_DIGITS)
    return SequenceSpec(family=family, precision=precision, **{n: params.get(n) for n in names})


def load_spec(path: str | Path) -> SequenceSpec:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecFormatError(f"cannot read spec file {path}: {exc}") from exc
    try:
        return spec_from_dict(json.loads(text))
    except (ValueError, RecursionError) as exc:
        # not JSON, an integer past the interpreter's digit limit, or a base
        # chain nested deeper than its recursion limit
        raise SpecFormatError(f"spec file {path} is not a valid spec document: {exc}") from exc


def dump_spec(spec: SequenceSpec) -> str:
    return json.dumps(spec.to_dict(), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# the family table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Param:
    """A family parameter: its :class:`SequenceSpec` field and ``params`` key,
    its parse-and-validate function, and its inverse for documents."""

    name: str
    parse: Callable[[object], object]
    dump: Callable[[object], object] = lambda value: value


#: the factor between a term bound and its comparand: it lets the enclosure
#: of a term separate from the bound at every precision, even where the
#: term equals the comparand (constant, gevrey at p = 1)
_TERM_SLACK = 2


@dataclass(frozen=True)
class TermBound:
    """A bound on t_n = M_n / ((n+1) M_(n+1)) by ``rule``: from index ``n0``
    on, t_n <= 2 c_n (``direction`` "upper") or 2 t_n >= c_n ("lower"), with
    c_n enclosed by ``comparand(n, bits, *args)`` and described by ``shape``.
    As a quasianalyticity fact, sum c_n converges (upper) or diverges
    (lower), and so does sum t_n; as a derivation-closure fact it is lower:
    M_(n+1)/M_n <= 2/((n+1) c_n), whose n-th roots stay bounded."""

    direction: str
    rule: str
    shape: str
    comparand: Callable[..., LogReal]
    args: tuple = ()
    n0: int = 1

    def statement(self) -> str:
        if self.direction == "upper":
            return f"for n >= {self.n0}: t_n <= {_TERM_SLACK} * {self.shape}"
        return f"for n >= {self.n0}: {_TERM_SLACK} t_n >= {self.shape}"

    def rhs(self, n: int, bits: int) -> LogReal:
        """Enclosure of the bound on t_n at ``bits``."""
        bound = self.comparand(n, bits, *self.args)
        slack = LogReal.from_int(_TERM_SLACK, bits)
        return bound * slack if self.direction == "upper" else bound / slack


@dataclass(frozen=True)
class Family:
    """Everything the package knows about one weight-sequence family.

    ``log_M(ws, n)`` encloses log M_n for n >= 1; ``last_index(spec)`` is the
    largest index defined (None: unbounded).  The remaining fields are facts,
    each a callable ``(base, p)`` or None when no closed form is encoded;
    they are read only through :func:`family_fact`.  ``mprime_logconvex``
    says M' is log-convex at every index.
    """

    params: tuple[Param, ...]
    log_M: Callable
    label: Callable[[SequenceSpec], str] = lambda spec: spec.family
    last_index: Callable[[SequenceSpec], int | None] = lambda spec: None
    quasianalytic: Callable[[SequenceSpec, int], TermBound] | None = None
    derivation_closed: Callable[[SequenceSpec, int], TermBound] | None = None
    mprime_logconvex: Callable[[SequenceSpec, int], str] | None = None
    gevrey_index: Callable[[SequenceSpec, int], Fraction] | None = None


#: the facts a dilation M_n -> M_(pn) keeps, each read at the innermost base
#: with p the product of the chain's factors.  Both are term bounds: the
#: term of a dilation is exp(log M_(pn) - log M_(pn+p)) / (n+1), and each
#: family's bound takes p to say how small (quasianalyticity) or how large
#: (derivation closure) that is.  Nothing is encoded for M' log-convexity
#: or the Gevrey index of a dilation.
_KEPT_BY_DILATION = ("quasianalytic", "derivation_closed")


def family_fact(spec: SequenceSpec, name: str):
    """The family fact ``name`` of ``spec``, or None when none is encoded:
    ``rule(base, p)`` for the innermost base and the product p of
    :meth:`SequenceSpec.base_chain`."""
    base, p = spec.base_chain()
    rule = getattr(FAMILIES[base.family], name)
    if rule is None or (p > 1 and name not in _KEPT_BY_DILATION):
        return None
    return rule(base, p)


def _family(family) -> Family:
    if not isinstance(family, str) or family not in FAMILIES:
        raise SpecFormatError(f"unknown family {family!r}")
    return FAMILIES[family]


def _parse_s(value) -> Fraction:
    s = None if value is None else _parse_decimal(value, "gevrey s")
    if s is None or s <= 0:
        raise SpecFormatError("gevrey requires a positive rational s")
    return s


def _parse_integer(minimum: int, message: str) -> Callable[[object], int]:
    def parse(value) -> int:
        if not _is_int(value) or value < minimum:
            raise SpecFormatError(message)
        return value

    return parse


def _parse_log_values(values) -> tuple[str, ...]:
    if not isinstance(values, (list, tuple)) or not values:
        raise SpecFormatError("table requires a non-empty log_values list")
    text = tuple(str(v) for v in values)
    parsed = [_parse_decimal(v, f"table log_values[{i}]") for i, v in enumerate(text)]
    if parsed[0] != 0:
        raise SpecFormatError("table log_values must start with log M_0 = 0")
    if any(b < a for a, b in zip(parsed, parsed[1:])):
        raise SpecFormatError("table log_values must be non-decreasing")
    return text


def _parse_base(base) -> SequenceSpec:
    if isinstance(base, SequenceSpec):
        return base
    if isinstance(base, dict):
        return spec_from_dict(base)
    raise SpecFormatError("transformed requires a base spec object")


def _shifted_log_M(start: int, k: int, n: int, bits: int) -> LogReal:
    """log of L(start)^(-start) * L(start + n)^(start + n), L the k-fold log,
    outward rounded at ``bits``."""
    return LogReal.from_mpi(
        mpi_sub(_x_log_L(start + n, k, bits), _x_log_L_start(start, k, bits), bits), bits
    )


def _x_log_L(x: int, k: int, bits: int):
    """Raw ``libmpi`` enclosure of x log L_k(x) for an integer x: k + 1 logs
    of x, the first one shared through :meth:`LogReal.from_int`."""
    log = LogReal.from_int(x, bits)._mpi()
    for _ in range(k):
        log = mpi_log(log, bits)
    return mpi_mul(log, _int_mpi(x, bits), bits)


@lru_cache(maxsize=64)
def _x_log_L_start(start: int, k: int, bits: int):
    """:func:`_x_log_L` at the start of a shifted sequence: its constant
    normaliser, computed once per (start, k, bits)."""
    return _x_log_L(start, k, bits)


def _dilated_last_index(spec: SequenceSpec) -> int | None:
    top = FAMILIES[spec.base.family].last_index(spec.base)
    return None if top is None else top // spec.p


def _power_comparand(n: int, bits: int, exponent: Fraction) -> LogReal:
    """(n+1)^(-exponent)."""
    return LogReal.from_int(n + 1, bits).pow_fraction(-exponent)


def _tower_slope(y: int, k: int, bits: int):
    """Raw ``libmpi`` enclosure of g'(y) = log L_k(y) + 1/(L_1(y) ... L_k(y)),
    the slope of g(y) = y log L_k(y) (see the ``iterated_log`` comment)."""
    log = product = LogReal.from_int(y, bits)._mpi()
    for _ in range(k - 1):
        log = mpi_log(log, bits)
        product = mpi_mul(product, log, bits)
    return mpi_add(mpi_log(log, bits), mpi_div(_int_mpi(1, bits), product, bits), bits)


def _tower_comparand(n: int, bits: int, k: int, start: int, p: int, lower: bool) -> LogReal:
    """exp(-p h) / (n+1) for x = start + p n, where the term of the dilation
    by p of log M_m = g(start + m) - g(start) is exp(g(x) - g(x+p)) / (n+1)
    and g is convex on [x, x+p], x >= e^^k.  Convexity gives
    p g'(x) <= g(x+p) - g(x) <= p g'(x+p), so h = g'(x+p) bounds the term
    from below (``lower``) and h = log L_k(x) <= g'(x) from above."""
    x = start + p * n
    if lower:
        h = _tower_slope(x + p, k, bits)
    else:
        h = LogReal.from_int(x, bits)._mpi()
        for _ in range(k):
            h = mpi_log(h, bits)
    return (LogReal.from_mpi(mpi_mul(_int_mpi(-p, bits), h, bits), bits)
            / LogReal.from_int(n + 1, bits))


def _tower_lower(rule: str, k: int, start: int, p: int, n0: int = 1) -> TermBound:
    """The lower term bound of a shifted tower sequence of depth k, dilated
    by p, with x = start + pn past e^^k from index ``n0`` on.  There
    1/(L_1 ... L_k) <= 1, so the comparand is at least
    e^(-p) / ((n+1) L_k(x+p)^p): a divergent condensation series when p = 1
    or k >= 2, and for every p the ratio M_(n+1)/M_n <= 2 e^p L_k(x+p)^p
    has n-th roots that tend to 1."""
    return TermBound(
        "lower", rule,
        f"exp(-p g'(x+p))/(n+1), x = {start} + pn, g(y) = y log L_k(y), k = {k}, p = {p}",
        _tower_comparand, (k, start, p, True), n0,
    )


def _step_comparand(n: int, bits: int, p: int, exponent: Fraction) -> LogReal:
    """(n+1)^-1 (pn+p)^-exponent."""
    return (LogReal.from_int(p * n + p, bits).pow_fraction(-exponent)
            / LogReal.from_int(n + 1, bits))


def _iterated_log_quasianalytic(base: SequenceSpec, p: int) -> TermBound:
    start = tower_threshold(base.k, base.bits)
    if p == 1:
        # terms ~ 1/((n+1) L_k(n)) >= c/(n log n); condensation on the
        # divergent Abel-type series
        return _tower_lower("condensation: terms ~ 1/(n * iterated-log_k(n))",
                            base.k, start, p)
    if base.k == 1:
        # terms <= 1/(n (log n)^p) with p >= 2: Bertrand series converges
        return TermBound(
            "upper", f"condensation: terms ~ 1/(n (log n)^{p}), exponent {p} > 1",
            f"1/((n+1) log(x)^p), x = {start} + pn, p = {p}", _tower_comparand,
            (1, start, p, False),
        )
    # k >= 2: (L_k n)^p grows slower than any power of log n, so the
    # condensed series sum 1/(log m)^p-type still diverges
    return _tower_lower(
        f"condensation: terms ~ 1/(n (iterated-log_{base.k} n)^{p}) diverge", base.k, start, p)


#: every weight-sequence family, by the name spec documents use
FAMILIES: dict[str, Family] = {
    # M_n = 1
    "constant": Family(
        params=(),
        log_M=lambda ws, n: LogReal.one(ws.bits),
        # terms are exactly 1/(n+1) for every p: the harmonic series
        quasianalytic=lambda base, p: TermBound(
            "lower", "harmonic comparison: terms equal 1/(n+1)", "(n+1)^-1",
            _power_comparand, (Fraction(1),),
        ),
        derivation_closed=lambda base, p: TermBound(
            "lower", "ratio is identically 1", "(n+1)^-1", _power_comparand, (Fraction(1),),
        ),
        mprime_logconvex=lambda base, p: "M'_k = k!: ratios k+1 increase",
        gevrey_index=lambda base, p: Fraction(0),
    ),
    # M_n = (n!)^s for a positive rational s
    "gevrey": Family(
        params=(Param("s", _parse_s, str),),
        log_M=lambda ws, n: log_factorial(n, ws.bits).pow_fraction(ws.spec.s),
        label=lambda spec: f"gevrey(s={spec.s})",
        # terms 1/(n+1)^(1+s) for p = 1; a dilation only shrinks them
        # (extra factor ((pn)!/(pn+p)!)^s <= (n+1)^(-s))
        quasianalytic=lambda base, p: TermBound(
            "upper", f"p-series comparison: terms <= 1/(n+1)^(1+{base.s})",
            f"(n+1)^-(1+{base.s})", _power_comparand, (1 + base.s,),
        ),
        derivation_closed=lambda base, p: TermBound(
            "lower", f"ratio <= (pn+p)^(p*{base.s}) is polynomial in n; n-th root tends to 1",
            f"(n+1)^-1 (pn+p)^-(p*{base.s}), p = {p}", _step_comparand, (p, p * base.s),
        ),
        mprime_logconvex=lambda base, p: (
            f"M'_k = (k!)^(1+{base.s}): ratios (k+1)^(1+{base.s}) increase"
        ),
        gevrey_index=lambda base, p: base.s,
    ),
    # M_n = L(n_k)^(-n_k) L(n_k + n)^(n_k + n), L the k-fold logarithm and
    # n_k = tower_threshold(k) the smallest integer above e^^k
    "iterated_log": Family(
        params=(Param("k", _parse_integer(1, "iterated_log requires an integer k >= 1")),),
        log_M=lambda ws, n: _shifted_log_M(
            tower_threshold(ws.spec.k, ws.bits), ws.spec.k, n, ws.bits
        ),
        label=lambda spec: f"iterated_log(k={spec.k})",
        quasianalytic=_iterated_log_quasianalytic,
        derivation_closed=lambda base, p: _tower_lower(
            "ratio grows like the iterated logarithm; n-th root tends to 1",
            base.k, tower_threshold(base.k, base.bits), p,
        ),
        # Write L_j for the j-fold logarithm and g(x) = x log L_k(x), so that
        # log M_n = g(n_k + n) - g(n_k).  From L_j' = 1/(x L_1 ... L_(j-1)):
        #   g'(x)  = log L_k + 1/(L_1 ... L_k),
        #   g''(x) = (1 - sum_{j=1..k} 1/(L_1 ... L_j)) / (x L_1 ... L_k).
        # For x >= e^^k every L_j(x) >= e^^(k-j), so L_1 ... L_j >= e^j for
        # j < k and L_1 ... L_k >= e^(k-1); the sum is <= 1 when k = 1
        # (1/log x <= 1 for x >= e) and <= 1/(e-1) + e^(1-k) < 1 when k >= 2.
        # So g is convex on [e^^k, oo), and n_k > e^^k makes every second
        # difference log M_(n-1) - 2 log M_n + log M_(n+1), n >= 1, a second
        # difference of g inside that range: M is log-convex at every index.
        # log k! has second differences log((k+1)/k) > 0, and a sum of
        # convex sequences is convex, so M'_k = k! M_k is log-convex too.
        mprime_logconvex=lambda base, p: (
            "shifted tower sequence is log-convex at every index; times k! stays log-convex"
        ),
    ),
    # M_n = (log log 3)^(-3) (log log (n+3))^(n+3): it starts below the e^e
    # threshold of the double log, so its small-index log-convexity is
    # measured, never assumed, and it has no M' fact
    "paper8": Family(
        params=(),
        log_M=lambda ws, n: _shifted_log_M(3, 2, n, ws.bits),
        # double-log base: the iterated_log(k=2) rule from start 3, where
        # g(y) = y log log log y is convex once 3 + pn >= 16 > e^e
        quasianalytic=lambda base, p: _tower_lower(
            f"condensation: terms ~ 1/(n (log log n)^{p}) diverge", 2, 3, p, -(-13 // p)
        ),
        derivation_closed=lambda base, p: _tower_lower(
            "ratio grows like the double logarithm; n-th root tends to 1", 2, 3, p, -(-13 // p)
        ),
    ),
    # explicit log M_n values as exact decimal strings; each is parsed when
    # WeightSequence.log_M first asks for it
    "table": Family(
        params=(Param("log_values", _parse_log_values, list),),
        log_M=lambda ws, n: LogReal.from_log_fraction(
            _parse_decimal(ws.spec.log_values[n], f"table log_values[{n}]"), ws.bits
        ),
        label=lambda spec: f"table(len={len(spec.log_values)})",
        last_index=lambda spec: len(spec.log_values) - 1,
    ),
    # M_n -> M_(pn) for an integer p >= 2; base first, so that structure keys
    # read (transformed, base key, p)
    "transformed": Family(
        params=(
            Param("base", _parse_base, lambda base: base.to_dict()),
            Param("p", _parse_integer(2, "transformed requires an integer p >= 2")),
        ),
        log_M=lambda ws, n: ws._base.log_M(ws.spec.p * n),
        label=lambda spec: f"transformed({spec.base.label()}, p={spec.p})",
        last_index=_dilated_last_index,
    ),
}


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


class WeightSequence:
    """Memoized log-space evaluator for one spec.

    Evaluation is a pure function of (spec, index): the memo only avoids
    recomputation, and refilling any index reproduces the identical
    interval.  Fills are idempotent and safe under concurrent readers.
    """

    def __init__(self, spec: SequenceSpec):
        self.spec = spec
        self.bits = spec.bits
        self._memo = Memo()
        self._mprime_memo = Memo()
        #: largest index the family defines (None: every index up to DEFAULT_MAX_INDEX)
        self.last_index: int | None = FAMILIES[spec.family].last_index(spec)
        self._base = None if spec.base is None else WeightSequence(spec.base)

    # -- plumbing ------------------------------------------------------------

    def _check_index(self, n: int) -> None:
        if not isinstance(n, int) or n < 0:
            raise IndexRangeError(f"index must be a nonnegative integer, got {n!r}")
        if n > DEFAULT_MAX_INDEX:
            raise IndexRangeError(f"index {n} beyond the maximum {DEFAULT_MAX_INDEX}")
        if self.last_index is not None and n > self.last_index:
            raise IndexRangeError(f"{self.spec.label()} has no value at index {n}")

    def _compute_log_M(self, n: int) -> LogReal:
        # precondition: the index is valid
        if n == 0:
            return LogReal.one(self.bits)
        # no family body reads the global precision: the fill enters
        # ``working_precision`` only because the benchmark's self-checks
        # expect a positive ``intervals.precision_switches`` count
        with working_precision(self.bits):
            return FAMILIES[self.spec.family].log_M(self, n)

    # -- public surface --------------------------------------------------------

    def log_M(self, n: int) -> LogReal:
        """Enclosure of M_n (log M_0 = 0 exactly, zero radius)."""
        self._check_index(n)
        return self._memo.get(n, self._compute_log_M, n)

    def log_Mprime(self, n: int) -> LogReal:
        """Enclosure of M'_n = n! * M_n, memoized like :meth:`log_M`."""
        self._check_index(n)
        return self._mprime_memo.get(n, self._compute_log_Mprime, n)

    def _compute_log_Mprime(self, n: int) -> LogReal:
        return log_factorial(n, self.bits) * self.log_M(n)

    def ratio_m(self, k: int) -> LogReal:
        """Enclosure of the primed ratio m_k = M'_{k+1} / M'_k."""
        return self.log_Mprime(k + 1) / self.log_Mprime(k)

    def log_Mprime_sub(self, p: int, n: int) -> LogReal:
        """Enclosure of n^(-(p-1) n) M'_(pn): the envelope of the
        power-substitution bound for the dilation M_(pn) of this sequence,
        from its M' (value 1 at n = 0, by the 0^0 = 1 convention)."""
        if n == 0:
            return LogReal.one(self.bits)
        return self.log_Mprime(p * n) / LogReal.from_int(n, self.bits).pow_int((p - 1) * n)

    def dilation(self, p: int) -> "WeightSequence":
        """The index dilation n -> M_(pn) of this sequence, which reads its
        values from this sequence's memo."""
        dilated = WeightSequence(power_substitute(self.spec, p))
        dilated._base = self
        return dilated


def power_substitute(spec: SequenceSpec, p: int) -> SequenceSpec:
    """Index dilation of a sequence: the spec of n -> M_{p n}, at the
    precision of ``spec``.  Its primed normalization n^(-(p-1) n) M'_{p n}
    is ``WeightSequence(spec).log_Mprime_sub(p, n)``.
    """
    if not isinstance(p, int) or p < 2:
        raise ValueError("p must be an integer >= 2")
    return SequenceSpec(family="transformed", base=spec, p=p, precision=spec.precision)


@dataclass(frozen=True)
class BoundCertificate:
    """Constants (C, R) asserting a derivative growth bound of the class
    form |f^(n)| <= C * R^n * M'_n on the named interval."""

    C: LogReal
    R: LogReal
    interval_id: str
    seq: SequenceSpec

    def as_dict(self) -> dict:
        return {
            "C_log": [mpf_str(self.C.log_lo), mpf_str(self.C.log_hi)],
            "R_log": [mpf_str(self.R.log_lo), mpf_str(self.R.log_hi)],
            "interval_id": self.interval_id,
            "seq": self.seq.label(),
        }

