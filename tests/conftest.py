"""Shared fixtures, the exact-value oracles the tests compare enclosures
against, and the reference interval route.  Each oracle that rounds takes
its precision as an argument instead of reading mpmath's process-global
precision.

The reference route is how the package computed before its values carried
their precision: every operation went through ``mpmath.iv`` inside a
``working_precision`` block.  It stays here as the independent twin of the
``libmpi`` primitives in :mod:`carleman.intervals`; each ``ref_*`` function
takes the precision as an argument and returns an ``iv.mpf``.

The package holds every endpoint as a raw ``libmp`` tuple; :func:`as_mpf`,
:func:`log_lo` and :func:`log_hi` are the ``mpf`` views the tests compare
and convert.

Members that only the tests need live here too: the two power routes over
:class:`~carleman.coefficients.SeriesPoly`, the signed root series, the
prefix route of the partial sums, the streamed quasianalyticity terms, and
the path of a shipped fixture.
"""

from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from mpmath import iv, libmp, mp

from carleman.coefficients import SeriesPoly, root_series_magnitudes
from carleman.intervals import LogReal, SignedEnclosure, sum_values, working_precision
from carleman.sequences import MAX_PRECISION, SequenceSpec, WeightSequence


def shipped_fixture(name: str) -> Path:
    """Path of the spec document ``name`` shipped under ``data/fixtures``."""
    return Path(str(resources.files("carleman").joinpath(f"data/fixtures/{name}.json")))


def pow_convolve(series: SeriesPoly, k: int) -> SeriesPoly:
    """k-th power of ``series`` by iterated convolution (k - 1 products)."""
    if k < 1:
        raise ValueError("power must be >= 1")
    acc = series
    for _ in range(k - 1):
        acc = acc.mul(series)
    return acc


def pow_squaring(series: SeriesPoly, k: int) -> SeriesPoly:
    """k-th power of ``series`` by binary exponentiation: the independent
    route that cross-checks :func:`pow_convolve`."""
    if k < 1:
        raise ValueError("power must be >= 1")
    result = None
    while k:
        if k & 1:
            result = series if result is None else result.mul(series)
        k >>= 1
        if k:
            series = series.mul(series)
    return result


def root_series_signed(p: int, i_max: int) -> SeriesPoly:
    """Signed a-series as a truncated polynomial: a_i = (-1)^(i-1) |a_i|."""
    mags = root_series_magnitudes(p, i_max)
    return SeriesPoly(tuple(m if i % 2 == 1 else -m for i, m in enumerate(mags)))


def as_mpf(raw):
    """The ``mpf`` with the raw ``libmp`` endpoint ``raw``."""
    return mp.make_mpf(raw)


def log_lo(x: LogReal):
    """Lower log endpoint of ``x`` as an ``mpf``."""
    return mp.make_mpf(x.log_lo)


def log_hi(x: LogReal):
    """Upper log endpoint of ``x`` as an ``mpf``."""
    return mp.make_mpf(x.log_hi)


def ref_rejects(lo, hi) -> bool:
    """Whether the ``LogReal`` constructor that compared ``mpf`` objects
    rejected the raw log endpoints ``lo``, ``hi``: disordered or NaN, or
    outside [-10^24, 10^24] (both caps exact, never negated)."""
    lo, hi = mp.make_mpf(lo), mp.make_mpf(hi)
    cap, neg_cap = mp.make_mpf(libmp.from_int(10**24)), mp.make_mpf(libmp.from_int(-(10**24)))
    return not (lo <= hi) or lo < neg_cap or hi > cap


def encloses_fraction(value: LogReal, fr: Fraction, bits: int) -> bool:
    """Certified containment of the exact positive rational ``fr`` in ``value``.

    The reference enclosure of log(fr) is computed at ``bits + 64``, so it
    is negligibly wide next to an enclosure made at ``bits``; a True answer
    proves containment (a False answer near an endpoint can be a sub-ulp
    near-miss, never a false positive).
    """
    tight = LogReal.from_fraction(fr, bits + 64)
    return log_lo(value) <= log_lo(tight) and log_hi(tight) <= log_hi(value)


def value_endpoints(se: SignedEnclosure, bits: int):
    """Linear-domain (lo, hi) mpf endpoints of a signed enclosure, at ``bits``."""
    if se.sign == 0:
        return mp.mpf(0), mp.mpf(0)
    with working_precision(bits):
        lo, hi = iv_endpoints(iv.exp(log_iv(se.magnitude)))
        return (lo, hi) if se.sign > 0 else (-hi, -lo)


def iv_endpoints(x):
    """Raw mpf endpoints of an ``iv.mpf``."""
    lo, hi = x._mpi_
    return mp.make_mpf(lo), mp.make_mpf(hi)


def log_iv(x: LogReal):
    """The log interval of ``x`` as an ``iv.mpf`` (endpoints kept exactly)."""
    return iv.make_mpf((x.log_lo, x.log_hi))


def same_endpoints(x: LogReal, ref) -> bool:
    """True when ``x`` has exactly the endpoints of the ``iv.mpf`` ``ref``."""
    return (x.log_lo, x.log_hi) == ref._mpi_


def iv_from_fraction(fr: Fraction):
    """Outward-rounded interval for an exact rational, at the active precision."""
    num = iv.mpf(fr.numerator)
    return num if fr.denominator == 1 else num / iv.mpf(fr.denominator)


def ref_from_fraction(fr: Fraction, bits: int):
    """log fr; log 1 is the exact zero."""
    with working_precision(bits):
        return iv.mpf(0) if fr == 1 else iv.log(iv_from_fraction(fr))


def ref_from_log_fraction(fr: Fraction, bits: int):
    with working_precision(bits):
        return iv_from_fraction(fr)


def ref_mul(a: LogReal, b: LogReal, bits: int):
    with working_precision(bits):
        return log_iv(a) + log_iv(b)


def ref_div(a: LogReal, b: LogReal, bits: int):
    with working_precision(bits):
        return log_iv(a) - log_iv(b)


def ref_pow(a: LogReal, f: Fraction, bits: int):
    """``pow_int`` for an integer ``f``, ``pow_fraction`` otherwise."""
    with working_precision(bits):
        if f == 0:
            return iv.mpf(0)
        if f.denominator == 1:
            return log_iv(a) * int(f)
        return log_iv(a) * iv_from_fraction(f)


def ref_sum_values(terms, tail_upper: LogReal, bits: int):
    """Log interval of the sum of the values of ``terms`` plus [0, tail_upper]."""
    with working_precision(bits):
        acc = iv.mpf(0)
        for t in terms:
            acc += iv.exp(log_iv(t))
        _, tail_hi = iv_endpoints(iv.exp(log_iv(tail_upper)))
        return iv.log(acc + iv.mpf([mp.mpf(0), tail_hi]))


def ref_partial_sums(terms, bits: int) -> list:
    """Log intervals of the running sums of the values of ``terms``."""
    with working_precision(bits):
        acc, sums = iv.mpf(0), []
        for t in terms:
            acc += iv.exp(log_iv(t))
            sums.append(iv.log(acc))
        return sums


def prefix_sums(terms, at) -> dict:
    """``sum_values`` of each prefix of ``terms`` of a length N in ``at``,
    by increasing N."""
    terms = list(terms)
    return {n: sum_values(terms[:n]) for n in sorted(at)}


def carleman_terms(ws: WeightSequence, n_max: int):
    """The quasianalyticity terms M_n / ((n+1) M_(n+1)) of ``ws`` for
    n = 1..n_max, one at a time: the stream the check summed before it
    sampled, kept as the twin of its rows."""
    upper = ws.log_M(1)
    for n in range(1, n_max + 1):
        lower, upper = upper, ws.log_M(n + 1)
        yield lower / LogReal.from_int(n + 1, ws.bits) / upper


def ref_log_factorial(n: int, bits: int):
    """Per-integer log accumulation up to the seam, log-gamma above it."""
    with working_precision(bits):
        if n > 20000:
            return iv.loggamma(iv.mpf(n + 1))
        acc = iv.mpf(0)
        for m in range(1, n + 1):
            acc = acc + iv.log(iv.mpf(m))
        return acc


def ref_shifted_log_M(start: int, k: int, n: int, bits: int):
    """log of L(start)^(-start) L(start + n)^(start + n), L the k-fold log:
    the ``iterated_log`` and ``paper8`` body as it was written against
    ``mpmath.iv``."""
    with working_precision(bits):
        head, norm = iv.mpf(start + n), iv.mpf(start)
        for _ in range(k):
            head, norm = iv.log(head), iv.log(norm)
        return iv.log(head) * (start + n) - iv.log(norm) * start


def ref_tower_threshold(k: int, bits: int) -> int:
    """Smallest integer above e^^k, or None when the enclosure straddles one."""
    with working_precision(bits):
        t = iv.exp(iv.mpf(1))
        for _ in range(k - 1):
            t = iv.exp(t)
        lo, hi = iv_endpoints(t)
        floor_lo, floor_hi = int(mp.floor(lo)), int(mp.floor(hi))
    return floor_lo + 1 if floor_lo == floor_hi else None


def ref_cosine_sum(terms, xi: Fraction, tail_upper: LogReal, bits: int):
    """Value-domain interval of sum c cos(2 m xi) + [-tail_upper, tail_upper]."""
    with working_precision(bits):
        acc = iv.mpf(0)
        xi_iv = iv_from_fraction(xi)
        for c, m in terms:
            acc = acc + iv.exp(log_iv(c)) * iv.cos(2 * iv.exp(log_iv(m)) * xi_iv)
        _, tail_hi = iv_endpoints(iv.exp(log_iv(tail_upper)))
        return acc + iv.mpf([-tail_hi, tail_hi])


def mpf_to_fraction(x) -> Fraction:
    """Exact rational value of a finite mpf (mpfs are dyadic rationals)."""
    sign, man, exp, _ = x._mpf_
    if man == 0 and exp != 0:
        raise ValueError("mpf is not finite")
    fr = Fraction(int(man)) * Fraction(2) ** exp
    return -fr if sign else fr


#: spec documents whose misspelt or undeclared keys must not be dropped
#: silently: top-level keys, family parameters, and both inside a nested base
UNKNOWN_KEY_DOCUMENTS = (
    {"family": "gevrey", "params": {"s": "1", "sigma": 3}, "precisoin": 5},
    {"family": "gevrey", "params": {"s": "1"}, "precisoin": 5},
    {"family": "gevrey", "params": {"s": "1", "sigma": 3}},
    {"family": "transformed",
     "params": {"p": 2, "base": {"family": "constant", "precisoin": 5}}},
    {"family": "transformed",
     "params": {"p": 2, "base": {"family": "gevrey", "params": {"s": "1", "sigma": 3}}}},
)

#: falsy ``params`` values that are not an object: each is malformed, never
#: "no parameters"
FALSY_PARAMS_DOCUMENTS = tuple(
    {"family": "constant", "params": value} for value in (False, 0, "", [], None)
)

#: spec documents asking for more than the largest precision, at the top
#: level and inside a nested base
OVER_CAP_DOCUMENTS = (
    {"family": "constant", "precision": MAX_PRECISION + 1},
    {"family": "transformed",
     "params": {"p": 2, "base": {"family": "constant", "precision": MAX_PRECISION + 1}}},
)


@pytest.fixture(scope="session")
def constant_spec():
    return SequenceSpec(family="constant")


@pytest.fixture(scope="session")
def gevrey1_spec():
    return SequenceSpec(family="gevrey", s=Fraction(1))


@pytest.fixture(scope="session")
def paper8_spec():
    return SequenceSpec(family="paper8")


@pytest.fixture(scope="session")
def constant_ws(constant_spec):
    return WeightSequence(constant_spec)


@pytest.fixture(scope="session")
def gevrey1_ws(gevrey1_spec):
    return WeightSequence(gevrey1_spec)


@pytest.fixture(scope="session")
def paper8_ws(paper8_spec):
    return WeightSequence(paper8_spec)
