"""Exact rational oracle for the logarithm-power coefficients and the
root-substitution series, plus the elementary inequalities built on them.

Everything here is exact ``fractions.Fraction`` arithmetic.  The only
irrational constant that enters is e, through a fixed rational enclosure
``E_LO < e < E_UP``, and only in :func:`leq_with_e_power`, :func:`exact_row`
and :func:`e_times` of this module: a claim is confirmed against ``E_LO``
and refuted against ``E_UP``, so rounding can never promote a false
statement to confirmed.

Notation used throughout (defined here, in one variable x):

* ``c(k, n)``: the coefficient of x^n in (sum_{i>=1} x^i / i)^k, i.e. in the
  k-th power of the Taylor series of -log(1-x).  Equivalently the sum of
  1/(i_1 * ... * i_k) over all compositions i_1 + ... + i_k = n into k
  positive parts.
* ``a_i``: Taylor coefficients at X = x of the root difference
  X^(1/p) - x^(1/p) = sum_{i>=1} a_i x^{-(p i - 1)/p} (X - x)^i, i.e.
  a_i = binom(1/p, i); the signs alternate and
  |a_i| = (p-1)(2p-1)...((i-1)p - 1) / (i! p^i).
* ``b_j``: coefficients of the k-th power (X^(1/p) - x^(1/p))^k / k! =
  sum_{j>=k} b_j x^{-(p j - k)/p} (X - x)^j, so b = (1/k!) * (a-series)^k.

Primary routes are closed forms over integers (Comtet, *Advanced
Combinatorics*, 1974; Graham-Knuth-Patashnik, *Concrete Mathematics*):

* (-log(1-x))^k / k! = sum_n [n k] x^n / n!, so c(k, n) = k! [n k] / n!
  with the unsigned Stirling numbers of the first kind [n k] from the integer
  recurrence [n+1 k] = n [n k] + [n k-1];
* (a-series)^k = ((1+t)^(1/p) - 1)^k expands binomially, so
  b_n = (1/k!) sum_{j=0..k} (-1)^(k-j) C(k, j) binom(j/p, n).

Both live in tables that grow on demand under a lock (a
:class:`~carleman.memo.Memo`).  The dense-series convolution
(:class:`SeriesPoly`, :func:`log_power_table`) and the composition
enumeration (:func:`ckn_bruteforce`) stay as independent twins of the closed
forms; the ``ckn-oracle-equivalence`` check and the tests compare all three.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm

from mpmath.libmp import from_int, mpf_div, round_nearest, to_str

from .errors import EnumerationCapError
from .intervals import LogReal
from .memo import Memo
from .outcomes import (
    CheckReport,
    EvidenceRow,
    Outcome,
    Reason,
    aggregate_rows,
    worst_outcome,
)

#: cap for the brute-force composition enumeration (count 2^(n-1))
ENUMERATION_CAP = 18

_RENDER_BITS = 192


def _e_enclosure() -> tuple[Fraction, Fraction]:
    # partial sum of sum 1/j! for j <= N = 45 plus the geometric tail bound
    #   sum_{j>N} 1/j! <= (1/(N+1)!) * (N+2)/(N+1),
    # since consecutive term ratios are <= 1/(N+2).
    terms = 45
    lo = sum(Fraction(1, factorial(j)) for j in range(terms + 1))
    tail = Fraction(terms + 2, factorial(terms + 1) * (terms + 1))
    return lo, lo + tail


#: rational enclosure of e, accurate to ~56 decimal digits
E_LO, E_UP = _e_enclosure()


def e_lo_pow(m: int) -> Fraction:
    return _power(E_LO.numerator, E_LO.denominator, m)


def e_up_pow(m: int) -> Fraction:
    return _power(E_UP.numerator, E_UP.denominator, m)


@lru_cache(maxsize=8192)
def _power(numerator: int, denominator: int, m: int) -> Fraction:
    # keyed on the constant's value, so a rebound E_LO or E_UP is read at
    # once; two ints hash in well under a microsecond, a Fraction in ~4
    return Fraction(numerator, denominator) ** m


def dec_str(x: Fraction | int) -> str:
    """Deterministic decimal rendering of an exact rational.

    Numerator and denominator are each rounded once to 192 bits (nearest),
    divided at 192 bits and printed with 17 significant digits: the same
    digits as ``mp.nstr(mp.mpf(num) / mp.mpf(den), 17)`` at 192 bits,
    without touching mpmath's global precision.
    """
    fr = Fraction(x)
    num = from_int(fr.numerator, _RENDER_BITS, round_nearest)
    den = from_int(fr.denominator, _RENDER_BITS, round_nearest)
    return to_str(mpf_div(num, den, _RENDER_BITS, round_nearest), 17)


def leq_with_e_power(lhs: Fraction, rhs_coeff: Fraction, e_exp: int,
                     lo_ceiling: Fraction) -> Outcome:
    """Three-valued ``lhs <= rhs_coeff * e^e_exp`` using the safe enclosure.

    Confirmed via ``lo_ceiling``, the caller's ``rhs_coeff * E_LO^e_exp``
    (it understates the right side), refuted via E_UP (overstates it);
    anything between is inconclusive.
    """
    if e_exp < 0:
        raise ValueError("negative e-powers are not needed here")
    if lhs <= lo_ceiling:
        return Outcome.CONFIRMED
    if lhs > rhs_coeff * e_up_pow(e_exp):
        return Outcome.REFUTED
    return Outcome.INCONCLUSIVE


def exact_row(index, quantity: str, lhs: Fraction, coeff: Fraction, e_exp: int,
              also=(), **fields) -> EvidenceRow:
    """The evidence row of ``lhs <= coeff * e^e_exp``, decided by
    :func:`leq_with_e_power` and combined (worst outcome) with the row's
    other exact links ``also``.  It prints ``lhs`` and the ``E_LO``
    ceiling, the one product the decision reads; ``fields`` are the row's
    ``note`` and ``extra``."""
    ceiling = coeff * e_lo_pow(e_exp)
    outcome = leq_with_e_power(lhs, coeff, e_exp, ceiling)
    return EvidenceRow(index=index, quantity=quantity, lo=dec_str(lhs), hi=dec_str(ceiling),
                       outcome=worst_outcome([*also, outcome]), **fields)


def e_times(A: Fraction, bits: int) -> tuple[LogReal, LogReal]:
    """The log enclosure [E_LO A, E_UP A] of e A, which confirms only under
    its lower side and refutes only over its upper side, and ``E_UP`` A
    alone, for a certificate radius that must not understate e A."""
    up = LogReal.from_fraction(E_UP * A, bits)
    return LogReal(LogReal.from_fraction(E_LO * A, bits).log_lo, up.log_hi, bits), up


# ---------------------------------------------------------------------------
# dense truncated series over Fraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesPoly:
    """A dense truncated power series with exact rational coefficients.

    Index i of ``coeffs`` is the coefficient of x^i; the truncation order is
    ``len(coeffs) - 1``.  Products truncate at the same order and are exact
    below it.
    """

    coeffs: tuple[Fraction, ...]

    @property
    def n_max(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i]

    def mul(self, other: "SeriesPoly") -> "SeriesPoly":
        if self.n_max != other.n_max:
            raise ValueError("series must share a truncation order")
        n = self.n_max
        out = [Fraction(0)] * (n + 1)
        for i, ci in enumerate(self.coeffs):
            if ci == 0:
                continue
            for j in range(0, n - i + 1):
                cj = other.coeffs[j]
                if cj != 0:
                    out[i + j] += ci * cj
        return SeriesPoly(tuple(out))


def log_series(n_max: int) -> SeriesPoly:
    """Taylor series of -log(1-x) truncated at n_max: coefficient i is 1/i."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return SeriesPoly((Fraction(0),) + tuple(Fraction(1, i) for i in range(1, n_max + 1)))


# ---------------------------------------------------------------------------
# log-power coefficients c(k, n)
# ---------------------------------------------------------------------------

#: n_max -> powers 0, 1, ... of the log series at order n_max
_pow_table_cache = Memo()


def log_power_table(k_max: int, n_max: int) -> list[SeriesPoly]:
    """Powers 0..k_max of the log series at order n_max, by iterated
    convolution: the twin of the Stirling route in :func:`ckn`."""
    return _pow_table_cache.grow(
        n_max, k_max, lambda n: SeriesPoly((Fraction(1),) + (Fraction(0),) * n),
        lambda n, rows: log_series(n) if len(rows) == 1 else rows[-1].mul(rows[1]))[: k_max + 1]


#: row n holds the unsigned Stirling numbers [n k] for k = 0..n
_stirling_rows = Memo()


def _stirling_row(n: int) -> tuple[int, ...]:
    """[n k] for k = 0..n, from [m+1 k] = m [m k] + [m k-1]."""
    return _stirling_rows.grow(None, n, lambda _: (1,), _next_stirling_row)[n]


def _next_stirling_row(_, rows: list[tuple[int, ...]]) -> tuple[int, ...]:
    m, prev = len(rows) - 1, rows[-1]
    return (m * prev[0], *(m * prev[k] + prev[k - 1] for k in range(1, m + 1)), 1)


def ckn(k: int, n: int) -> Fraction:
    """c(k, n): coefficient of x^n in the k-th power of the log series.

    Computed as k! [n k] / n! from the Stirling-number table.  Zero for
    n < k (every composition part is >= 1); c(1, n) = 1/n.
    """
    if k < 1:
        raise ValueError("k must be >= 1 (k = 0 powers are excluded)")
    if n < 0:
        raise ValueError("n must be >= 0")
    if n < k:
        return Fraction(0)
    return Fraction(factorial(k) * _stirling_row(n)[k], factorial(n))


def ckn_bruteforce(k: int, n: int) -> Fraction:
    """Independent oracle for c(k, n): explicit sum over the compositions of
    n into k positive parts.  Refuses n beyond the enumeration cap."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > ENUMERATION_CAP:
        raise EnumerationCapError(f"composition enumeration capped at n = {ENUMERATION_CAP}")
    if n < k:
        return Fraction(0)
    # every part divides L = lcm(1..n), so L^k / prod is an integer
    scale = lcm(*range(1, n + 1)) ** k
    total = 0
    # compositions of n into k positive parts <-> k-1 cut points in 1..n-1
    for cuts in itertools.combinations(range(1, n), k - 1):
        prod = 1
        for a, b in zip((0,) + cuts, cuts + (n,)):
            prod *= b - a
        total += scale // prod
    return Fraction(total, scale)


def verify_ckn_bound(k_max: int, n_max: int) -> CheckReport:
    """Sweep the coefficient estimate c(k, n) <= (2e)^n * k! / n^k over the
    grid 1 <= k <= k_max, 1 <= n <= n_max, together with the intermediate
    Cauchy estimate |c(k, n)| <= 2^n from the same argument."""
    rows: list[EvidenceRow] = []
    for k in range(1, k_max + 1):
        kfact = factorial(k)
        for n in range(1, n_max + 1):
            c = ckn(k, n)
            cauchy = Outcome.CONFIRMED if c <= 2**n else Outcome.REFUTED
            row = exact_row((k, n), "c(k,n) vs (2e)^n k!/n^k", c,
                            Fraction(2**n * kfact, n**k), n, also=(cauchy,),
                            extra=(("c_num", str(c.numerator)), ("c_den", str(c.denominator))))
            if row.outcome is not Outcome.CONFIRMED:
                row = replace(row, note="cauchy" if cauchy is Outcome.REFUTED else "lemma")
            rows.append(row)
    return aggregate_rows(
        "ckn-bound",
        "c(k,n) <= (2e)^n k!/n^k and c(k,n) <= 2^n on the grid",
        rows,
        params=(("k_max", str(k_max)), ("n_max", str(n_max))),
        index_columns=("k", "n"),
        csv_layout=("k", "n", "c_num", "c_den", "bound_upper", "verdict"),
    )


def verify_ckn_oracle_equivalence(k_max: int, n_max: int) -> CheckReport:
    """The convolution twin (one table) against the enumeration twin; each
    row also requires both to equal the primary Stirling value."""
    table = log_power_table(k_max, n_max)
    rows = []
    for k in range(1, k_max + 1):
        for n in range(0, n_max + 1):
            convolved = table[k][n]
            enumerated = ckn_bruteforce(k, n)
            primary = ckn(k, n)
            agree = convolved == enumerated == primary
            rows.append(
                EvidenceRow(
                    index=(k, n),
                    quantity="c(k,n) convolution vs enumeration",
                    lo=dec_str(convolved),
                    hi=dec_str(enumerated),
                    outcome=Outcome.CONFIRMED if agree else Outcome.REFUTED,
                    note="" if agree else f"stirling {dec_str(primary)}",
                )
            )
    return aggregate_rows(
        "ckn-oracle-equivalence",
        "truncated convolution equals brute-force composition enumeration",
        rows,
        params=(("k_max", str(k_max)), ("n_max", str(n_max))),
        reason_confirmed=Reason.SYMBOLIC_COMPARISON,
        index_columns=("k", "n"),
    )


# ---------------------------------------------------------------------------
# root-substitution series a_i, b_j and the diagonal derivatives
# ---------------------------------------------------------------------------


def root_series_magnitudes(p: int, i_max: int) -> list[Fraction]:
    """|a_i| for i = 0..i_max (index 0 is 0; |a_1| = 1/p).

    :func:`verify_root_series_magnitude_bound` checks each against
    |a_i| <= (i-1)!/i! = 1/i, which holds because every factor
    (j p - 1) < j p.
    """
    if p < 2:
        raise ValueError("p must be an integer >= 2")
    if i_max < 1:
        raise ValueError("i_max must be >= 1")
    mags = [Fraction(0), Fraction(1, p)]
    for i in range(2, i_max + 1):
        mags.append(mags[-1] * Fraction((i - 1) * p - 1, i * p))
    return mags


#: (p, k) -> row n = (prod_{i<n} (j - i p) for j = 0..k, b_n), n = 0, 1, ...
_root_cache = Memo()


def root_power_series(p: int, k: int, n_max: int) -> list[Fraction]:
    """Signed b_j for j = 0..n_max: b = (1/k!) * (signed a-series)^k.

    Closed form: binom(j/p, n) = prod_{i<n} (j - i p) / (p^n n!), so
    b_n = sum_{j=0..k} (-1)^(k-j) C(k, j) prod_{i<n} (j - i p) / (k! p^n n!),
    an integer sum divided once.  Memoized per (p, k) and grown with n.
    b_j = 0 for j < k, and b_j = a_j when k = 1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if p < 2:
        raise ValueError("p must be an integer >= 2")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    rows = _root_cache.grow((p, k), n_max, lambda _: ((1,) * (k + 1), Fraction(0)), _next_root_row)
    return [b for _, b in rows[: n_max + 1]]


def _next_root_row(key: tuple[int, int], rows: list) -> tuple[tuple[int, ...], Fraction]:
    (p, k), n = key, len(rows)
    falling = tuple(f * (j - (n - 1) * p) for j, f in enumerate(rows[-1][0]))
    total = sum((-1) ** (k - j) * comb(k, j) * f for j, f in enumerate(falling))
    return falling, Fraction(total, factorial(k) * p**n * factorial(n))


def verify_root_series_bounds(p: int, k: int, n_max: int) -> CheckReport:
    """Check |b_n| <= c(k, n)/k! exactly and |b_n| <= (2e)^n / n^k safely."""
    b = root_power_series(p, k, n_max)
    kfact = factorial(k)
    rows: list[EvidenceRow] = []
    for n in range(1, n_max + 1):
        mag = abs(b[n])
        exact = Outcome.CONFIRMED if mag <= ckn(k, n) / kfact else Outcome.REFUTED
        rows.append(exact_row((k, n), "|b_n| vs c(k,n)/k! and (2e)^n/n^k", mag,
                              Fraction(2**n, n**k), n, also=(exact,)))
    return aggregate_rows(
        "root-series-bound",
        "|b_n| <= c(k,n)/k! <= (2e)^n/n^k",
        rows,
        params=(("p", str(p)), ("k", str(k)), ("n_max", str(n_max))),
        index_columns=("k", "n"),
    )


def diagonal_derivative(p: int, k: int, n: int) -> Fraction:
    """Signed n-th diagonal derivative of (X^(1/p) - x^(1/p))^k / k! in X at
    X = x = 1: the exact value n! * b_n.

    Substituting X = x u gives alpha_k^(n)(x, x) = x^(-(pn-k)/p) * n! * b_n
    at every x > 0, so an estimate with that power of x on both sides holds
    at every x > 0 exactly when it holds at x = 1.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n < k:
        return Fraction(0)
    return factorial(n) * root_power_series(p, k, n)[n]


def diagonal_derivative_row(p: int, k: int, n: int) -> EvidenceRow:
    """The three-valued check of the estimate
    |alpha_k^(n)(x, x)| <= (2e)^n n^(n-k) x^(-(pn-k)/p), made at x = 1,
    which decides every x > 0 (see :func:`diagonal_derivative`)."""
    return exact_row((p, k, n), "|diag derivative at x = 1| vs (2e)^n n^(n-k)",
                     abs(diagonal_derivative(p, k, n)), 2**n * Fraction(n) ** (n - k), n)


def verify_diagonal_derivatives(p: int, k_max: int, n_max: int) -> CheckReport:
    """The diagonal-derivative estimate for 1 <= n <= n_max and
    1 <= k <= min(k_max, n)."""
    rows = [
        diagonal_derivative_row(p, k, n)
        for n in range(1, n_max + 1)
        for k in range(1, min(k_max, n) + 1)
    ]
    return aggregate_rows(
        "diag-derivative",
        "|diagonal derivative| obeys the (2e)^n n^(n-k) x^(-(pn-k)/p) estimate",
        rows,
        params=(("p", str(p)), ("k_max", str(k_max)), ("n_max", str(n_max))),
        index_columns=("p", "k", "n"),
    )


# ---------------------------------------------------------------------------
# the elementary factorial inequality
# ---------------------------------------------------------------------------


def verify_factorial_inequality(p: int, n: int, k: int) -> EvidenceRow:
    """The row of the three-valued check of 1/(pn-k)! <= e^(pn) / n^(pn-k)
    for 0 <= k < pn, i.e. n^(pn-k) <= e^(pn) * (pn-k)! with exact integers
    and the safe rational side of e."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0 <= k < p * n):
        raise ValueError("k must satisfy 0 <= k < p*n")
    m = p * n - k
    return exact_row((p, n, k), "n^(pn-k) vs e^(pn) (pn-k)!",
                     Fraction(n**m), Fraction(factorial(m)), p * n)


def verify_factorial_inequality_sweep(p: int, n_max: int) -> CheckReport:
    """All (n, k) with 1 <= n <= n_max, 0 <= k < pn."""
    rows = [
        verify_factorial_inequality(p, n, k)
        for n in range(1, n_max + 1)
        for k in range(0, p * n)
    ]
    return aggregate_rows(
        "factorial-inequality",
        "n^(pn-k) <= e^(pn) (pn-k)! for all 0 <= k < pn",
        rows,
        params=(("p", str(p)), ("n_max", str(n_max))),
        index_columns=("p", "n", "k"),
    )


def verify_root_series_magnitude_bound(p: int, i_max: int) -> CheckReport:
    """Report |a_i| <= 1/i exactly for i = 1..i_max."""
    mags = root_series_magnitudes(p, i_max)
    rows = [
        EvidenceRow(
            index=(p, i),
            quantity="|a_i| vs 1/i",
            lo=dec_str(mags[i]),
            hi=dec_str(Fraction(1, i)),
            outcome=Outcome.CONFIRMED if mags[i] * i <= 1 else Outcome.REFUTED,
        )
        for i in range(1, i_max + 1)
    ]
    return aggregate_rows(
        "root-series-magnitude",
        "|a_i| <= 1/i",
        rows,
        params=(("p", str(p)), ("i_max", str(i_max))),
        reason_confirmed=Reason.SYMBOLIC_COMPARISON,
        index_columns=("p", "i"),
    )
