"""Bang's extremal trigonometric series with certified truncation.

For a weight sequence whose primed sequence M'_k = k! M_k is log-convex,
the series

    F(t) = sum_{k>=0} M'_k / (2 m_k)^k * cos(2 m_k t),    m_k = M'_{k+1}/M'_k,

is an even smooth function whose derivatives at 0 come within geometric
factors of the M' envelope: |F^(2n)(0)| >= M'_{2n} while
sup |F^(n)| <= 2^(n+1) M'_n.  Everything computable here is a finite head
plus a certified tail interval; the tail bound

    M'_k (2 m_k)^(n-k) <= M'_n 2^(n-k)   for k >= n

follows from the monotone ratios (m_j non-decreasing), which is exactly
log-convexity of M'.  A finite numeric check cannot certify the infinite
tail, so construction requires a family for which ratio monotonicity holds
at every index by an encoded closed-form argument, and every head sum,
tail bound and sample of F also confirms it numerically over the indices it
touches.  A single term's value does not rest on it; only a tail bound does.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .criteria import convexity_sides, log_row
from .errors import TailUncertifiedError
from .intervals import (
    LinearEnclosure,
    LogReal,
    SignedEnclosure,
    cosine_sum,
    mpf_str,
    sum_values,
)
from .memo import Memo
from .outcomes import CheckReport, Outcome, aggregate_rows, worst_outcome
from .sequences import BoundCertificate, WeightSequence, family_fact

#: the documented CSV layout of the three extremal-series checks
_CSV_LAYOUT = ("n", "lower_bound_log", "value_log_lo", "value_log_hi", "ceiling_log", "verdict")


class BangSeries:
    """Term cache and certified evaluators for the extremal series of one
    weight sequence.

    Construction only rejects sequences whose family has no
    ``mprime_logconvex`` fact (table, dilated, and the measured-only
    double-log family); it computes no value.  :meth:`head_sum`,
    :meth:`tail_bound` and :meth:`eval_F` re-confirm log-convexity of M'
    numerically over the range they touch, once per call, so a value no
    precision can compute fails there, not at construction.  A single
    :meth:`deriv_term` needs none: only a tail bound rests on log-convexity.

    Each certified head sum is computed once per n and each 2 m_k once per
    k; refilling either memo reproduces the identical interval, so the memos
    change no result.
    """

    def __init__(self, ws: WeightSequence):
        self.ws = ws
        self.bits = ws.bits
        if family_fact(ws.spec, "mprime_logconvex") is None:
            raise TailUncertifiedError(
                f"no all-index log-convexity rule for {ws.spec.label()}; "
                "tail bounds would be uncertified"
            )
        self._confirmed = Memo()
        self._two_m = Memo()
        self._heads = Memo()
        self._two = LogReal.from_int(2, self.bits)

    # -- certification ---------------------------------------------------------

    def _ensure_confirmed(self, k: int) -> None:
        """Numerically confirm M'_n^2 <= M'_(n-1) M'_(n+1) for n up to k."""
        self._confirmed.grow(None, k, lambda _: 0, self._confirm_next)

    def _confirm_next(self, _, confirmed: list[int]) -> int:
        n = len(confirmed)
        lhs, rhs = convexity_sides(self.ws.log_Mprime, n)
        if lhs.leq(rhs) is not Outcome.CONFIRMED:
            raise TailUncertifiedError(f"log-convexity of M' not confirmed at index {n} "
                                       f"for {self.ws.spec.label()}")
        return n

    def two_m(self, k: int) -> LogReal:
        """2 m_k = 2 M'_{k+1}/M'_k, memoized."""
        return self._two_m.get(k, self._compute_two_m, k)

    def _compute_two_m(self, k: int) -> LogReal:
        return self._two * self.ws.ratio_m(k)

    def deriv_term(self, k: int, n: int) -> LogReal:
        """Magnitude M'_k (2 m_k)^(n-k) of the k-th term's n-th derivative;
        at n = 0 the coefficient M'_k / (2 m_k)^k of the k-th cosine term."""
        return self.ws.log_Mprime(k) * self.two_m(k).pow_int(n - k)

    # -- derivatives at zero -----------------------------------------------------

    def default_truncation(self, n: int) -> int:
        """Head length: the dominant term sits at k = n and the certified
        tail halves per step, so n + (precision bits) + 2 pushes the tail
        below one unit in the last place of the head."""
        return max(2 * n + 8, n + self.bits + 2)

    def tail_bound(self, n: int) -> LogReal:
        """Upper bound M'_n 2^(n-K) for sum_{k>K} M'_k (2 m_k)^(n-k), K the
        :meth:`default_truncation` of n."""
        K = self.default_truncation(n)
        self._ensure_confirmed(K + 1)
        return self.ws.log_Mprime(n) * self._two.pow_int(n - K)

    def head_sum(self, n: int) -> LogReal:
        """Enclosure of sum_k M'_k (2 m_k)^(n-k): the K+1 term head, K the
        :meth:`default_truncation` of n, plus the certified tail interval,
        memoized per n."""
        self._ensure_confirmed(self.default_truncation(n) + 1)
        return self._heads.get(n, self._compute_head_sum, n)

    def _compute_head_sum(self, n: int) -> LogReal:
        terms = [self.deriv_term(k, n) for k in range(0, self.default_truncation(n) + 1)]
        return sum_values(terms, tail_upper=self.tail_bound(n))

    def F_deriv_at_zero(self, n: int) -> SignedEnclosure:
        """Signed enclosure of F^(n)(0).

        Odd n vanish exactly (odd cosine derivatives at 0).  Even n = 2j
        carry sign (-1)^j and magnitude sum_k M'_k (2 m_k)^(2j-k), the
        :meth:`head_sum`.
        """
        if n < 0:
            raise ValueError("n must be >= 0")
        if n % 2 == 1:
            return SignedEnclosure.zero()
        sign = 1 if (n // 2) % 2 == 0 else -1
        return SignedEnclosure(sign, self.head_sum(n))

    def f_deriv_at_zero(self, n: int) -> SignedEnclosure:
        """Signed enclosure of f^(n)(0) for the even factorization
        F(t) = f(t^2): the exact scaling n!/(2n)! of F^(2n)(0)."""
        base = self.F_deriv_at_zero(2 * n)
        return base.scale_fraction(Fraction(factorial(n), factorial(2 * n)))

    # -- report builders ---------------------------------------------------------

    def verify_derivative_lower_bounds(self, n_max: int) -> CheckReport:
        """Rows j = 0..n_max: |F^(2j)(0)| >= M'_{2j} with interval
        separation, and |f^(j)(0)| >= j! M'_{2j} / (2j)!.  The sign column
        is (-1)^j by construction of :meth:`F_deriv_at_zero`."""
        rows = []
        for j in range(0, n_max + 1):
            F2 = self.F_deriv_at_zero(2 * j)
            lower = self.ws.log_Mprime(2 * j)
            mag_ok = F2.magnitude.geq(lower)
            fj = self.f_deriv_at_zero(j)
            f_lower = lower * LogReal.from_fraction(
                Fraction(factorial(j), factorial(2 * j)), self.bits
            )
            f_ok = fj.magnitude.geq(f_lower)
            rows.append(
                log_row(
                    (j,),
                    "|F^(2j)(0)| (log)",
                    F2.magnitude,
                    worst_outcome([mag_ok, f_ok]),
                    extra=(
                        ("lower_bound_log", mpf_str(lower.log_lo)),
                        ("sign", "+" if F2.sign > 0 else "-"),
                    ),
                )
            )
        return aggregate_rows(
            f"bang-lower-bounds[{self.ws.spec.label()}]",
            "F^(2j)(0) alternates in sign with |F^(2j)(0)| >= M'_{2j} and "
            "|f^(j)(0)| >= j! M'_{2j}/(2j)!",
            rows,
            params=(("n_max", str(n_max)), ("spec", self.ws.spec.label())),
            index_columns=("n",),
            csv_layout=_CSV_LAYOUT,
        )

    def verify_membership(self, n_max: int) -> CheckReport:
        """Certify sup_t |F^(n)(t)| <= 2^(n+1) M'_n for 1 <= n <= n_max.

        The summed majorant sum_k M'_k (2 m_k)^(n-k) obeys the ceiling by a
        split argument: for k <= n each term is <= 2^(n-k) M'_n because
        m_k^(n-k) <= m_k ... m_(n-1) = M'_n / M'_k, and for k > n the tail
        halves per step; the two geometric sums total < 2^(n+1).  The rows
        check the computed enclosure against that derived ceiling; a
        confirmed report carries the certificate C = R = 2 on the real line.
        """
        rows = []
        for n in range(1, n_max + 1):
            total = self.head_sum(n)
            ceiling = self._two.pow_int(n + 1) * self.ws.log_Mprime(n)
            rows.append(
                log_row(
                    (n,),
                    "sum_k M'_k (2 m_k)^(n-k) (log)",
                    total,
                    total.leq(ceiling),
                    extra=(("ceiling_log", mpf_str(ceiling.log_lo)),),
                )
            )
        return aggregate_rows(
            f"bang-membership[{self.ws.spec.label()}]",
            "sum_k M'_k (2 m_k)^(n-k) <= 2^(n+1) M'_n on the tested range",
            rows,
            params=(("n_max", str(n_max)), ("spec", self.ws.spec.label())),
            index_columns=("n",),
            csv_layout=_CSV_LAYOUT,
            certificate=BoundCertificate(C=self._two, R=self._two, interval_id="R",
                                         seq=self.ws.spec),
        )

    def sharpness_evidence(self, n_max: int) -> CheckReport:
        """Two-sided sandwich log(|F^(2n)(0)| / M'_{2n}) in [0, (n+2) log 4]
        per n: the factored derivatives realize the index-doubled class up
        to geometric factors.  Evidence only; minimality itself is out of
        scope.  The construction is specific to squaring (p = 2)."""
        rows = []
        one = LogReal.one(self.bits)
        for n in range(0, n_max + 1):
            F2 = self.F_deriv_at_zero(2 * n)
            ratio = F2.magnitude / self.ws.log_Mprime(2 * n)
            ceiling = LogReal.from_int(4, self.bits).pow_int(n + 2)
            outcome = worst_outcome([one.leq(ratio), ratio.leq(ceiling)])
            rows.append(
                log_row(
                    (n,),
                    "log(|F^(2n)(0)|/M'_{2n})",
                    ratio,
                    outcome,
                    extra=(("ceiling_log", mpf_str(ceiling.log_lo)),),
                )
            )
        return aggregate_rows(
            f"bang-sharpness[{self.ws.spec.label()}]",
            "0 <= log(|F^(2n)(0)|/M'_{2n}) <= (n+2) log 4 on the tested range",
            rows,
            params=(("n_max", str(n_max)), ("p", "2"), ("spec", self.ws.spec.label())),
            index_columns=("n",),
            csv_layout=_CSV_LAYOUT,
        )

    # -- pointwise evaluation ------------------------------------------------------

    def eval_F(self, xi: Fraction, K: int) -> LinearEnclosure:
        """Enclosure of F(xi) for an exact rational xi in [-1, 1]: the K+1
        term head plus the certified tail |sum_{k>K}| <= 2^(-K)
        (term magnitudes obey M'_k / (2 m_k)^k <= 2^(-k))."""
        if K < 1:
            raise ValueError("K must be >= 1")
        xi = Fraction(xi)
        if abs(xi) > 1:
            raise ValueError("xi must lie in [-1, 1]")
        self._ensure_confirmed(K + 1)
        terms = [(self.deriv_term(k, 0), self.ws.ratio_m(k)) for k in range(0, K + 1)]
        return cosine_sum(terms, xi, self._two.pow_int(-K))
