"""Bang's extremal trigonometric series with certified truncation.

For a weight sequence whose primed sequence M'_k = k! M_k is log-convex,
the series

    F(t) = sum_{k>=0} M'_k / (2 m_k)^k * cos(2 m_k t),    m_k = M'_{k+1}/M'_k,

is an even smooth function whose derivatives at 0 come within geometric
factors of the M' envelope: |F^(2n)(0)| >= M'_{2n} while
sup |F^(n)| <= 2^(n+1) M'_n.  Everything computable here is a finite head
plus a certified tail interval.  The n-th derivative terms
t_k = M'_k (2 m_k)^(n-k) have the ratio

    t_(k+1) / t_k = 1/2 (m_k / m_(k+1))^(k+1-n)  <= 1/2   for k >= n,

because the ratios m_j do not decrease, which is exactly log-convexity of
M'.  So past any K >= n the tail is at most t_(K+1) (1 + 1/2 + 1/4 + ...)
= 2 t_(K+1).  A finite numeric check cannot certify the infinite tail, so
construction requires a family for which ratio monotonicity holds at every
index by an encoded closed-form argument, and every head sum and sample of F
also confirms it numerically over the indices it touches.  A single term's
value does not rest on it; only a tail bound does.

Head sums are summed in the linear domain, in one sweep over k for every
order n at once.  Per k the sweep holds linear enclosures of the anchor
M'_k = t_k(k), of W_k = 2 m_k and of 1/W_k, and reaches t_k(n) from the
anchor by |n - k| outward-rounded products: with W_k for n > k, with 1/W_k
for n < k.  Anchoring at the dominant term keeps the sums about as narrow
as adding the exp of each log-domain term.  Every k <= n enters the head of
order n; past n its walk stops at the first K with t_(K+1) certainly at most
2^(-bits-1) M'_n, so the tail [0, 2 t_(K+1)] is under one unit in the last
place of the head.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from mpmath.libmp import (fzero, mpf_exp, mpf_le, mpf_neg, mpf_shift, mpi_add, mpi_cos, mpi_exp,
                          mpi_log, mpi_mul, round_ceiling)

from .criteria import convexity_sides, log_row
from .errors import TailUncertifiedError
from .intervals import (
    LinearEnclosure,
    LogReal,
    SignedEnclosure,
    _fraction_mpi,
    _int_mpi,
    mpf_str,
    pos_add,
    pos_mul,
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
    double-log family); it computes no value.  Each head-sum sweep and
    :meth:`eval_F` re-confirm log-convexity of M' numerically over the
    range they touch, once per call, so a value no precision can compute
    fails there, not at construction.  A single
    :meth:`deriv_term` needs none: only a tail bound rests on log-convexity.

    Three memos: the confirmed indices of M' log-convexity, one entry per k
    (2 m_k and the linear anchors of :meth:`_column`), and the certified head
    sum of each order n.  Refilling any memo reproduces the identical
    interval, so the memos change no result.
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
        self._anchors = Memo()
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
        """2 m_k = 2 M'_{k+1}/M'_k, memoized with the anchors of k."""
        return self._anchor(k)[0]

    def deriv_term(self, k: int, n: int) -> LogReal:
        """Magnitude M'_k (2 m_k)^(n-k) of the k-th term's n-th derivative;
        at n = 0 the coefficient M'_k / (2 m_k)^k of the k-th cosine term."""
        return self.ws.log_Mprime(k) * self.two_m(k).pow_int(n - k)

    def _anchor(self, k: int) -> tuple:
        """W_k = 2 m_k, and the linear enclosures of M'_k, of W_k and of 1/W_k
        (the exp of the exactly negated log of W_k), memoized."""
        return self._anchors.get(k, self._compute_anchor, k)

    def _compute_anchor(self, k: int) -> tuple:
        two_m = self._two * self.ws.ratio_m(k)
        w_lo, w_hi = two_m._mpi()
        return (two_m, mpi_exp(self.ws.log_Mprime(k)._mpi(), self.bits),
                mpi_exp((w_lo, w_hi), self.bits),
                mpi_exp((mpf_neg(w_hi), mpf_neg(w_lo)), self.bits))

    def _column(self, k: int, low: int, top: int):
        """(n, t_k(n)) for n = k, then n = k+1..top, then n = k-1 down to
        low: the anchor t_k(k) = M'_k times |n - k| factors W_k (n > k) or
        1/W_k (n < k), multiplied in that order."""
        _, mprime, up, down = self._anchor(k)
        yield k, mprime
        for step, orders in ((up, range(k + 1, top + 1)), (down, range(k - 1, low - 1, -1))):
            term = mprime
            for n in orders:
                term = pos_mul(term, step, self.bits)
                yield n, term

    # -- derivatives at zero -----------------------------------------------------

    def _sweep(self, orders: list[int]) -> dict[int, tuple]:
        """Head and ratio tail of sum_k t_k(n), t_k(n) = M'_k (2 m_k)^(n-k),
        for each order n of the ascending ``orders``, in one pass over k.

        Returns n -> (head, tail_hi, K + 1): the linear enclosure of
        t_0(n) + ... + t_K(n), added by increasing k, and the bound
        2 t_(K+1)(n) of the rest (the ratio argument of the module
        docstring).  Every k <= n enters the head; K is the first index
        >= n at which t_(K+1) is certainly at most 2^(-bits-1) times the
        lower end of M'_n, and at most max(2n + 8, n + bits + 2).  Each cell
        t_k(n) is the product chain of :meth:`_column`, so a result does not
        depend on which other orders the sweep covers.  Log-convexity of M'
        is confirmed numerically up to the largest K + 1.
        """
        bits, top = self.bits, orders[-1]
        heads = dict.fromkeys(orders)
        # the orders whose walk goes on, each with its stopping floor
        walking = {n: mpf_shift(self._anchor(n)[1][0], -bits - 1) for n in orders}
        done = {}
        k = 0
        while walking:
            for n, term in self._column(k, next(iter(walking)), top):
                floor = walking.get(n)
                if floor is None:
                    continue
                if n < k and (k > max(2 * n + 8, n + bits + 2) or mpf_le(term[1], floor)):
                    del walking[n]
                    done[n] = (heads[n], mpf_shift(term[1], 1), k)
                else:
                    heads[n] = term if heads[n] is None else pos_add(heads[n], term, bits)
            k += 1
        self._ensure_confirmed(max(stop for _, _, stop in done.values()))
        return done

    def head_sum(self, n: int) -> LogReal:
        """Enclosure of sum_k M'_k (2 m_k)^(n-k): the head of :meth:`_sweep`
        plus its certified tail interval, memoized per n.  A miss sweeps
        every order <= n that the memo lacks, so asking for the deepest
        order first fills all the others."""
        return self._heads.get(n, self._fill_heads, n)

    def _fill_heads(self, n: int) -> LogReal:
        orders = [m for m in range(n) if m not in self._heads] + [n]
        totals = {
            m: LogReal.from_mpi(mpi_log(mpi_add(head, (fzero, tail), self.bits), self.bits),
                                self.bits)
            for m, (head, tail, _) in self._sweep(orders).items()
        }
        for m in orders[:-1]:
            # stored as its own miss would be: an entry already there wins
            self._heads.get(m, totals.__getitem__, m)
        return totals[n]

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

    def _report(self, name: str, claim: str, first: int, n_max: int, row, params=(),
                certificate: BoundCertificate | None = None) -> CheckReport:
        """The check ``name[spec]`` with one row ``row(n)`` per n = first..n_max,
        asked for deepest order first: its sweep fills every lower one."""
        label = self.ws.spec.label()
        return aggregate_rows(
            f"{name}[{label}]", claim, [row(n) for n in range(n_max, first - 1, -1)],
            params=(("n_max", str(n_max)), *params, ("spec", label)),
            index_columns=("n",),
            csv_layout=_CSV_LAYOUT,
            certificate=certificate,
        )

    def verify_derivative_lower_bounds(self, n_max: int) -> CheckReport:
        """Rows j = 0..n_max: |F^(2j)(0)| >= M'_{2j} with interval
        separation, and |f^(j)(0)| >= j! M'_{2j} / (2j)!.  The sign column
        is (-1)^j by construction of :meth:`F_deriv_at_zero`."""
        def row(j: int):
            F2 = self.F_deriv_at_zero(2 * j)
            lower = self.ws.log_Mprime(2 * j)
            mag_ok = F2.magnitude.geq(lower)
            fj = self.f_deriv_at_zero(j)
            f_lower = lower * LogReal.from_fraction(
                Fraction(factorial(j), factorial(2 * j)), self.bits
            )
            f_ok = fj.magnitude.geq(f_lower)
            return log_row((j,), "|F^(2j)(0)| (log)", F2.magnitude, worst_outcome([mag_ok, f_ok]),
                           extra=(("lower_bound_log", mpf_str(lower.log_lo)),
                                  ("sign", "+" if F2.sign > 0 else "-")))

        return self._report(
            "bang-lower-bounds",
            "F^(2j)(0) alternates in sign with |F^(2j)(0)| >= M'_{2j} and "
            "|f^(j)(0)| >= j! M'_{2j}/(2j)!",
            0, n_max, row,
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
        def row(n: int):
            total = self.head_sum(n)
            ceiling = self._two.pow_int(n + 1) * self.ws.log_Mprime(n)
            return log_row((n,), "sum_k M'_k (2 m_k)^(n-k) (log)", total, total.leq(ceiling),
                           extra=(("ceiling_log", mpf_str(ceiling.log_lo)),))

        return self._report(
            "bang-membership",
            "sum_k M'_k (2 m_k)^(n-k) <= 2^(n+1) M'_n on the tested range",
            1, n_max, row,
            certificate=BoundCertificate(C=self._two, R=self._two, interval_id="R",
                                         seq=self.ws.spec),
        )

    def sharpness_evidence(self, n_max: int) -> CheckReport:
        """Two-sided sandwich log(|F^(2n)(0)| / M'_{2n}) in [0, (n+2) log 4]
        per n: the factored derivatives realize the index-doubled class up
        to geometric factors.  Evidence only; minimality itself is out of
        scope.  The construction is specific to squaring (p = 2)."""
        one = LogReal.one(self.bits)

        def row(n: int):
            F2 = self.F_deriv_at_zero(2 * n)
            ratio = F2.magnitude / self.ws.log_Mprime(2 * n)
            ceiling = LogReal.from_int(4, self.bits).pow_int(n + 2)
            outcome = worst_outcome([one.leq(ratio), ratio.leq(ceiling)])
            return log_row((n,), "log(|F^(2n)(0)|/M'_{2n})", ratio, outcome,
                           extra=(("ceiling_log", mpf_str(ceiling.log_lo)),))

        return self._report(
            "bang-sharpness",
            "0 <= log(|F^(2n)(0)|/M'_{2n}) <= (n+2) log 4 on the tested range",
            0, n_max, row, params=(("p", "2"),),
        )

    # -- pointwise evaluation ------------------------------------------------------

    def eval_F(self, xi: Fraction, K: int) -> LinearEnclosure:
        """Enclosure of F(xi) for an exact rational xi in [-1, 1]: the K+1
        term head sum_k M'_k / (2 m_k)^k cos(2 m_k xi), summed on ``libmpi``,
        plus the certified tail |sum_{k>K}| <= 2^(-K) (term magnitudes obey
        M'_k / (2 m_k)^k <= 2^(-k))."""
        if K < 1:
            raise ValueError("K must be >= 1")
        xi = Fraction(xi)
        if abs(xi) > 1:
            raise ValueError("xi must lie in [-1, 1]")
        self._ensure_confirmed(K + 1)
        bits = self.bits
        two, xi_mpi = _int_mpi(2, bits), _fraction_mpi(xi, bits)
        # every term before the sum: the same calls interleaved ran the 33
        # samples of --plot-data about 13 % slower
        terms = [(self.deriv_term(k, 0), self.ws.ratio_m(k)) for k in range(0, K + 1)]
        acc = (fzero, fzero)
        for c, m in terms:
            angle = mpi_mul(mpi_mul(two, mpi_exp(m._mpi(), bits), bits), xi_mpi, bits)
            acc = mpi_add(acc, mpi_mul(mpi_exp(c._mpi(), bits), mpi_cos(angle, bits), bits), bits)
        tail_hi = mpf_exp(self._two.pow_int(-K).log_hi, bits, round_ceiling)
        return LinearEnclosure(*mpi_add(acc, (mpf_neg(tail_hi), tail_hi), bits))
