"""Sequence-level criteria: monotonicity, log-convexity, the quasianalyticity
series, derivation closure, and class inclusion.

Two kinds of evidence feed every verdict here:

* interval rows: per-index enclosures compared under the safe discipline
  (a claim X <= Y is confirmed only when upper(X) <= lower(Y));
* encoded symbolic rules: per-family closed-form term asymptotics routed
  through the classical comparison, p-series, and Cauchy condensation
  tests.  Only these rules can confirm a divergence/convergence or
  boundedness claim; numerical summation alone never does, because the
  criteria are limit statements.

The quasianalyticity and derivation-closure checks spot-check their
family's pointwise term bound at a fixed sample of indices instead of
summing the series or streaming its ratios: the bound and its rule cover
every index, and a wrong bound refutes at the sample.  Their cost does
not grow with n_max.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from .intervals import LogReal, mpf_str
from .outcomes import (
    CheckReport,
    EvidenceRow,
    Outcome,
    Reason,
    Verdict,
    aggregate_rows,
    fact_verdict,
)
from .sequences import TermBound, WeightSequence, family_fact


def log_row(index, quantity, value: LogReal, outcome=None, note="", extra=()) -> EvidenceRow:
    """An evidence row whose lo and hi are the log endpoints of ``value``."""
    return EvidenceRow(
        index=index,
        quantity=quantity,
        lo=mpf_str(value.log_lo),
        hi=mpf_str(value.log_hi),
        outcome=outcome,
        note=note,
        extra=extra,
    )


def value_table(name: str, claim: str, params, quantity: str, n_max: int,
                log_M, columns) -> CheckReport:
    """Rows n = 0..n_max of ``log_M(n)``, each with the enclosure of every
    (column, value) pair as <column>_lo and <column>_hi: a tabulation that
    tests no claim."""
    rows = []
    for n in range(0, n_max + 1):
        m = log_M(n)
        extra = []
        for column, value in columns:
            v = value(n)
            extra += [(f"{column}_lo", mpf_str(v.log_lo)), (f"{column}_hi", mpf_str(v.log_hi))]
        rows.append(log_row((n,), quantity, m, extra=tuple(extra)))
    return CheckReport(
        name=name,
        claim=claim,
        verdict=Verdict(Outcome.CONFIRMED, Reason.SYMBOLIC_COMPARISON),
        params=params,
        rows=tuple(rows),
        index_columns=("n",),
    )


def check_monotone(ws: WeightSequence, n_max: int) -> CheckReport:
    """Per-index check of M_n <= M_{n+1} on [0, n_max)."""
    rows = []
    for n in range(0, n_max):
        outcome = ws.log_M(n).leq(ws.log_M(n + 1))
        rows.append(log_row((n,), "M_n (log)", ws.log_M(n), outcome))
    return aggregate_rows(
        f"monotone[{ws.spec.label()}]",
        "M_n <= M_{n+1} on the tested range",
        rows,
        params=(("n_max", str(n_max)), ("n_min", "0"), ("spec", ws.spec.label())),
        index_columns=("n",),
    )


def convexity_sides(value, n: int) -> tuple[LogReal, LogReal]:
    """X_n^2 and X_(n-1) X_(n+1) for X_j = ``value(j)``."""
    return value(n).pow_int(2), value(n - 1) * value(n + 1)


def check_log_convex(
    ws: WeightSequence, variant: str, n_max: int, n_min: int = 1
) -> CheckReport:
    """Per-index check of X_n^2 <= X_{n-1} X_{n+1} for X = M or M'.

    Equality (exact families) counts as confirmed; overlapping enclosures
    are inconclusive at that index.
    """
    if variant not in ("M", "Mprime"):
        raise ValueError("variant must be 'M' or 'Mprime'")
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    value = ws.log_M if variant == "M" else ws.log_Mprime
    rows = []
    for n in range(max(1, n_min), n_max):
        lhs, rhs = convexity_sides(value, n)
        rows.append(
            log_row(
                (n,),
                f"{variant}_n^2 (log) vs {variant}_(n-1)*{variant}_(n+1)",
                lhs,
                lhs.leq(rhs),
                extra=(("rhs_lo", mpf_str(rhs.log_lo)), ("rhs_hi", mpf_str(rhs.log_hi))),
            )
        )
    return aggregate_rows(
        f"log-convex-{variant}[{ws.spec.label()}]",
        f"{variant} is log-convex on the tested range",
        rows,
        params=(
            ("variant", variant),
            ("n_max", str(n_max)),
            ("n_min", str(n_min)),
            ("spec", ws.spec.label()),
        ),
        index_columns=("n",),
    )


# ---------------------------------------------------------------------------
# term bounds, spot-checked at sampled indices: quasianalyticity and
# derivation closure
# ---------------------------------------------------------------------------


#: the quantity of a term-bound row
_TERM = "t_n = M_n/((n+1) M_(n+1)) (log)"


def sampled_indices(n_max: int, n0: int) -> list[int]:
    """The indices in [1, n_max] a term-bound check tests: every
    n < n0 + 8, the powers of two, and n_max."""
    picked = {*range(1, n0 + 8), *(1 << j for j in range(n_max.bit_length())), n_max}
    return sorted(n for n in picked if n <= n_max)


def _term_bound_report(ws: WeightSequence, n_max: int, check: str, fact: TermBound | None,
                       claim: str, note: str = "") -> CheckReport:
    """The check ``check`` of the family's symbolic ``fact``, spot-checked.

    At each of :func:`sampled_indices` the term
    t_n = M_n / ((n+1) M_(n+1)) is compared in the log domain with the
    fact's bound, so a wrong fact refutes; each compared row carries
    ``note``.  An index below the fact's n0 is shown with no outcome.  The
    sample does not grow with n_max: the fact, not the rows, covers every
    index.  Without a fact the rows show the sampled terms only and the
    verdict is inconclusive."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    n0 = 1 if fact is None else fact.n0
    rows = []
    for n in sampled_indices(n_max, n0):
        term = ws.log_M(n) / LogReal.from_int(n + 1, ws.bits) / ws.log_M(n + 1)
        if fact is None or n < n0:
            row_note = "no symbolic rule; sampled term only" if fact is None else (
                f"below n_0 = {n0}: no bound claimed")
            rows.append(log_row((n,), _TERM, term, note=row_note))
            continue
        rhs = fact.rhs(n, ws.bits)
        rows.append(log_row(
            (n,), _TERM, term,
            term.leq(rhs) if fact.direction == "upper" else rhs.leq(term),
            note=note,
            extra=(("rhs_lo", mpf_str(rhs.log_lo)), ("rhs_hi", mpf_str(rhs.log_hi))),
        ))
    params = (("n_max", str(n_max)), ("spec", ws.spec.label()))
    if fact is not None:
        params += (("bound", fact.statement()),)
    report = aggregate_rows(f"{check}[{ws.spec.label()}]", claim, rows, params=params,
                            reason_confirmed=Reason.SYMBOLIC_COMPARISON, index_columns=("n",))
    return report if fact else replace(report, verdict=fact_verdict(False, report.rows))


def quasianalyticity_report(ws: WeightSequence, n_max: int) -> CheckReport:
    """Carleman's criterion: the family's quasianalyticity fact bounds every
    term of sum M_n/((n+1) M_(n+1)) by a convergent or divergent series."""
    fact = family_fact(ws.spec, "quasianalytic")
    if fact is None:
        return _term_bound_report(ws, n_max, "quasianalytic", None,
                                  "quasianalyticity undecided (no symbolic rule for this family)")
    series = "convergent" if fact.direction == "upper" else "divergent"
    return _term_bound_report(ws, n_max, "quasianalytic", fact,
                              f"sum M_n/((n+1) M_(n+1)) is {series}", f"{series}: {fact.rule}")


def check_derivation_closed(ws: WeightSequence, n_max: int) -> CheckReport:
    """Closure under derivation: the family's fact is a lower bound
    2 t_n >= c_n, that is M_(n+1)/M_n <= 2/((n+1) c_n), whose n-th roots
    stay bounded."""
    fact = family_fact(ws.spec, "derivation_closed")
    if fact is None:
        return _term_bound_report(
            ws, n_max, "derivation-closed", None,
            "boundedness of sup_n (M_(n+1)/M_n)^(1/n) undecided (trend only)")
    return _term_bound_report(ws, n_max, "derivation-closed", fact,
                              "sup_n (M_(n+1)/M_n)^(1/n) < oo (closed under derivation/division)",
                              f"bounded: {fact.rule}")


# ---------------------------------------------------------------------------
# inclusion: sup (M_n/N_n)^(1/n)
# ---------------------------------------------------------------------------


def check_inclusion(wsM: WeightSequence, wsN: WeightSequence, n_max: int) -> CheckReport:
    """Decide the inclusion criterion sup_n (M_n/N_n)^(1/n) < oo.

    Symbolic routes, in order:

    * identical structure (specs equal up to precision): sup = 1;
    * N is an index dilation of M (or a coarser dilation of the same base):
      pointwise M_{an} <= M_{bn} follows from measured monotonicity, so the
      sup enclosure is <= 1;
    * pure gevrey-vs-gevrey (constant = gevrey 0): included when s <= t,
      otherwise the ratio root grows like n^(s-t) by the Stirling lower
      bound n! >= (n/e)^n and the sup is confirmed unbounded.

    Anything else reports the running sup enclosure and stays inconclusive.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    # each row: the root (M_n/N_n)^(1/n) and the running sup of the roots
    rows = []
    running: LogReal | None = None
    for n in range(1, n_max + 1):
        root = (wsM.log_M(n) / wsN.log_M(n)).pow_fraction(Fraction(1, n))
        running = root if running is None else running.max_with(root)
        rows.append(log_row((n,), "(M_n/N_n)^(1/n) (log)", root,
                            extra=(("sup_lo", mpf_str(running.log_lo)),
                                   ("sup_hi", mpf_str(running.log_hi)))))
    specM, specN = wsM.spec, wsN.spec
    baseM, pM = specM.base_chain()
    baseN, pN = specN.base_chain()

    def report(claim: str, verdict: Verdict | None = None) -> CheckReport:
        """The check with its rows; the verdict defaults to a symbolic confirmation."""
        return CheckReport(
            name=f"inclusion[{specM.label()} vs {specN.label()}]",
            claim=claim,
            verdict=verdict or fact_verdict(True, (rows[-1],)),
            params=(("n_max", str(n_max)), ("seqM", specM.label()), ("seqN", specN.label())),
            rows=tuple(rows),
            index_columns=("n",),
        )

    if replace(specM, precision=specN.precision) == specN:
        return report("included: identical sequences (sup = 1)")

    if replace(baseM, precision=baseN.precision) == baseN and pN % pM == 0:
        monotone = check_monotone(wsM, n_max * (pN // pM))
        if monotone.verdict.outcome is Outcome.CONFIRMED:
            return report(
                "included: N is an index dilation of M and M is "
                "non-decreasing on the range (sup <= 1)"
            )
        return report(
            "dilation rule prerequisite (monotonicity) not confirmed",
            Verdict(
                monotone.verdict.outcome
                if monotone.verdict.outcome is Outcome.REFUTED
                else Outcome.INCONCLUSIVE,
                Reason.PRECISION_EXHAUSTED,
                monotone.verdict.evidence,
            ),
        )

    sM = family_fact(specM, "gevrey_index")
    sN = family_fact(specN, "gevrey_index")
    if sM is not None and sN is not None:
        if sM <= sN:
            return report(f"included: (n!)^({sM}-{sN}) <= 1 pointwise (sup <= 1)")
        return report(
            f"not included: sup unbounded, ratio root >= (n/e)^({sM - sN}) "
            "by the Stirling lower bound"
        )

    return report(
        "inclusion undecided (no symbolic rule for this pair)",
        fact_verdict(False, (rows[-1],)),
    )
