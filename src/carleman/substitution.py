"""Desk-scale verification of the power-substitution bound.

Setting: F(t) = f(t^p) obeys |F^(n)| <= A^n M'_n on the unit interval.  The
conclusion bounds f's derivatives by the index-dilated envelope
M'^(p)_n = n^(-(p-1)n) M'_{pn}.  Two complementary checks live here:

* :func:`coeff_level_check` specializes the conclusion to Taylor
  coefficients at the origin for the extremal profile |F^(m)(0)| = A^m M'_m
  that saturates the hypothesis.  The claimed inequality

      n! A^(pn) M'_{pn} / (pn)!  <=  (e A)^(pn) M'^(p)_n

  rests on two facts: n! <= n^n, which holds for every integer n >= 1 and
  so gets no column, and n^(pn) <= e^(pn) (pn)!  (the k = 0 case of the
  elementary factorial inequality), checked on each row.  The constant in
  front is 1: the chain holds with no slack, so any regression surfaces.
  A confirmed report carries the certificate C = 1, R = (e A)^p on [0,1]
  for even p and on [-1,1] for odd p.

* :func:`final_bound_assembly` rebuilds the proof's k-sum at x = 1, which
  decides every x > 0 (see :func:`.coefficients.diagonal_derivative`).
  Each diagonal derivative is checked against its estimate, and the exact
  sum of its products with the Taylor-remainder factor against the final
  displayed ceiling

      n (2e)^n (eA)^(pn) M'_{pn} / n^((p-1)n).

Every comparison with a power of e is made in :mod:`.coefficients`: the
factorial link and the assembly rows through :func:`.coefficients.exact_row`,
e A and the certificate radius through :func:`.coefficients.e_times`.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from math import factorial

from .coefficients import (
    diagonal_derivative,
    diagonal_derivative_row,
    e_times,
    exact_row,
    verify_factorial_inequality,
)
from .criteria import log_row, quasianalyticity_report
from .errors import SpecFormatError
from .intervals import LogReal, mpf_str
from .outcomes import CheckReport, EvidenceRow, aggregate_rows, worst_outcome
from .sequences import (
    BoundCertificate,
    SequenceSpec,
    WeightSequence,
    log_factorial,
)

def coeff_level_check(ws: WeightSequence, p: int, A: Fraction, n_max: int) -> CheckReport:
    """Confirm |f^(n)(0)| <= (e A)^(pn) M'^(p)_n with constant 1 for the
    extremal coefficient profile of ``ws``, for 1 <= n <= n_max, A > 0 and
    an integer p >= 2, with the factorial inequality link checked exactly.
    A confirmed report carries the certificate C = 1, R = (e A)^p."""
    if not isinstance(p, int) or p < 2:
        raise ValueError("p must be an integer >= 2")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    eA, eA_up = e_times(A, ws.bits)
    rows: list[EvidenceRow] = []
    for n in range(1, n_max + 1):
        ineq_link = verify_factorial_inequality(p, n, 0).outcome
        lhs = (
            LogReal.from_int(factorial(n), ws.bits)
            * LogReal.from_fraction(A, ws.bits).pow_int(p * n)
            * ws.log_Mprime(p * n)
            / log_factorial(p * n, ws.bits)
        )
        ceiling = eA.pow_int(p * n) * ws.log_Mprime_sub(p, n)
        outcome = worst_outcome([ineq_link, lhs.leq(ceiling)])
        rows.append(
            log_row(
                (n,),
                "n! A^(pn) M'_(pn)/(pn)! (log) vs (eA)^(pn) M'_(pn)/n^((p-1)n)",
                lhs,
                outcome,
                extra=(
                    ("ceiling_log", mpf_str(ceiling.log_lo)),
                    ("link_factorial_ineq", ineq_link.value),
                ),
            )
        )
    return aggregate_rows(
        f"substitution-coefficients[{ws.spec.label()}]",
        "extremal Taylor profile obeys the dilated-class bound with C = 1",
        rows,
        params=(("spec", ws.spec.label()), ("p", str(p)), ("A", str(A)),
                ("n_max", str(n_max))),
        index_columns=("n",),
        certificate=BoundCertificate(
            C=LogReal.one(ws.bits),
            R=eA_up.pow_int(p),
            # t -> t^p maps [0,1] onto itself for even p, [-1,1] for odd p
            interval_id="[0,1]" if p % 2 == 0 else "[-1,1]",
            seq=ws.spec,
        ),
    )


def final_bound_assembly(spec: SequenceSpec, p: int, n_max: int) -> CheckReport:
    """Reassemble the proof's k-sum with the common factor
    (eA)^(pn) M'_(pn) and the power of x divided out of both sides, so no
    row depends on the sequence or on A; ``spec`` only names the check.

    Each diagonal derivative alpha_k^(n) is checked against its estimate
    (2e)^n n^(n-k), and for each n the exact k-sum
    sum_k |alpha_k^(n)| n^(k-pn) of its products with the Taylor-remainder
    factor is checked against the displayed ceiling n 2^n n^((1-p)n) e^n.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    rows: list[EvidenceRow] = []
    for n in range(1, n_max + 1):
        rows += [diagonal_derivative_row(p, k, n) for k in range(1, n + 1)]
        exact_sum = sum(
            abs(diagonal_derivative(p, k, n)) * Fraction(n) ** (k - p * n)
            for k in range(1, n + 1)
        )
        rows.append(exact_row((p, 0, n),
                              "sum_k |alpha_k^(n)| n^(k-pn) vs n 2^n n^((1-p)n) e^n",
                              exact_sum, n * Fraction(2) ** n * Fraction(n) ** ((1 - p) * n), n))
    return aggregate_rows(
        f"substitution-assembly[{spec.label()}]",
        "each diagonal derivative obeys its estimate and the exact k-sum of "
        "the factor products stays below the displayed final bound",
        rows,
        params=(("p", str(p)), ("n_max", str(n_max))),
        index_columns=("p", "k", "n"),
    )


def transform_report(ws: WeightSequence, p: int, n_max: int) -> CheckReport:
    """Quasianalyticity report for the index dilation M_{p n} of ``ws``, read
    from its memo (p = 1 degenerates to the base sequence)."""
    if not isinstance(p, int) or p < 1:
        raise SpecFormatError("p must be an integer >= 1")
    report = quasianalyticity_report(ws if p == 1 else ws.dilation(p), n_max)
    return replace(
        report,
        name=f"transform-quasianalytic[{ws.spec.label()}, p={p}]",
        params=report.params + (("transform_p", str(p)),),
    )
