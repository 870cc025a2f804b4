"""Three-valued verdicts, evidence rows, and check reports.

Every comparison in this package resolves to one of three outcomes under a
fixed discipline: a claim ``X <= Y`` is confirmed only when the enclosures
separate in the claim's favour (``upper(X) <= lower(Y)``), refuted only when
they separate against it, and inconclusive whenever the enclosures overlap.
Symbolic rules (exact integer/rational identities, encoded per-family
asymptotics) are the only other route to a definite outcome; bare floating
point never is.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .sequences import BoundCertificate


class Outcome(str, Enum):
    CONFIRMED = "confirmed"
    REFUTED = "refuted"
    INCONCLUSIVE = "inconclusive"


class Reason(str, Enum):
    #: exact integer/rational arithmetic or an encoded per-family rule
    SYMBOLIC_COMPARISON = "symbolic-comparison"
    #: certified enclosures separated (possibly via a one-sided rational
    #: constant such as a lower bound for e)
    INTERVAL_SEPARATION = "interval-separation"
    #: the sweep ran to its configured depth without a decisive rule
    DEPTH_EXHAUSTED = "depth-exhausted"
    #: enclosures overlapped at the working precision
    PRECISION_EXHAUSTED = "precision-exhausted"


@dataclass(frozen=True)
class EvidenceRow:
    """One indexed observation inside a check.

    ``index`` is a tuple of ints/strings used as the deterministic sort key.
    ``lo``/``hi`` are decimal strings for the enclosure of ``quantity``
    (the quantity's docstring states whether it lives in log or linear
    domain).  ``outcome`` is the per-row outcome where the check is a sweep.
    ``extra`` holds additional named columns specific to the check type.
    """

    index: tuple
    quantity: str
    lo: str
    hi: str
    outcome: Outcome | None = None
    note: str = ""
    extra: tuple[tuple[str, str], ...] = ()

    def as_dict(self) -> dict:
        d = {
            "index": list(self.index),
            "quantity": self.quantity,
            "lo": self.lo,
            "hi": self.hi,
            "outcome": self.outcome.value if self.outcome is not None else None,
            "note": self.note,
        }
        for key, value in self.extra:
            d[key] = value
        return d


@dataclass(frozen=True)
class Verdict:
    """Aggregate outcome of a check, with the rows that justify it.

    A refuted verdict always carries at least one witness row whose interval
    strictly violates the claimed inequality; this is enforced here rather
    than trusted.
    """

    outcome: Outcome
    reason: Reason
    evidence: tuple[EvidenceRow, ...] = ()

    def __post_init__(self) -> None:
        if self.outcome is Outcome.REFUTED:
            if not any(r.outcome is Outcome.REFUTED for r in self.evidence):
                raise ValueError("refuted verdict requires a refuting witness row")

    def as_dict(self) -> dict:
        return {
            "outcome": self.outcome.value,
            "reason": self.reason.value,
            "evidence": [r.as_dict() for r in self.evidence],
        }


@dataclass(frozen=True)
class CheckReport:
    """Result of one named check: a claim, a verdict, and the full row table.

    ``params`` echoes the configuration that produced the report (sorted
    key/value string pairs) so serialized reports are self-describing and
    reproducible.  ``index_columns`` names the entries of every row's
    ``index``; ``csv_layout`` is the fixed CSV header of a check with a
    documented file format, and None gives index columns, lo/hi, verdict,
    note and the sorted extras.  Neither is part of the JSON document.
    ``certificate`` is the (C, R) bound a confirmed check publishes.
    """

    name: str
    claim: str
    verdict: Verdict
    params: tuple[tuple[str, str], ...] = ()
    rows: tuple[EvidenceRow, ...] = ()
    index_columns: tuple[str, ...] = ("i0",)
    csv_layout: tuple[str, ...] | None = None
    certificate: BoundCertificate | None = None


def fact_verdict(fact: bool, evidence: tuple[EvidenceRow, ...]) -> Verdict:
    """The verdict of a claim only a symbolic fact can decide: confirmed
    when there is a fact, else inconclusive at the swept depth.  The
    measured ``evidence`` is carried either way."""
    if fact:
        return Verdict(Outcome.CONFIRMED, Reason.SYMBOLIC_COMPARISON, evidence)
    return Verdict(Outcome.INCONCLUSIVE, Reason.DEPTH_EXHAUSTED, evidence)


def rejection_report(name: str, claim: str, quantity: str,
                     label: str, message: str) -> CheckReport:
    """One inconclusive check standing in for work that could not run on
    the spec(s) named ``label``, with the error message as its witness note."""
    row = EvidenceRow(index=(0,), quantity=quantity, lo="", hi="",
                      outcome=Outcome.INCONCLUSIVE, note=message)
    return CheckReport(
        name=f"{name}[{label}]",
        claim=claim,
        verdict=Verdict(Outcome.INCONCLUSIVE, Reason.PRECISION_EXHAUSTED, (row,)),
        params=(("spec", label),),
        rows=(row,),
    )


def aggregate_rows(
    name: str,
    claim: str,
    rows: list[EvidenceRow],
    params: tuple[tuple[str, str], ...] = (),
    reason_confirmed: Reason = Reason.INTERVAL_SEPARATION,
    index_columns: tuple[str, ...] = ("i0",),
    csv_layout: tuple[str, ...] | None = None,
    certificate: BoundCertificate | None = None,
) -> CheckReport:
    """Roll per-row outcomes up into a check verdict.

    All rows confirmed -> confirmed; any refuted -> refuted (witnesses
    attached); otherwise inconclusive.  Rows are sorted by index so the
    report is independent of evaluation order.  ``certificate`` is kept
    only on a confirmed verdict.
    """
    rows = sorted(rows, key=lambda r: r.index)
    outcome = worst_outcome([r.outcome for r in rows])
    witnesses = tuple(r for r in rows if r.outcome is outcome)
    if outcome is Outcome.REFUTED:
        verdict = Verdict(outcome, Reason.INTERVAL_SEPARATION, witnesses)
    elif outcome is Outcome.INCONCLUSIVE:
        verdict = Verdict(outcome, Reason.PRECISION_EXHAUSTED, witnesses[:8])
    else:
        verdict = Verdict(outcome, reason_confirmed)
    return CheckReport(name=name, claim=claim, verdict=verdict, params=params, rows=tuple(rows),
                       index_columns=index_columns, csv_layout=csv_layout,
                       certificate=certificate if outcome is Outcome.CONFIRMED else None)


def worst_outcome(outcomes: list[Outcome]) -> Outcome:
    """Refuted dominates inconclusive dominates confirmed; None (a row
    without an outcome) counts as confirmed."""
    if any(o is Outcome.REFUTED for o in outcomes):
        return Outcome.REFUTED
    if any(o is Outcome.INCONCLUSIVE for o in outcomes):
        return Outcome.INCONCLUSIVE
    return Outcome.CONFIRMED
