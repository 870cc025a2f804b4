"""Machine-readable run reports: deterministic JSON and CSV emission.

A run aggregates named checks into one document.  Identical configuration
and tool version must produce byte-identical documents, so serialization
sorts every key, orders rows by index, and writes the wall-time field as 0
(the measured times are kept in memory for the human summary only; a
genuine timing in the canonical file would defeat reproducibility audits).
Default file names carry a content hash of the configuration and of every
spec document the run loaded, and existing reports are never silently
replaced by different bytes.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

# CPython's builtin SHA-256 gives hashlib's digests without loading OpenSSL's
# _hashlib, which costs a CLI process about 3 MiB of peak memory.  The module
# is _sha256 up to 3.11 and _sha2 from 3.12; hashlib is the last resort.
try:
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

from ._version import __version__
from .outcomes import CheckReport, Outcome, worst_outcome

_EXIT_CODES = {Outcome.CONFIRMED: 0, Outcome.REFUTED: 1, Outcome.INCONCLUSIVE: 2}


@dataclass
class CheckResult:
    """One executed check plus run metadata."""

    report: CheckReport
    ms: float = 0.0


@dataclass
class RunReport:
    """Aggregate of an invocation: config echo plus every check result, in
    execution order.  No result is ever dropped from the aggregate.
    ``spec_texts`` are the loaded spec documents, in canonical form: they key
    the default file name but are not part of the document."""

    config: dict
    checks: list[CheckResult] = field(default_factory=list)
    tool_version: str = __version__
    spec_texts: list[str] = field(default_factory=list)

    def add(self, report: CheckReport, ms: float = 0.0) -> None:
        self.checks.append(CheckResult(report=report, ms=ms))

    def outcomes(self) -> list[Outcome]:
        return [c.report.verdict.outcome for c in self.checks]

    def exit_code(self) -> int:
        """0 all confirmed; 1 any refuted; 2 any inconclusive, none refuted."""
        return _EXIT_CODES[worst_outcome(self.outcomes())]

    # -- serialization -----------------------------------------------------

    def as_dict(self) -> dict:
        return {
            "tool_version": self.tool_version,
            "config": self.config,
            "checks": [
                {
                    "name": c.report.name,
                    "claim": c.report.claim,
                    "params": {k: v for k, v in c.report.params},
                    "verdict": c.report.verdict.as_dict(),
                    "evidence": [r.as_dict() for r in c.report.rows],
                    "certificate": (c.report.certificate.as_dict()
                                    if c.report.certificate is not None else None),
                    # measured time lives in the human summary only;
                    # the canonical document must be byte-reproducible
                    "ms": 0,
                }
                for c in self.checks
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    def config_hash(self) -> str:
        payload = json.dumps(
            {"config": self.config, "specs": self.spec_texts,
             "tool_version": self.tool_version},
            sort_keys=True,
            separators=(",", ":"),
        )
        return sha256(payload.encode("utf-8")).hexdigest()[:12]

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.checks:
            lines.append(
                f"[{c.report.verdict.outcome.value:<12}] {c.report.name} "
                f"(rows={len(c.report.rows)}, {c.ms:.0f} ms)"
            )
        return lines


def _row_mapping(report: CheckReport, row) -> dict[str, str]:
    if len(row.index) != len(report.index_columns):
        raise ValueError(
            f"{report.name}: row index {row.index!r} does not match the "
            f"declared columns {report.index_columns!r}"
        )
    mapping = {name: str(v) for name, v in zip(report.index_columns, row.index)}
    mapping.update(
        {
            "lo": row.lo,
            "hi": row.hi,
            "value_log_lo": row.lo,
            "value_log_hi": row.hi,
            "bound_upper": row.hi,
            "verdict": row.outcome.value if row.outcome else "",
            "note": row.note,
        }
    )
    for key, value in row.extra:
        mapping[key] = value
    return mapping


def check_to_csv(report: CheckReport) -> str:
    """Fixed-header CSV for one check.

    A check with a documented file format declares its exact column set
    (``csv_layout``); others use their index columns, the enclosure
    columns, verdict, note, and the check's extra columns in sorted order.
    A row whose index does not match the declared index columns raises
    :class:`ValueError`.
    """
    if report.csv_layout is not None:
        headers = list(report.csv_layout)
    else:
        extra_keys = sorted({k for row in report.rows for k, _ in row.extra})
        headers = list(report.index_columns) + ["lo", "hi", "verdict", "note"] + extra_keys
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["# check", report.name])
    writer.writerow(["# claim", report.claim])
    writer.writerow(["# verdict", report.verdict.outcome.value, report.verdict.reason.value])
    for key, value in report.params:
        writer.writerow(["# param", key, value])
    writer.writerow(headers)
    for row in report.rows:
        mapping = _row_mapping(report, row)
        writer.writerow([mapping.get(h, "") for h in headers])
    return buf.getvalue()


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name).strip("_")


def write_report(run: RunReport, out: str | None, fmt: str) -> list[Path]:
    """Write the run document.

    JSON: a single document (default name ``report-<confighash>.json`` under
    the ``out`` directory when ``out`` is a directory or missing).  CSV: one
    fixed-header file per check plus a summary table, under a directory.
    Existing files are only acceptable when byte-identical (append-only
    audit contract); conflicting content raises ``FileExistsError``.
    """
    written: list[Path] = []
    if fmt == "json":
        text = run.to_json()
        if out is None:
            target = Path("reports") / f"report-{run.config_hash()}.json"
        else:
            target = Path(out)
            if target.suffix != ".json":
                target = target / f"report-{run.config_hash()}.json"
        write_once(target, text)
        written.append(target)
        return written
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}")
    base = Path(out) if out is not None else Path("reports") / f"report-{run.config_hash()}"
    if base.suffix == ".csv":
        if len(run.checks) != 1:
            raise ValueError("single .csv output requires exactly one check; pass a directory")
        write_once(base, check_to_csv(run.checks[0].report))
        return [base]
    base.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["check", "claim", "verdict", "reason", "rows", "ms"])
    for i, c in enumerate(run.checks):
        writer.writerow(
            [
                c.report.name,
                c.report.claim,
                c.report.verdict.outcome.value,
                c.report.verdict.reason.value,
                str(len(c.report.rows)),
                "0",
            ]
        )
        per_check = base / f"{i:02d}__{_slug(c.report.name)}.csv"
        write_once(per_check, check_to_csv(c.report))
        written.append(per_check)
    summary = base / "summary.csv"
    write_once(summary, buf.getvalue())
    written.append(summary)
    return written


def write_once(target: Path, text: str) -> None:
    """Write ``text`` unless ``target`` already holds it; a file with other
    content raises :class:`FileExistsError` (outputs are append-only)."""
    target.parent.mkdir(parents=True, exist_ok=True)
    if target.exists():
        existing = target.read_text(encoding="utf-8")
        if existing == text:
            return
        raise FileExistsError(
            f"{target} exists with different content; outputs are append-only"
        )
    target.write_text(text, encoding="utf-8")
