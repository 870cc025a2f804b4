"""Verdict plumbing: the refutation-witness invariant, aggregation, the
confirmation discipline on overlapping enclosures, and the report name."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import carleman
from carleman.intervals import LogReal, bits_for_digits
from carleman.outcomes import (
    EvidenceRow,
    Outcome,
    Reason,
    Verdict,
    aggregate_rows,
    worst_outcome,
)
from carleman.reporting import RunReport, check_to_csv
from conftest import log_hi, log_lo


def _row(i, outcome=None):
    return EvidenceRow(index=(i,), quantity="x", lo="0", hi="1", outcome=outcome)


class TestVerdictInvariant:
    def test_refuted_requires_witness(self):
        with pytest.raises(ValueError):
            Verdict(Outcome.REFUTED, Reason.INTERVAL_SEPARATION, (_row(1),))
        Verdict(
            Outcome.REFUTED,
            Reason.INTERVAL_SEPARATION,
            (_row(1, Outcome.REFUTED),),
        )

    def test_confirmed_needs_no_rows(self):
        Verdict(Outcome.CONFIRMED, Reason.SYMBOLIC_COMPARISON)


class TestAggregation:
    def test_all_confirmed(self):
        report = aggregate_rows("t", "c", [_row(i, Outcome.CONFIRMED) for i in range(3)])
        assert report.verdict.outcome is Outcome.CONFIRMED

    def test_any_refuted_wins_and_carries_witnesses(self):
        rows = [_row(0, Outcome.CONFIRMED), _row(1, Outcome.REFUTED),
                _row(2, Outcome.INCONCLUSIVE)]
        report = aggregate_rows("t", "c", rows)
        assert report.verdict.outcome is Outcome.REFUTED
        assert [r.index for r in report.verdict.evidence] == [(1,)]

    def test_inconclusive_without_refuted(self):
        rows = [_row(0, Outcome.CONFIRMED), _row(1, Outcome.INCONCLUSIVE)]
        report = aggregate_rows("t", "c", rows)
        assert report.verdict.outcome is Outcome.INCONCLUSIVE

    def test_rows_sorted_by_index(self):
        rows = [_row(2), _row(0), _row(1)]
        report = aggregate_rows("t", "c", rows)
        assert [r.index for r in report.rows] == [(0,), (1,), (2,)]

    def test_empty_sweep_is_vacuously_confirmed(self):
        assert aggregate_rows("t", "c", []).verdict.outcome is Outcome.CONFIRMED

    def test_worst_outcome(self):
        assert worst_outcome([Outcome.CONFIRMED, Outcome.REFUTED]) is Outcome.REFUTED
        assert worst_outcome([Outcome.CONFIRMED, Outcome.INCONCLUSIVE]) is Outcome.INCONCLUSIVE
        assert worst_outcome([Outcome.CONFIRMED]) is Outcome.CONFIRMED


class TestDeclaredColumns:
    def test_columns_name_the_index(self):
        report = aggregate_rows("t", "c", [_row(0, Outcome.CONFIRMED)], index_columns=("n",))
        header = [line for line in check_to_csv(report).splitlines()
                  if not line.startswith("#")][0]
        assert header == "n,lo,hi,verdict,note"

    def test_index_length_mismatch_raises(self):
        report = aggregate_rows("t", "c", [_row(0)], index_columns=("k", "n"))
        with pytest.raises(ValueError, match="declared columns"):
            check_to_csv(report)

    def test_columns_stay_out_of_the_json_document(self):
        report = aggregate_rows("t", "c", [_row(0)], index_columns=("n",),
                                csv_layout=("n", "verdict"))
        run = RunReport(config={})
        run.add(report)
        text = run.to_json()
        assert "index_columns" not in text and "csv_layout" not in text
        assert check_to_csv(report).splitlines()[-2:] == ["n,verdict", "0,"]


class TestOverlapDiscipline:
    def test_identical_inexact_enclosures_are_inconclusive(self):
        # equal but nonzero-width intervals cannot confirm <=: the discipline
        # demands genuine separation
        two = LogReal.from_int(2, bits_for_digits(40))
        assert log_lo(two) < log_hi(two)
        assert two.leq(two) is Outcome.INCONCLUSIVE

    def test_exact_equality_confirms(self):
        one = LogReal.one()
        assert one.leq(one) is Outcome.CONFIRMED


class TestReportName:
    def test_config_hash_is_pinned(self):
        # the first 12 hex digits of hashlib's SHA-256 of the canonical payload
        run = RunReport(config={"command": "seq-show", "n_max": 3}, spec_texts=["{}\n"],
                        tool_version="0.0.0")
        assert run.config_hash() == "f793300e5af6"

    def test_the_cli_does_not_load_openssl(self):
        # the builtin SHA-256 names reports; hashlib would load _hashlib
        env = {**os.environ, "PYTHONPATH": str(Path(carleman.__file__).parents[1])}
        loaded = subprocess.run(
            [sys.executable, "-c", "import sys, carleman.cli; print('_hashlib' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert loaded == "False\n"
