"""Failing branches of the outcome roll-ups.

The exact links behind ``ckn-bound``, ``root-series-bound``,
``root-series-magnitude``, ``diag-derivative``,
``substitution-coefficients`` and ``substitution-assembly`` never fail on
correct arithmetic, so these tests
replace one link at a time with a refuting or inconclusive stand-in and
check the row outcomes (refuted > inconclusive > confirmed) and the notes
that name the failing link.  A refuted check publishes no certificate.  A
loose lower side of e must leave every check that compares with a power of
e unrefuted.
"""

import json
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from carleman import coefficients as co
from carleman import substitution as su
from carleman.bang import BangSeries
from carleman.cli import main
from carleman.intervals import LogReal
from carleman.outcomes import EvidenceRow, Outcome, Reason, aggregate_rows
from carleman.sequences import SequenceSpec, WeightSequence

C, R, I = Outcome.CONFIRMED, Outcome.REFUTED, Outcome.INCONCLUSIVE


def _outcomes(report):
    return {row.outcome for row in report.rows}


def _huge_ckn(k, n):
    """A c(k, n) above 2^n: the Cauchy estimate is refuted."""
    return Fraction(2**n + 1)


class TestCknBound:
    @pytest.mark.parametrize("lemma, note", [(R, "lemma"), (I, "lemma")])
    def test_lemma_link_alone(self, monkeypatch, lemma, note):
        monkeypatch.setattr(co, "leq_with_e_power", lambda *args: lemma)
        report = co.verify_ckn_bound(2, 3)
        assert _outcomes(report) == {lemma}
        assert {row.note for row in report.rows} == {note}
        assert report.verdict.outcome is lemma

    @pytest.mark.parametrize("lemma", [C, I, R])
    def test_cauchy_link_refutes_whatever_the_lemma_says(self, monkeypatch, lemma):
        monkeypatch.setattr(co, "ckn", _huge_ckn)
        monkeypatch.setattr(co, "leq_with_e_power", lambda *args: lemma)
        report = co.verify_ckn_bound(2, 3)
        assert _outcomes(report) == {R}
        assert {row.note for row in report.rows} == {"cauchy"}
        assert report.verdict.outcome is R
        assert report.verdict.evidence == report.rows

    def test_unpatched_rows_carry_no_note(self):
        report = co.verify_ckn_bound(2, 3)
        assert _outcomes(report) == {C}
        assert {row.note for row in report.rows} == {""}


class TestRootSeriesBound:
    @pytest.mark.parametrize("e_link", [I, R])
    def test_e_link_alone(self, monkeypatch, e_link):
        monkeypatch.setattr(co, "leq_with_e_power", lambda *args: e_link)
        report = co.verify_root_series_bounds(2, 1, 3)
        assert _outcomes(report) == {e_link}
        assert report.verdict.outcome is e_link

    @pytest.mark.parametrize("e_link", [C, I, R])
    def test_exact_link_refutes_whatever_the_e_link_says(self, monkeypatch, e_link):
        # c(k, n) = 0 puts every nonzero |b_n| above c(k, n)/k!
        monkeypatch.setattr(co, "ckn", lambda k, n: Fraction(0))
        monkeypatch.setattr(co, "leq_with_e_power", lambda *args: e_link)
        report = co.verify_root_series_bounds(2, 1, 3)
        assert _outcomes(report) == {R}
        assert report.verdict.outcome is R


class TestRootSeriesMagnitude:
    def test_an_inflated_magnitude_refutes_its_row(self, monkeypatch):
        # |a_3| raised to 1/2 > 1/3: that row alone refutes the check
        magnitudes = co.root_series_magnitudes

        def inflated(p, i_max):
            mags = magnitudes(p, i_max)
            mags[3] = Fraction(1, 2)
            return mags

        monkeypatch.setattr(co, "root_series_magnitudes", inflated)
        report = co.verify_root_series_magnitude_bound(2, 5)
        assert report.verdict.outcome is R
        assert [row.index for row in report.verdict.evidence] == [(2, 3)]
        assert _outcomes(report) == {C, R}


class TestDiagonalDerivative:
    def test_a_row_between_the_e_sides_is_inconclusive(self, monkeypatch):
        # at one (p, k, n) the value lies between the E_LO and the E_UP
        # side of its bound: that row, and the check, are undecided
        target = (2, 1, 2)
        value = co.diagonal_derivative

        def straddle(p, k, n):
            if (p, k, n) != target:
                return value(p, k, n)
            return 2**n * Fraction(n) ** (n - k) * ((co.E_LO + co.E_UP) / 2) ** n

        monkeypatch.setattr(co, "diagonal_derivative", straddle)
        report = co.verify_diagonal_derivatives(2, 2, 3)
        assert report.verdict.outcome is I
        assert [row.index for row in report.verdict.evidence] == [target]
        assert _outcomes(report) == {C, I}


class TestCoefficientLevel:
    @pytest.fixture
    def ws(self):
        return WeightSequence(SequenceSpec(family="gevrey", s=Fraction(1)))

    @pytest.mark.parametrize("ineq", [I, R])
    def test_factorial_inequality_link(self, monkeypatch, ws, ineq):
        monkeypatch.setattr(
            su, "verify_factorial_inequality", lambda p, n, k: SimpleNamespace(outcome=ineq)
        )
        report = su.coeff_level_check(ws, 2, Fraction(1), 2)
        assert _outcomes(report) == {ineq}
        for row in report.rows:
            assert dict(row.extra)["link_factorial_ineq"] == ineq.value
        assert report.verdict.outcome is ineq

    @pytest.mark.parametrize("ineq", [C, I])
    def test_lower_side_of_e_alone_is_inconclusive(self, monkeypatch, ws, ineq):
        # the E_LO ceiling falls under the lhs, the E_UP ceiling stays above it
        monkeypatch.setattr(co, "E_LO", Fraction(1, 100))
        monkeypatch.setattr(
            su, "verify_factorial_inequality", lambda p, n, k: SimpleNamespace(outcome=ineq)
        )
        report = su.coeff_level_check(ws, 2, Fraction(1), 2)
        assert _outcomes(report) == {I}
        assert report.verdict.outcome is I

    @pytest.mark.parametrize("ineq", [C, I])
    def test_assembled_link_refutes(self, monkeypatch, ws, ineq):
        # both sides of e far below e put every ceiling under the lhs
        monkeypatch.setattr(co, "E_LO", Fraction(1, 100))
        monkeypatch.setattr(co, "E_UP", Fraction(1, 100))
        monkeypatch.setattr(
            su, "verify_factorial_inequality", lambda p, n, k: SimpleNamespace(outcome=ineq)
        )
        report = su.coeff_level_check(ws, 2, Fraction(1), 2)
        assert _outcomes(report) == {R}
        assert report.verdict.outcome is R


class TestAssembly:
    def test_an_inflated_derivative_refutes_its_rows(self, monkeypatch):
        # one exact diagonal derivative (n + 1) times its E_UP ceiling: its
        # own row and the k-sum row of its n are refuted
        p, k, n = 2, 1, 3
        value = co.diagonal_derivative

        def inflated(*args):
            if args != (p, k, n):
                return value(*args)
            return (n + 1) * 2**n * Fraction(n) ** (n - k) * co.E_UP**n

        monkeypatch.setattr(co, "diagonal_derivative", inflated)
        monkeypatch.setattr(su, "diagonal_derivative", inflated)
        report = su.final_bound_assembly(SequenceSpec(family="gevrey", s=Fraction(1)), p, 4)
        assert report.verdict.outcome is R
        witnesses = [row.index for row in report.verdict.evidence]
        assert witnesses == [(p, 0, n), (p, k, n)]


class TestRefutedCheckPublishesNoCertificate:
    """A certificate is published only on a confirmed verdict."""

    @staticmethod
    def _check(capsys, argv, prefix):
        assert main(argv) == 1
        (check,) = (c for c in json.loads(capsys.readouterr().out)["checks"]
                    if c["name"].startswith(prefix))
        assert check["verdict"]["outcome"] == "refuted"
        return check

    def test_substitution_coefficients(self, monkeypatch, capsys):
        # both sides of e far below e: every coefficient row is refuted
        low = Fraction(1, 100)
        monkeypatch.setattr(co, "E_LO", low)
        monkeypatch.setattr(co, "E_UP", low)
        gevrey = str(Path(co.__file__).parent / "data" / "specs" / "gevrey1.json")
        check = self._check(capsys, ["thm61", "--spec", gevrey, "--n-max", "3",
                                     "--assembly-n-max", "1"], "substitution-coefficients")
        assert check["certificate"] is None

    def test_bang_membership(self, monkeypatch, capsys):
        # a head sum 100 times its value overshoots the 2^(n+1) M'_n ceiling
        head_sum = BangSeries.head_sum
        monkeypatch.setattr(BangSeries, "head_sum", lambda self, n, K: (
            head_sum(self, n, K) * LogReal.from_int(100, self.bits)))
        constant = str(Path(co.__file__).parent / "data" / "specs" / "constant.json")
        check = self._check(capsys, ["bang", "--spec", constant, "--n-max", "3",
                                     "--deriv-n-max", "1", "--sharpness-n-max", "1"],
                            "bang-membership")
        assert check["certificate"] is None


#: the checks that compare with a power of e
E_POWER_CHECKS = ("ckn-bound", "root-series-bound", "factorial-inequality",
                  "diag-derivative", "substitution-coefficients", "substitution-assembly")


class TestLooseLowerSideOfE:
    def test_refutes_nothing(self, monkeypatch, capsys):
        # [1/100, E_UP] still encloses e: no comparison with a power of e
        # may refute through it
        low = Fraction(1, 100)
        monkeypatch.setattr(co, "E_LO", low)
        gevrey = str(Path(co.__file__).parent / "data" / "specs" / "gevrey1.json")
        outcomes = {}
        for argv in (["ckn", "--k-max", "3", "--n-max", "6"],
                     ["alpha", "--p", "2", "--k-max", "2", "--n-max", "4"],
                     ["ineq62", "--p", "2", "--n-max", "4"],
                     ["thm61", "--spec", gevrey, "--n-max", "4", "--assembly-n-max", "4"]):
            main(argv)
            for check in json.loads(capsys.readouterr().out)["checks"]:
                name = check["name"].split("[")[0]
                outcomes.setdefault(name, set()).add(check["verdict"]["outcome"])
        assert {name: outcomes[name] for name in E_POWER_CHECKS} == dict.fromkeys(
            E_POWER_CHECKS, {"inconclusive"})


def _row(i, outcome):
    return EvidenceRow(index=(i,), quantity="x", lo="0", hi="1", outcome=outcome)


class TestAggregateWitnesses:
    def test_inconclusive_witnesses_are_the_first_eight(self):
        rows = [_row(i, I) for i in reversed(range(12))] + [_row(12, C)]
        report = aggregate_rows("t", "c", rows)
        assert report.verdict.outcome is I
        assert report.verdict.reason is Reason.PRECISION_EXHAUSTED
        assert [r.index for r in report.verdict.evidence] == [(i,) for i in range(8)]
        assert len(report.rows) == 13

    def test_every_refuted_row_is_a_witness(self):
        rows = [_row(i, R if i % 2 else I) for i in range(20)]
        report = aggregate_rows("t", "c", rows)
        assert report.verdict.outcome is R
        assert report.verdict.reason is Reason.INTERVAL_SEPARATION
        assert [r.index for r in report.verdict.evidence] == [(i,) for i in range(1, 20, 2)]

    def test_confirmed_takes_the_given_reason_and_no_witness(self):
        rows = [_row(i, C) for i in range(10)] + [_row(10, None)]
        report = aggregate_rows("t", "c", rows, reason_confirmed=Reason.SYMBOLIC_COMPARISON)
        assert report.verdict.outcome is C
        assert report.verdict.reason is Reason.SYMBOLIC_COMPARISON
        assert report.verdict.evidence == ()
