"""Power-substitution verification: the coefficient-level chain, the
assembled final bound, and the dilated-class quasianalyticity reports."""

from fractions import Fraction
from math import factorial

import pytest

from carleman.coefficients import E_LO, dec_str, diagonal_derivative, diagonal_derivative_row
from carleman.outcomes import Outcome, Reason
from carleman.sequences import SequenceSpec, WeightSequence
from carleman.substitution import coeff_level_check, final_bound_assembly, transform_report
from conftest import log_hi, log_lo


class TestInstanceValidation:
    def test_rejects_bad_parameters(self, gevrey1_spec):
        ws = WeightSequence(gevrey1_spec)
        with pytest.raises(ValueError):
            coeff_level_check(ws, p=1, A=Fraction(1), n_max=5)
        with pytest.raises(ValueError):
            coeff_level_check(ws, p=2, A=Fraction(0), n_max=5)
        with pytest.raises(ValueError):
            coeff_level_check(ws, p=2, A=Fraction(1), n_max=0)

    def test_interval_by_parity(self, gevrey1_spec):
        ws = WeightSequence(gevrey1_spec)
        assert coeff_level_check(ws, 2, Fraction(1), 1).certificate.interval_id == "[0,1]"
        assert coeff_level_check(ws, 3, Fraction(1), 1).certificate.interval_id == "[-1,1]"


class TestCoefficientLevel:
    def test_chain_links_are_exact(self):
        # the two links, checked independently with raw integers
        for p in (2, 3, 5):
            for n in (1, 2, 7, 20):
                assert factorial(n) <= n**n
                assert Fraction(n ** (p * n)) <= E_LO ** (p * n) * factorial(p * n)

    def test_families_and_radii(self, gevrey1_spec, paper8_spec):
        for spec in (gevrey1_spec, paper8_spec):
            ws = WeightSequence(spec)
            for p in (2, 3, 5):
                for A in (Fraction(1), Fraction(3)):
                    report = coeff_level_check(ws, p=p, A=A, n_max=8)
                    assert report.verdict.outcome is Outcome.CONFIRMED, (
                        spec.family,
                        p,
                        A,
                        report.verdict,
                    )

    def test_link_columns_present(self, gevrey1_spec):
        report = coeff_level_check(WeightSequence(gevrey1_spec), p=2, A=Fraction(1), n_max=4)
        for row in report.rows:
            # n! <= n^n holds for every n >= 1 and has no column
            assert [key for key, _ in row.extra] == ["ceiling_log", "link_factorial_ineq"]
            assert dict(row.extra)["link_factorial_ineq"] == "confirmed"

    def test_monotone_consistency(self, gevrey1_spec):
        # raising A or the depth never flips confirmed rows
        ws = WeightSequence(gevrey1_spec)
        shallow = coeff_level_check(ws, 2, Fraction(1), 6)
        deep = coeff_level_check(ws, 2, Fraction(1), 12)
        big_A = coeff_level_check(ws, 2, Fraction(7), 6)
        outcomes = {r.index: r.outcome for r in deep.rows}
        for row in shallow.rows:
            assert outcomes[row.index] is row.outcome is Outcome.CONFIRMED
        for row in big_A.rows:
            assert row.outcome is Outcome.CONFIRMED

    def test_certificate(self, gevrey1_spec):
        report = coeff_level_check(WeightSequence(gevrey1_spec), p=2, A=Fraction(1), n_max=4)
        cert = report.certificate
        assert cert.interval_id == "[0,1]"
        assert log_lo(cert.C) == log_hi(cert.C) == 0  # C = 1


class TestAssembly:
    def test_confirmed_with_exact_cancellation(self, gevrey1_spec):
        report = final_bound_assembly(gevrey1_spec, p=2, n_max=8)
        assert report.verdict.outcome is Outcome.CONFIRMED
        assert report.verdict.reason is Reason.INTERVAL_SEPARATION
        # every row is a comparison that could fail
        assert {row.outcome for row in report.rows} == {Outcome.CONFIRMED}
        assert len(report.rows) == sum(n + 1 for n in range(1, 9))
        # the x-powers of the two factors cancel: each k-sum row holds the
        # sum at x = q^2 for any q, here q = 1/2, where the derivative
        # carries q^(-(pn-k)) and the Taylor factor (q/n)^(pn-k)
        q = Fraction(1, 2)
        sums = {row.index[2]: row.lo for row in report.rows if row.index[1] == 0}
        assert sums == {
            n: dec_str(sum(
                abs(q ** (k - 2 * n) * diagonal_derivative(2, k, n)) * (q / n) ** (2 * n - k)
                for k in range(1, n + 1)
            ))
            for n in range(1, 9)
        }

    def test_n1_single_term(self, gevrey1_spec):
        # n = 1, p = 2: one k = 1 row and one sum row; the sum is
        # |alpha_1^(1)| / 1 = 1/2 against the ceiling 2e
        report = final_bound_assembly(gevrey1_spec, p=2, n_max=1)
        assert [r.index for r in report.rows] == [(2, 0, 1), (2, 1, 1)]
        (sum_row,) = (r for r in report.rows if r.index[1] == 0)
        assert sum_row.lo == dec_str(Fraction(1, 2))
        assert sum_row.hi == dec_str(2 * E_LO)

    def test_alpha_factor_agrees_with_oracle_helper(self, gevrey1_spec):
        # the per-k rows of the assembly are the diag-derivative rows
        report = final_bound_assembly(gevrey1_spec, p=3, n_max=4)
        k_rows = [r for r in report.rows if r.index[1] > 0]
        expected = [
            diagonal_derivative_row(3, k, n) for n in range(1, 5) for k in range(1, n + 1)
        ]
        assert k_rows == sorted(expected, key=lambda r: r.index)

    def test_exact_alpha_sum_below_ceiling_columns(self, paper8_spec):
        report = final_bound_assembly(paper8_spec, p=3, n_max=5)
        assert report.verdict.outcome is Outcome.CONFIRMED
        sum_rows = [r for r in report.rows if r.index[1] == 0]
        assert len(sum_rows) == 5
        for row in sum_rows:
            assert row.outcome is Outcome.CONFIRMED
            assert Fraction(row.lo) < Fraction(row.hi)


class TestTransformReport:
    def test_expected_claims(self):
        il1 = SequenceSpec(family="iterated_log", k=1)
        il2 = SequenceSpec(family="iterated_log", k=2)
        p8 = SequenceSpec(family="paper8")
        cases = [
            (il1, 2, "convergent"),
            (il2, 2, "divergent"),
            (il2, 3, "divergent"),
            (p8, 2, "divergent"),
        ]
        for spec, p, word in cases:
            report = transform_report(WeightSequence(spec), p, 80)
            assert report.verdict.outcome is Outcome.CONFIRMED
            assert word in report.claim

    def test_identity_transform_matches_base(self, constant_spec):
        base = transform_report(WeightSequence(constant_spec), 1, 40)
        assert "divergent" in base.claim
        assert base.verdict.outcome is Outcome.CONFIRMED

    def test_table_inconclusive(self):
        spec = SequenceSpec(
            family="table", log_values=tuple(str(i) for i in range(30))
        )
        report = transform_report(WeightSequence(spec), 2, 10)
        assert report.verdict.outcome is Outcome.INCONCLUSIVE

    def test_p_validation(self, constant_spec):
        from carleman.errors import SpecFormatError

        with pytest.raises(SpecFormatError):
            transform_report(WeightSequence(constant_spec), 0, 10)
