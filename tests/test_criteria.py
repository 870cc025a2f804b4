"""Sequence criteria: convexity and monotonicity sweeps, the
quasianalyticity series with its symbolic verdicts, derivation closure, and
the inclusion criterion."""

import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest
from mpmath import iv

from carleman.criteria import (
    carleman_terms,
    check_derivation_closed,
    check_inclusion,
    check_log_convex,
    check_monotone,
    quasianalyticity_report,
)
from carleman.intervals import mpf_str, partial_sums, sum_values, working_precision
from carleman.outcomes import Outcome, Reason
from carleman.sequences import SequenceSpec, WeightSequence, family_fact, power_substitute
from conftest import encloses_fraction, iv_endpoints, log_hi, log_iv, log_lo, prefix_sums

#: one spec of each family, the gevrey family at several s
TREND_SPECS = (
    SequenceSpec(family="constant"),
    *(SequenceSpec(family="gevrey", s=s) for s in ("1/2", "1", "3/2", "2")),
    SequenceSpec(family="iterated_log", k=1),
    SequenceSpec(family="paper8"),
    SequenceSpec(family="table", log_values=tuple(str(Fraction(k * k, 7)) for k in range(103))),
    power_substitute(SequenceSpec(family="gevrey", s="3/2"), 3),
)


class TestLogConvex:
    def test_constant_equality_confirms(self, constant_ws):
        report = check_log_convex(constant_ws, "M", 100)
        assert report.verdict.outcome is Outcome.CONFIRMED

    def test_gevrey_mprime(self, gevrey1_ws):
        # (n!^2)^2 <= ((n-1)!^2)((n+1)!^2) iff n <= n+1
        report = check_log_convex(gevrey1_ws, "Mprime", 50)
        assert report.verdict.outcome is Outcome.CONFIRMED

    def test_paper8_measured_segments(self, paper8_ws):
        # measured behavior of the shifted double-log family: the raw
        # sequence fails log-convexity exactly on 1..6 and holds from 7 on
        report = check_log_convex(paper8_ws, "M", 50)
        refuted = [r.index[0] for r in report.rows if r.outcome is Outcome.REFUTED]
        assert refuted == [1, 2, 3, 4, 5, 6]
        assert report.verdict.outcome is Outcome.REFUTED
        tail = check_log_convex(paper8_ws, "M", 50, n_min=7)
        assert tail.verdict.outcome is Outcome.CONFIRMED

    def test_paper8_mprime_fails_only_at_one(self, paper8_ws):
        report = check_log_convex(paper8_ws, "Mprime", 50)
        refuted = [r.index[0] for r in report.rows if r.outcome is Outcome.REFUTED]
        assert refuted == [1]

    def test_refuted_carries_witness(self):
        spec = SequenceSpec(family="table", log_values=("0", "2", "3"))
        report = check_log_convex(WeightSequence(spec), "M", 2)
        assert report.verdict.outcome is Outcome.REFUTED
        assert any(r.outcome is Outcome.REFUTED for r in report.verdict.evidence)

    def test_domain_validation(self, constant_ws):
        with pytest.raises(ValueError):
            check_log_convex(constant_ws, "M", 1)
        with pytest.raises(ValueError):
            check_log_convex(constant_ws, "bogus", 10)


class TestRatioMonotonicity:
    def test_mk_nondecreasing_where_mprime_convexity_confirmed(
        self, constant_ws, gevrey1_ws, paper8_ws
    ):
        # measured primed ratios must be non-decreasing on any range where
        # log-convexity of M' was confirmed on the same range
        for ws, n_min in ((constant_ws, 1), (gevrey1_ws, 1), (paper8_ws, 2)):
            assert (
                check_log_convex(ws, "Mprime", 40, n_min=n_min).verdict.outcome
                is Outcome.CONFIRMED
            )
            ratios = [ws.ratio_m(k) for k in range(n_min, 40)]
            for a, b in zip(ratios, ratios[1:]):
                assert log_lo(a) <= log_hi(b)  # no certified decrease anywhere


class TestMonotone:
    def test_builtins(self, constant_ws, gevrey1_ws, paper8_ws):
        for ws in (constant_ws, gevrey1_ws, paper8_ws):
            assert check_monotone(ws, 60).verdict.outcome is Outcome.CONFIRMED

    def test_decreasing_table_refuted(self):
        # non-decreasing is a table invariant, so build a florid convex
        # table and check monotone on the raw values instead is impossible;
        # a constant run of equal values still confirms (<=)
        spec = SequenceSpec(family="table", log_values=("0", "0", "0"))
        assert check_monotone(WeightSequence(spec), 2).verdict.outcome is Outcome.CONFIRMED


class TestCarleman:
    def test_constant_terms_and_rule(self, constant_ws):
        verdict = quasianalyticity_report(constant_ws, 50).verdict
        total = sum_values(list(carleman_terms(constant_ws, 50)))
        assert verdict.outcome is Outcome.CONFIRMED
        assert verdict.reason is Reason.SYMBOLIC_COMPARISON
        assert "divergent" in verdict.evidence[0].note
        # S_N = sum_{n=1..N} 1/(n+1) = H_{N+1} - 1
        expected = sum(Fraction(1, n + 1) for n in range(1, 51))
        assert encloses_fraction(total, expected, constant_ws.bits)

    def test_gevrey_partial_sums_approach_limit(self, gevrey1_ws):
        # terms are exactly 1/(n+1)^2: S_N + tail = pi^2/6 - 1 with
        # tail in [1/(N+2), 1/(N+1)]
        N = 400
        verdict = quasianalyticity_report(gevrey1_ws, N).verdict
        total = sum_values(list(carleman_terms(gevrey1_ws, N)))
        assert verdict.outcome is Outcome.CONFIRMED
        assert "convergent" in verdict.evidence[0].note
        exact = sum(Fraction(1, (n + 1) ** 2) for n in range(1, N + 1))
        assert encloses_fraction(total, exact, gevrey1_ws.bits)
        with working_precision(gevrey1_ws.bits):
            limit = iv.pi**2 / 6 - 1
            s_iv = iv.exp(log_iv(total))
            lo, hi = iv_endpoints(s_iv + iv.mpf([0, 1]) / (N + 1))
            llo, lhi = iv_endpoints(limit)
            assert lo <= llo and lhi <= hi

    def test_rules_match_expected_claims(self):
        cases = [
            (SequenceSpec(family="constant"), "divergent"),
            (SequenceSpec(family="gevrey", s=Fraction(2)), "convergent"),
            (SequenceSpec(family="iterated_log", k=1), "divergent"),
            (SequenceSpec(family="iterated_log", k=2), "divergent"),
            (SequenceSpec(family="paper8"), "divergent"),
        ]
        for spec, claim in cases:
            assert family_fact(spec, "quasianalytic")[0] == claim

    def test_transform_rules(self):
        il1 = SequenceSpec(family="iterated_log", k=1)
        il2 = SequenceSpec(family="iterated_log", k=2)
        t_il1 = power_substitute(il1, 2)
        assert family_fact(t_il1, "quasianalytic")[0] == "convergent"
        for p in (2, 3):
            t_il2 = power_substitute(il2, p)
            assert family_fact(t_il2, "quasianalytic")[0] == "divergent"
        t8 = power_substitute(SequenceSpec(family="paper8"), 5)
        assert family_fact(t8, "quasianalytic")[0] == "divergent"

    def test_table_has_no_rule(self):
        spec = SequenceSpec(family="table", log_values=("0", "1", "2", "3", "4", "5"))
        verdict = quasianalyticity_report(WeightSequence(spec), 4).verdict
        assert verdict.outcome is Outcome.INCONCLUSIVE
        assert verdict.reason is Reason.DEPTH_EXHAUSTED

    def test_report_wrapper(self, paper8_ws):
        report = quasianalyticity_report(paper8_ws, 60)
        assert report.verdict.outcome is Outcome.CONFIRMED
        assert "divergent" in report.claim

    @pytest.mark.parametrize("digits", [20, 30, 80])
    @pytest.mark.parametrize("spec", TREND_SPECS, ids=lambda spec: spec.label())
    def test_streamed_trend_equals_the_prefix_sums(self, spec, digits):
        ws, n_max = WeightSequence(replace(spec, precision=digits)), 101
        at = {1, n_max // 4, n_max // 2, n_max}
        streamed = partial_sums(carleman_terms(ws, n_max), at, ws.bits)
        twin = prefix_sums(carleman_terms(ws, n_max), at)
        assert list(streamed) == list(twin) == sorted(at)
        assert [(v.log_lo, v.log_hi, v.bits) for v in streamed.values()] == [
            (v.log_lo, v.log_hi, v.bits) for v in twin.values()
        ]
        rows = quasianalyticity_report(ws, n_max).rows
        assert [(r.index[0], r.lo, r.hi) for r in rows] == [
            (n, mpf_str(v.log_lo), mpf_str(v.log_hi)) for n, v in twin.items()
        ]

    def test_the_trend_holds_no_list_of_terms(self):
        # with the memo and the log-factorial table warm, the check's only
        # growth is its four rows and one term at a time
        ws, n_max = WeightSequence(SequenceSpec(family="gevrey", s="3/2", precision=20)), 5000
        for n in range(n_max + 2):
            ws.log_M(n)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            quasianalyticity_report(ws, n_max)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base < 256 * 1024

    def test_divergent_trend_matches_rule_for_iterated(self):
        # numerical sanity behind the symbolic claim: partial sums of the
        # k = 1 tower family keep growing
        ws = WeightSequence(SequenceSpec(family="iterated_log", k=1))
        terms = list(carleman_terms(ws, 300))
        with working_precision(ws.bits):
            assert log_lo(sum_values(terms)) > log_hi(sum_values(terms[:151]))


class TestDerivationClosed:
    def test_constant_sup_is_one(self, constant_ws):
        report = check_derivation_closed(constant_ws, 50)
        assert report.verdict.outcome is Outcome.CONFIRMED
        last = dict(report.rows[-1].extra)
        assert float(last["sup_hi"]) == 0  # log(sup) = 0

    def test_gevrey_sup_enclosure_at_two(self, gevrey1_ws):
        # (n+1)^(1/n) is maximal at n = 1 where it equals 2
        report = check_derivation_closed(gevrey1_ws, 50)
        assert report.verdict.outcome is Outcome.CONFIRMED
        sup_hi = max(float(dict(r.extra)["sup_hi"]) for r in report.rows)
        with working_precision(gevrey1_ws.bits):
            log2 = float(iv_endpoints(iv.log(iv.mpf(2)))[1])
        assert sup_hi <= log2 * (1 + 1e-20)

    def test_iterated_log_bounded_by_rule(self):
        ws = WeightSequence(SequenceSpec(family="iterated_log", k=1))
        report = check_derivation_closed(ws, 40)
        assert report.verdict.outcome is Outcome.CONFIRMED
        assert report.verdict.reason is Reason.SYMBOLIC_COMPARISON

    def test_table_is_trend_only(self):
        spec = SequenceSpec(family="table", log_values=tuple(str(i) for i in range(12)))
        report = check_derivation_closed(WeightSequence(spec), 10)
        assert report.verdict.outcome is Outcome.INCONCLUSIVE


class TestInclusion:
    def test_identity(self, gevrey1_ws):
        other = WeightSequence(gevrey1_ws.spec)
        report = check_inclusion(gevrey1_ws, other, 30)
        assert report.verdict.outcome is Outcome.CONFIRMED
        assert report.claim.startswith("included: identical")

    def test_identity_ignores_precision(self):
        low = WeightSequence(SequenceSpec(family="gevrey", s=Fraction(1), precision=20))
        high = WeightSequence(SequenceSpec(family="gevrey", s=Fraction(1), precision=80))
        report = check_inclusion(low, high, 10)
        assert report.verdict.outcome is Outcome.CONFIRMED
        assert report.claim.startswith("included: identical")

    def test_dilation_rule_ignores_precision(self):
        spec = SequenceSpec(family="iterated_log", k=1, precision=20)
        dilated = replace(power_substitute(spec, 2), precision=80)
        report = check_inclusion(WeightSequence(spec), WeightSequence(dilated), 10)
        assert report.verdict.outcome is Outcome.CONFIRMED
        assert "dilation" in report.claim

    def test_dilation_rule(self, gevrey1_ws, paper8_ws):
        for ws in (gevrey1_ws, paper8_ws):
            for p in (2, 3):
                tspec = power_substitute(ws.spec, p)
                report = check_inclusion(ws, WeightSequence(tspec), 30)
                assert report.verdict.outcome is Outcome.CONFIRMED, report.claim
                assert "dilation" in report.claim
                # sup enclosure stays <= 1, i.e. log-sup <= 0
                sup_hi = max(float(dict(r.extra)["sup_hi"]) for r in report.rows)
                assert sup_hi <= 1e-18

    def test_nested_dilation_rule(self, gevrey1_ws):
        t2 = power_substitute(gevrey1_ws.spec, 2)
        t6 = power_substitute(t2, 3)
        report = check_inclusion(WeightSequence(t2), WeightSequence(t6), 12)
        assert report.verdict.outcome is Outcome.CONFIRMED

    def test_gevrey_vs_constant_unbounded(self, gevrey1_ws, constant_ws):
        report = check_inclusion(gevrey1_ws, constant_ws, 40)
        assert report.verdict.outcome is Outcome.CONFIRMED
        assert report.claim.startswith("not included")
        assert len(report.verdict.evidence) >= 1
        # the ratio root (n!)^(1/n) at the last row exceeds 2 already
        last = report.verdict.evidence[-1]
        assert float(last.lo) > 0.69  # log 2

    def test_constant_into_gevrey(self, gevrey1_ws, constant_ws):
        report = check_inclusion(constant_ws, gevrey1_ws, 30)
        assert report.verdict.outcome is Outcome.CONFIRMED
        assert report.claim.startswith("included")

    def test_unrelated_pair_inconclusive(self, paper8_ws):
        il2 = WeightSequence(SequenceSpec(family="iterated_log", k=2))
        report = check_inclusion(paper8_ws, il2, 15)
        assert report.verdict.outcome is Outcome.INCONCLUSIVE
