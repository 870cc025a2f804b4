"""Sequence criteria: convexity and monotonicity sweeps, the
quasianalyticity facts with their sampled term bounds, derivation closure,
and the inclusion criterion."""

import math
from dataclasses import replace
from fractions import Fraction

import pytest
from mpmath import iv

from mpmath.libmp import from_man_exp, mpi_mul

from carleman import criteria, sequences
from carleman.criteria import (
    check_derivation_closed,
    check_inclusion,
    check_log_convex,
    check_monotone,
    log_row,
    quasianalyticity_report,
    sampled_indices,
)
from carleman.intervals import LogReal, sum_values, working_precision
from carleman.outcomes import Outcome, Reason
from carleman.sequences import SequenceSpec, WeightSequence, family_fact, power_substitute
from conftest import (
    carleman_terms,
    encloses_fraction,
    iv_endpoints,
    log_hi,
    log_iv,
    log_lo,
    prefix_sums,
    ref_partial_sums,
    same_endpoints,
)

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
        report = quasianalyticity_report(constant_ws, 50)
        total = sum_values(list(carleman_terms(constant_ws, 50)))
        assert report.verdict.outcome is Outcome.CONFIRMED
        assert report.verdict.reason is Reason.SYMBOLIC_COMPARISON
        assert "divergent" in report.claim
        assert all("divergent" in r.note and r.outcome is Outcome.CONFIRMED
                   for r in report.rows)
        # S_N = sum_{n=1..N} 1/(n+1) = H_{N+1} - 1
        expected = sum(Fraction(1, n + 1) for n in range(1, 51))
        assert encloses_fraction(total, expected, constant_ws.bits)

    def test_gevrey_partial_sums_approach_limit(self, gevrey1_ws):
        # terms are exactly 1/(n+1)^2: S_N + tail = pi^2/6 - 1 with
        # tail in [1/(N+2), 1/(N+1)]
        N = 400
        report = quasianalyticity_report(gevrey1_ws, N)
        total = sum_values(list(carleman_terms(gevrey1_ws, N)))
        assert report.verdict.outcome is Outcome.CONFIRMED
        assert "convergent" in report.claim
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
            direction = "upper" if claim == "convergent" else "lower"
            assert family_fact(spec, "quasianalytic").direction == direction
            assert quasianalyticity_report(WeightSequence(spec), 4).claim.endswith(claim)

    def test_transform_rules(self):
        il1 = SequenceSpec(family="iterated_log", k=1)
        il2 = SequenceSpec(family="iterated_log", k=2)
        t_il1 = power_substitute(il1, 2)
        assert family_fact(t_il1, "quasianalytic").direction == "upper"
        for p in (2, 3):
            t_il2 = power_substitute(il2, p)
            assert family_fact(t_il2, "quasianalytic").direction == "lower"
        t8 = power_substitute(SequenceSpec(family="paper8"), 5)
        assert family_fact(t8, "quasianalytic").direction == "lower"

    def test_table_has_no_rule(self):
        spec = SequenceSpec(family="table", log_values=("0", "1", "2", "3", "4", "5"))
        report = quasianalyticity_report(WeightSequence(spec), 4)
        assert report.verdict.outcome is Outcome.INCONCLUSIVE
        assert report.verdict.reason is Reason.DEPTH_EXHAUSTED
        # the sampled terms, with no outcome and no bound
        assert [r.index[0] for r in report.rows] == [1, 2, 3, 4]
        assert all(r.outcome is None and r.extra == () for r in report.rows)

    def test_report_wrapper(self, paper8_ws):
        report = quasianalyticity_report(paper8_ws, 60)
        assert report.verdict.outcome is Outcome.CONFIRMED
        assert "divergent" in report.claim

    @pytest.mark.parametrize("digits", [20, 30, 80])
    @pytest.mark.parametrize("spec", TREND_SPECS, ids=lambda spec: spec.label())
    def test_streamed_trend_equals_the_prefix_sums(self, spec, digits, monkeypatch):
        # the check's rows are the streamed twin's terms at the sampled
        # indices, bit for bit; the twin's one-pass running sums there are
        # the prefix sums of sum_values, the route of criterion 7
        ws, n_max = WeightSequence(replace(spec, precision=digits)), 101
        fact = family_fact(ws.spec, "quasianalytic")
        at = sampled_indices(n_max, 1 if fact is None else fact.n0)
        terms = list(carleman_terms(ws, n_max))
        running = ref_partial_sums(terms, ws.bits)
        assert all(same_endpoints(total, running[n - 1])
                   for n, total in prefix_sums(terms, at).items())
        values = []

        def recording_row(index, quantity, value, *args, **kwargs):
            values.append((index[0], value.log_lo, value.log_hi, value.bits))
            return log_row(index, quantity, value, *args, **kwargs)

        monkeypatch.setattr(criteria, "log_row", recording_row)
        rows = quasianalyticity_report(ws, n_max).rows
        assert [r.index[0] for r in rows] == at
        twin = [(n, terms[n - 1].log_lo, terms[n - 1].log_hi, terms[n - 1].bits) for n in at]
        assert values == twin

    def test_the_sample_does_not_grow_with_n_max(self):
        assert sampled_indices(20100, 1) == [
            *range(1, 9), *(2**j for j in range(4, 15)), 20000, 20001, 20100]
        # indices below n0 + 8, and the seam pair only once n_max reaches it
        assert sampled_indices(40, 13) == [*range(1, 21), 32, 40]
        assert sampled_indices(20000, 1)[-1] == 20000
        assert sampled_indices(1, 13) == [1]
        assert len(sampled_indices(999_999, 1)) == 8 + 16 + 3

    def test_the_check_reads_only_its_sampled_indices(self):
        # the seam pair reads log n! by both routes: M_20000 from the
        # incremental table, M_20001 and M_20002 from the log-gamma
        ws = WeightSequence(SequenceSpec(family="gevrey", s="1", precision=20))
        report = quasianalyticity_report(ws, 20100)
        assert report.verdict.outcome is Outcome.CONFIRMED
        sampled = [*range(1, 9), *(2**j for j in range(4, 15)), 20000, 20001, 20100]
        assert {n for n in range(0, 20200) if n in ws._memo} == {
            m for n in sampled for m in (n, n + 1)}

    def test_a_row_below_n0_has_no_outcome(self, paper8_ws):
        # paper8's bound needs 3 + n >= 16 > e^e: n0 = 13
        report = quasianalyticity_report(paper8_ws, 8)
        assert report.verdict.outcome is Outcome.CONFIRMED
        assert [r.index[0] for r in report.rows] == list(range(1, 9))
        assert all(r.outcome is None and r.note == "below n_0 = 13: no bound claimed"
                   for r in report.rows)
        tested = quasianalyticity_report(paper8_ws, 40).rows
        assert [r.index[0] for r in tested if r.outcome is Outcome.CONFIRMED] == [
            *range(13, 21), 32, 40]

    def test_divergent_trend_matches_rule_for_iterated(self):
        # numerical sanity behind the symbolic claim: partial sums of the
        # k = 1 tower family keep growing
        ws = WeightSequence(SequenceSpec(family="iterated_log", k=1))
        terms = list(carleman_terms(ws, 300))
        with working_precision(ws.bits):
            assert log_lo(sum_values(terms)) > log_hi(sum_values(terms[:151]))


#: (spec, p, N): each fact's bound is tested against the streamed twin at
#: every index from its n0 to N
EVERY_INDEX = (
    *((SequenceSpec(family="constant"), 1, 2000),),
    *((SequenceSpec(family="gevrey", s=s), 1, 2000) for s in ("1/2", "1", "2")),
    (SequenceSpec(family="gevrey", s="1"), 2, 300),
    *((SequenceSpec(family="gevrey", s=s), p, 300) for s in ("1/2", "2") for p in (2, 3)),
    *((spec, p, 300)
      for spec in (SequenceSpec(family="iterated_log", k=1),
                   SequenceSpec(family="iterated_log", k=2),
                   SequenceSpec(family="paper8"))
      for p in (1, 2, 3)),
)

#: the check of each term-bound fact
CHECKS = {"quasianalytic": quasianalyticity_report,
          "derivation_closed": check_derivation_closed}


def _both_facts(cases):
    """``cases`` for each term-bound fact, with ids ``label-pP``, prefixed
    by the fact's name for any fact but quasianalyticity."""
    return dict(
        argvalues=[(fact, *case) for fact in CHECKS for case in cases],
        ids=[("" if fact == "quasianalytic" else f"{fact}-") + f"{case[0].label()}-p{case[1]}"
             for fact in CHECKS for case in cases],
    )


@pytest.mark.parametrize("fact_name, spec, p, N", **_both_facts(EVERY_INDEX))
def test_each_bound_holds_at_every_index(fact_name, spec, p, N):
    ws = WeightSequence(spec if p == 1 else power_substitute(spec, p))
    fact = family_fact(ws.spec, fact_name)
    compare = LogReal.leq if fact.direction == "upper" else LogReal.geq
    for n, term in enumerate(carleman_terms(ws, N), 1):
        if n >= fact.n0:
            assert compare(term, fact.rhs(n, ws.bits)) is Outcome.CONFIRMED, n


#: one spec of each rule: (spec, p)
RULES = (
    (SequenceSpec(family="constant"), 1),
    (SequenceSpec(family="gevrey", s="1"), 1),
    (SequenceSpec(family="iterated_log", k=1), 1),
    (SequenceSpec(family="iterated_log", k=1), 2),
    (SequenceSpec(family="iterated_log", k=2), 3),
    (SequenceSpec(family="paper8"), 1),
)

#: one spec of each tower rule.  paper8 is taken at p = 3: at p = 1 its
#: slope g'(x) = log log log x + ... is about 0.65 at x = 300, so half of it
#: stays within the slack of 2 on any sample the check reaches
SLOPE_RULES = (
    (SequenceSpec(family="iterated_log", k=1), 1),
    (SequenceSpec(family="iterated_log", k=2), 3),
    (SequenceSpec(family="paper8"), 3),
)

class TestAWeakenedBoundRefutes:
    @staticmethod
    def _verdict(spec, p, mutate=None, monkeypatch=None, fact_name="quasianalytic"):
        ws = WeightSequence(spec if p == 1 else power_substitute(spec, p))
        if mutate is not None:
            fact = mutate(family_fact(ws.spec, fact_name))
            monkeypatch.setattr(criteria, "family_fact", lambda spec, name: fact)
        return CHECKS[fact_name](ws, 300).verdict

    @pytest.mark.parametrize("fact_name, spec, p", **_both_facts(RULES))
    def test_slack_one_half(self, fact_name, spec, p, monkeypatch):
        assert self._verdict(spec, p, fact_name=fact_name).outcome is Outcome.CONFIRMED
        monkeypatch.setattr(sequences, "_TERM_SLACK", Fraction(1, 2))
        verdict = self._verdict(spec, p, fact_name=fact_name)
        assert verdict.outcome is Outcome.REFUTED
        assert verdict.reason is Reason.INTERVAL_SEPARATION

    def test_gevrey_exponent_one_plus_two_s(self, monkeypatch):
        spec = SequenceSpec(family="gevrey", s="1/2")
        verdict = self._verdict(spec, 1, lambda fact: replace(fact, args=(1 + 2 * spec.s,)),
                                monkeypatch)
        assert verdict.outcome is Outcome.REFUTED

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_gevrey_derivation_exponent_zero(self, p, monkeypatch):
        # (n+1)^-1 (pn+p)^-(ps) with the exponent p s dropped: the bound
        # then says the ratio M_(n+1)/M_n is at most 2
        spec = SequenceSpec(family="gevrey", s="1/2")
        assert self._verdict(spec, p, fact_name="derivation_closed").outcome is (
            Outcome.CONFIRMED)
        verdict = self._verdict(spec, p, lambda fact: replace(fact, args=(p, Fraction(0))),
                                monkeypatch, "derivation_closed")
        assert verdict.outcome is Outcome.REFUTED

    @pytest.mark.parametrize("fact_name, spec, p", **_both_facts(SLOPE_RULES))
    def test_half_the_slope(self, fact_name, spec, p, monkeypatch):
        # p g'(x+p) replaced by (p/2) g'(x+p) in the lower tower bound
        slope = sequences._tower_slope
        half = (from_man_exp(1, -1), from_man_exp(1, -1))
        monkeypatch.setattr(sequences, "_tower_slope",
                            lambda y, k, bits: mpi_mul(slope(y, k, bits), half, bits))
        assert self._verdict(spec, p, fact_name=fact_name).outcome is Outcome.REFUTED


def _log_ratios(report):
    """log M_(n+1)/M_n = -log t_n - log(n+1) read off each row of a
    term-bound check, as floats by row index: both row endpoints."""
    return {r.index[0]: [-float(x) - math.log(r.index[0] + 1) for x in (r.lo, r.hi)]
            for r in report.rows}


class TestDerivationClosed:
    def test_constant_sup_is_one(self, constant_ws):
        # every ratio is 1: each sampled term is 1/(n+1), twice the bound
        report = check_derivation_closed(constant_ws, 50)
        assert report.verdict.outcome is Outcome.CONFIRMED
        assert [r.index[0] for r in report.rows] == sampled_indices(50, 1)
        assert all(r.outcome is Outcome.CONFIRMED for r in report.rows)
        assert all(abs(x) < 1e-15 for ends in _log_ratios(report).values() for x in ends)

    def test_gevrey_sup_enclosure_at_two(self, gevrey1_ws):
        # the ratio n + 1 has n-th root (n+1)^(1/n), maximal at n = 1 where
        # it equals 2; the bound allows a ratio of at most 2 (n+1)
        report = check_derivation_closed(gevrey1_ws, 50)
        assert report.verdict.outcome is Outcome.CONFIRMED
        assert dict(report.params)["bound"] == (
            "for n >= 1: 2 t_n >= (n+1)^-1 (pn+p)^-(p*1), p = 1")
        roots = {n: [x / n for x in ends] for n, ends in _log_ratios(report).items()}
        assert all(abs(x - math.log(2)) < 1e-15 for x in roots[1])
        assert max(x for ends in roots.values() for x in ends) < math.log(2) + 1e-15
        for row in report.rows:
            # t_n = (n+1)^-2 is the comparand, twice the bound
            rhs = [float(dict(row.extra)[f"rhs_{end}"]) for end in ("lo", "hi")]
            assert all(abs(float(row.lo) - x - math.log(2)) < 1e-14 for x in rhs)

    def test_iterated_log_bounded_by_rule(self):
        ws = WeightSequence(SequenceSpec(family="iterated_log", k=1))
        report = check_derivation_closed(ws, 40)
        assert report.verdict.outcome is Outcome.CONFIRMED
        assert report.verdict.reason is Reason.SYMBOLIC_COMPARISON
        assert all(r.outcome is Outcome.CONFIRMED and r.note.startswith("bounded: ")
                   for r in report.rows)

    def test_table_is_trend_only(self):
        spec = SequenceSpec(family="table", log_values=tuple(str(i) for i in range(12)))
        report = check_derivation_closed(WeightSequence(spec), 10)
        assert report.verdict.outcome is Outcome.INCONCLUSIVE
        assert report.verdict.reason is Reason.DEPTH_EXHAUSTED
        assert [r.index[0] for r in report.rows] == sampled_indices(10, 1)
        assert all(r.outcome is None and r.extra == () for r in report.rows)
        assert "bound" not in dict(report.params)

    def test_the_check_reads_only_its_sampled_indices(self):
        # no row streams: the check fills M only at the sampled indices and
        # their successors, whatever n_max is
        ws = WeightSequence(SequenceSpec(family="gevrey", s="1", precision=20))
        report = check_derivation_closed(ws, 20000)
        assert report.verdict.outcome is Outcome.CONFIRMED
        sampled = sampled_indices(20000, 1)
        assert [r.index[0] for r in report.rows] == sampled
        assert {n for n in range(0, 20100) if n in ws._memo} == {
            m for n in sampled for m in (n, n + 1)}


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
