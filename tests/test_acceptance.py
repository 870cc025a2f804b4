"""Acceptance suite: the nine exit criteria, each at its stated depth and
tolerance, with one pass/fail line per criterion (run pytest -s to see
them).  Criteria with stated runtime budgets are timed."""

import time
from fractions import Fraction
from math import factorial

from mpmath import iv

from carleman import coefficients as co
from carleman.bang import BangSeries
from carleman.cli import main, run_battery
from carleman.criteria import check_inclusion, quasianalyticity_report
from carleman.intervals import working_precision
from carleman.outcomes import Outcome
from carleman.sequences import SequenceSpec, WeightSequence
from carleman.substitution import coeff_level_check, transform_report
from conftest import carleman_terms, iv_endpoints, log_iv, shipped_fixture, sum_values

CONSTANT = SequenceSpec(family="constant")
GEVREY1 = SequenceSpec(family="gevrey", s=Fraction(1))
IL1 = SequenceSpec(family="iterated_log", k=1)
IL2 = SequenceSpec(family="iterated_log", k=2)
PAPER8 = SequenceSpec(family="paper8")


def _criterion(num: int, desc: str, fn) -> None:
    try:
        fn()
    except BaseException:
        print(f"[FAIL] criterion {num}: {desc}")
        raise
    print(f"[PASS] criterion {num}: {desc}")


def test_criterion_1_oracle_equivalence():
    def body():
        t0 = time.monotonic()
        for k in range(1, 7):
            for n in range(0, 19):
                assert co.ckn(k, n) == co.ckn_bruteforce(k, n), (k, n)
        assert time.monotonic() - t0 < 60

    _criterion(1, "c(k,n) convolution == enumeration for k <= 6, n <= 18, "
                  "under one minute", body)


def test_criterion_2_coefficient_bound_sweep():
    def body():
        t0 = time.monotonic()
        report = co.verify_ckn_bound(30, 60)
        assert report.verdict.outcome is Outcome.CONFIRMED
        assert len(report.rows) == 30 * 60
        assert all(r.outcome is Outcome.CONFIRMED for r in report.rows)
        # the intermediate Cauchy estimate on the same grid, explicitly
        for k in range(1, 31):
            for n in range(1, 61):
                assert co.ckn(k, n) <= 2**n
        assert time.monotonic() - t0 < 300

    _criterion(2, "c(k,n) <= (2e)^n k!/n^k and c(k,n) <= 2^n on the "
                  "30 x 60 grid, under five minutes", body)


def test_criterion_3_root_series_bounds():
    def body():
        for p in (2, 3, 5, 7):
            mags = co.root_series_magnitudes(p, 200)
            for i in range(1, 201):
                assert mags[i] * i <= 1, (p, i)
        for p in (2, 3):
            for k in range(1, 6):
                b = co.root_power_series(p, k, 60)
                for n in range(1, 61):
                    assert abs(b[n]) <= co.ckn(k, n) / factorial(k), (p, k, n)

    _criterion(3, "|a_i| <= 1/i for p in {2,3,5,7}, i <= 200; "
                  "|b_n| <= c(k,n)/k! for p in {2,3}, k <= 5, n <= 60", body)


def test_criterion_4_factorial_inequality():
    def body():
        for p in (2, 3, 4, 5):
            report = co.verify_factorial_inequality_sweep(p, 40)
            assert report.verdict.outcome is Outcome.CONFIRMED, p
            assert len(report.rows) == sum(p * n for n in range(1, 41))
            assert all(r.outcome is Outcome.CONFIRMED for r in report.rows)

    _criterion(4, "n^(pn-k) <= e^(pn) (pn-k)! for p in {2,3,4,5}, n <= 40, "
                  "all 0 <= k < pn", body)


def test_criterion_5_bang_function():
    def body():
        for spec in (CONSTANT, GEVREY1):
            ws = WeightSequence(spec)
            series = BangSeries(ws)
            for n in range(0, 26):
                F2 = series.F_deriv_at_zero(2 * n)
                assert F2.sign == (1 if n % 2 == 0 else -1), (spec.family, n)
                lower = ws.log_Mprime(2 * n)
                assert F2.magnitude.geq(lower) is Outcome.CONFIRMED, (spec.family, n)
                fn_ = series.f_deriv_at_zero(n)
                from carleman.intervals import LogReal

                f_lower = lower * LogReal.from_fraction(
                    Fraction(factorial(n), factorial(2 * n)), ws.bits
                )
                assert fn_.magnitude.geq(f_lower) is Outcome.CONFIRMED, (spec.family, n)
            membership = series.verify_membership(40)
            assert membership.verdict.outcome is Outcome.CONFIRMED, spec.family
            assert all(r.outcome is Outcome.CONFIRMED for r in membership.rows)

    _criterion(5, "extremal series: sign (-1)^n, |F^(2n)(0)| >= M'_{2n} and "
                  "the factored lower bound for n <= 25; ceiling 2^(n+1) M'_n "
                  "for n <= 40 (constant and gevrey(1))", body)


def test_criterion_6_substitution_coefficient_level():
    def body():
        for spec in (GEVREY1, PAPER8):
            for p in (2, 3, 5):
                for A in (Fraction(1), Fraction(3)):
                    report = coeff_level_check(WeightSequence(spec), p, A, 40)
                    assert report.verdict.outcome is Outcome.CONFIRMED, (
                        spec.family, p, A,
                    )
                    assert all(r.outcome is Outcome.CONFIRMED for r in report.rows)

    _criterion(6, "coefficient-level substitution bound with C = 1 for "
                  "(gevrey(1), paper8) x p in {2,3,5}, n <= 40, A in {1,3}", body)


def test_criterion_7_quasianalyticity_verdicts():
    def body():
        assert "divergent" in quasianalyticity_report(
            WeightSequence(CONSTANT), 50
        ).claim
        # gevrey(1): the partial sum at N = 10^4 of the streamed terms plus
        # the certified analytic tail bracket pi^2/6 - 1 within 1e-6
        ws = WeightSequence(GEVREY1)
        N = 10**4
        assert quasianalyticity_report(ws, N).verdict.outcome is Outcome.CONFIRMED
        with working_precision(ws.bits):
            s_iv = iv.exp(log_iv(sum_values(list(carleman_terms(ws, N)))))
            # sum_{n>N} 1/(n+1)^2 lies in [1/(N+2), 1/(N+1)]
            tail = iv.mpf(1) / iv.mpf([N + 1, N + 2])
            limit_enclosure = s_iv + tail
            lo, hi = iv_endpoints(limit_enclosure)
            limit = iv.pi**2 / 6 - 1
            llo, lhi = iv_endpoints(limit)
            assert lo <= llo and lhi <= hi, "limit outside the enclosure"
            assert float(hi - lo) < 1e-6, "enclosure too wide"
        for spec, p, word in (
            (IL1, 2, "convergent"),
            (IL2, 2, "divergent"),
            (IL2, 3, "divergent"),
            (PAPER8, 1, "divergent"),
        ):
            report = transform_report(WeightSequence(spec), p, 300)
            assert report.verdict.outcome is Outcome.CONFIRMED, (spec.family, p)
            assert word in report.claim, (spec.family, p, report.claim)

    _criterion(7, "quasianalyticity verdicts: constant divergent; gevrey(1) "
                  "convergent with a < 1e-6 enclosure of pi^2/6 - 1 at N = 10^4; "
                  "dilated tower families as claimed; paper8 divergent", body)


def test_criterion_8_inclusion():
    def body():
        for spec in (CONSTANT, GEVREY1, IL1, IL2, PAPER8):
            ws = WeightSequence(spec)
            for p in (2, 3):
                tspec = SequenceSpec(family="transformed", base=spec, p=p,
                                     precision=spec.precision)
                report = check_inclusion(ws, WeightSequence(tspec), 40)
                assert report.verdict.outcome is Outcome.CONFIRMED, (spec.family, p)
                sup_hi = max(float(dict(r.extra)["sup_hi"]) for r in report.rows)
                assert sup_hi <= 1e-18, (spec.family, p)  # sup <= 1 in logs
        unbounded = check_inclusion(
            WeightSequence(GEVREY1), WeightSequence(CONSTANT), 40
        )
        assert unbounded.verdict.outcome is Outcome.CONFIRMED
        assert unbounded.claim.startswith("not included")
        assert len(unbounded.verdict.evidence) >= 1

    _criterion(8, "Q_M subset Q_(M^(p)) with sup <= 1 for every built-in "
                  "monotone family, p in {2,3}; gevrey(1) vs constant "
                  "confirmed unbounded with witness", body)


def test_criterion_9_determinism_and_negative_fixture(tmp_path):
    def body():
        run1 = run_battery(n_max=3, config={"command": "report-all", "n-max": 3})
        run2 = run_battery(n_max=3, config={"command": "report-all", "n-max": 3})
        assert run1.to_json() == run2.to_json()
        assert run1.exit_code() == 0
        code = main([
            "report-all", "--n-max", "3",
            "--spec", str(shipped_fixture("nonconvex_table")),
            "--out", str(tmp_path / "neg"),
        ])
        assert code == 1

    _criterion(9, "byte-identical consecutive reports; the shipped "
                  "non-log-convex table drives exit code 1", body)
