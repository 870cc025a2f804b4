"""Weight-sequence families: enclosure soundness against the exact rational
route, memo discipline, spec document I/O, and the index dilation."""

import json
import os
import subprocess
import sys
import threading
from fractions import Fraction
from functools import partial
from math import factorial
from pathlib import Path

import pytest
from mpmath import iv

import carleman
from carleman.errors import IndexRangeError, PrecisionExhaustedError, SpecFormatError
from carleman.intervals import LogReal, working_precision
from carleman.sequences import (
    DEFAULT_MAX_INDEX,
    MAX_LITERAL_DIGITS,
    MAX_LITERAL_EXPONENT,
    MAX_PRECISION,
    SequenceSpec,
    WeightSequence,
    dump_spec,
    load_spec,
    log_factorial,
    power_substitute,
    spec_from_dict,
    tower_threshold,
)
from conftest import (
    FALSY_PARAMS_DOCUMENTS,
    OVER_CAP_DOCUMENTS,
    UNKNOWN_KEY_DOCUMENTS,
    encloses_fraction,
    iv_endpoints,
    iv_from_fraction,
    log_hi,
    log_lo,
)


def encloses_log_fraction(value: LogReal, fr: Fraction, bits: int) -> bool:
    """True when the exact rational log value fr lies inside the interval."""
    with working_precision(bits + 64):
        lo, hi = iv_endpoints(iv_from_fraction(fr))
    return log_lo(value) <= lo and hi <= log_hi(value)


class TestConstant:
    def test_all_values_exactly_one(self, constant_ws):
        for n in (0, 1, 17, 1000):
            v = constant_ws.log_M(n)
            assert log_lo(v) == log_hi(v) == 0

    def test_mprime_is_factorial(self, constant_ws):
        for n in range(0, 31):
            assert encloses_fraction(
                constant_ws.log_Mprime(n), Fraction(factorial(n)), constant_ws.bits
            )

    def test_ratio_example(self, constant_ws):
        # m_3 = 4!/3! = 4
        assert encloses_fraction(constant_ws.ratio_m(3), Fraction(4), constant_ws.bits)


class TestGevrey:
    def test_m3_is_six(self, gevrey1_ws):
        assert encloses_fraction(gevrey1_ws.log_M(3), Fraction(6), gevrey1_ws.bits)

    def test_exact_cross_route_to_30(self, gevrey1_ws):
        for n in range(0, 31):
            assert encloses_fraction(
                gevrey1_ws.log_M(n), Fraction(factorial(n)), gevrey1_ws.bits
            )

    def test_mprime_example(self, gevrey1_ws):
        # M'_4 = 4! * 4! = 576
        assert encloses_fraction(gevrey1_ws.log_Mprime(4), Fraction(576), gevrey1_ws.bits)

    def test_ratio_example(self, gevrey1_ws):
        # m_2 = (3! 3!)/(2! 2!) = 9
        assert encloses_fraction(gevrey1_ws.ratio_m(2), Fraction(9), gevrey1_ws.bits)

    def test_rational_exponent_via_power(self):
        # gevrey(1/2): M_n^2 = n! exactly
        ws = WeightSequence(SequenceSpec(family="gevrey", s=Fraction(1, 2)))
        for n in range(0, 31):
            squared = ws.log_M(n).pow_int(2)
            assert encloses_fraction(squared, Fraction(factorial(n)), ws.bits)

    def test_gevrey_3_halves(self):
        ws = WeightSequence(SequenceSpec(family="gevrey", s=Fraction(3, 2)))
        for n in (2, 7, 19):
            assert encloses_fraction(
                ws.log_M(n).pow_int(2), Fraction(factorial(n)) ** 3, ws.bits
            )


class TestIteratedLog:
    def test_thresholds(self):
        spec = SequenceSpec(family="iterated_log", k=1)
        assert tower_threshold(1, spec.bits) == 3
        assert tower_threshold(2, spec.bits) == 16
        assert tower_threshold(3, spec.bits) == 3814280

    def test_threshold_isolation_failure(self):
        spec = SequenceSpec(family="iterated_log", k=1)
        with pytest.raises(PrecisionExhaustedError):
            tower_threshold(4, spec.bits)

    @pytest.mark.parametrize("k", [5, 10**9])
    def test_threshold_past_four_fails_fast(self, k):
        # e^^5 is exp of a number with millions of digits; the isolation
        # check at level 4 must refuse before that exponential is taken.
        # A child process keeps a regression from hanging the suite.
        code = (
            "from carleman.errors import PrecisionExhaustedError\n"
            "from carleman.sequences import SequenceSpec, tower_threshold\n"
            "try:\n"
            f"    tower_threshold({k}, SequenceSpec(family='constant').bits)\n"
            "except PrecisionExhaustedError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(carleman.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=30)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == (
            f"enclosure of e^^{k} cannot isolate an integer at this precision"
        )

    def test_normalization(self):
        for k in (1, 2):
            ws = WeightSequence(SequenceSpec(family="iterated_log", k=k))
            v = ws.log_M(0)
            assert log_lo(v) == log_hi(v) == 0

    def test_k1_closed_form(self):
        # M_n = (log 3)^(-3) (log(3+n))^(3+n): check n = 2 against a
        # direct high-precision evaluation
        ws = WeightSequence(SequenceSpec(family="iterated_log", k=1))
        v = ws.log_M(2)
        with working_precision(ws.bits + 64):
            ref = iv.log(iv.log(5)) * 5 - iv.log(iv.log(3)) * 3
            lo, hi = iv_endpoints(ref)
        assert log_lo(v) <= lo and hi <= log_hi(v)

    def test_increasing(self):
        for k in (1, 2):
            ws = WeightSequence(SequenceSpec(family="iterated_log", k=k))
            values = [ws.log_M(n) for n in range(0, 60)]
            for a, b in zip(values, values[1:]):
                assert log_hi(a) <= log_lo(b)


class TestPaper8:
    def test_normalization_and_growth(self, paper8_ws):
        v0 = paper8_ws.log_M(0)
        assert log_lo(v0) == log_hi(v0) == 0
        assert log_lo(paper8_ws.log_M(1)) > 0

    def test_m1_closed_form(self, paper8_ws):
        # M_1 = (log log 4)^4 / (log log 3)^3
        v = paper8_ws.log_M(1)
        with working_precision(paper8_ws.bits + 64):
            ref = iv.log(iv.log(iv.log(4))) * 4 - iv.log(iv.log(iv.log(3))) * 3
            lo, hi = iv_endpoints(ref)
        assert log_lo(v) <= lo and hi <= log_hi(v)


class TestTable:
    def test_values_and_range(self):
        spec = SequenceSpec(family="table", log_values=("0", "0.5", "1.25"))
        ws = WeightSequence(spec)
        assert ws.log_M(0).log_lo == ws.log_M(0).log_hi
        assert encloses_log_fraction(ws.log_M(1), Fraction(1, 2), ws.bits)
        assert encloses_log_fraction(ws.log_M(2), Fraction(5, 4), ws.bits)
        with pytest.raises(IndexRangeError):
            ws.log_M(3)

    def test_dilated_table_range(self):
        base = SequenceSpec(family="table", log_values=tuple(str(i * i) for i in range(9)))
        ws = WeightSequence(SequenceSpec(family="transformed", base=base, p=2))
        assert ws.last_index == 4
        assert encloses_log_fraction(ws.log_M(4), Fraction(64), ws.bits)
        with pytest.raises(IndexRangeError):
            ws.log_M(5)
        assert WeightSequence(base).last_index == 8
        assert WeightSequence(SequenceSpec(family="gevrey", s=Fraction(1))).last_index is None

    def test_binary_representable_values_are_exact(self):
        spec = SequenceSpec(family="table", log_values=("0", "0.5"))
        ws = WeightSequence(spec)
        assert ws.log_M(1).log_lo == ws.log_M(1).log_hi

    def test_invariants_enforced(self):
        with pytest.raises(SpecFormatError):
            SequenceSpec(family="table", log_values=("1", "2"))
        with pytest.raises(SpecFormatError):
            SequenceSpec(family="table", log_values=("0", "2", "1"))
        with pytest.raises(SpecFormatError):
            SequenceSpec(family="table", log_values=())

    def test_undeclared_parameters_rejected(self, gevrey1_spec):
        # a stray base would make base_chain read the wrong family's facts
        for kwargs in (
            {"family": "iterated_log", "k": 1, "base": gevrey1_spec, "p": 2},
            {"family": "constant", "s": Fraction(1)},
            {"family": "table", "log_values": ("0",), "k": 1},
        ):
            with pytest.raises(SpecFormatError):
                SequenceSpec(**kwargs)


class TestMemoDiscipline:
    def test_refill_reproduces_identical_interval(self, gevrey1_ws):
        for n in (0, 5, 23):
            memoed = gevrey1_ws.log_M(n)
            fresh = WeightSequence(gevrey1_ws.spec).log_M(n)
            assert memoed.log_lo == fresh.log_lo
            assert memoed.log_hi == fresh.log_hi

    def test_evaluation_order_independent(self, gevrey1_spec):
        ws_up = WeightSequence(gevrey1_spec)
        ws_down = WeightSequence(gevrey1_spec)
        up = [ws_up.log_M(n) for n in range(0, 40)]
        down = [ws_down.log_M(n) for n in reversed(range(0, 40))][::-1]
        for a, b in zip(up, down):
            assert a.log_lo == b.log_lo and a.log_hi == b.log_hi

    def test_concurrent_fills_agree(self, paper8_spec):
        ws = WeightSequence(paper8_spec)
        errors = []

        def worker(start):
            try:
                for n in range(start, 60):
                    ws.log_M(n)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,)) for s in (0, 10, 30)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        fresh = WeightSequence(paper8_spec)
        for n in range(0, 60):
            assert ws.log_M(n).log_lo == fresh.log_M(n).log_lo

    def test_precision_changes_values_deterministically(self):
        a = WeightSequence(SequenceSpec(family="gevrey", s=Fraction(1), precision=40))
        b = WeightSequence(SequenceSpec(family="gevrey", s=Fraction(1), precision=40))
        assert a.log_M(20).log_lo == b.log_M(20).log_lo


class TestIndexRange:
    def test_max_index_enforced(self, gevrey1_spec):
        ws = WeightSequence(gevrey1_spec)
        ws.log_M(DEFAULT_MAX_INDEX)
        with pytest.raises(IndexRangeError):
            ws.log_M(DEFAULT_MAX_INDEX + 1)
        with pytest.raises(IndexRangeError):
            ws.log_M(-1)


class TestLogFactorial:
    def test_small_values_exact_route(self):
        spec = SequenceSpec(family="constant")
        for n in (0, 1, 2, 10, 100):
            assert encloses_fraction(
                log_factorial(n, spec.bits), Fraction(factorial(n)), spec.bits
            )

    def test_seam_consistency(self):
        # either side of _LOGFACT_INCREMENTAL_MAX, the benchmark's table
        # bound: both must enclose the exact factorial
        spec = SequenceSpec(family="constant", precision=30)
        for n in (20000, 20001):
            assert encloses_fraction(
                log_factorial(n, spec.bits), Fraction(factorial(n)), spec.bits
            )

    def test_large_index_via_loggamma(self):
        spec = SequenceSpec(family="gevrey", s=Fraction(1))
        ws = WeightSequence(spec)
        v = ws.log_M(10**6)
        # Stirling sanity: log(10^6!) ~ 1.28e7, enclosure must be tight
        assert 1.28e7 < float(log_lo(v)) < 1.29e7
        assert float(log_hi(v)) - float(log_lo(v)) < 1e-60


class TestPowerSubstitute:
    def test_requires_p_at_least_two(self, gevrey1_spec):
        with pytest.raises(ValueError):
            power_substitute(gevrey1_spec, 1)

    def test_dilated_values(self, gevrey1_spec):
        tspec = power_substitute(gevrey1_spec, 2)
        ws = WeightSequence(tspec)
        for n in range(0, 13):
            assert encloses_fraction(ws.log_M(n), Fraction(factorial(2 * n)), ws.bits)

    def test_mprime_normalization_examples(self, gevrey1_spec):
        mprime = partial(WeightSequence(gevrey1_spec).log_Mprime_sub, 2)
        spec_bits = gevrey1_spec.bits
        v0 = mprime(0)
        assert log_lo(v0) == log_hi(v0) == 0
        # n = 2: (1/2^2) * (4!)^2 = 144
        assert encloses_fraction(mprime(2), Fraction(144), spec_bits)
        # n = 1: 1^0 * (2!)^2 = 4
        assert encloses_fraction(mprime(1), Fraction(4), spec_bits)

    def test_mprime_normalization_of_an_undilated_sequence(self, gevrey1_spec):
        # n^(-(p-1)n) M'_(pn) with M'_k = (k!)^2, read from the sequence's
        # own M' memo at every n, not only at n = 0
        ws = WeightSequence(gevrey1_spec)
        for p in (2, 3):
            for n in range(0, 6):
                exact = Fraction(factorial(p * n) ** 2, n ** ((p - 1) * n))
                assert encloses_fraction(ws.log_Mprime_sub(p, n), exact, ws.bits)
        assert {k for k in range(40) if k in ws._mprime_memo} == {
            p * n for p in (2, 3) for n in range(1, 6)}

    def test_composition_matches_product_transform(self, gevrey1_spec):
        t2 = power_substitute(gevrey1_spec, 2)
        t2_then_3 = power_substitute(t2, 3)
        t6 = power_substitute(gevrey1_spec, 6)
        a, b = WeightSequence(t2_then_3), WeightSequence(t6)
        for n in range(0, 9):
            va, vb = a.log_M(n), b.log_M(n)
            assert va.log_lo == vb.log_lo and va.log_hi == vb.log_hi

    def test_transform_of_constant_stays_one(self, constant_spec):
        ws = WeightSequence(power_substitute(constant_spec, 3))
        mprime = partial(WeightSequence(constant_spec).log_Mprime_sub, 3)
        assert log_lo(ws.log_M(7)) == log_hi(ws.log_M(7)) == 0
        # M'^(p)_n = n^(-(p-1)n) (pn)!: at n = 2, p = 3: 2^(-4) * 720
        assert encloses_fraction(mprime(2), Fraction(720, 16), ws.bits)


class TestSpecDocuments:
    def test_round_trip(self, paper8_spec):
        doc = json.loads(dump_spec(paper8_spec))
        assert spec_from_dict(doc) == paper8_spec

    def test_round_trip_transformed(self, gevrey1_spec):
        tspec = power_substitute(gevrey1_spec, 2)
        doc = json.loads(dump_spec(tspec))
        assert spec_from_dict(doc) == tspec

    def test_load_from_file(self, tmp_path, gevrey1_spec):
        path = tmp_path / "g.json"
        path.write_text(dump_spec(gevrey1_spec))
        assert load_spec(path) == gevrey1_spec

    def test_malformed_documents(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SpecFormatError):
            load_spec(bad)
        with pytest.raises(SpecFormatError):
            spec_from_dict({"family": "gevrey", "params": {}})
        with pytest.raises(SpecFormatError):
            spec_from_dict({"family": "unknown", "params": {}})
        # the version is a genuine integer: JSON true and 1.0 both equal 1
        for version in (99, True, 1.0):
            with pytest.raises(SpecFormatError):
                spec_from_dict({"family": "constant", "params": {}, "version": version})
        with pytest.raises(SpecFormatError):
            spec_from_dict({"family": "constant", "params": {}, "precision": "80"})
        # the precision cap: the largest precision loads, one digit more does not
        assert spec_from_dict({"family": "constant", "precision": MAX_PRECISION}).precision == (
            MAX_PRECISION
        )
        for doc in OVER_CAP_DOCUMENTS:
            with pytest.raises(SpecFormatError):
                spec_from_dict(doc)
        with pytest.raises(SpecFormatError):
            spec_from_dict([])
        # an unhashable family must not reach the table lookup as a TypeError
        with pytest.raises(SpecFormatError):
            spec_from_dict({"family": ["gevrey"], "params": {"s": "1"}})
        # a nested base must be an object, and its own version is checked
        for base in (["gevrey"], "constant", None, {"family": "constant", "version": 99}):
            with pytest.raises(SpecFormatError):
                spec_from_dict({"family": "transformed", "params": {"p": 2, "base": base}})
        # unknown top-level keys and undeclared params, nested bases included
        for doc in UNKNOWN_KEY_DOCUMENTS:
            with pytest.raises(SpecFormatError, match="unknown"):
                spec_from_dict(doc)
        for doc in FALSY_PARAMS_DOCUMENTS:
            with pytest.raises(SpecFormatError, match="params must be an object"):
                spec_from_dict(doc)

    def test_nested_version_defaults_to_one(self, constant_spec):
        spec = spec_from_dict(
            {"family": "transformed", "params": {"p": 2, "base": {"family": "constant"}}}
        )
        assert spec.base == constant_spec

    def test_booleans_are_not_integers(self):
        # JSON true satisfies isinstance(x, int); it must not load as k = 1
        # or as a precision of one digit
        for doc in (
            {"family": "iterated_log", "params": {"k": True}, "precision": True},
            {"family": "iterated_log", "params": {"k": True}},
            {"family": "constant", "params": {}, "precision": True},
            {"family": "transformed", "params": {"p": True, "base": {"family": "constant"}}},
        ):
            with pytest.raises(SpecFormatError):
                spec_from_dict(doc)
        for kwargs in (
            {"family": "iterated_log", "k": True},
            {"family": "constant", "precision": True},
            {"family": "transformed", "base": SequenceSpec(family="constant"), "p": True},
        ):
            with pytest.raises(SpecFormatError):
                SequenceSpec(**kwargs)

    def test_gevrey_rational_s_from_string(self):
        spec = spec_from_dict({"family": "gevrey", "params": {"s": "3/2"}})
        assert spec.s == Fraction(3, 2)

    def test_literal_caps(self):
        # at both caps a literal loads and its spec prints; one digit or one
        # exponent step past either cap is a format error naming the field
        digits, exponent = MAX_LITERAL_DIGITS, MAX_LITERAL_EXPONENT
        at_cap = ("9" * digits, f"1e{exponent}", f"1e-{exponent}",
                  f"{'1' * (digits - 1)}.5e-0{exponent}", f"1/{'7' * (digits - 1)}")
        for s in at_cap:
            spec = spec_from_dict({"family": "gevrey", "params": {"s": s}})
            assert spec.s == Fraction(s) and dump_spec(spec)
        past_cap = ("9" * (digits + 1), f"1e{exponent + 1}", f"1e-{exponent + 1}",
                    "1e" + "9" * 50, f"1/{'7' * digits}")
        for s in past_cap:
            with pytest.raises(SpecFormatError, match="^gevrey s: literal"):
                spec_from_dict({"family": "gevrey", "params": {"s": s}})
        with pytest.raises(SpecFormatError, match=r"^table log_values\[2\]: literal"):
            spec_from_dict({"family": "table", "params": {"log_values": ["0", "1", "1e1001"]}})

    def test_labels(self, gevrey1_spec, constant_spec):
        assert gevrey1_spec.label() == "gevrey(s=1)"
        tspec = power_substitute(constant_spec, 2)
        assert tspec.label() == "transformed(constant, p=2)"
