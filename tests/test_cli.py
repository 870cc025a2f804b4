"""Command-line contract: exit codes, deterministic documents, file formats."""

import argparse
import json
import re
import subprocess
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from carleman import cli, sequences
from carleman import coefficients as co
from carleman.bang import BangSeries
from carleman.cli import main
from carleman.criteria import sampled_indices
from carleman.errors import PrecisionExhaustedError
from carleman.outcomes import Outcome
from carleman.sequences import DEFAULT_MAX_INDEX, MAX_PRECISION, WeightSequence
from conftest import (
    FALSY_PARAMS_DOCUMENTS,
    OVER_CAP_DOCUMENTS,
    PARSER_LIMIT_DOCUMENTS,
    UNKNOWN_KEY_DOCUMENTS,
    shipped_fixture,
)

SPECS = Path(__file__).resolve().parents[1] / "src" / "carleman" / "data" / "specs"

SHIPPED = ("constant", "gevrey1", "iterated_log1", "iterated_log2", "paper8")


def run(argv):
    return main(argv)


@pytest.fixture()
def gevrey_path():
    return str(SPECS / "gevrey1.json")


def _bounded_integer_options():
    """(flag, documented cap, argv with the required options) for every
    ``cli._int_in`` option of every subcommand of the parser."""
    parser = cli.build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, sub in commands.choices.items():
        argv = [command]
        for action in sub._actions:
            if action.required:
                argv += [action.option_strings[0], str(SPECS / "gevrey1.json")]
        for action in sub._actions:
            if getattr(action.type, "__qualname__", "") == "_int_in.<locals>.integer":
                flag = action.option_strings[0]
                cap = {"--n-max": DEFAULT_MAX_INDEX - 1, "--precision": MAX_PRECISION}.get(
                    flag, cli.MAX_DEPTH)
                yield flag, cap, argv


class TestExitCodes:
    def test_all_confirmed_is_zero(self, tmp_path, gevrey_path):
        code = run(["ineq62", "--p", "2", "--n-max", "6",
                    "--out", str(tmp_path / "r.json")])
        assert code == 0

    def test_refuted_is_one(self, tmp_path):
        code = run([
            "seq-check",
            "--spec", str(shipped_fixture("nonconvex_table")),
            "--checks", "log-convex",
            "--n-max", "4",
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 1

    def test_inconclusive_is_two(self, tmp_path):
        code = run([
            "seq-check",
            "--spec", str(shipped_fixture("nonconvex_table")),
            "--checks", "quasianalytic",
            "--n-max", "3",
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2

    def test_missing_spec_is_three(self, tmp_path):
        assert run(["seq-show", "--spec", str(tmp_path / "nope.json")]) == 3

    def test_malformed_spec_is_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for doc in (
            '{"family": "wat", "params": {}}',
            '{"family": ["gevrey"], "params": {"s": "1"}}',
            '{"family": "transformed", "params": {"p": 2, "base": ["gevrey"]}}',
            '{"family": "transformed", "params": {"p": 2, '
            '"base": {"family": "constant", "version": 99}}}',
            '{"version": true, "family": "constant"}',
            '{"version": 1.0, "family": "constant"}',
            *(json.dumps(doc) for doc in
              UNKNOWN_KEY_DOCUMENTS + FALSY_PARAMS_DOCUMENTS + OVER_CAP_DOCUMENTS),
        ):
            bad.write_text(doc)
            assert run(["seq-show", "--spec", str(bad)]) == 3
            assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("doc, field", [
        ({"family": "table", "params": {"log_values": ["0", "1e999999999"]}},
         "table log_values[1]"),
        ({"family": "gevrey", "params": {"s": "1e-99999"}}, "gevrey s"),
    ])
    def test_an_oversized_literal_is_three_at_once(self, tmp_path, capsys, monkeypatch,
                                                   doc, field):
        # decided on the string: no billion-digit integer is built and no
        # huge rational is printed, so the exit is immediate and in-process
        def forbidden(*args, **kwargs):
            raise AssertionError("started a thread or a process")

        monkeypatch.setattr(threading.Thread, "start", forbidden)
        monkeypatch.setattr(subprocess, "Popen", forbidden)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        start = time.perf_counter()
        code = run(["seq-check", "--spec", str(spec), "--n-max", "3",
                    "--out", str(tmp_path / "r.json")])
        assert time.perf_counter() - start < 1
        assert code == 3
        assert capsys.readouterr().err.startswith(f"error: {field}: literal exponent")
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("name", sorted(PARSER_LIMIT_DOCUMENTS))
    def test_a_document_past_a_parser_limit_is_three_at_once(self, tmp_path, capsys, name):
        spec = tmp_path / "spec.json"
        spec.write_text(PARSER_LIMIT_DOCUMENTS[name])
        start = time.perf_counter()
        assert run(["seq-show", "--spec", str(spec), "--n-max", "3"]) == 3
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err.startswith(f"error: spec file {spec} ")

    def test_an_undecodable_spec_file_is_three(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_bytes(b'\xff\xfe{"family": "constant"}')
        assert run(["seq-show", "--spec", str(spec)]) == 3
        assert capsys.readouterr().err.startswith(f"error: cannot read spec file {spec}")

    # an exponent past MAX_LITERAL_EXPONENT either way, a zero denominator
    # and an exponent inside a fraction
    @pytest.mark.parametrize("A", ["1e999999999", "1e-99999", "1/0", "3/1e5"])
    def test_a_thm61_A_outside_the_literal_grammar_is_three_at_once(self, gevrey_path,
                                                                     capsys, A):
        # --A is a spec literal: decided on the string, so no power of ten
        # with a billion digits is built
        start = time.perf_counter()
        assert run(["thm61", "--spec", gevrey_path, "--A", A]) == 3
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err.startswith("error: --A: ")

    def test_unknown_check_is_three(self, gevrey_path, tmp_path, capsys):
        # an unknown name, a name given twice, or a list that names no
        # check, fails before any work: nothing is written
        for checks in ("bogus", ",", "", "monotone,monotone", "monotone, quasianalytic,monotone"):
            out = tmp_path / "r.json"
            assert run(["seq-check", "--spec", gevrey_path, "--checks", checks,
                        "--out", str(out)]) == 3, checks
            assert capsys.readouterr().err.startswith("error:")
            assert not out.exists()

    def test_bad_usage_is_three(self, gevrey_path):
        assert run(["not-a-command"]) == 3
        assert run(["ineq62", "--p", "1"]) == 3
        for A in ("x", "1/0"):
            assert run(["thm61", "--spec", gevrey_path, "--A", A]) == 3

    def test_nonpositive_overrides_are_three(self, gevrey_path):
        assert run(["ineq62", "--p", "2", "--n-max", "0"]) == 3
        assert run(["seq-show", "--spec", gevrey_path, "--precision", "-3"]) == 3
        assert run(["ckn", "--k-max", "0"]) == 3
        for A in ("0", "-1/2"):
            assert run(["thm61", "--spec", gevrey_path, "--A", A]) == 3

    @pytest.mark.parametrize("flag, cap, argv", [
        pytest.param(flag, cap, argv, id=f"{argv[0]} {flag}")
        for flag, cap, argv in _bounded_integer_options()
    ])
    def test_counts_above_their_cap_are_three(self, capsys, flag, cap, argv):
        # the cap itself parses; one more is a usage error, before any work
        parser = cli.build_parser()
        assert getattr(parser.parse_args(argv + [flag, str(cap)]),
                       flag[2:].replace("-", "_")) == cap
        for value in (cap + 1, 100_000_000):
            with pytest.raises(SystemExit):
                parser.parse_args(argv + [flag, str(value)])
            assert f"to {cap}" in capsys.readouterr().err
            assert run(argv + [flag, str(value)]) == 3

    def test_n_max_stops_one_short_of_the_largest_index(self, tmp_path, gevrey_path):
        # the quasianalyticity term at n reads M_(n+1): the top --n-max is
        # refused before any work, and the one below it reads the last index
        out = tmp_path / "r.json"
        assert run(["seq-check", "--spec", gevrey_path, "--n-max", str(DEFAULT_MAX_INDEX),
                    "--out", str(out)]) == 3
        assert not out.exists()
        assert run(["seq-check", "--spec", gevrey_path,
                    "--checks", "quasianalytic,derivation-closed",
                    "--n-max", str(DEFAULT_MAX_INDEX - 1), "--out", str(out)]) == 0
        for check in json.loads(out.read_text())["checks"]:
            assert check["verdict"]["outcome"] == "confirmed"
            assert len(check["evidence"]) == len(sampled_indices(DEFAULT_MAX_INDEX - 1, 1))
            assert check["evidence"][-1]["index"] == [DEFAULT_MAX_INDEX - 1]

    def test_seq_transform_n_max_counts_its_p(self, tmp_path, gevrey_path, monkeypatch,
                                              capsys):
        # the dilated term at n reads the base at p (n + 1): with the largest
        # index at 50, p = 2 admits --n-max 24 and refuses 25 before any work
        for module in (cli, sequences):
            monkeypatch.setattr(module, "DEFAULT_MAX_INDEX", 50)
        out = tmp_path / "r.json"
        argv = ["seq-transform", "--spec", gevrey_path, "--p", "2", "--precision", "20",
                "--out", str(out)]
        assert run(argv + ["--n-max", "25"]) == 3
        assert "reads index 52, beyond the maximum 50" in capsys.readouterr().err
        assert not out.exists()
        assert run(argv + ["--n-max", "24"]) == 0
        assert [c["verdict"]["outcome"] for c in json.loads(out.read_text())["checks"]] == [
            "confirmed", "confirmed"]

    @pytest.mark.parametrize("command, admitted", [
        ("seq-show", 24), ("seq-check", 24), ("seq-compare", 25), ("seq-transform", 11),
    ])
    def test_a_transformed_document_counts_its_factor(self, tmp_path, gevrey_path, monkeypatch,
                                                      capsys, command, admitted):
        # transformed(gevrey(s=1), p=2) reads gevrey at twice each index:
        # with the largest index at 50, the deepest admitted index reads 50
        # or less, and one more --n-max reads index 52, refused before any work
        for module in (cli, sequences):
            monkeypatch.setattr(module, "DEFAULT_MAX_INDEX", 50)
        doc = tmp_path / "t.json"
        doc.write_text(json.dumps({"family": "transformed", "params": {
            "p": 2, "base": {"family": "gevrey", "params": {"s": "1"}}}}))
        out = tmp_path / "r.json"
        argv = {
            "seq-show": ["--spec", str(doc)],
            "seq-check": ["--spec", str(doc), "--checks", "quasianalytic"],
            "seq-compare": ["--spec", gevrey_path, "--other", str(doc)],
            "seq-transform": ["--spec", str(doc), "--p", "2"],
        }[command]
        argv = [command, *argv, "--precision", "20", "--out", str(out)]
        assert run(argv + ["--n-max", str(admitted + 1)]) == 3
        assert "reads index 52, beyond the maximum 50" in capsys.readouterr().err
        assert not out.exists()
        assert run(argv + ["--n-max", str(admitted)]) == 0
        assert all(c["verdict"]["outcome"] == "confirmed"
                   for c in json.loads(out.read_text())["checks"])

    def test_every_subcommand_has_its_bounded_options_checked(self):
        checked = {(argv[0], flag) for flag, _, argv in _bounded_integer_options()}
        assert {("alpha", "--p"), ("thm61", "--p"), ("report-all", "--n-max"),
                ("seq-show", "--precision"), ("bang", "--plot-k")} <= checked

    def test_help_is_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "carleman" in capsys.readouterr().out


class TestJsonDocument:
    def test_schema_and_stdout(self, capsys, gevrey_path):
        code = run(["seq-check", "--spec", gevrey_path,
                    "--checks", "log-convex-prime", "--n-max", "6"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"tool_version", "config", "checks"}
        check = doc["checks"][0]
        assert {"name", "claim", "verdict", "evidence", "ms", "params",
                "certificate"} <= set(check)
        assert check["ms"] == 0
        assert check["verdict"]["outcome"] == "confirmed"
        assert check["evidence"], "rows must be present"

    def test_default_name_carries_config_hash(self, tmp_path, gevrey_path):
        out = tmp_path / "reports"
        assert run(["thm61", "--spec", gevrey_path, "--p", "2", "--A", "1",
                    "--n-max", "4", "--assembly-n-max", "3",
                    "--out", str(out)]) == 0
        files = list(out.glob("report-*.json"))
        assert len(files) == 1
        assert len(files[0].stem.split("-")[1]) == 12

    def test_certificate_attached(self, tmp_path, gevrey_path):
        out = tmp_path / "t.json"
        assert run(["thm61", "--spec", gevrey_path, "--n-max", "3",
                    "--assembly-n-max", "2", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        coeff = doc["checks"][0]
        assert coeff["certificate"]["interval_id"] == "[0,1]"

    def test_battery_certificates_match_thm61(self, tmp_path, capsys):
        # each substitution-coefficients check of report-all carries the
        # certificate thm61 gives for the same spec, p, A and precision
        out = tmp_path / "all.json"
        run(["report-all", "--n-max", "3", "--precision", "20", "--out", str(out)])
        coeffs = [c for c in json.loads(out.read_text())["checks"]
                  if c["name"].startswith("substitution-coefficients[")]
        assert len(coeffs) == 12
        shipped = {"gevrey(s=1)": "gevrey1", "paper8": "paper8"}
        capsys.readouterr()
        for check in coeffs:
            params = check["params"]
            assert run(["thm61", "--spec", str(SPECS / f"{shipped[params['spec']]}.json"),
                        "--p", params["p"], "--A", params["A"], "--precision", "20",
                        "--n-max", "3", "--assembly-n-max", "1"]) == 0
            (thm61,) = (c for c in json.loads(capsys.readouterr().out)["checks"]
                        if c["name"] == check["name"])
            assert check["certificate"] is not None
            assert check["certificate"] == thm61["certificate"], params


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path, gevrey_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["seq-check", "--spec", gevrey_path, "--n-max", "8"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_append_only_conflict(self, tmp_path, gevrey_path):
        out = tmp_path / "r.json"
        args = ["ineq62", "--p", "2", "--n-max", "3", "--out", str(out)]
        assert run(args) == 0
        out.write_text("tampered")
        assert run(args) == 3

    def test_rerun_over_identical_file_is_fine(self, tmp_path, gevrey_path):
        out = tmp_path / "r.json"
        args = ["ineq62", "--p", "2", "--n-max", "3", "--out", str(out)]
        assert run(args) == 0
        assert run(args) == 0


class TestCsv:
    def test_ckn_columns(self, tmp_path):
        out = tmp_path / "ckn"
        assert run(["ckn", "--k-max", "3", "--n-max", "6",
                    "--format", "csv", "--out", str(out)]) == 0
        bound = next(out.glob("*ckn-bound*.csv")).read_text().splitlines()
        header = next(line for line in bound if not line.startswith("#"))
        assert header == "k,n,c_num,c_den,bound_upper,verdict"
        assert (out / "summary.csv").exists()

    def test_bang_columns(self, tmp_path, gevrey_path):
        out = tmp_path / "bang"
        assert run(["bang", "--spec", gevrey_path, "--n-max", "3",
                    "--deriv-n-max", "2", "--sharpness-n-max", "2",
                    "--format", "csv", "--out", str(out)]) == 0
        lower = next(out.glob("*bang-lower-bounds*.csv")).read_text().splitlines()
        header = next(line for line in lower if not line.startswith("#"))
        assert header == "n,lower_bound_log,value_log_lo,value_log_hi,ceiling_log,verdict"

    def test_rejection_keeps_its_witness(self, tmp_path):
        # bang-rejected has the generic rejection layout, not the
        # extremal-series one, so the error message reaches the CSV
        paper8 = str(SPECS / "paper8.json")
        out = tmp_path / "rejected.csv"
        assert run(["bang", "--spec", paper8, "--format", "csv", "--out", str(out)]) == 2
        rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        assert rows[0] == "i0,lo,hi,verdict,note"
        assert rows[1].startswith("0,,,inconclusive,") and "log-convexity" in rows[1]

    def test_single_check_csv_file(self, tmp_path):
        out = tmp_path / "ineq.csv"
        assert run(["ineq62", "--p", "2", "--n-max", "3",
                    "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# check")
        header = next(line for line in lines if not line.startswith("#"))
        assert header.startswith("p,n,k,")

    def test_csv_stdout_single_check(self, capsys):
        assert run(["ineq62", "--p", "2", "--n-max", "2", "--format", "csv"]) == 0
        assert "# check" in capsys.readouterr().out


class TestCommands:
    def test_seq_show(self, tmp_path, gevrey_path):
        assert run(["seq-show", "--spec", gevrey_path, "--n-max", "5",
                    "--out", str(tmp_path / "s.json")]) == 0

    def test_seq_compare(self, tmp_path, gevrey_path):
        constant = str(SPECS / "constant.json")
        out = tmp_path / "cmp.json"
        assert run(["seq-compare", "--spec", constant, "--other", gevrey_path,
                    "--n-max", "6", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["checks"][0]["claim"].startswith("included")

    def test_seq_transform(self, tmp_path):
        il1 = str(SPECS / "iterated_log1.json")
        out = tmp_path / "t.json"
        assert run(["seq-transform", "--spec", il1, "--p", "2",
                    "--n-max", "6", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        names = [c["name"] for c in doc["checks"]]
        assert any(n.startswith("transform-values") for n in names)
        assert any(n.startswith("transform-quasianalytic") for n in names)

    def test_seq_transform_values_share_one_dilated_sequence(self, tmp_path, monkeypatch):
        # transform-values and transform-quasianalytic read their dilations
        # from the one base sequence, so each of the 302 base values they
        # need (M_(3n) for n <= 301) is computed once
        calls = Counter()
        compute = WeightSequence._compute_log_M

        def counted(ws, n):
            calls[ws.spec.label()] += 1
            return compute(ws, n)

        monkeypatch.setattr(WeightSequence, "_compute_log_M", counted)
        assert run(["seq-transform", "--spec", str(SPECS / "iterated_log2.json"), "--p", "3",
                    "--n-max", "300", "--out", str(tmp_path / "t.json")]) == 0
        assert calls["iterated_log(k=2)"] <= 302

    def test_alpha(self, tmp_path):
        assert run(["alpha", "--p", "2", "--k-max", "2", "--n-max", "8",
                    "--out", str(tmp_path / "a.json")]) == 0

    def test_bang_rejected_family_is_inconclusive(self, tmp_path):
        paper8 = str(SPECS / "paper8.json")
        out = tmp_path / "b.json"
        assert run(["bang", "--spec", paper8, "--n-max", "3",
                    "--out", str(out)]) == 2
        doc = json.loads(out.read_text())
        assert doc["checks"][0]["name"].startswith("bang-rejected")

    def test_bang_plot_data(self, tmp_path, gevrey_path):
        plot = tmp_path / "plot.csv"
        assert run(["bang", "--spec", gevrey_path, "--n-max", "2",
                    "--deriv-n-max", "1", "--sharpness-n-max", "1",
                    "--plot-data", str(plot), "--plot-points", "5",
                    "--plot-k", "24", "--out", str(tmp_path / "b.json")]) == 0
        lines = plot.read_text().splitlines()
        assert lines[0] == "xi,F_lo,F_hi"
        assert len(lines) == 6
        assert lines[1].startswith("-1,")

    def test_boolean_spec_fields_are_three(self, tmp_path, capsys):
        bad = tmp_path / "bool.json"
        bad.write_text('{"family":"iterated_log","params":{"k":true},"precision":true}')
        assert run(["seq-show", "--spec", str(bad)]) == 3
        assert "error:" in capsys.readouterr().err

    def test_plot_data_is_append_only(self, tmp_path, gevrey_path, capsys):
        plot = tmp_path / "plot.csv"
        args = ["bang", "--spec", gevrey_path, "--n-max", "2",
                "--deriv-n-max", "1", "--sharpness-n-max", "1",
                "--plot-data", str(plot), "--plot-points", "3", "--plot-k", "16",
                "--out", str(tmp_path / "b.json")]
        assert run(args) == 0
        first = plot.read_bytes()
        # rewriting identical bytes is fine
        assert run(args) == 0
        assert plot.read_bytes() == first
        # a conflicting file is left alone and the run is a usage error
        plot.write_text("tampered\n")
        capsys.readouterr()
        assert run(args) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert plot.read_text() == "tampered\n"

    def test_precision_override_changes_document(self, tmp_path, gevrey_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["seq-show", "--spec", gevrey_path, "--n-max", "3",
                    "--out", str(a)]) == 0
        assert run(["seq-show", "--spec", gevrey_path, "--n-max", "3",
                    "--precision", "30", "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_precision_override_reaches_a_nested_base(self, tmp_path):
        spec = tmp_path / "t.json"
        spec.write_text(json.dumps({
            "family": "transformed", "precision": 80,
            "params": {"p": 2, "base": {"family": "gevrey", "params": {"s": "1"}}},
        }))
        ws = WeightSequence(cli._load(str(spec), 20))
        assert ws._base.bits == ws.bits == 96
        assert ws.spec.base.precision == 20

    @pytest.mark.parametrize("command, failing", [
        pytest.param(command, failing, id=command) for command, failing in (
            ("seq-show", ["seq-show"]),
            ("seq-check", list(cli._SEQ_CHECKS)),
            ("seq-transform", ["transform-values", "transform-quasianalytic"]),
            ("bang", ["bang-lower-bounds", "bang-membership", "bang-sharpness"]),
            ("thm61", ["substitution-coefficients"]),
        )
    ])
    def test_failing_spec_keeps_the_subcommand_run(self, tmp_path, command, failing):
        # one rejection per check that reads the spec, each naming its check
        spec = tmp_path / "il4.json"
        spec.write_text('{"family": "iterated_log", "params": {"k": 4}}')
        out = tmp_path / "r"
        assert run([command, "--spec", str(spec), "--n-max", "2",
                    "--out", str(out)]) == 2
        checks = json.loads(next(out.glob("report-*.json")).read_text())["checks"]
        rejected = [c for c in checks if c["name"].startswith("spec-rejected[")]
        quantities = [c["evidence"][0]["quantity"] for c in rejected]
        assert quantities == [f"{name} sweeps" for name in failing]
        assert len(set(quantities)) == len(quantities)
        for check in rejected:
            assert check["name"] == "spec-rejected[iterated_log(k=4)]"
            assert check["verdict"]["outcome"] == "inconclusive"
            assert check["evidence"][0]["note"].startswith("PrecisionExhaustedError: ")

    def test_failing_spec_keeps_the_checks_that_do_not_read_it(self, tmp_path):
        # the assembly rows read neither the spec's values nor A
        spec = tmp_path / "il4.json"
        spec.write_text('{"family": "iterated_log", "params": {"k": 4}}')
        out = tmp_path / "r"
        assert run(["thm61", "--spec", str(spec), "--n-max", "2",
                    "--out", str(out)]) == 2
        rejected, assembly = json.loads(next(out.glob("report-*.json")).read_text())["checks"]
        assert rejected["name"] == "spec-rejected[iterated_log(k=4)]"
        assert rejected["verdict"]["outcome"] == "inconclusive"
        assert assembly["name"] == "substitution-assembly[iterated_log(k=4)]"
        assert assembly["verdict"]["outcome"] == "confirmed"

    def test_failing_spec_writes_the_report_and_no_plot(self, tmp_path):
        spec = tmp_path / "il4.json"
        spec.write_text('{"family": "iterated_log", "params": {"k": 4}}')
        out, plot = tmp_path / "b.json", tmp_path / "p.csv"
        assert run(["bang", "--spec", str(spec), "--n-max", "2", "--plot-data", str(plot),
                    "--out", str(out)]) == 2
        checks = json.loads(out.read_text())["checks"]
        assert [c["name"] for c in checks] == ["spec-rejected[iterated_log(k=4)]"] * 3
        assert not plot.exists()

    def test_plot_data_says_when_it_writes_nothing(self, tmp_path, capsys):
        # paper8 has no all-index log-convexity rule for M', so no series
        plot = tmp_path / "p.csv"
        assert run(["bang", "--spec", str(SPECS / "paper8.json"), "--n-max", "2",
                    "--plot-data", str(plot), "--out", str(tmp_path / "b.json")]) == 2
        err = capsys.readouterr().err
        assert f"skipped {plot}: no certified series for paper8\n" in err
        assert not plot.exists()

    def test_failing_check_keeps_the_checks_already_run(self, tmp_path):
        # derivation closure at n = 3 needs M_4, one past the table
        spec = tmp_path / "t4.json"
        spec.write_text('{"family": "table", "params": {"log_values": ["0", "1", "4", "9"]}}')
        out = tmp_path / "r"
        assert run(["seq-check", "--spec", str(spec), "--n-max", "3",
                    "--out", str(out)]) == 2
        checks = json.loads(next(out.glob("report-*.json")).read_text())["checks"]
        assert [c["name"].split("[")[0] for c in checks] == [
            "monotone", "log-convex-M", "log-convex-Mprime", "spec-rejected", "spec-rejected"]
        for rejected, name in zip(checks[-2:], ("derivation-closed", "quasianalytic")):
            assert rejected["evidence"][0]["note"].startswith("IndexRangeError: ")
            assert rejected["evidence"][0]["quantity"] == f"{name} sweeps"

    def test_failing_check_does_not_drop_the_later_checks(self, tmp_path):
        # the quasianalyticity term at n = 2 needs M_3, one past the table;
        # monotonicity on [0, 2) still runs, and passes
        spec = tmp_path / "t3.json"
        spec.write_text('{"family": "table", "params": {"log_values": ["0", "1", "4"]}}')
        out = tmp_path / "r"
        assert run(["seq-check", "--spec", str(spec), "--checks", "quasianalytic,monotone",
                    "--n-max", "2", "--out", str(out)]) == 2
        rejected, monotone = json.loads(next(out.glob("report-*.json")).read_text())["checks"]
        assert rejected["name"] == "spec-rejected[table(len=3)]"
        assert rejected["verdict"]["outcome"] == "inconclusive"
        assert rejected["evidence"][0]["quantity"] == "quasianalytic sweeps"
        assert rejected["evidence"][0]["note"].startswith("IndexRangeError: ")
        assert monotone["name"] == "monotone[table(len=3)]"
        assert monotone["verdict"]["outcome"] == "confirmed"

class TestReportAll:
    def test_small_battery_confirmed_and_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run(["report-all", "--n-max", "3", "--out", str(out1)]) == 0
        assert run(["report-all", "--n-max", "3", "--out", str(out2)]) == 0
        f1 = next(out1.glob("report-*.json"))
        f2 = next(out2.glob("report-*.json"))
        assert f1.name == f2.name
        assert f1.read_bytes() == f2.read_bytes()

    def test_negative_fixture_drives_exit_one(self, tmp_path):
        code = run([
            "report-all",
            "--n-max", "3",
            "--spec", str(shipped_fixture("nonconvex_table")),
            "--out", str(tmp_path / "bad"),
        ])
        assert code == 1

    def test_dilated_table_sweeps_are_clamped(self, tmp_path):
        spec = tmp_path / "dilated_table.json"
        spec.write_text(json.dumps({
            "family": "transformed",
            "params": {"p": 2, "base": {
                "family": "table",
                "params": {"log_values": [str(i * i) for i in range(9)]},
            }},
        }))
        out = tmp_path / "r"
        assert run(["report-all", "--n-max", "8", "--spec", str(spec),
                    "--out", str(out)]) == 2
        doc = json.loads(next(out.glob("report-*.json")).read_text())
        label = "transformed(table(len=9), p=2)"
        extra = {c["name"]: c for c in doc["checks"] if label in c["name"]}
        assert sorted(extra) == [f"{name}[{label}]" for name in
                                 ("log-convex-M", "monotone", "quasianalytic")]
        assert extra[f"monotone[{label}]"]["params"]["n_max"] == "4"

    def test_failing_extra_spec_keeps_the_run(self, tmp_path):
        spec = tmp_path / "il4.json"
        spec.write_text('{"family": "iterated_log", "params": {"k": 4}}')
        plain, out = tmp_path / "plain", tmp_path / "il4"
        assert run(["report-all", "--n-max", "2", "--out", str(plain)]) == 0
        assert run(["report-all", "--n-max", "2", "--spec", str(spec),
                    "--out", str(out)]) == 2
        built_in = json.loads(next(plain.glob("report-*.json")).read_text())["checks"]
        checks = json.loads(next(out.glob("report-*.json")).read_text())["checks"]
        assert len(built_in) == 57
        assert checks[:57] == built_in
        # each of seq-check's sweeps on the extra spec is guarded on its own
        rejected = checks[57:]
        assert [c["evidence"][0]["quantity"] for c in rejected] == [
            "monotone sweeps", "log-convex sweeps", "quasianalytic sweeps"]
        for check in rejected:
            assert check["name"] == "spec-rejected[iterated_log(k=4)]"
            assert check["verdict"]["outcome"] == "inconclusive"
            assert check["evidence"][0]["note"].startswith("PrecisionExhaustedError: ")

    def test_failing_bang_check_stays_local(self, tmp_path, monkeypatch):
        # a bang check that cannot compute becomes one spec-rejected check
        # and the battery still writes its document
        def exhausted(self, n_max):
            raise PrecisionExhaustedError("no precision isolates the head")

        monkeypatch.setattr(BangSeries, "verify_membership", exhausted)
        out = tmp_path / "r"
        assert run(["report-all", "--n-max", "2", "--out", str(out)]) == 2
        checks = json.loads(next(out.glob("report-*.json")).read_text())["checks"]
        assert len(checks) == 57
        rejected = [c for c in checks if c["name"].startswith("spec-rejected")]
        assert [c["name"] for c in rejected] == [
            "spec-rejected[constant]", "spec-rejected[gevrey(s=1)]"]
        for check in rejected:
            assert check["evidence"][0]["quantity"] == "bang-membership sweeps"
            assert check["evidence"][0]["note"].startswith("PrecisionExhaustedError: ")
        names = [c["name"].split("[")[0] for c in checks]
        assert names.count("bang-lower-bounds") == names.count("bang-sharpness") == 2

    def test_default_outputs_are_named_by_the_config_hash(self, monkeypatch, tmp_path):
        # without --out every file name carries the hash, so two depths
        # never collide: JSON at reports/report-<hash>.json, CSV under
        # reports/report-<hash>/
        monkeypatch.chdir(tmp_path)
        assert run(["report-all", "--n-max", "2", "--format", "csv"]) == 0
        assert run(["report-all", "--n-max", "3", "--format", "csv"]) == 0
        assert run(["report-all", "--n-max", "2"]) == 0
        reports = tmp_path / "reports"
        (json_file,) = reports.glob("*.json")
        assert re.fullmatch(r"report-[0-9a-f]{12}\.json", json_file.name)
        dirs = sorted(d.name for d in reports.iterdir() if d.is_dir())
        assert len(dirs) == 2 and json_file.stem in dirs
        assert all((reports / d / "00__ckn-bound.csv").is_file() for d in dirs)

    def test_a_spec_edited_in_place_gets_its_own_report(self, tmp_path):
        # the default name hashes each loaded spec document, not only the
        # path the config echoes
        spec, out = tmp_path / "my.json", tmp_path / "out"
        argv = ["report-all", "--n-max", "2", "--spec", str(spec), "--out", str(out)]
        spec.write_text('{"family": "gevrey", "params": {"s": 1}}')
        assert run(argv) == 0
        spec.write_text('{"family": "gevrey", "params": {"s": 2}}')
        assert run(argv) == 0
        assert len(list(out.glob("report-*.json"))) == 2

    def test_n_max_one_still_confirms(self, tmp_path):
        assert run(["report-all", "--n-max", "1", "--out", str(tmp_path / "n1")]) == 0

    def test_battery_computes_each_base_value_once(self, monkeypatch):
        # the substitution checks read M' from the battery's sequences, so
        # every value of a shipped sequence is computed once; the only
        # repeats are the dilated-level fills of the transform and inclusion
        # checks, which build their own dilations of one base sequence.  The
        # count follows the Bang heads: each confirms log-convexity of M' up
        # to its truncation K + 1, so a shorter head fills fewer values
        calls = Counter()
        compute = WeightSequence._compute_log_M

        def counted(ws, n):
            calls[ws.spec.label(), n] += 1
            return compute(ws, n)

        monkeypatch.setattr(WeightSequence, "_compute_log_M", counted)
        cli.run_battery()
        assert sum(calls.values()) == 1182
        assert {key: count for key, count in calls.items()
                if count > 1 and not key[0].startswith("transformed")} == {}


class TestQuasianalyticRows:
    """Every row of a term-bound check (quasianalyticity, derivation
    closure) at or past its fact's n0 compares the term with the fact's
    bound and carries that outcome; a row below n0 says so and has none."""

    @staticmethod
    def _rows(checks):
        return [row for check in checks
                if check.report.name.startswith(
                    ("quasianalytic[", "transform-quasianalytic[", "derivation-closed["))
                for row in check.report.rows]

    @staticmethod
    def _assert_tested(rows):
        assert rows
        for row in rows:
            extra = dict(row.extra)
            if row.outcome is None:
                assert row.note.startswith("below n_0 = ") and not extra, row
            else:
                assert row.outcome is Outcome.CONFIRMED and {"rhs_lo", "rhs_hi"} <= set(extra)

    def test_default_battery(self):
        self._assert_tested(self._rows(cli.run_battery().checks))

    @pytest.mark.parametrize("name", SHIPPED)
    def test_default_subcommands(self, name):
        spec = str(SPECS / f"{name}.json")
        for argv in (["seq-check", "--spec", spec], ["seq-transform", "--spec", spec]):
            args = cli.build_parser().parse_args(argv)
            self._assert_tested(self._rows(cli._HANDLERS[args.command](args).checks))


class TestCknOracleEquivalence:
    def test_convolution_from_one_table_build(self, monkeypatch):
        calls = []
        real = co.log_power_table
        monkeypatch.setattr(
            co, "log_power_table", lambda k, n: calls.append((k, n)) or real(k, n)
        )
        report = co.verify_ckn_oracle_equivalence(4, 10)
        assert calls == [(4, 10)]
        assert report.verdict.outcome is Outcome.CONFIRMED
        assert len(report.rows) == 4 * 11
        assert all(r.note == "" for r in report.rows)

    def test_stirling_mismatch_refutes_the_row(self, monkeypatch):
        real = co.ckn
        monkeypatch.setattr(
            co, "ckn", lambda k, n: real(k, n) + (1 if (k, n) == (2, 5) else 0)
        )
        report = co.verify_ckn_oracle_equivalence(3, 8)
        refuted = [r for r in report.rows if r.outcome is Outcome.REFUTED]
        assert [r.index for r in refuted] == [(2, 5)]
        assert refuted[0].note.startswith("stirling ")
        assert report.verdict.outcome is Outcome.REFUTED
