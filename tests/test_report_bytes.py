"""Pinned report bytes: SHA-256 digests of the JSON document and of the CSV
tree for a small set of runs that reaches all six weight-sequence families,
every per-family fact (quasianalyticity, derivation closure, M'
log-convexity and the Gevrey index, each both present and absent) and every
check name the package writes.

Each run is also made with mpmath's process-global precision set to 113
bits (and restored afterwards): no report byte may depend on it.

The sampled values that ``bang --plot-data`` writes are pinned the same way.

A change that alters these reports on purpose updates the digests here and
records the change in CHANGES.md.
"""

import hashlib
import json
import shutil
from contextlib import contextmanager
from pathlib import Path

import pytest
from mpmath import iv, mp

from carleman.cli import main
from conftest import shipped_fixture

SPECS = Path(__file__).resolve().parents[1] / "src" / "carleman" / "data" / "specs"

TRANSFORMED_IL1 = {
    "version": 1,
    "family": "transformed",
    "params": {"p": 2, "base": {"family": "iterated_log", "params": {"k": 1}}},
    "precision": 80,
}

#: a chain of two dilations: every fact is read at the product p = 6
NESTED_IL1 = {
    "version": 1,
    "family": "transformed",
    "params": {"p": 3, "base": TRANSFORMED_IL1},
    "precision": 80,
}

#: a threshold no working precision can isolate: every sweep on it fails
ITERATED_LOG4 = {"version": 1, "family": "iterated_log", "params": {"k": 4}}

#: name -> (argv without --out/--format, exit code, JSON digest, CSV-tree digest)
RUNS = {
    "report-all": (
        ["report-all", "--n-max", "3", "--precision", "20",
         "--spec", "nonconvex_table.json", "--spec", "transformed_il1.json"],
        1,
        "21e1d7d11b043a233e84cf6f80ade0c0c5602785c1acf645786b269b39c6071f",
        "bad054cc6d184b176691b5b0ce9afa56b027e35d580a98b0336e3b11178ca78c",
    ),
    # every battery sweep at its default depth: the bytes a refactor of the
    # command line must keep
    "report-all-default": (
        ["report-all"],
        0,
        "4bf3c5f1131e821f952ee4cd2c3428174c7341e19092d99ee1444f98149dd7d6",
        "570224f62a119bdd32c78d9cadea9c965d065f4b785c58762a4672745492ccef",
    ),
    "seq-check-table": (
        ["seq-check", "--spec", "nonconvex_table.json", "--n-max", "3"],
        1,
        "9f97cc8d5ae6e12319fff03c9607930ee1881498f06ab3aca148e542c50a237c",
        "8752d1431281968eaa4c4c3e990b793e3a3abb1ebfe528bd51f93ccff5e676db",
    ),
    "seq-check-transformed": (
        ["seq-check", "--spec", "transformed_il1.json", "--n-max", "3"],
        0,
        "ec0719a15643583f31baf86b4915d0a6f6cb601ec8e65c5afd011759e29ddbc8",
        "5bf06dfeab18ef5e1043a697df0b4cf448dcf2d30fbff7f9b8adb14124edaff4",
    ),
    "bang": (
        ["bang", "--spec", "iterated_log1.json", "--deriv-n-max", "2",
         "--n-max", "3", "--sharpness-n-max", "2"],
        0,
        "1181f8b134add68237857af26d6dc5dbc84e3d5661b81c265b8107bcb879db71",
        "6e94437a78d543b6aaf8a3cb953be4366c9960d158311ca7b7fd5034ff81c207",
    ),
    "bang-transformed": (
        ["bang", "--spec", "transformed_il1.json", "--n-max", "3"],
        2,
        "3f4982435f21094ee3620334260c513e62d945231b1538ca751a900ac514f1fd",
        "707528b14ac2e1583c4ac48fefb454dd7246e51b2312aa24e56f2fa210960718",
    ),
    "seq-compare": (
        ["seq-compare", "--spec", "gevrey1.json", "--other", "iterated_log1.json"],
        2,
        "7bf5db468ce42d1aed2f79ca7ab6cf442d8cc8e6549dff57f234c63d8d44b67c",
        "322d409d07511f03fc031a86241cf6b13456defe8cca8088fba4f0c3a7b5d3a2",
    ),
    "seq-check-nested": (
        ["seq-check", "--spec", "nested_il1.json", "--n-max", "3"],
        0,
        "e2b90ee09248b9019eb6efd15946dbe1dc73b07206465a5a5ef7ac0d596c8280",
        "7ec030a7988e50932d8fdfc82f0808412db04f600f91c7cbb5a29a341a2575a3",
    ),
    # inclusion's dilation route at the chain's factor 6
    "seq-compare-nested": (
        ["seq-compare", "--spec", "iterated_log1.json", "--other", "nested_il1.json",
         "--n-max", "3"],
        0,
        "12af8870acf3f9976a623de53530b3061488c0d7bc7b529690fa3b10ccf47d8c",
        "8d4e2252fbc1c74126bc8b0cbb8c8cf5b1d2ebed78e61526672085320d3f83cb",
    ),
    "seq-show": (
        ["seq-show", "--spec", "iterated_log1.json", "--n-max", "3"],
        0,
        "d96e2b4c355139a063e5afcdc595e4f93d3cd797d756b354c6359792bc223287",
        "ec8e3fa1dd53fc882d3762460943335ef4163e7b51755ab8507fb63888686048",
    ),
    "seq-transform": (
        ["seq-transform", "--spec", "iterated_log1.json", "--p", "2", "--n-max", "3"],
        0,
        "8356ac9e561f80c45f9c004b6feb626f4bbe23a02eb413404463ecc1b8f57ea7",
        "44a47846eb71180fed7a9d8c8c66d88856bda1b7b0fd842990ee818e3e37fc90",
    ),
    "ckn": (
        ["ckn", "--k-max", "3", "--n-max", "4"],
        0,
        "06a2d735c0be9141f38869e7926818cde648ae6607e2a2050e41b938b4db3f8b",
        "30538821de926ed12aac3e1edf1da0b1dadc919599a866afadb6e1e1a315d74d",
    ),
    "alpha": (
        ["alpha", "--p", "2", "--k-max", "2", "--n-max", "4"],
        0,
        "4f3cee37aba3a8f9ff26eccd72cf83889326af3856134ebbe330078774fce5a3",
        "eb9f230b2be065e0c339366d70b0a225d0c612a871bc7d11834da34afbf62588",
    ),
    "ineq62": (
        ["ineq62", "--n-max", "3"],
        0,
        "f3e5c598a1e6fd08b1c332bf0de366a6e89cc5fa7d74166a9aa9a156e67924de",
        "65b7f0b031f2db51f780290f16e501b19957644b8b211401d028c5d1bf905161",
    ),
    "thm61": (
        ["thm61", "--spec", "gevrey1.json", "--n-max", "3", "--assembly-n-max", "2"],
        0,
        "f9165f61827cc4e3773e9c0ad9e3c5b216c527d495e6bd127cba482f3bc47f1f",
        "0e73385cf627cdb533aafe96dacd0eeb04ebf596a573516bbb64d828e676717e",
    ),
    # a non-integer A in the e A enclosure and its certificate radius, which
    # report-all (A in {1, 3}) does not reach; p = 3 certifies on [-1,1]
    "thm61-odd-p-rational-A": (
        ["thm61", "--spec", "gevrey1.json", "--p", "3", "--A", "7/2", "--n-max", "4",
         "--assembly-n-max", "2"],
        0,
        "c43ef21a354ddb2c86251ae20d89b2771e0adfe17514af38e4c758391a2e1774",
        "be765acc67f29a60cf446d3c9352631af06bd4c98a92bf82c97690756f7e8597",
    ),
    # the oracle documents at the depths of the benchmark's oracle workload
    "ckn-bench-depth": (
        ["ckn", "--k-max", "24", "--n-max", "48"],
        0,
        "42d25fb24caf85878e7ad495f03a62428eeb2803eff709daf570a45d670ea441",
        "33069590f4f0733c5f8a09ebc1ab0ba86799e32cd05e77463a2ac119a8d49a56",
    ),
    "alpha-bench-depth": (
        ["alpha", "--p", "3", "--k-max", "4", "--n-max", "40"],
        0,
        "f43d0bbfa6337bf4f5a87ed2c69290805b461a2393123402595c777970aa3751",
        "0013acceef9eba294a5ae8ddeb1fe5fb4a84cf1239ff8b1c9a568d5253b7a949",
    ),
    "ineq62-bench-depth": (
        ["ineq62", "--p", "2", "--n-max", "32"],
        0,
        "6d93bc68f649851929e9f470342e9fcdd6e58ac8b19223b3cffb415265378474",
        "074e15f0c8f6cf7e3d130faa024c5cd4e36785de74dcc3deabf877572db59289",
    ),
    "seq-compare-rejected": (
        ["seq-compare", "--spec", "iterated_log4.json", "--other", "iterated_log4.json",
         "--n-max", "2"],
        2,
        "a9b0253cec5392fb4da181a28fb1de3f51ef7e77f5d4a004e58d280f196d35af",
        "507750defa455846f4ef97ce277e5cb245306eec46bb4ebdc8b0dda561f67deb",
    ),
    "report-all-rejected": (
        ["report-all", "--n-max", "2", "--precision", "20", "--spec", "iterated_log4.json"],
        2,
        "d6c3461904a363895ea262f0a9782bef1e7e478d47208b2b3d942be13d0588cc",
        "a1b774810b4969e433f9162950acfeab914bda513f23ec37ffef15ba0ced2f9b",
    ),
}


def _spec_files(root: Path) -> None:
    """Write every spec the runs name under relative paths, so the config
    echo (and with it the report name and bytes) does not depend on where
    the tests run."""
    shutil.copy(shipped_fixture("nonconvex_table"), root / "nonconvex_table.json")
    for name in ("gevrey1", "iterated_log1"):
        shutil.copy(SPECS / f"{name}.json", root / f"{name}.json")
    (root / "transformed_il1.json").write_text(json.dumps(TRANSFORMED_IL1))
    (root / "nested_il1.json").write_text(json.dumps(NESTED_IL1))
    (root / "iterated_log4.json").write_text(json.dumps(ITERATED_LOG4))


def _tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


#: the global precision of a run: untouched, or 113 bits
AMBIENT_BITS = (None, 113)


@contextmanager
def _ambient(bits):
    """Run a block with mpmath's global precision at ``bits`` (None leaves
    it untouched), restoring it afterwards."""
    saved = iv.prec, mp.prec
    if bits is not None:
        iv.prec = mp.prec = bits
    try:
        yield
    finally:
        iv.prec, mp.prec = saved


@pytest.mark.parametrize("name, ambient_bits", [
    pytest.param(name, bits, id=name if bits is None else f"{name}@{bits}bits")
    for bits in AMBIENT_BITS
    for name in sorted(RUNS)
])
def test_report_bytes_are_pinned(name, ambient_bits, tmp_path, monkeypatch):
    argv, exit_code, json_digest, csv_digest = RUNS[name]
    monkeypatch.chdir(tmp_path)
    _spec_files(tmp_path)
    with _ambient(ambient_bits):
        assert main(argv + ["--out", "json"]) == exit_code
        assert main(argv + ["--format", "csv", "--out", "csv"]) == exit_code
    (document,) = Path("json").glob("report-*.json")
    assert hashlib.sha256(document.read_bytes()).hexdigest() == json_digest
    assert _tree_digest(Path("csv")) == csv_digest


#: ``bang --plot-data`` at the default ``--plot-k`` of 48: each sample is a
#: 49-term cosine head whose term rounding shows past the 2^-48 tail
PLOT_ARGV = ["bang", "--spec", "gevrey1.json", "--precision", "20", "--n-max", "2",
             "--deriv-n-max", "1", "--sharpness-n-max", "1", "--plot-data", "plot.csv",
             "--plot-points", "9", "--out", "json"]
PLOT_DIGEST = "80c20ac53b21fa4c83474156b7f9be6f37923d500d7b85bfd932edd6d0c279f4"


@pytest.mark.parametrize("ambient_bits", AMBIENT_BITS,
                         ids=["plot-data" if b is None else f"plot-data@{b}bits"
                              for b in AMBIENT_BITS])
def test_plot_bytes_are_pinned(ambient_bits, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _spec_files(tmp_path)
    with _ambient(ambient_bits):
        assert main(PLOT_ARGV) == 0
    assert hashlib.sha256(Path("plot.csv").read_bytes()).hexdigest() == PLOT_DIGEST
