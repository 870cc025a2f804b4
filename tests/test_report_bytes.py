"""Pinned report bytes: SHA-256 digests of the JSON document and of the CSV
tree for a small set of runs that reaches all six weight-sequence families
and every per-family fact (quasianalyticity, derivation closure, M'
log-convexity and the Gevrey index, each both present and absent).

A change that alters these reports on purpose updates the digests here and
records the change in CHANGES.md.
"""

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from carleman.cli import main, shipped_fixture

SPECS = Path(__file__).resolve().parents[1] / "src" / "carleman" / "data" / "specs"

TRANSFORMED_IL1 = {
    "version": 1,
    "family": "transformed",
    "params": {"p": 2, "base": {"family": "iterated_log", "params": {"k": 1}}},
    "precision": 80,
}

#: name -> (argv without --out/--format, exit code, JSON digest, CSV-tree digest)
RUNS = {
    "report-all": (
        ["report-all", "--n-max", "3", "--precision", "20",
         "--spec", "nonconvex_table.json", "--spec", "transformed_il1.json"],
        1,
        "f2fb8fe40e2cb39abe6b6ec429ba727169c82580ff07bbf27bf5fa10904f0963",
        "d14a40c889a1cf7d5bacd6849e54fac8340ef6998bb29bd9222eabb6d4726ed5",
    ),
    "seq-check-table": (
        ["seq-check", "--spec", "nonconvex_table.json", "--n-max", "3"],
        1,
        "6e7095928b93891e92c5b217079f596d692e56b0971b8a104f4b5fb9853687ec",
        "893e5c367d695f2694024c28016aa7dd84b6c64ed7f2834eda068f9f7bf2cf78",
    ),
    "seq-check-transformed": (
        ["seq-check", "--spec", "transformed_il1.json", "--n-max", "3"],
        0,
        "f0aa67b2bbb1421676449c9b150af6ddaf582fb5c007710e3bdafe634509f0d1",
        "023a9ae4da196fc72bd1bca2103aa61a84a0c0819135f90526d938a22e194e83",
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
        "76035769465a553b153a5597d0a8775a498d650aa0ba38dd75e797f18be42d97",
    ),
    "seq-compare": (
        ["seq-compare", "--spec", "gevrey1.json", "--other", "iterated_log1.json"],
        2,
        "7bf5db468ce42d1aed2f79ca7ab6cf442d8cc8e6549dff57f234c63d8d44b67c",
        "322d409d07511f03fc031a86241cf6b13456defe8cca8088fba4f0c3a7b5d3a2",
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


def _tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_bytes_are_pinned(name, tmp_path, monkeypatch):
    argv, exit_code, json_digest, csv_digest = RUNS[name]
    monkeypatch.chdir(tmp_path)
    _spec_files(tmp_path)
    assert main(argv + ["--out", "json"]) == exit_code
    assert main(argv + ["--format", "csv", "--out", "csv"]) == exit_code
    (document,) = Path("json").glob("report-*.json")
    assert hashlib.sha256(document.read_bytes()).hexdigest() == json_digest
    assert _tree_digest(Path("csv")) == csv_digest
