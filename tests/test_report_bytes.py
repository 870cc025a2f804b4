"""Pinned report bytes: SHA-256 digests of the JSON document and of the CSV
tree for a small set of runs that reaches all six weight-sequence families,
every per-family fact (quasianalyticity, derivation closure, M'
log-convexity and the Gevrey index, each both present and absent) and every
check name the package writes.

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

#: a threshold no working precision can isolate: every sweep on it fails
ITERATED_LOG4 = {"version": 1, "family": "iterated_log", "params": {"k": 4}}

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
        "707528b14ac2e1583c4ac48fefb454dd7246e51b2312aa24e56f2fa210960718",
    ),
    "seq-compare": (
        ["seq-compare", "--spec", "gevrey1.json", "--other", "iterated_log1.json"],
        2,
        "7bf5db468ce42d1aed2f79ca7ab6cf442d8cc8e6549dff57f234c63d8d44b67c",
        "322d409d07511f03fc031a86241cf6b13456defe8cca8088fba4f0c3a7b5d3a2",
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
        "7cecbce9eb4eeee3962f91f3b3d1bfb68fabdf95af8614931dc66cda2082cfc9",
        "8f6611bb12d95fd23b39dba1689ea4c547f51ae7aef5fa52a19ca0fcab15a410",
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
        "81138e48ec737408e9fa7e696abf509e541987cfd6408e363d68af6205b6882d",
        "ffa796c125f5be7aa737ea67ac5acb76299da3da9e1b3e1664cd0f088e10838c",
    ),
    "ineq62": (
        ["ineq62", "--n-max", "3"],
        0,
        "f3e5c598a1e6fd08b1c332bf0de366a6e89cc5fa7d74166a9aa9a156e67924de",
        "65b7f0b031f2db51f780290f16e501b19957644b8b211401d028c5d1bf905161",
    ),
    "thm61": (
        ["thm61", "--spec", "gevrey1.json", "--n-max", "3", "--assembly-n-max", "2",
         "--exact-alpha-cap", "2"],
        0,
        "0b053a445a7174ea0d6349a8b23fcec6a6c9726c3ec18a07050f1f8d778390c1",
        "a33fbb56b199c856819d015d9ab635be21155ddb3f11eb23378bfcd69e921cce",
    ),
    "seq-compare-rejected": (
        ["seq-compare", "--spec", "iterated_log4.json", "--other", "iterated_log4.json",
         "--n-max", "2"],
        2,
        "2f19cc5c4f9a5107843495b176e6acaa679debb27513f25e04db62f0039fa3d8",
        "c5e39878560f2f2c0145f94242f90ca45f9c5973d4b76dbd57d1200282dc2989",
    ),
    "report-all-rejected": (
        ["report-all", "--n-max", "2", "--precision", "20", "--spec", "iterated_log4.json"],
        2,
        "a1a120354411ed88c7289919b01c99c258d90ffd490a5ba836d914cfef059ab3",
        "3a9912bc0e7b25aa475bb3b56c34674deb2bec67d181d00812a8b40b69d0cf67",
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
    (root / "iterated_log4.json").write_text(json.dumps(ITERATED_LOG4))


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
