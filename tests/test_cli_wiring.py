"""The command line builds no check of its own.

``cli.py`` parses arguments, adds the checks that other modules build to a
``RunReport`` and writes it.  A call in ``cli.py`` to one of the report
constructors below means a check builder has moved back into the command
line; it belongs in the module that owns its math.  A call is an
``ast.Call`` whose callee is an ``ast.Name`` or ``ast.Attribute`` with the
constructor's name.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "carleman" / "cli.py"

#: the constructors of check reports, verdicts and evidence rows
BUILDERS = {"CheckReport", "EvidenceRow", "Verdict", "aggregate_rows", "log_row"}


def _called_names(tree) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        if isinstance(callee, ast.Name):
            names.append(callee.id)
        elif isinstance(callee, ast.Attribute):
            names.append(callee.attr)
    return names


def test_cli_calls_no_report_constructor():
    tree = ast.parse(CLI.read_text(encoding="utf-8"))
    assert sorted(set(_called_names(tree)) & BUILDERS) == []
