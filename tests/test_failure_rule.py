"""Where the command line turns an error inside a check into a result.

A failure inside one check makes that check inconclusive; it never erases
the rest of a run.  ``cli.py`` therefore holds one handler for
``CarlemanError`` while checks run, in ``_timed``, which guards one
producer at a time, and ``main`` maps whatever is left to an exit code.  A
second handler would be a second failure policy.  A bare ``except`` and
``except Exception`` count as handlers for ``CarlemanError`` too.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "carleman" / "cli.py"

#: names whose handler also catches a CarlemanError
CATCHING = {"CarlemanError", "Exception", "BaseException"}


def _catches_carleman_error(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(
        (t.id if isinstance(t, ast.Name) else getattr(t, "attr", None)) in CATCHING
        for t in types
    )


def _handler_scopes() -> list[str]:
    """The top-level function (or ``<module>``) around each handler in
    ``cli.py`` that catches a ``CarlemanError``."""
    tree = ast.parse(CLI.read_text(encoding="utf-8"))
    return [
        getattr(node, "name", "<module>")
        for node in tree.body
        for handler in ast.walk(node)
        if isinstance(handler, ast.ExceptHandler) and _catches_carleman_error(handler)
    ]


def test_one_guard_outside_main():
    assert [scope for scope in _handler_scopes() if scope != "main"] == ["_timed"]
