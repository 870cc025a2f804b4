"""Which package functions read mpmath's process-global precision.

A result must not depend on process-global mpmath state, so no new code may
read ``iv.prec`` or ``mp.prec`` (or their ``dps`` views).  The three
functions below still do; each is removed from :data:`READERS` when it takes
its precision as an argument instead, so the set only shrinks.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "carleman"

#: module.qualname of every function that still reads the global precision
READERS = {
    "intervals.working_precision",
    "sequences.log_factorial",
    "sequences.tower_threshold",
}


class _Readers(ast.NodeVisitor):
    """Collect the enclosing scope of every load of ``iv``/``mp`` ``.prec``
    or ``.dps``; a read at module level is reported as the module itself."""

    def __init__(self, module: str):
        self.scope = [module]
        self.found: set[str] = set()

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def visit_Attribute(self, node):
        if (
            isinstance(node.ctx, ast.Load)
            and node.attr in ("prec", "dps")
            and isinstance(node.value, ast.Name)
            and node.value.id in ("iv", "mp")
        ):
            self.found.add(".".join(self.scope))
        self.generic_visit(node)


def test_only_the_listed_functions_read_global_precision():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        visitor = _Readers(path.stem)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found |= visitor.found
    assert found == READERS

