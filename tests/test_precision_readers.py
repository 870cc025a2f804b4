"""Which package functions read or set mpmath's process-global precision.

A result must not depend on process-global mpmath state, so no new code may
read ``iv.prec`` or ``mp.prec`` (or their ``dps`` views), and no new code
may enter ``working_precision``, which sets them.  Interval values carry
their own precision, and every family ``log_M`` body rounds on ``libmpi``
at its sequence's precision, so no computation reads the global setting.
The fill of M still enters ``working_precision`` because the benchmark
counts those entries and expects a positive count; the switch goes with the
next benchmark change.  Both sets below only shrink.

The interval arithmetic itself builds and compares no ``mpf`` or ``iv``
object at all: it works on raw ``libmp`` tuples.  Nor does the exact
oracle's row path, which decides and renders on plain integers.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "carleman"

#: module.qualname of every function that still reads the global precision
READERS = {"intervals.working_precision"}

#: module.qualname of every function that still calls ``working_precision``
CALLERS = {"sequences.WeightSequence._compute_log_M"}

#: the arithmetic path: every ``LogReal`` method, the two linear kernels,
#: the Bang head sums that run on them, and the exact oracle's rows with
#: their integer rendering
ARITHMETIC = (
    "intervals.LogReal.",
    "intervals.pos_mul",
    "intervals.pos_add",
    "bang.BangSeries.",
    "coefficients.dec_str",
    "coefficients._quotient",
    "coefficients._round_nearest",
    "coefficients.exact_row",
    "coefficients.leq_with_e_power",
)


class _Scopes(ast.NodeVisitor):
    """Collect the enclosing scope (module.qualname) of every node that
    ``wanted`` accepts; a node at module level is reported as the module."""

    def __init__(self, module: str, wanted):
        self.scope = [module]
        self.wanted = wanted
        self.found: set[str] = set()

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def generic_visit(self, node):
        if self.wanted(node):
            self.found.add(".".join(self.scope))
        super().generic_visit(node)


def _reads_global_precision(node) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and node.attr in ("prec", "dps")
        and isinstance(node.value, ast.Name)
        and node.value.id in ("iv", "mp")
    )


def _calls_working_precision(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return name == "working_precision"


def _scopes(wanted) -> set[str]:
    found = set()
    for path in sorted(SRC.glob("*.py")):
        visitor = _Scopes(path.stem, wanted)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found |= visitor.found
    return found


def test_only_the_listed_functions_read_global_precision():
    assert _scopes(_reads_global_precision) == READERS


def test_only_the_listed_functions_call_working_precision():
    assert _scopes(_calls_working_precision) == CALLERS


def _uses_mpmath_context(node) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("iv", "mp")
    )


def test_the_arithmetic_path_uses_no_mpmath_context():
    defined = _scopes(lambda node: isinstance(node, ast.arguments))
    assert all(any(scope.startswith(prefix) for scope in defined) for prefix in ARITHMETIC)
    assert {scope for scope in _scopes(_uses_mpmath_context)
            if scope.startswith(ARITHMETIC)} == set()
