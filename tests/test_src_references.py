"""Every member of the package has a caller inside the package.

A module-level function or class, or a method that is not a dunder, that
nothing in ``src/`` refers to is code that only the tests reach.  Such a
member belongs in ``tests/conftest.py`` as a twin, or nowhere.  A reference
is an ``ast.Name`` or ``ast.Attribute`` with the member's name anywhere in
``src/`` outside the member's own definition, so recursion alone does not
count.  The public API in ``carleman.__all__`` is exempt, and so is each
entry of :data:`ALLOWED`.  Each name of :data:`BENCH_ONLY` is defined in
``src/`` and read only by its benchmark module.
"""

import ast
from collections import Counter
from pathlib import Path

import carleman

SRC = Path(__file__).resolve().parents[1] / "src" / "carleman"

#: members kept without a caller in ``src/``, each with the reason
ALLOWED: dict[str, str] = {}

#: module-level names that only the benchmark reads, each with its reader:
#: no second route may read them in ``src/``, and deleting one changes the
#: benchmark too
BENCH_ONLY: dict[str, str] = {
    "_LOGFACT_INCREMENTAL_MAX": "bench/tracing.py",
}


def _referenced_names(tree) -> Counter:
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def _members(tree):
    """(qualname, definition node) of every module-level function and
    class, and of every non-dunder method of a module-level class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def _members_without_a_caller() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    references = sum((_referenced_names(tree) for tree in trees.values()), Counter())
    exempt = set(carleman.__all__) | set(ALLOWED)
    orphans = []
    for module, tree in trees.items():
        for qualname, node in _members(tree):
            if node.name in exempt:
                continue
            if references[node.name] - _referenced_names(node)[node.name] <= 0:
                orphans.append(f"{module}.{qualname}")
    return orphans


def test_every_member_has_a_caller_in_src():
    assert _members_without_a_caller() == []


def test_every_allowed_member_exists():
    defined = set()
    for path in SRC.glob("*.py"):
        defined |= {name.rpartition(".")[2]
                    for name, _ in _members(ast.parse(path.read_text(encoding="utf-8")))}
    assert set(ALLOWED) <= defined



def test_bench_only_names_are_read_by_the_benchmark_alone():
    # the one reference to each in src/ is its definition
    references = sum((_referenced_names(ast.parse(path.read_text(encoding="utf-8")))
                      for path in sorted(SRC.glob("*.py"))), Counter())
    for name, reader in BENCH_ONLY.items():
        assert references[name] == 1, name
        bench = ast.parse((SRC.parents[1] / reader).read_text(encoding="utf-8"))
        assert _referenced_names(bench)[name] > 0, name
