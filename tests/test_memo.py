"""The cache primitive, the guard that keeps every lock of the package in
it, and the inventory of the ``lru_cache`` functions it leaves as they are.

* two threads that miss one key at once both return the first stored
  object;
* a failing ``grow`` step keeps the rows before it, and the next call
  retries the failed row: an index is tried again, never skipped;
* concurrent ``grow`` calls compute each row once.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

from carleman.memo import Memo

SRC = Path(__file__).resolve().parents[1] / "src" / "carleman"

#: module.qualname of every scope that builds a ``threading`` lock.  The
#: set only shrinks: a new cache uses ``Memo``, and the precision lock of
#: ``intervals`` goes with ``working_precision``.
LOCK_SITES = {"memo.Memo.__init__", "intervals"}

#: module.qualname of every function under ``functools.lru_cache`` (or
#: ``cache``).  The set only shrinks: each is a pure function of its
#: arguments whose cache gets hits on the benchmark workloads.
LRU_CACHED = {
    "intervals._fraction_mpi",
    "intervals._log_int",
    "sequences._x_log_L_start",
    "sequences.tower_threshold",
    "coefficients._power",
}


def _name(node) -> str | None:
    """The bare name a call or decorator refers to: ``f`` for ``f(...)``,
    ``m.f(...)``, ``@f`` and ``@m.f(...)``."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _sites(hit) -> set[str]:
    """module.qualname of every scope of the package that holds a node for
    which ``hit`` is true (a definition is inside its own scope)."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = [*scope, node.name]
        if hit(node):
            found.add(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), [path.stem])
    return found


def test_only_the_listed_scopes_build_a_lock():
    assert _sites(lambda node: isinstance(node, ast.Call)
                  and _name(node) in ("Lock", "RLock")) == LOCK_SITES


def test_only_the_listed_functions_are_lru_cached():
    def cached(node):
        return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
            _name(d) in ("lru_cache", "cache") for d in node.decorator_list)

    assert _sites(cached) == LRU_CACHED


@pytest.fixture()
def fast_switching():
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


def _run(workers: int, target) -> list:
    results: list = [None] * workers

    def run(i: int) -> None:
        try:
            results[i] = target(i)
        except Exception as exc:
            results[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    return results


def test_racing_get_returns_the_first_stored_object(fast_switching):
    for _ in range(20):
        memo = Memo()
        # both threads are inside compute before either stores
        both_missed = threading.Barrier(2, timeout=60)
        computed = []

        def compute(i):
            both_missed.wait()
            value = [i]
            computed.append(value)
            return value

        results = _run(2, lambda i: memo.get("key", compute, i))
        assert len(computed) == 2
        assert results[0] is results[1] is computed[0]
        assert memo.get("key", compute, 9) is computed[0]


def test_a_failed_grow_step_keeps_the_rows_and_is_retried(fast_switching):
    memo = Memo()
    tried = []

    def step(key, rows):
        n = len(rows)
        tried.append(n)
        if n == 3 and tried.count(3) == 1:
            raise ValueError("row 3 fails once")
        return key * n

    with pytest.raises(ValueError):
        memo.grow(10, 5, lambda key: 0, step)
    assert 10 in memo
    assert memo.grow(10, 2, lambda key: 0, step) == [0, 10, 20]
    assert tried == [1, 2, 3]
    assert memo.grow(10, 5, lambda key: 0, step) == [0, 10, 20, 30, 40, 50]
    assert tried == [1, 2, 3, 3, 4, 5]


def test_concurrent_grow_computes_each_row_once(fast_switching):
    memo = Memo()
    tried = []

    def step(key, rows):
        tried.append(len(rows))
        return rows[-1] + len(rows)

    results = _run(4, lambda i: memo.grow("sums", 50 * (i + 1), lambda key: 0, step)[: 50 * (i + 1) + 1])
    assert sorted(tried) == list(range(1, 201))
    assert results[3] == [n * (n + 1) // 2 for n in range(201)]
    assert all(r == results[3][: len(r)] for r in results)
