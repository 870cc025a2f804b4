"""The one cache primitive of the package.

A :class:`Memo` holds computed values by key behind its own lock, either
one value per key (:meth:`Memo.get`) or one table per key, grown row by row
(:meth:`Memo.grow`).  Every cached value is a pure function of its key, so
a memo only avoids recomputation and never changes a result.
"""

import threading


class Memo:
    """Values by key, filled on demand and safe under concurrent callers."""

    def __init__(self):
        self._values: dict = {}
        self._lock = threading.Lock()

    def __contains__(self, key) -> bool:
        return key in self._values

    def get(self, key, compute, *args):
        """The value at ``key``, filled on a miss by ``compute(*args)`` (a
        bound method and its arguments, so a hit builds no closure) outside
        the lock and stored with ``setdefault``: threads racing on one key
        all return the first stored object."""
        with self._lock:
            hit = self._values.get(key)
        if hit is not None:
            return hit
        value = compute(*args)
        with self._lock:
            return self._values.setdefault(key, value)

    def grow(self, key, n: int, first, step) -> list:
        """The table at ``key``, grown under the lock until it has rows
        0..n: row 0 is ``first(key)``, each next row ``step(key, rows)``.
        A row is stored as soon as it is computed, so when ``step`` raises
        the table keeps its rows and the next call retries the failed one."""
        with self._lock:
            rows = self._values.get(key)
            if rows is None:
                rows = self._values[key] = [first(key)]
            while len(rows) <= n:
                rows.append(step(key, rows))
            return rows
