"""Per-layer tracing of one carleman process, from outside the package.

The layers are the package modules named in :data:`LAYERS`.  :func:`install`
replaces the public functions and methods of each layer with wrappers that
open a span for the call, and rebinds every ``from .x import name`` copy of
those functions so no call bypasses its wrapper.  :class:`ImportSpans` opens a
span around each layer's module import, so import-time work is part of the
layer's self time too.

A layer's self time is the time its spans cover minus the time covered by
their child spans.  The tracer keeps a stack of open spans and folds each
closed span into per-layer totals at once; it stores no span list, because
one extremal-series run makes about a million calls.  Counters for the
per-layer metrics are kept at the same wrappers.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import inspect
import sys
import time
import types
from collections import Counter, defaultdict

PACKAGE = "carleman"

LAYERS = (
    "intervals",
    "sequences",
    "criteria",
    "coefficients",
    "bang",
    "substitution",
    "reporting",
    "cli",
)

#: class members wrapped besides the public ones
_DUNDERS = ("__init__", "__mul__", "__truediv__")

#: private members wrapped because a counter needs them
_PRIVATE = {"sequences.WeightSequence._compute_log_M"}

_LOGREAL_OPS = ("__mul__", "__truediv__", "pow_int", "pow_fraction", "max_with")


class Tracer:
    """Span stack plus per-layer self times, counters and timers."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        #: inclusive time of selected functions, by metric name
        self.timers: defaultdict[str, float] = defaultdict(float)
        self._stack: list[list] = []

    def enter(self, layer: str) -> None:
        self._stack.append([layer, self.clock(), 0.0])

    def exit(self) -> float:
        """Close the innermost span and return its duration."""
        layer, start, covered = self._stack.pop()
        duration = self.clock() - start
        self.self_s[layer] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def as_dict(self) -> dict:
        return {
            "self_s": {layer: self.self_s.get(layer, 0.0) for layer in LAYERS},
            "counts": dict(self.counts),
            "timers": dict(self.timers),
        }


class ImportSpans(importlib.abc.MetaPathFinder):
    """Meta-path finder that times the import of each layer module."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, name, path, target=None):
        prefix, _, layer = name.partition(".")
        if prefix != PACKAGE or layer not in LAYERS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        tracer = self.tracer

        def traced_exec_module(module):
            tracer.enter(layer)
            try:
                exec_module(module)
            finally:
                tracer.exit()

        spec.loader.exec_module = traced_exec_module
        return spec


def _hooks(tracer: Tracer, modules: dict) -> dict:
    """Counter updates keyed by ``layer.qualname``: (before, after) pairs,
    where ``before(args, kwargs)`` runs before the call and ``after(result)``
    after it."""
    counts, timers = tracer.counts, tracer.timers
    seam = modules["sequences"]._LOGFACT_INCREMENTAL_MAX
    pow_cache = modules["coefficients"]._pow_table_cache

    def count(name):
        def before(args, kwargs):
            counts[name] += 1
        return before

    def count_sum_terms(args, kwargs):
        terms = args[0] if args else kwargs.get("terms")
        counts["intervals.sum_terms"] += len(terms)

    def count_log_factorial(args, kwargs):
        n = args[0] if args else kwargs["n"]
        kind = "gamma" if n > seam else "exact"
        counts[f"sequences.log_factorial_{kind}_calls"] += 1

    def count_pow_table(args, kwargs):
        if tuple(args[:2]) not in pow_cache:
            counts["coefficients.pow_tables_built"] += 1

    def count_bytes(result):
        counts["reporting.bytes"] += len(result.encode("utf-8"))

    hooks = {
        f"intervals.LogReal.{op}": (count("intervals.logreal_ops"), None)
        for op in _LOGREAL_OPS
    }
    hooks.update({
        "intervals.LogReal.__init__": (count("intervals.logreal_builds"), None),
        "intervals.sum_values": (count_sum_terms, None),
        "intervals.working_precision": (count("intervals.precision_switches"), None),
        "intervals.mpf_str": (count("intervals.mpf_str_calls"), None),
        "sequences.WeightSequence.log_M": (count("sequences.log_M_calls"), None),
        "sequences.WeightSequence._compute_log_M": (count("sequences.compute_log_M_calls"), None),
        "sequences.log_factorial": (count_log_factorial, None),
        "coefficients.SeriesPoly.mul": (count("coefficients.series_products"), None),
        "coefficients.log_power_table": (count_pow_table, None),
        "coefficients.root_power_series": (count("coefficients.root_series_builds"), None),
        "coefficients.dec_str": (count("coefficients.dec_str_calls"), None),
        "bang.BangSeries.F_deriv_at_zero": (count("bang.F_deriv_calls"), None),
        "bang.BangSeries.deriv_term": (count("bang.head_terms"), None),
        "reporting.RunReport.to_json": (None, count_bytes),
        "reporting.check_to_csv": (None, count_bytes),
    })
    return hooks


#: functions whose inclusive time is a metric of its own
_TIMED = {
    "intervals.mpf_str": "intervals.mpf_str_s",
    "coefficients.dec_str": "coefficients.dec_str_s",
}


def _wrap(tracer: Tracer, layer: str, key: str, fn, hooks: dict):
    before, after = hooks.get(key, (None, None))
    timer = _TIMED.get(key)
    timers = tracer.timers
    if inspect.isgeneratorfunction(fn) or _is_context_factory(fn):
        # the call only builds a generator or a context manager, so a span
        # around it would time nothing: count it and leave the time to the
        # caller
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            return fn(*args, **kwargs)

        return counted

    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = exit_()
            if timer is not None:
                timers[timer] += duration
        if after is not None:
            after(result)
        return result

    return traced


def _is_context_factory(fn) -> bool:
    inner = getattr(fn, "__wrapped__", None)
    return inner is not None and inspect.isgeneratorfunction(inner)


def _wanted(layer: str, qualname: str) -> bool:
    name = qualname.rsplit(".", 1)[-1]
    return (
        not name.startswith("_")
        or name in _DUNDERS
        or f"{layer}.{qualname}" in _PRIVATE
    )


def install(tracer: Tracer):
    """Wrap every layer of an imported package; return the undo function.

    The undo function puts every replaced attribute back, in reverse order,
    so the package ends exactly as it was before the call.
    """
    modules = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}
    hooks = _hooks(tracer, modules)
    undo: list[tuple[object, str, object, bool]] = []
    wrapped: dict[int, tuple[object, object]] = {}

    def patch(target, name, value, is_item=False):
        # vars(), not getattr(): a class must get back its classmethod and
        # property objects, not the bound values they produce
        old = target[name] if is_item else vars(target)[name]
        undo.append((target, name, old, is_item))
        if is_item:
            target[name] = value
        else:
            setattr(target, name, value)

    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if isinstance(obj, type):
                if obj.__module__ == mod.__name__:
                    _wrap_class(tracer, layer, obj, hooks, patch)
            elif (
                callable(obj)
                and getattr(obj, "__module__", None) == mod.__name__
                and _wanted(layer, name)
            ):
                wrapper = _wrap(tracer, layer, f"{layer}.{name}", obj, hooks)
                wrapped[id(obj)] = (obj, wrapper)

    # rebind the module attribute, every `from .x import name` copy and
    # every registry dict entry (the CLI's handler table) to the wrapper
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for name, value in list(vars(mod).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                patch(mod, name, hit[1])
            elif type(value) is dict:
                for key, item in list(value.items()):
                    hit = wrapped.get(id(item))
                    if hit is not None and hit[0] is item:
                        patch(value, key, hit[1], is_item=True)

    def uninstall() -> None:
        while undo:
            target, name, old, is_item = undo.pop()
            if is_item:
                target[name] = old
            else:
                setattr(target, name, old)

    return uninstall


def _wrap_class(tracer: Tracer, layer: str, cls: type, hooks: dict, patch) -> None:
    for name, member in list(vars(cls).items()):
        qualname = f"{cls.__name__}.{name}"
        if not _wanted(layer, qualname):
            continue
        key = f"{layer}.{qualname}"
        if isinstance(member, types.FunctionType):
            patch(cls, name, _wrap(tracer, layer, key, member, hooks))
        elif isinstance(member, (classmethod, staticmethod)):
            inner = _wrap(tracer, layer, key, member.__func__, hooks)
            patch(cls, name, type(member)(inner))
        elif isinstance(member, property) and member.fget is not None:
            getter = _wrap(tracer, layer, key, member.fget, hooks)
            patch(cls, name, property(getter, member.fset, member.fdel, member.__doc__))
