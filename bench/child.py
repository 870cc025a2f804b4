"""One cold carleman invocation, timed from inside the process.

Usage::

    python3 bench/child.py RESULT_JSON SPAWN_T TRACE -- CLI_ARGS...

``SPAWN_T`` is the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide on Linux).  ``TRACE`` is ``1`` for a traced
invocation.  The package is imported from ``src/`` next to this directory.

The child runs ``carleman.cli.main(CLI_ARGS)`` and writes a JSON result:

* ``setup_s``: spawn to the handler call, plus the time spent loading spec
  documents (interpreter start, ``import carleman`` with mpmath, argument
  parsing and spec loading);
* ``run_s``: the handler call to the return of ``main`` (the last report is
  written by then), minus the spec loading time;
* ``exit_code``: the return value of ``main``;
* ``trace``: per-layer self times and counters, for a traced invocation.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _marking(fn, marks: dict):
    @functools.wraps(fn)
    def handler(*args, **kwargs):
        marks.setdefault("first_check", time.monotonic())
        return fn(*args, **kwargs)

    return handler


def _timing_load(fn, marks: dict):
    @functools.wraps(fn)
    def load(*args, **kwargs):
        t0 = time.monotonic()
        try:
            return fn(*args, **kwargs)
        finally:
            marks["load_s"] += time.monotonic() - t0

    return load


def main(argv: list[str]) -> int:
    result_path, spawn_t, trace_flag, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: child.py RESULT SPAWN_T TRACE -- CLI_ARGS...")
    sys.path.insert(0, str(SRC))
    tracer = None
    if trace_flag == "1":
        # mpmath is imported before the import spans are hooked in, so the
        # layers' self times cover carleman code only
        import mpmath  # noqa: F401

        from tracing import ImportSpans, Tracer, install

        tracer = Tracer()
        finder = ImportSpans(tracer)
        sys.meta_path.insert(0, finder)
        from carleman import cli

        sys.meta_path.remove(finder)
        install(tracer)
    else:
        from carleman import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"imported carleman from {cli.__file__}, not from {SRC}")

    marks = {"load_s": 0.0}
    for name, handler in list(cli._HANDLERS.items()):
        cli._HANDLERS[name] = _marking(handler, marks)
    cli._load = _timing_load(cli._load, marks)

    exit_code = cli.main(cli_args)
    end = time.monotonic()
    if "first_check" not in marks:
        raise SystemExit(f"carleman exited {exit_code} before running a check")
    first = marks["first_check"]
    result = {
        "setup_s": first - float(spawn_t) + marks["load_s"],
        "run_s": end - first - marks["load_s"],
        "exit_code": exit_code,
    }
    if tracer is not None:
        if tracer.open_spans:
            raise SystemExit(f"{tracer.open_spans} spans left open")
        result["trace"] = tracer.as_dict()
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
