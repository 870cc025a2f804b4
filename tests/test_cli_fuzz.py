"""The exit-code contract under generated input, in-process.

:func:`carleman.cli.main` runs on generated spec documents: every family,
nested ``transformed`` chains, extreme and malformed literals, JSON values
of the wrong type, count flags in range and past their caps, and
``thm61 --A`` literals.  Whatever the input:

* the exit code is one of the contract's 0, 1, 2 and 3;
* exit 1 comes only with a refuted check in the document;
* no traceback reaches stderr, and no exception escapes ``main``.

The run is derandomized, ``--n-max`` is at most 3, each example has a
deadline, and no example starts a thread or a process.  A flag that sets the
depth of a sweep is fuzzed in range and past its cap only: at the cap it is
admitted, and runs a sweep that deep.
"""

import io
import json
import subprocess
import threading
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from carleman.cli import MAX_DEPTH, main
from carleman.sequences import DEFAULT_MAX_INDEX, MAX_LITERAL_DIGITS, MAX_PRECISION
from conftest import PARSER_LIMIT_DOCUMENTS, nested_chain

#: decimal and rational literals at and past the caps of the literal grammar
EXTREME_LITERALS = (
    "0", "1", "-1", "1/2", "0.001", "1e1000", "1e-1000", "1e1001", "1e-99999", "1e999999999",
    "1" * MAX_LITERAL_DIGITS, "1" * (MAX_LITERAL_DIGITS + 1), "1/0", "3/1e5", "nan", "inf",
    "", "x", "1_0", " 2 ", "1e+0_1",
)


def mostly(good, bad):
    """``good`` 15 times in 16, else ``bad``: a run draws several such
    choices, and only one with every choice good gets past the parser."""
    return st.integers(0, 15).flatmap(lambda i: bad if i == 15 else good)


literals = st.one_of(
    st.sampled_from(EXTREME_LITERALS),
    st.fractions(min_value=-2, max_value=5, max_denominator=50).map(str),
    st.text(alphabet="0123456789eE+-./_ x", max_size=8),
)
wrong_types = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.text(max_size=3), st.just([]), st.just({}), st.just([1]),
)
#: a bad integer parameter (iterated_log k, transformed p) or field
bad_ints = st.one_of(st.integers(-1, 1), wrong_types)
positive = st.fractions(min_value=0, max_value=5, max_denominator=20).filter(bool)
#: non-decreasing log values from log M_0 = 0, maybe ending in a huge one
tables = st.tuples(st.lists(positive, max_size=4), st.sampled_from([[], ["1e1000"]])).map(
    lambda t: ["0", *(str(sum(t[0][: i + 1])) for i in range(len(t[0]))), *t[1]])


def _family(name: str, **params):
    """Documents of family ``name`` with the generated ``params``, and
    optionally a precision and a version."""
    return st.fixed_dictionaries(
        {"family": st.just(name), "params": st.fixed_dictionaries(params)},
        optional={"precision": mostly(st.integers(1, 25), st.one_of(
                      st.sampled_from([0, MAX_PRECISION + 1]), wrong_types)),
                  "version": mostly(st.just(1), bad_ints)},
    )


gevrey_s = st.one_of(positive.map(str),
                     st.sampled_from(["1e-1000", "1e1000", "0.001", "1" * MAX_LITERAL_DIGITS]))
leaves = st.one_of(
    _family("constant"),
    _family("paper8"),
    _family("gevrey", s=mostly(gevrey_s, st.one_of(literals, wrong_types))),
    _family("iterated_log", k=mostly(st.integers(1, 3), bad_ints)),
    _family("table", log_values=mostly(tables, st.one_of(st.lists(literals, max_size=4),
                                                         wrong_types))),
)
malformed = st.one_of(
    st.sampled_from([nested_chain(150), *sorted(PARSER_LIMIT_DOCUMENTS.values()), "{not json"]),
    st.one_of(wrong_types, st.sampled_from([
        {"family": "wat"}, {"family": ["gevrey"]}, {"family": "constant", "params": [1]},
        {"family": "constant", "precisoin": 5},
    ])).map(json.dumps),
)
documents = mostly(
    st.recursive(leaves, lambda base: _family("transformed", base=base,
                                              p=mostly(st.integers(2, 3), bad_ints)),
                 max_leaves=3).map(json.dumps),
    malformed,
)

#: the count flags of every command, each with its in-range values, its cap,
#: and whether the cap itself is cheap enough to run: a flag that sets the
#: depth of a sweep runs that deep at its cap, and bang's head sums take
#: seconds at 1000 digits
_COMMON = {"--n-max": (st.integers(1, 3), DEFAULT_MAX_INDEX - 1, False),
           "--precision": (st.integers(1, 25), MAX_PRECISION, True)}
COMMANDS = {
    "seq-show": _COMMON,
    "seq-check": _COMMON,
    "seq-compare": _COMMON,
    "seq-transform": {**_COMMON, "--p": (st.integers(1, 4), MAX_DEPTH, True)},
    "bang": {**_COMMON, "--precision": (st.integers(1, 25), MAX_PRECISION, False),
             "--deriv-n-max": (st.integers(1, 2), MAX_DEPTH, False),
             "--sharpness-n-max": (st.integers(1, 2), MAX_DEPTH, False)},
    "thm61": {**_COMMON, "--p": (st.integers(2, 4), MAX_DEPTH, True),
              "--assembly-n-max": (st.integers(1, 3), MAX_DEPTH, False)},
}


def _flag_values(in_range, cap: int, run_cap: bool):
    past = st.sampled_from([str(cap + 1), "100000000", "0", "-1", "1.5", "x", ""])
    return mostly(in_range.map(str), st.one_of(past, *([st.just(str(cap))] if run_cap else [])))


@st.composite
def invocations(draw):
    """(argv with ``{spec}`` and ``{other}`` for the document paths, spec
    text, other text).  --n-max is always given: its defaults reach 40."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command, "--spec", "{spec}"] + (["--other", "{other}"] * (command == "seq-compare"))
    for flag, (in_range, cap, run_cap) in COMMANDS[command].items():
        if flag == "--n-max" or draw(st.booleans()):
            argv += [flag, draw(_flag_values(in_range, cap, run_cap))]
    if command == "thm61" and draw(st.booleans()):
        argv += ["--A", draw(mostly(positive.map(str), literals))]
    return argv, draw(documents), draw(documents)


def _forbidden(*args, **kwargs):
    raise AssertionError("started a thread or a process")


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


# generation time depends on the machine, so only the run of an example is timed
@settings(max_examples=300, deadline=3000, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(invocation=invocations())
@example(invocation=(["thm61", "--spec", "{spec}", "--n-max", "2", "--A", "1e999999999"],
                     '{"family": "constant"}', ""))
@example(invocation=(["thm61", "--spec", "{spec}", "--n-max", "2", "--A", "1e-99999"],
                     '{"family": "constant"}', ""))
@example(invocation=(["thm61", "--spec", "{spec}", "--n-max", "2", "--A", "1/0"],
                     '{"family": "constant"}', ""))
@example(invocation=(["thm61", "--spec", "{spec}", "--n-max", "2", "--A", "3/1e5"],
                     '{"family": "constant"}', ""))
@example(invocation=(["seq-show", "--spec", "{spec}", "--n-max", "3"],
                     PARSER_LIMIT_DOCUMENTS["precision of 5000 digits"], ""))
@example(invocation=(["bang", "--spec", "{spec}", "--n-max", "2"],
                     PARSER_LIMIT_DOCUMENTS["k of 5000 digits"], ""))
@example(invocation=(["seq-check", "--spec", "{spec}", "--n-max", "2"],
                     PARSER_LIMIT_DOCUMENTS["version of 5000 digits"], ""))
@example(invocation=(["seq-show", "--spec", "{spec}", "--n-max", "3"], nested_chain(150), ""))
@example(invocation=(["bang", "--spec", "{spec}", "--n-max", "2"],
                     PARSER_LIMIT_DOCUMENTS["chain 250 deep"], ""))
@example(invocation=(["seq-show", "--spec", "{spec}", "--n-max", "3"],
                     PARSER_LIMIT_DOCUMENTS["chain 3000 deep"], ""))
def test_any_input_keeps_the_exit_code_contract(spec_dir, invocation):
    argv, spec, other = invocation
    paths = {"spec": spec_dir / "spec.json", "other": spec_dir / "other.json"}
    paths["spec"].write_text(spec)
    paths["other"].write_text(other)
    argv = [str(paths[arg[1:-1]]) if arg in ("{spec}", "{other}") else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(threading.Thread, "start", _forbidden)
        mp.setattr(subprocess, "Popen", _forbidden)
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 1:
        outcomes = [check["verdict"]["outcome"] for check in json.loads(out.getvalue())["checks"]]
        assert "refuted" in outcomes, argv

