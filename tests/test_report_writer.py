"""The report writer against its twin, ``json.dumps(doc, indent=2,
sort_keys=True)`` and a newline.

* every document that ``test_report_bytes`` pins, byte for byte, from the
  run's ``as_dict`` and from the parsed document;
* nested values from a derandomized Hypothesis strategy: non-ASCII text,
  control characters, quotes and backslashes, big and negative ints,
  bools, ``None``, floats, empty and nested dicts, lists and tuples;
* the values the twin rejects, which the writer rejects too;
* the ``tracemalloc`` peak of writing the ``ckn --k-max 24 --n-max 48``
  document, which must stay at most 0.6 of the twin's: the writer joins
  each check and each evidence row on its own instead of keeping every
  small chunk of the document alive until one final join.
"""

import json
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carleman.cli import main
from carleman.reporting import RunReport, _write_json
from test_report_bytes import RUNS, _spec_files


def _twin(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


def _written(value) -> str:
    out: list[str] = []
    _write_json(value, "\n", out)
    return "".join(out)


def _run_of(argv, tmp_path, monkeypatch) -> tuple[RunReport, str]:
    """Run the command ``argv`` in ``tmp_path`` and return its run report and
    the document ``to_json`` gave for it."""
    monkeypatch.chdir(tmp_path)
    _spec_files(tmp_path)
    seen = []
    to_json = RunReport.to_json

    def recording(run):
        seen.append((run, to_json(run)))
        return seen[-1][1]

    with monkeypatch.context() as patch:
        patch.setattr(RunReport, "to_json", recording)
        main(argv + ["--out", "json"])
    (result,) = seen
    return result


@pytest.mark.parametrize("name", sorted(RUNS))
def test_every_pinned_document_equals_the_twin(name, tmp_path, monkeypatch):
    run, document = _run_of(RUNS[name][0], tmp_path, monkeypatch)
    assert document == _twin(run.as_dict()) + "\n"
    # so any JSON tool can re-derive the bytes from the parsed document
    assert document == _twin(json.loads(document)) + "\n"


#: text with every kind of character the escapes treat apart
TEXT = st.text(st.one_of(
    st.characters(),
    st.sampled_from('"\\/\x00\x08\x1f\x7f\t\n\r\u00e9\u2028\U0001f600'),
))
SCALARS = st.one_of(
    TEXT,
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    st.booleans(),
    st.none(),
    st.floats(),
)
VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(TEXT, children, max_size=5),
        # the twin turns non-string keys into their JSON text after sorting
        st.dictionaries(st.one_of(st.integers(), st.floats(), st.booleans()), children,
                        max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(VALUES)
@example({"b": 1, "a": [{"\u00e9": "\u2028"}, ()], "": {}})
@example([-(2**200), 2**200, 0.1, float("nan"), float("-inf"), True, None, ""])
def test_nested_values_equal_the_twin(value):
    assert _written(value) == _twin(value)


@pytest.mark.parametrize("value", [
    [object()],
    {"a": {1j: 0}},
    {(1, 2): 0},
    {1: 0, "a": 1},
], ids=["object", "complex-key", "tuple-key", "mixed-keys"])
def test_what_the_twin_rejects_is_rejected(value):
    with pytest.raises(TypeError):
        _twin(value)
    with pytest.raises(TypeError):
        _written(value)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_writer_peak_is_at_most_six_tenths_of_the_twin(tmp_path, monkeypatch):
    run, _ = _run_of(["ckn", "--k-max", "24", "--n-max", "48"], tmp_path, monkeypatch)
    writer = _traced_peak(run.to_json)
    twin = _traced_peak(lambda: _twin(run.as_dict()) + "\n")
    assert writer <= 0.6 * twin, (writer, twin)
