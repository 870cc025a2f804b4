"""A family fact has one reader, and a dilation keeps only the facts it
declares.

:func:`sequences.family_fact` is the only place a :class:`Family` fact is
read: no other module of the package names ``FAMILIES``.  A dilation keeps
quasianalyticity, read at the chain's product p, and derivation closure;
it has no M' log-convexity and no Gevrey index.
"""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

from carleman.sequences import FAMILIES, Family, family_fact, load_spec, power_substitute

SRC = Path(__file__).resolve().parents[1] / "src" / "carleman"

SHIPPED = ("constant", "gevrey1", "iterated_log1", "iterated_log2", "paper8")

FACTS = ("quasianalytic", "derivation_closed", "mprime_logconvex", "gevrey_index")

#: the facts a dilation keeps, stated here independently of the package
KEPT = ("quasianalytic", "derivation_closed")


def _names_families(path: Path) -> bool:
    return any(
        (isinstance(node, ast.Name) and node.id == "FAMILIES")
        or (isinstance(node, ast.Attribute) and node.attr == "FAMILIES")
        or (isinstance(node, ast.alias) and node.name == "FAMILIES")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
    )


def test_only_sequences_names_the_family_table():
    assert {path.stem for path in SRC.glob("*.py") if _names_families(path)} == {"sequences"}


def test_every_fact_is_in_the_table():
    evaluation = {"params", "log_M", "label", "last_index"}
    assert {field.name for field in fields(Family)} - evaluation == set(FACTS)


@pytest.mark.parametrize("name", SHIPPED)
def test_a_dilation_keeps_only_its_declared_facts(name):
    spec = load_spec(SRC / "data" / "specs" / f"{name}.json")
    dilated = power_substitute(spec, 2)
    for fact in FACTS:
        rule = getattr(FAMILIES[spec.family], fact)
        assert family_fact(spec, fact) == (None if rule is None else rule(spec, 1))
        kept = rule is not None and fact in KEPT
        assert family_fact(dilated, fact) == (rule(spec, 2) if kept else None)
