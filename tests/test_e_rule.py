"""The e-side rule has one home, and it decides against e itself.

The rule: a comparison with a power of e is confirmed against the lower
rational side ``E_LO`` of e, refuted against the upper side ``E_UP``, and
printed with its ``E_LO`` ceiling.  Only ``coefficients`` may name a side
of e, and inside it only the statements that apply the rule.
:func:`coefficients.exact_row` is checked against e computed at 600 bits.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp

from carleman import coefficients as co
from carleman.outcomes import Outcome, worst_outcome

SRC = Path(__file__).resolve().parents[1] / "src" / "carleman"

E_NAMES = {"E_LO", "E_UP", "e_lo_pow", "e_up_pow"}

#: the top-level statements of ``coefficients`` that may name a side of e
E_HOME = {"_e_enclosure", "E_LO, E_UP = _e_enclosure()", "e_lo_pow", "e_up_pow",
          "leq_with_e_power", "exact_row", "e_times"}


def _named(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def _e_scopes(path: Path):
    """(module, top-level statement) for every statement naming a side of e:
    a definition by its name, anything else by its first source line."""
    for stmt in ast.parse(path.read_text()).body:
        if any(_named(node) in E_NAMES for node in ast.walk(stmt)):
            name = getattr(stmt, "name", None) or ast.unparse(stmt).splitlines()[0]
            yield path.stem, name


def test_only_coefficients_names_a_side_of_e():
    found = {scope for path in sorted(SRC.glob("*.py")) for scope in _e_scopes(path)}
    assert found - {("coefficients", name) for name in E_HOME} == set()


def test_a_rebound_side_of_e_is_read_at_once():
    # 8 <= e^3 is confirmed against E_LO; with E_LO = 1 only E_UP is left,
    # and 8 lies under E_UP^3 without being confirmed
    lhs, m = Fraction(8), 3
    assert co.leq_with_e_power(lhs, 1, m, co.e_lo_pow(m)) is Outcome.CONFIRMED
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(co, "E_LO", Fraction(1))
        assert co.leq_with_e_power(lhs, 1, m, co.e_lo_pow(m)) is Outcome.INCONCLUSIVE
        assert co.exact_row((m,), "8 vs e^3", lhs, 1, m).outcome is Outcome.INCONCLUSIVE
    assert co.leq_with_e_power(lhs, 1, m, co.e_lo_pow(m)) is Outcome.CONFIRMED


def _e_bounds(bits: int = 600) -> tuple[Fraction, Fraction]:
    """Rationals below and above e from mpmath's e at ``bits`` bits, which
    is within one unit in the last place of e."""
    saved = mp.prec
    with mp.workprec(bits):
        man, exp = mp.e.man_exp
    assert mp.prec == saved
    x, ulp = Fraction(man) * Fraction(2) ** exp, Fraction(2) ** (exp + 2)
    return x - ulp, x + ulp


E_LO_600, E_UP_600 = _e_bounds()


@st.composite
def _cases(draw):
    """(lhs, coeff, m): lhs is a point of the gap between the E_LO and the
    E_UP ceilings of coeff e^m, or a multiple of the E_LO ceiling."""
    m = draw(st.integers(min_value=0, max_value=40))
    coeff = draw(st.fractions(min_value=Fraction(1, 10**6), max_value=10**6,
                              max_denominator=10**6))
    lo, up = coeff * co.E_LO**m, coeff * co.E_UP**m
    lhs = draw(st.one_of(
        st.fractions(min_value=0, max_value=1).map(lambda t: lo + t * (up - lo)),
        st.fractions(min_value=0, max_value=4).map(lambda s: s * lo),
    ))
    return lhs, coeff, m


@settings(max_examples=300, deadline=None)
@given(case=_cases(), also=st.lists(st.sampled_from(list(Outcome)), max_size=2))
def test_exact_row_decides_against_true_e(case, also):
    lhs, coeff, m = case
    row = co.exact_row((m,), "lhs vs coeff e^m", lhs, coeff, m)
    # which side of coeff e^m the lhs lies on, decided with e at 600 bits
    below = lhs <= coeff * E_LO_600**m
    above = lhs > coeff * E_UP_600**m
    assume(below or above)
    if row.outcome is Outcome.CONFIRMED:
        assert below
    if row.outcome is Outcome.REFUTED:
        assert above
    in_gap = coeff * co.E_LO**m < lhs <= coeff * co.E_UP**m
    assert (row.outcome is Outcome.INCONCLUSIVE) == in_gap
    assert row.lo == co.dec_str(lhs)
    assert row.hi == co.dec_str(coeff * co.E_LO**m)
    linked = co.exact_row((m,), "lhs vs coeff e^m", lhs, coeff, m, also=also)
    assert linked.outcome is worst_outcome([*also, row.outcome])
