"""Shared fixtures, and the exact-value oracles the tests compare
enclosures against.  Each oracle that rounds takes its precision as an
argument instead of reading mpmath's process-global precision."""

from fractions import Fraction

import pytest
from mpmath import mp

from carleman.intervals import LogReal, SignedEnclosure, iv_endpoints, working_precision
from carleman.sequences import SequenceSpec, WeightSequence


def encloses_fraction(value: LogReal, fr: Fraction, bits: int) -> bool:
    """Certified containment of the exact positive rational ``fr`` in ``value``.

    The reference enclosure of log(fr) is computed at ``bits + 64``, so it
    is negligibly wide next to an enclosure made at ``bits``; a True answer
    proves containment (a False answer near an endpoint can be a sub-ulp
    near-miss, never a false positive).
    """
    with working_precision(bits + 64):
        tight = LogReal.from_fraction(fr)
    return value.log_lo <= tight.log_lo and tight.log_hi <= value.log_hi


def value_endpoints(se: SignedEnclosure, bits: int):
    """Linear-domain (lo, hi) mpf endpoints of a signed enclosure, at ``bits``."""
    if se.sign == 0:
        return mp.mpf(0), mp.mpf(0)
    with working_precision(bits):
        lo, hi = iv_endpoints(se.magnitude.value_iv())
        return (lo, hi) if se.sign > 0 else (-hi, -lo)


def mpf_to_fraction(x) -> Fraction:
    """Exact rational value of a finite mpf (mpfs are dyadic rationals)."""
    sign, man, exp, _ = x._mpf_
    if man == 0 and exp != 0:
        raise ValueError("mpf is not finite")
    fr = Fraction(int(man)) * Fraction(2) ** exp
    return -fr if sign else fr


#: spec documents whose misspelt or undeclared keys must not be dropped
#: silently: top-level keys, family parameters, and both inside a nested base
UNKNOWN_KEY_DOCUMENTS = (
    {"family": "gevrey", "params": {"s": "1", "sigma": 3}, "precisoin": 5},
    {"family": "gevrey", "params": {"s": "1"}, "precisoin": 5},
    {"family": "gevrey", "params": {"s": "1", "sigma": 3}},
    {"family": "transformed",
     "params": {"p": 2, "base": {"family": "constant", "precisoin": 5}}},
    {"family": "transformed",
     "params": {"p": 2, "base": {"family": "gevrey", "params": {"s": "1", "sigma": 3}}}},
)

#: falsy ``params`` values that are not an object: each is malformed, never
#: "no parameters"
FALSY_PARAMS_DOCUMENTS = tuple(
    {"family": "constant", "params": value} for value in (False, 0, "", [], None)
)


@pytest.fixture(scope="session")
def constant_spec():
    return SequenceSpec(family="constant")


@pytest.fixture(scope="session")
def gevrey1_spec():
    return SequenceSpec(family="gevrey", s=Fraction(1))


@pytest.fixture(scope="session")
def paper8_spec():
    return SequenceSpec(family="paper8")


@pytest.fixture(scope="session")
def constant_ws(constant_spec):
    return WeightSequence(constant_spec)


@pytest.fixture(scope="session")
def gevrey1_ws(gevrey1_spec):
    return WeightSequence(gevrey1_spec)


@pytest.fixture(scope="session")
def paper8_ws(paper8_spec):
    return WeightSequence(paper8_spec)
