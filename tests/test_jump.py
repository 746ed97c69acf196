"""The closed-form Case 3 and Case 6 forcing verdicts, and the series
calculus of ``series_oracle`` they are checked against."""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import BOUNDARY_4A, exemplar
from series_oracle import LeadingSeries, case6_period_derivative, \
    series_determinant
from squaretiled.errors import InvariantViolation
from squaretiled.jump import ForcingVerdict, case3_verdict, \
    case6_moduli_forcing
from squaretiled.pipeline import classify_surface
from squaretiled.surface import parse_origami


def nonzero(rng):
    x = 0
    while x == 0:
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return x


def random_series(rng):
    terms = {rng.randint(-3, 4): Fraction(rng.randint(-5, 5),
                                          rng.randint(1, 4))
             for _ in range(rng.randint(0, 3))}
    order = rng.choice([None, rng.randint(2, 6)])
    return LeadingSeries(terms, order)


def test_series_ring_axioms(rng):
    for _ in range(150):
        a = random_series(rng)
        b = random_series(rng)
        c = random_series(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        left = (a * (b + c)).terms
        right = ((a * b) + (a * c)).terms
        common = set(left) & set(right)
        assert all(left[k] == right[k] for k in common)


def test_series_determinant_two_by_two():
    a = LeadingSeries.monomial(1, 1)
    b = LeadingSeries.monomial(2, 0)
    c = LeadingSeries.monomial(3, 2)
    d = LeadingSeries.monomial(1, -1)
    det = series_determinant([[a, b], [c, d]])
    assert det == a * d - b * c


def test_case6_closed_form_matches_the_series_oracle():
    """The determinant of the period-matrix derivative leads at
    ``s^(2m-3)`` with ``-(r1+r2)·(m·Θ1·Θ2)²`` for random nonzero node
    values; at node values 1 its magnitude is the reported coefficient."""
    rng = random.Random(8899)
    for r1, r2 in itertools.permutations(range(1, 13), 2):
        m = min(r1, r2)
        t1, t2 = nonzero(rng), nonzero(rng)
        det = series_determinant(case6_period_derivative(r1, r2, t1, t2))
        assert det.order > 2 * m - 3
        assert det.leading() == (2 * m - 3, -(r1 + r2) * (m * t1 * t2) ** 2)
        lead = series_determinant(
            case6_period_derivative(r1, r2, 1, 1)).leading()
        v = case6_moduli_forcing(r1, r2)
        assert (v.exponent, v.coefficient) == (lead[0], abs(lead[1]))


def test_case3_known_values():
    v = case3_verdict(1, 2)
    assert (v.verdict, v.branch, v.exponent) == \
        ("Forni impossible", "unequal_exponents", 1)
    assert v.coefficient == -1
    assert case3_verdict(4, 3) == case3_verdict(3, 4)
    v = case3_verdict(1, 1)
    assert (v.branch, v.exponent, v.coefficient) == \
        ("equal_exponents", 2, 2)


def test_exponent_and_zero_coefficient_guards():
    for n1, n2 in ((0, 1), (1, 0), (-1, 2)):
        with pytest.raises(ValueError):
            case3_verdict(n1, n2)
    for zero in (0, Fraction(0)):
        with pytest.raises(InvariantViolation, match="must be nonzero"):
            ForcingVerdict("Forni impossible", "equal_exponents", 2, zero)


def test_case6_known_values():
    v = case6_moduli_forcing(1, 2)
    assert v.verdict == "r1 = r2 forced"
    assert v.exponent == -1
    assert v.coefficient == 3
    v = case6_moduli_forcing(5, 2)
    assert (v.exponent, v.coefficient) == (1, 28)
    assert case6_moduli_forcing(3, 3).verdict == "consistent"


PROVENANCE = "provenance='paper argument, node values assumed nonzero')"


def test_forcing_evidence_is_frozen():
    """The full evidence reprs, provenance included, as the classifier
    prints them."""
    assert repr(case3_verdict(1, 2)) == (
        "ForcingVerdict(verdict='Forni impossible', "
        "branch='unequal_exponents', exponent=1, "
        "coefficient=-1, " + PROVENANCE)
    assert repr(case3_verdict(1, 1)) == (
        "ForcingVerdict(verdict='Forni impossible', "
        "branch='equal_exponents', exponent=2, "
        "coefficient=2, " + PROVENANCE)
    assert repr(case6_moduli_forcing(1, 2)) == (
        "ForcingVerdict(verdict='r1 = r2 forced', "
        "branch='unequal_exponents', exponent=-1, "
        "coefficient=3, " + PROVENANCE)
    records = [r for r in classify_surface(exemplar("Case3")).evidence
               if r.label == "Case3"]
    assert [repr(r) for r in records] == [
        "DirectionRecord(slope=(0, 1), label='Case3', "
        "mechanism='period forcing', "
        "witness=ForcingVerdict(verdict='Forni impossible', "
        "branch='equal_exponents', exponent=2, "
        "coefficient=2, " + PROVENANCE + ")"]
    # the Case 3 exemplar with a second row stacked on one connecting
    # cylinder: the two connecting exponents differ
    o = parse_origami('origami n=10 h="(0 6 5)(2 3 4)(7 8 9)" '
                      'v="(0 7 2 5 9 4)(1 3 6 8)"')
    assert repr(classify_surface(o).evidence[0]) == (
        "DirectionRecord(slope=(0, 1), label='Case3', "
        "mechanism='period forcing', "
        "witness=ForcingVerdict(verdict='Forni impossible', "
        "branch='unequal_exponents', exponent=1, "
        "coefficient=-1, " + PROVENANCE + ")")
    # the reference diagram with cylinder heights 1 and 2
    o = parse_origami('origami n=12 h="(0 1 2 3)(4 7 6 5)(8 9 10 11)" '
                      'v="(0 4 8 2 6 10)(1 5 11 3 7 9)"')
    chain = classify_surface(o).evidence[0].witness
    assert repr(chain.forcing) == (
        "ForcingVerdict(verdict='r1 = r2 forced', "
        "branch='unequal_exponents', exponent=-1, "
        "coefficient=3, " + PROVENANCE)
    # the Case 4A boundary branch on an origami
    verdict = classify_surface(parse_origami(BOUNDARY_4A))
    assert verdict.status == "TrivialForni"
    assert [repr(r) for r in verdict.evidence] == [
        "DirectionRecord(slope=(0, 1), label='Case4', "
        "mechanism='transverse crossing cylinder', "
        "witness=TransverseWitness(crossed=(0, 2, 3), width=1, "
        "start_interval=(1, 2), direction=(1, 3), kind='boundary'))"]


def test_case6_guards():
    for r1, r2 in ((0, 2), (2, 0), (-1, -1)):
        with pytest.raises(ValueError):
            case6_moduli_forcing(r1, r2)
