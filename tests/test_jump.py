"""Leading-order series arithmetic and the case-specific forcing
verdicts."""

from fractions import Fraction

import pytest

from conftest import exemplar
from squaretiled.errors import ShapeMismatch, ZeroNodeValue
from squaretiled.homology import DualGraph
from squaretiled.jump import (
    LeadingSeries,
    WeightedDualGraph,
    case3_verdict,
    case6_moduli_forcing,
    series_determinant,
)
from squaretiled.pipeline import classify_surface


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


def test_guarded_products():
    symbolic = LeadingSeries(unknown_const=True)
    mono = LeadingSeries.monomial(1, 1)
    with pytest.raises(ValueError):
        symbolic * mono
    assert (symbolic * LeadingSeries.constant(2)).unknown_const


def test_series_determinant_two_by_two():
    a = LeadingSeries.monomial(1, 1)
    b = LeadingSeries.monomial(2, 0)
    c = LeadingSeries.monomial(3, 2)
    d = LeadingSeries.monomial(1, -1)
    det = series_determinant([[a, b], [c, d]])
    assert det == a * d - b * c


def case3_graph(n1, n2):
    graph = DualGraph(((0, 1), (1, 0)),
                      ((0, (0, 1)), (1, (0, 1)), (2, (1, 1))))
    return WeightedDualGraph(graph, {0: n1, 1: n2, 2: 1},
                             {0: 1, 1: 1, 2: 1})


def random_node_values(rng):
    def nz():
        x = 0
        while x == 0:
            x = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        return x
    return {"theta1_p": nz(), "theta1_q": nz(),
            "theta3_0": nz(), "theta3_1": nz()}


def test_case3_known_values():
    v = case3_verdict(case3_graph(1, 2),
                      {"theta1_p": 1, "theta1_q": 1,
                       "theta3_0": 1, "theta3_1": 1})
    assert (v.verdict, v.branch, v.exponent) == \
        ("Forni impossible", "unequal_exponents", 1)
    assert v.coefficient == -1
    v = case3_verdict(case3_graph(1, 1),
                      {"theta1_p": 1, "theta1_q": 1,
                       "theta3_0": 1, "theta3_1": 1})
    assert (v.branch, v.exponent, v.coefficient) == \
        ("equal_exponents", 2, 2)


def test_case3_shape_and_zero_guards():
    bad = WeightedDualGraph(
        DualGraph(((0, 1), (1, 1)), ((0, (0, 1)), (1, (0, 1)))),
        {0: 1, 1: 1}, {0: 1, 1: 1})
    with pytest.raises(ShapeMismatch):
        case3_verdict(bad, {"theta1_p": 1, "theta1_q": 1,
                            "theta3_0": 1, "theta3_1": 1})
    with pytest.raises(ZeroNodeValue):
        case3_verdict(case3_graph(1, 1),
                      {"theta1_p": 0, "theta1_q": 1,
                       "theta3_0": 1, "theta3_1": 1})


def test_case6_known_values():
    v = case6_moduli_forcing(1, 2, {"theta1_p1": 1, "theta2_p2": 1})
    assert v.verdict == "r1 = r2 forced"
    assert v.exponent == -1
    assert v.coefficient == 3
    assert case6_moduli_forcing(3, 3, {"theta1_p1": 1,
                                       "theta2_p2": 1}).verdict == \
        "consistent"


UNIT_CASE3 = {"theta1_p": 1, "theta1_q": 1, "theta3_0": 1, "theta3_1": 1}
UNIT_CASE6 = {"theta1_p1": 1, "theta2_p2": 1}


def test_forcing_evidence_is_frozen():
    """The full evidence reprs, series included, as the classifier has
    always printed them."""
    assert repr(case3_verdict(case3_graph(1, 2), UNIT_CASE3)) == (
        "ForcingVerdict(verdict='Forni impossible', "
        "branch='unequal_exponents', exponent=1, "
        "coefficient=Fraction(-1, 1), "
        "series=LeadingSeries(C + -1*s^1 + O(s^2)))")
    assert repr(case3_verdict(case3_graph(1, 1), UNIT_CASE3)) == (
        "ForcingVerdict(verdict='Forni impossible', "
        "branch='equal_exponents', exponent=2, "
        "coefficient=Fraction(2, 1), "
        "series=LeadingSeries(C + 2*s^2 + O(s^3)))")
    assert repr(case6_moduli_forcing(1, 2, UNIT_CASE6)) == (
        "ForcingVerdict(verdict='r1 = r2 forced', "
        "branch='unequal_exponents', exponent=-1, "
        "coefficient=Fraction(3, 1), "
        "series=LeadingSeries(-3*s^-1 + O(s^0)))")
    records = [r for r in classify_surface(exemplar("Case3")).evidence
               if r.label == "Case3"]
    assert [repr(r) for r in records] == [
        "DirectionRecord(slope=(0, 1), label='Case3', "
        "mechanism='period forcing', "
        "witness=ForcingVerdict(verdict='Forni impossible', "
        "branch='equal_exponents', exponent=2, "
        "coefficient=Fraction(2, 1), "
        "series=LeadingSeries(C + 2*s^2 + O(s^3))))"]


def test_case6_guards():
    with pytest.raises(ZeroNodeValue):
        case6_moduli_forcing(1, 2, {"theta1_p1": 0, "theta2_p2": 1})
    with pytest.raises(ValueError):
        case6_moduli_forcing(0, 2, {"theta1_p1": 1, "theta2_p2": 1})
