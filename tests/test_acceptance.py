"""End-to-end acceptance gate: the eight headline guarantees with their
runtime budgets, checked in exact rational arithmetic."""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import (
    H4_LINE,
    decomposition_net,
    l_origami,
    random_case4a_net,
    random_origami,
    scaled_net,
    scaled_witness,
    torus,
    wollmilchsau,
)
from decomposition_oracle import core_curve_class
from interval_oracle import build_interval_map, case4a_window_map, \
    case4a_window_witness
from test_transverse import brute_window_point, total_length, \
    window_feasible_pairs
from squaretiled.cylinders import classify_case, \
    horizontal_decomposition, periodic_decomposition
from squaretiled.homology import homology_basis
from squaretiled.jump import case3_verdict, case6_moduli_forcing
from squaretiled.monodromy import closure_classify, homology_action, \
    restrict_to_zero_holonomy, stabilizer_generators
from squaretiled.pipeline import classify_surface, enumerate_diagrams, \
    reference_surface
from squaretiled.surface import parse_origami, singularity_data
from squaretiled.transverse import WindowConstraint, find_crossing_cylinder


@contextmanager
def budget(seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, "exceeded %ss budget (%.2fs)" % (seconds,
                                                              elapsed)


def test_criterion_1_reference_end_to_end():
    with budget(1):
        o = reference_surface()
        stratum = singularity_data(o)
        assert stratum.kappa == (1, 1, 1, 1)
        assert stratum.genus == 3
        d = horizontal_decomposition(o)
        assert sorted(zip(d.circumferences, d.heights)) == \
            [(4, 1), (4, 1)]
        b = homology_basis(o)
        c1, c2 = (core_curve_class(d, cid, b)
                  for cid in range(len(d.rows)))
        assert list(c1) == list(c2)
        assert classify_case(d.dual_graph) == "Case6"
        verdict = classify_surface(o)
        assert verdict.status == "WollmilchsauEquivalent"
        constraint = verdict.evidence[0].witness
        assert constraint == WindowConstraint(1, 1, 0, 4)
        assert constraint.violated == ()
        assert verdict.evidence[-1].witness.matrix == ((1, 0), (0, 1))
        q = Fraction(1, 4)
        assert tuple(Fraction(x, constraint.w) for x in (
            constraint.t0, constraint.s0, constraint.t_start)) == \
            (q, q, Fraction(0))


def test_criterion_2_diagram_uniqueness():
    with budget(10):
        assert len(enumerate_diagrams((1, 1), "one_cylinder")) == 1
        assert len(enumerate_diagrams((2,), "one_cylinder")) == 1
        assert len(enumerate_diagrams((1, 1, 1, 1), "case6")) == 1


def test_criterion_3_randomized_crossing_cylinders():
    """Random Case 4A nets scaled to whole units, each witness checked
    against the rational interval-map oracle."""
    with budget(30):
        rng = random.Random(4242)
        for _ in range(200):
            small = random_case4a_net(rng)
            net = scaled_net(small, 16)
            witness = find_crossing_cylinder(net, "Case4")
            assert witness is not None
            assert len(set(witness.crossed)) == 3
            f, s = case4a_window_map(net)
            a, b = witness.start_interval
            assert 0 <= a < b <= s
            # the hit sits inside one continuity piece, so the whole
            # interval maps into the target window by a single translation
            pa, pb, off = f.piece_at(a)
            assert b <= pb
            assert 0 <= (a + off) % f.length
            assert (a + off) % f.length + (b - a) <= s or \
                witness.kind == "boundary"
            assert brute_window_point(net), \
                "independent direction scan must confirm the witness"
            assert witness == \
                scaled_witness(case4a_window_witness(small), 16)


def test_criterion_4_case6_forcing_randomized():
    """Exact verdicts for every exponent pair ``1 <= r1, r2 <= 5``; random
    nonzero node values are checked against the series oracle in
    ``test_jump``."""
    with budget(5):
        for r1, r2 in itertools.product(range(1, 6), repeat=2):
            v = case6_moduli_forcing(r1, r2)
            m = min(r1, r2)
            assert (v.verdict, v.branch, v.exponent, v.coefficient) == (
                ("consistent", "equal_exponents", None, None) if r1 == r2
                else ("r1 = r2 forced", "unequal_exponents", 2 * m - 3,
                      (r1 + r2) * m * m))


def test_criterion_5_case3_forcing_randomized():
    """Exact verdicts for every exponent pair ``1 <= n1, n2 <= 4``."""
    with budget(5):
        for n1, n2 in itertools.product(range(1, 5), repeat=2):
            v = case3_verdict(n1, n2)
            assert (v.verdict, v.branch, v.exponent, v.coefficient) == (
                ("Forni impossible", "equal_exponents", 2 * n1, 2)
                if n1 == n2 else
                ("Forni impossible", "unequal_exponents", min(n1, n2), -1))


def test_criterion_6_window_uniqueness():
    with budget(5):
        q = Fraction(1, 4)
        assert window_feasible_pairs(100) == [(q, q)]
        # t0 = 1/3 and s0 = 1/4 of a circumference of 12
        rec = WindowConstraint(4, 3, 0, 12)
        assert rec.violated
        assert type(rec.slack) is int
        assert Fraction(rec.slack, 12) == Fraction(-1, 6)


def test_criterion_7_monodromy_evidence():
    """The exact generators of the reference's affine group are ``T`` and
    ``S``, and their restricted closure is finite of order 96; the H(4)
    surface's eleven generators have an unbounded closure."""
    with budget(60):
        o = wollmilchsau()
        b = homology_basis(o)
        gens = stabilizer_generators(o)
        assert gens == [("T",), ("S",)]
        mats = [homology_action(o, g, b) for g in gens]  # asserts symplectic
        restricted = list(restrict_to_zero_holonomy(mats, b))
        assert len(restricted) == 2
        result = closure_classify(restricted)
        assert result.is_finite and result.order == 96

        h4 = parse_origami(H4_LINE)
        b = homology_basis(h4)
        gens = stabilizer_generators(h4)
        assert len(gens) == 11
        restricted = restrict_to_zero_holonomy(
            [homology_action(h4, g, b) for g in gens], b)
        assert closure_classify(restricted).status == "Unbounded"

        unipotent = homology_action(torus(), ("T",),
                                    homology_basis(torus()))
        assert closure_classify([unipotent]).status == "Unbounded"


def test_criterion_8_structural_suites():
    with budget(60):
        rng = random.Random(5151)
        corpus = [torus(), l_origami(), wollmilchsau()]
        corpus += [random_origami(rng) for _ in range(50)]
        maps_checked = 0
        for o in corpus:
            d = horizontal_decomposition(o)
            net = decomposition_net(d)
            for i, bottom in enumerate(d.diagram.bottom_words):
                for j, top in enumerate(d.diagram.top_words):
                    if set(bottom) != set(top):
                        continue
                    f = build_interval_map(d, ("bottom", i), ("top", j))
                    assert total_length(f.image_intervals()) == \
                        d.circumferences[i]
                    assert f.pieces == build_interval_map(
                        net, ("bottom", i), ("top", j)).pieces
                    maps_checked += 1
            for slope in ((0, 1), (1, 0), (1, 1)):
                dp = periodic_decomposition(o, slope)
                assert sum(w * h for w, h in zip(dp.circumferences,
                                                 dp.heights)) == o.n
        assert maps_checked > 0
