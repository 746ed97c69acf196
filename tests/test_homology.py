"""Integer homology: ranks, the intersection pairing, holonomy, dual
graphs, and the transport of chains through shears and rotations."""

import pytest

import homology_oracle
from action_oracle import word_matrix
from conftest import H4_LINE, SIX_SQUARES, exemplar, l_origami, torus, \
    wollmilchsau, random_origami
from decomposition_oracle import core_curve_class, core_span_rank
from fraction_oracle import det_rational
from squaretiled.cylinders import horizontal_decomposition
from squaretiled.errors import InvariantViolation
from squaretiled.homology import (
    HomologyBasis,
    homology_basis,
    transport_chains,
)
from squaretiled.intlinalg import identity_matrix, mat_mul
from squaretiled.monodromy import closure_classify, homology_action, \
    orbit_graph, restrict_to_zero_holonomy
from squaretiled.surface import Origami, act_sl2z, origami_isomorphism, \
    parse_origami, singularity_data
from test_pipeline import CASE5_SEVEN

LETTERS = ("T", "T^-1", "S")


def pair_chains(basis, x, y):
    """Algebraic intersection number of two cycles given as chains: their
    coordinates on ``basis`` paired by ``basis.omega``."""
    cy = basis.coords(y)
    return sum(a * w * b for a, row in zip(basis.coords(x), basis.omega)
               for w, b in zip(row, cy))


def test_rank_is_twice_genus():
    for o in (torus(), l_origami(), wollmilchsau()):
        basis = homology_basis(o)
        assert basis.rank == 2 * singularity_data(o).genus


def test_torus_intersection_number():
    b = homology_basis(torus())
    assert pair_chains(b, [1, 0], [0, 1]) == 1
    assert pair_chains(b, [0, 1], [1, 0]) == -1
    # the Gram matrix gives the same number in homology coordinates
    h = b.coords([1, 0])
    v = b.coords([0, 1])
    assert sum(h[i] * b.omega[i][j] * v[j]
               for i in range(b.rank) for j in range(b.rank)) == 1


def test_pairing_is_antisymmetric_and_unimodular(rng):
    for _ in range(10):
        o = random_origami(rng)
        b = homology_basis(o)
        omega = b.omega
        n = b.rank
        for i in range(n):
            for j in range(n):
                assert omega[i][j] == -omega[j][i]
        # a symplectic form on the full lattice has determinant one
        assert abs(det_rational(omega)) == 1


def test_holonomy_covectors_on_core_curves():
    o = wollmilchsau()
    b = homology_basis(o)
    hx, hy = b.holonomy_covectors()
    d = horizontal_decomposition(o)
    for cid, c in enumerate(d.cylinders):
        cls = core_curve_class(d, cid, b)
        assert sum(x * y for x, y in zip(hx, cls)) == c.circumference
        assert sum(x * y for x, y in zip(hy, cls)) == 0


def test_wollmilchsau_core_curves_homologous():
    o = wollmilchsau()
    b = homology_basis(o)
    d = horizontal_decomposition(o)
    c1, c2 = (core_curve_class(d, cid, b) for cid in range(len(d.cylinders)))
    assert list(c1) == list(c2)


def test_dual_graph_shapes():
    g = horizontal_decomposition(wollmilchsau()).dual_graph
    assert sorted(g.genera) == [1, 1]
    assert len(g.edges) == 2
    assert sum(g.genera) == 2
    assert g.genus == 3
    g1 = horizontal_decomposition(exemplar("Case1")).dual_graph
    assert sum(g1.genera) == 1
    assert g1.genus == 3


def test_core_span_ranks():
    d = horizontal_decomposition(wollmilchsau())
    assert core_span_rank(d) == 1
    d5 = horizontal_decomposition(exemplar("Case5"))
    assert core_span_rank(d5) == 1


def test_letter_action_preserves_intersection(rng):
    """Every letter, and random words, send the basis cycles to cycles on
    the transformed origami whose intersection numbers are ``omega``, read
    in coordinates and by the oracle's balanced chain pairing."""
    for _ in range(12):
        o = random_origami(rng)
        b = homology_basis(o)
        words = [(letter,) for letter in LETTERS]
        words.append([rng.choice(LETTERS) for _ in range(3)])
        for word in words:
            target_o, images = transport_chains(o, word, b.basis_chains)
            assert target_o == act_sl2z(o, word)
            target = HomologyBasis(target_o)
            oracle = homology_oracle.HomologyBasis(target_o)
            for x in images:
                target.coords(x)   # raises unless x is a cycle
            assert [[pair_chains(target, x, y) for y in images]
                    for x in images] == b.omega
            # the balanced chain-level pairing gives the same numbers
            assert [[oracle.pair_chains(x, y) for y in images]
                    for x in images] == b.omega


def test_word_action_composes(rng):
    """Transporting by ``w1 + w2`` is transporting by ``w1`` and then by
    ``w2``, chain for chain."""
    for _ in range(8):
        o = random_origami(rng)
        b = homology_basis(o)
        w1 = [rng.choice(LETTERS) for _ in range(2)]
        w2 = [rng.choice(LETTERS) for _ in range(2)]
        o1, chains1 = transport_chains(o, w1, b.basis_chains)
        assert transport_chains(o1, w2, chains1) == \
            transport_chains(o, w1 + w2, b.basis_chains)


def test_holonomy_transforms_by_word_matrix(rng):
    for _ in range(10):
        o = random_origami(rng)
        b = homology_basis(o)
        word = [rng.choice(LETTERS) for _ in range(3)]
        target_o, images = transport_chains(o, word, b.basis_chains)
        target = HomologyBasis(target_o)
        a = word_matrix(word)
        hx, hy = b.holonomy_covectors()
        tx, ty = target.holonomy_covectors()
        for col, image in enumerate(images):
            img = target.coords(image)
            x0, y0 = hx[col], hy[col]
            x1 = sum(p * q for p, q in zip(tx, img))
            y1 = sum(p * q for p, q in zip(ty, img))
            assert (x1, y1) == (a[0][0] * x0 + a[0][1] * y0,
                                a[1][0] * x0 + a[1][1] * y0)


def test_relabel_action_identity():
    """The empty word and ``S^4`` return the origami itself, their
    relabelling is the identity, and they act as the identity matrix."""
    o = wollmilchsau()
    b = homology_basis(o)
    ident = identity_matrix(b.rank)
    for word in ((), ("S",) * 4):
        assert origami_isomorphism(act_sl2z(o, word), o) == \
            tuple(range(o.n))
        assert homology_action(o, word, b) == ident


def test_chain_that_is_not_a_cycle_raises():
    """A single edge whose two corners lie in different vertex classes has
    a nonzero boundary, so it has no homology coordinates."""
    o = wollmilchsau()
    b = homology_basis(o)
    classes = {sq: k for k, orbit in enumerate(o.vertex_orbits())
               for sq in orbit}
    assert classes[0] != classes[o.h[0]]
    h_0 = [1] + [0] * (2 * o.n - 1)
    with pytest.raises(InvariantViolation, match="chain is not a cycle"):
        b.coords(h_0)


def test_disconnected_complex_raises():
    """Two tori side by side, built without the transitivity check of
    ``build_origami``, are no connected surface."""
    with pytest.raises(InvariantViolation,
                       match="complex must be connected"):
        HomologyBasis(Origami((0, 1), (0, 1)))


def _transition(old, new):
    """The oracle's coordinates of the new basis chains, as columns."""
    return [list(row) for row in zip(*map(old.coords, new.basis_chains))]


def _apply(p, x):
    """The matrix ``p`` applied to the vector ``x``."""
    return [sum(a * b for a, b in zip(row, x, strict=True)) for row in p]


def _closure(o, basis, words):
    return closure_classify(restrict_to_zero_holonomy(
        (homology_action(o, word, basis) for word in words), basis))


def test_smith_form_basis_matches_the_spanning_tree_oracle(rng):
    """The Smith-form basis and the spanning-tree oracle's basis differ by
    one unimodular transition matrix ``P`` that carries the oracle's form
    to the new one, coordinates transform by ``P`` (also on chains pushed
    through random words), every orbit-graph generator's action is
    conjugated by ``P``, and the closure decision is the same."""
    named = [parse_origami(line) for line in
             (str(wollmilchsau()), H4_LINE, SIX_SQUARES, CASE5_SEVEN)]
    surfaces = named + [torus(), l_origami()]
    while len(surfaces) < 106:
        o = random_origami(rng)
        if singularity_data(o).genus <= 4:
            surfaces.append(o)
    for genus in (5, 6) * 3:
        o = random_origami(rng, 12)
        while singularity_data(o).genus != genus:
            o = random_origami(rng, 12)
        surfaces.append(o)
    assert {singularity_data(o).genus for o in surfaces} == \
        {1, 2, 3, 4, 5, 6}
    for o in surfaces:
        old, new = homology_oracle.HomologyBasis(o), HomologyBasis(o)
        p = _transition(old, new)
        assert abs(det_rational(p)) == 1
        assert mat_mul(list(zip(*p)), mat_mul(old.omega, p)) == new.omega
        word = [rng.choice(LETTERS) for _ in range(3)]
        target, chains = transport_chains(
            o, word, new.basis_chains + old.basis_chains)
        old_t = homology_oracle.HomologyBasis(target)
        new_t = HomologyBasis(target)
        p_t = _transition(old_t, new_t)
        for z in chains:
            assert old_t.coords(z) == _apply(p_t, new_t.coords(z))
    for o in named:
        old, new = homology_oracle.HomologyBasis(o), HomologyBasis(o)
        p = _transition(old, new)
        words = orbit_graph(o).generators
        for word in words:
            assert mat_mul(p, homology_action(o, word, new)) == \
                mat_mul(homology_action(o, word, old), p), word
        assert _closure(o, old, words) == _closure(o, new, words)
