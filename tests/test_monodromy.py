"""Affine-group monodromy on homology: the orbit graph and its Schreier
generators, symplectic actions, the zero-holonomy restriction, closure
finiteness, and the core-curve upper bound on the isometric-subspace
dimension."""

import functools
import itertools
import random
from math import gcd

import pytest

import action_oracle
import closure_oracle
import orbit_oracle
import word_oracle
from conftest import H4_LINE, H22_EIGHT, H31_SIX, SIX_SQUARES, \
    classes_of_genus, l_origami, torus, wollmilchsau, random_origami, \
    random_unimodular
from decomposition_oracle import core_span_rank
from fraction_oracle import holonomy_kernel, invert_unimodular
from survivor_oracle import enumerate_slopes, slope_box_bound
from squaretiled import monodromy
from squaretiled.cylinders import classify_case, \
    horizontal_decomposition, periodic_decomposition
from squaretiled.errors import InvariantViolation, NotAStabilizer
from squaretiled.homology import HomologyBasis, homology_basis
from squaretiled.intlinalg import identity_matrix, mat_mul
from squaretiled.monodromy import (
    ForniReport,
    OrbitGraph,
    closure_classify,
    forni_upper_bound,
    homology_action,
    orbit_graph,
    restrict_to_zero_holonomy,
    stabilizer_generators,
)
from squaretiled.pipeline import classify_surface
from squaretiled.surface import act_sl2z, build_origami, canonical_form, \
    origami_isomorphism, parse_origami, singularity_data
from test_pipeline import CASE5_SEVEN


def test_torus_generators_and_actions():
    o = torus()
    gens = stabilizer_generators(o)
    assert gens == [("T",), ("S",)]
    assert [origami_isomorphism(act_sl2z(o, w), o) for w in gens] == \
        [(0,), (0,)]
    b = homology_basis(o)
    assert homology_action(o, gens[0], b) == [[1, 1], [0, 1]]
    assert homology_action(o, gens[1], b) == [[0, -1], [1, 0]]
    assert homology_action(o, ("T^-1",), b) == [[1, -1], [0, 1]]


def test_torus_restriction_is_empty():
    b = homology_basis(torus())
    assert holonomy_kernel(b) == []
    assert list(restrict_to_zero_holonomy([identity_matrix(2)], b)) == []


def test_not_a_stabilizer():
    with pytest.raises(NotAStabilizer):
        homology_action(l_origami(), ("T",), homology_basis(l_origami()))


def test_action_accepts_bare_word():
    o = torus()
    assert homology_action(o, ("T", "T"), homology_basis(o)) == \
        [[1, 2], [0, 1]]


def test_action_is_functorial(rng):
    """Every action preserves the intersection form: the exact generators
    of the reference and the H(4) surface, and the stabilizer words up to
    length 2 of random origamis, whose orbits reach tens of thousands of
    members at 9 squares."""
    surfaces = [(o, stabilizer_generators(o))
                for o in (wollmilchsau(), parse_origami(H4_LINE))]
    for _ in range(5):
        o = random_origami(rng)
        surfaces.append((o, word_oracle.stabilizer_generators(o, 2)))
    for o, gens in surfaces:
        if len(gens) < 2:
            continue
        b = homology_basis(o)
        mats = [homology_action(o, g, b) for g in gens]
        omega = b.omega
        n = b.rank
        for m in mats:
            mt = [[m[i][j] for i in range(n)] for j in range(n)]
            assert mat_mul(mt, mat_mul(omega, m)) == omega


def test_action_matches_the_per_letter_oracle(monkeypatch):
    """Every exact generator of the reference and of the H(4) surface, and
    every stabilizer word up to length 3 of those two and of random
    origamis, gets the matrix of the per-letter oracle, and the chain
    transport builds no homology basis beyond the one it is given."""
    rng = random.Random(1414)
    surfaces = [wollmilchsau(), parse_origami(H4_LINE)]
    surfaces += [random_origami(rng) for _ in range(40)]
    built = []
    init = HomologyBasis.__init__

    def counting_init(self, o):
        built.append(o)
        init(self, o)

    checked = 0
    for index, o in enumerate(surfaces):
        b = homology_basis(o)
        exact = stabilizer_generators(o) if index < 2 else []
        for gen in exact + word_oracle.stabilizer_generators(o, 3):
            expected = action_oracle.homology_action(o, gen, b)
            with monkeypatch.context() as patch:
                patch.setattr(HomologyBasis, "__init__", counting_init)
                assert homology_action(o, gen, b) == expected, (o, gen)
            checked += 1
    assert checked == 160 + 2 + 11 and built == []


def test_zero_holonomy_subspace_is_invariant():
    """The restriction checks invariance for the exact generators of the
    reference and the H(4) surface, and for the reference's ten
    stabilizer words up to length 2."""
    reference, h4 = wollmilchsau(), parse_origami(H4_LINE)
    for o, words, count in [(reference, word_oracle.stabilizer_generators(
            reference, 2), 12), (h4, [], 11)]:
        b = homology_basis(o)
        kernel = holonomy_kernel(b)
        assert len(kernel) == b.rank - 2
        gens = stabilizer_generators(o) + words
        assert len(gens) == count
        mats = [homology_action(o, g, b) for g in gens]
        restricted = list(restrict_to_zero_holonomy(mats, b))
        assert len(restricted) == len(mats)
        assert all(len(r) == b.rank - 2 for r in restricted)


def test_closure_trivial_and_unipotent():
    assert closure_classify([identity_matrix(3)]).order == 1
    result = closure_classify([[[1, 1], [0, 1]]])
    assert result.status == "Unbounded"
    assert not result.is_finite
    assert result.witness


def restricted_generators_of(o, gens):
    b = homology_basis(o)
    return list(restrict_to_zero_holonomy(
        (homology_action(o, g, b) for g in gens), b))


def restricted_generators(o, word_bound=None):
    """The restricted actions of the exact generators of ``o``, or of its
    stabilizer words up to ``word_bound`` from the word oracle."""
    return restricted_generators_of(
        o, stabilizer_generators(o) if word_bound is None
        else word_oracle.stabilizer_generators(o, word_bound))


def closure_elements(generators):
    """The elements of a group known to be finite, by closing under
    products."""
    n = len(generators[0])
    seen = {tuple(map(tuple, identity_matrix(n)))}
    frontier = [identity_matrix(n)]
    while frontier:
        new_frontier = []
        for m in frontier:
            for g in generators:
                prod = mat_mul(m, g)
                key = tuple(map(tuple, prod))
                if key not in seen:
                    seen.add(key)
                    new_frontier.append(prod)
        frontier = new_frontier
    return seen


def brute_force_order(generators):
    """Order of a group known to be finite, by closing under products."""
    return len(closure_elements(generators))


def word_product(generators, word):
    n = len(generators[0])
    out = identity_matrix(n)
    for idx in word:
        g = generators[abs(idx) - 1]
        out = mat_mul(out, g if idx > 0 else invert_unimodular(g))
    return out


def hyperoctahedral_generators(n, conjugator=None):
    """A transposition, an n-cycle and a sign change, all signed
    permutation matrices, optionally conjugated by a unimodular matrix."""
    def perm_matrix(p):
        return [[1 if p[j] == i else 0 for j in range(n)] for i in range(n)]
    flip = identity_matrix(n)
    flip[0][0] = -1
    gens = [perm_matrix([1, 0] + list(range(2, n))),
            perm_matrix([(i + 1) % n for i in range(n)]), flip]
    if conjugator is None:
        return gens
    inv = invert_unimodular(conjugator)
    return [mat_mul(conjugator, mat_mul(g, inv)) for g in gens]


def random_unipotent(rng, n):
    """A conjugate of a nonidentity upper unitriangular integer matrix."""
    u = identity_matrix(n)
    for i, j in itertools.combinations(range(n), 2):
        u[i][j] = rng.randint(-3, 3)
    u[0][n - 1] = rng.choice((-2, -1, 1, 2))
    p = random_unimodular(rng, n)
    return mat_mul(p, mat_mul(u, invert_unimodular(p)))


def test_wollmilchsau_restricted_closure_is_finite():
    o = wollmilchsau()
    assert stabilizer_generators(o) == [("T",), ("S",)]
    restricted = restricted_generators(o)
    result = closure_classify(restricted)
    assert result.is_finite
    assert result.order == 96
    assert brute_force_order(restricted) == 96


@pytest.mark.parametrize("n, order", [(2, 8), (3, 48), (4, 384)])
def test_closure_order_of_signed_permutation_groups(rng, n, order):
    for conjugator in (None, random_unimodular(rng, n)):
        gens = hyperoctahedral_generators(n, conjugator)
        result = closure_classify(gens)
        assert result.is_finite
        assert result.order == order == brute_force_order(gens)


def assert_kernel_witness(generators, witness):
    """The witness word multiplies out to a nonidentity matrix that is the
    identity mod 3, and returns that product."""
    w = word_product(generators, witness)
    assert w != identity_matrix(len(generators[0]))
    assert all(e % 3 == (i == j) for i, row in enumerate(w)
               for j, e in enumerate(row))
    return w


@pytest.mark.parametrize("case", ["torus shear", "H(4)", 2, 3, 4,
                                  "residue collision"])
def test_unbounded_witness_has_infinite_order(case):
    if case == "torus shear":
        generators = [homology_action(torus(), ("T",),
                                      homology_basis(torus()))]
    elif case == "H(4)":
        generators = restricted_generators(parse_origami(H4_LINE))
    elif case == "residue collision":
        # the shear is the identity mod 3 but not an element of <S>
        generators = [[[0, -1], [1, 0]], [[1, 3], [0, 1]]]
    else:  # a random unipotent of dimension `case`
        generators = [random_unipotent(random.Random(case), case)]
    result = closure_classify(generators)
    assert result.status == "Unbounded"
    if case == "residue collision":
        assert result.witness == (2,)
    ident = identity_matrix(len(generators[0]))
    w = assert_kernel_witness(generators, result.witness)
    power = ident
    for _ in range(24):  # every torsion order in GL_n(Z), n <= 4
        power = mat_mul(power, w)
        assert power != ident


def closure_parity_inputs():
    """Generator lists on which the closure is compared with the BFS
    oracle: the hyperoctahedral groups with and without a conjugator, the
    reference's restricted stabilizer words up to lengths 1-3, and those of
    300 random genus-2 and genus-3 origamis up to lengths 1-2, all from
    the word oracle."""
    rng = random.Random(2121)
    for n in (2, 3, 4):
        yield hyperoctahedral_generators(n)
        yield hyperoctahedral_generators(n, random_unimodular(rng, n))
    for word_bound in (1, 2, 3):
        yield restricted_generators(wollmilchsau(), word_bound)
    surfaces = 0
    while surfaces < 300:
        o = random_origami(rng, max_squares=9)
        if singularity_data(o).genus not in (2, 3):
            continue
        surfaces += 1
        b = homology_basis(o)
        for word_bound in (1, 2):
            mats = [homology_action(o, g, b)
                    for g in word_oracle.stabilizer_generators(o, word_bound)]
            yield list(restrict_to_zero_holonomy(mats, b))


def test_closure_matches_the_bfs_oracle():
    statuses = []
    for generators in closure_parity_inputs():
        result = closure_classify(generators)
        expected = closure_oracle.closure_classify(generators)
        assert (result.status, result.order) == \
            (expected.status, expected.order), generators
        if not result.is_finite:
            assert_kernel_witness(generators, result.witness)
        used = result.generated_by
        assert list(used) == sorted(set(used))
        assert all(1 <= j <= len(generators) for j in used)
        if result.is_finite:  # the other generators add nothing
            subgroup = [generators[j - 1] for j in used]
            assert closure_oracle.closure_classify(subgroup).order == \
                result.order
        statuses.append(result.status)
    assert len(statuses) == 6 + 3 + 600
    assert 50 <= statuses.count("Unbounded") <= 550


def test_reference_closure_is_generated_by_t_and_s():
    """The reference's orbit is one member, so its exact generators are
    ``T`` and ``S``, and both enlarge the group; among its stabilizer words
    up to lengths 1-3 the closure also needs only ``T`` and ``S``."""
    o = wollmilchsau()
    graph = orbit_graph(o)
    assert (graph.members, graph.words, graph.cusps, graph.s_images) == \
        ((canonical_form(o),), ((),), ((0, 1),), (0,))
    assert graph.generators == (("T",), ("S",))
    result = closure_classify(restricted_generators(o))
    assert (result.status, result.order, result.generated_by) == \
        ("Finite", 96, (1, 2))
    for word_bound in (1, 2, 3):
        words = word_oracle.stabilizer_generators(o, word_bound)
        result = closure_classify(restricted_generators(o, word_bound))
        assert (result.status, result.order) == ("Finite", 96)
        assert result.generated_by == (1, 3)
        assert [words[j - 1] for j in result.generated_by] == \
            [("T",), ("S",)]


def test_capped_words_lie_in_the_reference_group():
    """Every stabilizer word of length at most 3 that the capped search
    finds on the reference, and every translation of the reference,
    restricts to an element of the order-96 group that ``T`` and ``S``
    generate."""
    o = wollmilchsau()
    group = closure_elements(restricted_generators(o))
    assert len(group) == 96
    words = word_oracle.stabilizer_generators(o, 3)
    translations = [p for p in itertools.permutations(range(o.n))
                    if all(p[o.h[i]] == o.h[p[i]] and p[o.v[i]] == o.v[p[i]]
                           for i in range(o.n))]
    assert (len(words), len(translations)) == (27, 8)
    b = homology_basis(o)
    # a translation is the empty word with a relabelling other than the
    # one homology_action finds, so its matrix is the oracle's
    moved = [action_oracle.relabel_action_matrix(b, b, p)
             for p in translations]
    for m in moved:
        assert mat_mul(list(zip(*m)), mat_mul(b.omega, m)) == b.omega
    for m in restrict_to_zero_holonomy(
            [homology_action(o, g, b) for g in words] + moved, b):
        assert tuple(map(tuple, m)) in group


NAMED_ORBITS = {
    # name: (line, orbit size, cusp widths, closure order or None)
    "reference": (str(wollmilchsau()), 1, (1,), 96),
    "H(4)": (H4_LINE, 10, (2, 3, 5), None),
    "six squares": (SIX_SQUARES, 12, (1, 6, 3, 2), None),
    "case5 seven": (CASE5_SEVEN, 72,
                    (7, 7, 7, 7, 5, 2, 7, 3, 5, 6, 3, 5, 3, 5), None),
}


@pytest.mark.parametrize("name", list(NAMED_ORBITS))
def test_orbit_graph_generators_are_stabilizers(name):
    """The orbit graph is closed under ``T`` and ``S`` and its tree words
    reach its members; there are ``|O| + 1`` generators, the cusp
    parabolics ``w T^k w⁻¹`` first, and each one's relabelling carries
    ``act_sl2z(o, word)`` onto ``o`` square by square.  The reference is
    ``Finite`` of order 96; the others, the two among them that the capped
    search called ``Finite`` included, are ``Unbounded`` with a witness
    from a cusp parabolic, which is then the closure of all generators."""
    line, size, widths, order = NAMED_ORBITS[name]
    o = parse_origami(line)
    graph = orbit_graph(o)
    members = graph.members
    assert len(members) == len(set(members)) == size
    assert tuple(k for _, k in graph.cusps) == widths
    for i, word in enumerate(graph.words):
        assert canonical_form(act_sl2z(o, word)) == members[i]
        assert canonical_form(act_sl2z(members[i], ["S"])) == \
            members[graph.s_images[i]]
    for first, k in graph.cusps:
        for a in range(k):
            assert canonical_form(act_sl2z(members[first + a], ["T"])) == \
                members[first + (a + 1) % k]
    gens = stabilizer_generators(o)
    assert gens == list(graph.generators) and len(gens) == size + 1
    for word, (first, k) in zip(gens, graph.cusps):
        w = graph.words[first]
        assert word == w + ("T",) * k + tuple(
            x for letter in reversed(w)
            for x in {"T": ("T^-1",), "S": ("S", "S", "S")}[letter])
    for word in gens:
        image = act_sl2z(o, word)
        p = origami_isomorphism(image, o)
        assert p is not None and sorted(p) == list(range(o.n)), word
        assert all(p[image.h[i]] == o.h[p[i]] and p[image.v[i]] == o.v[p[i]]
                   for i in range(o.n)), word
    restricted = restricted_generators(o)
    result = closure_classify(restricted)
    if order is not None:
        assert (result.status, result.order) == ("Finite", order)
        return
    assert result.status == "Unbounded"
    cusps = len(graph.cusps)
    assert all(1 <= abs(j) <= cusps for j in result.witness)
    assert closure_classify(restricted[:cusps]) == result
    assert_kernel_witness(restricted, result.witness)


@functools.cache
def census_orbits(genus):
    """The orbit graph of every ``SL(2, Z)``-orbit of genus-``genus``
    origamis up to seven squares, each from its least member, with the
    number of isomorphism classes they cover."""
    classes = classes_of_genus(genus, 7)
    seen, graphs = set(), []
    for o in sorted(classes, key=lambda x: (x.n, x.h, x.v)):
        if o in seen:
            continue
        graph = orbit_graph(o)
        assert graph.members[0] == o and seen.isdisjoint(graph.members)
        assert classes.issuperset(graph.members)
        seen.update(graph.members)
        graphs.append((o, graph))
    assert len(seen) == len(classes)
    return tuple(graphs), len(seen)


def test_census_orbits_are_unbounded_from_a_cusp_parabolic():
    """Every ``SL(2, Z)``-orbit of genus-3 origamis up to seven squares
    (45 orbits, 3164 isomorphism classes) has an ``Unbounded`` restricted
    closure with a witness among its cusp parabolics."""
    graphs, classes = census_orbits(3)
    for o, graph in graphs:
        cusps = len(graph.cusps)
        assert len(graph.generators) == len(graph.members) + 1
        result = closure_classify(restricted_generators_of(
            o, graph.generators[:cusps]))
        assert result.status == "Unbounded", o
        assert all(1 <= abs(j) <= cusps for j in result.witness), o
    assert (len(graphs), classes) == (45, 3164)


def test_lazy_closure_matches_the_cusp_prefix_closure():
    """On every census orbit up to seven squares, the closure of all the
    generators, acted on homology only as it reads them, equals the
    closure of the cusp parabolics alone: same status, witness and
    ``generated_by``.  It reads no generator past the one whose step
    found the witness."""
    graphs, _ = census_orbits(3)
    for o, graph in graphs:
        b = homology_basis(o)
        prefix = closure_classify(restricted_generators_of(
            o, graph.generators[:len(graph.cusps)]))
        read = []

        def actions():
            for word in graph.generators:
                read.append(word)
                yield homology_action(o, word, b)
        lazy = closure_classify(restrict_to_zero_holonomy(actions(), b))
        assert lazy == prefix, o
        assert len(read) == max(lazy.generated_by
                                + (abs(lazy.witness[0]),)), o
    assert len(graphs) == 45


@pytest.mark.parametrize("generators", [
    [[[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]],
    [[[1, 0], [0, 1]], [[1, 0], [0]]],
    [[[1, 0, 0], [0, 1, 0]]],
    [[[1], [0]]],
    [[[0, -1], [1, 0]], [[1, 1, 0], [0, 1]]],
], ids=["mixed sizes", "short row", "wide", "tall", "long row"])
def test_closure_needs_square_generators_of_one_size(generators):
    with pytest.raises(InvariantViolation):
        closure_classify(generators)


def cusp_slope(m):
    """The reduced slope ``(p, q)`` of the direction that the ``SL(2, Z)``
    matrix ``m`` carries to the horizontal: its direction vector
    ``(q, p)`` spans the kernel of the second row, signed as in
    :func:`survivor_oracle.enumerate_slopes`."""
    p, q = -m[1][0], m[1][1]
    return (p, q) if q > 0 or (q == 0 and p > 0) else (-p, -q)


def cusp_slopes(report):
    return [cusp_slope(action_oracle.word_matrix(word))
            for word, _ in report.witnesses]


def test_wollmilchsau_upper_bound():
    """The reference's orbit is one member, one cusp of rank 1: the bound
    is 4, as the box of slopes with entries up to 2 reads, where every
    direction is Case 6 with rank 1.  ``direction_bound`` is ignored."""
    o = wollmilchsau()
    report = forni_upper_bound(o)
    graph = orbit_graph(o)
    assert report.upper_bound == 4
    assert [word for word, _ in report.witnesses] == \
        [graph.words[first] for first, _ in graph.cusps]
    assert all(rank == 1 for _, rank in report.witnesses)
    assert all(classify_case(horizontal_decomposition(
        graph.members[first]).dual_graph) == "Case6"
        for first, _ in graph.cusps)
    assert slope_box_bound(o, 2) == \
        (4, tuple((slope, 1) for slope in enumerate_slopes(2)))
    assert all(classify_case(periodic_decomposition(o, slope).dual_graph)
               == "Case6" for slope in enumerate_slopes(2))
    for bound in (1, 2, 7):
        assert forni_upper_bound(o, bound) == report


def test_upper_bound_witnesses_match_homology_rank(rng):
    """Each cusp read has the rank of a homology basis on the direction of
    ``o`` its word carries to the horizontal, found from the word's
    matrix; the cusps are read in order up to the first of rank ``g``,
    and the bound is never above the bound over the box of slopes with
    entries up to 2, whose ranks are also the homology ranks."""
    surfaces = {2: [], 3: [wollmilchsau(), parse_origami(H31_SIX)]}
    while min(len(found) for found in surfaces.values()) < 10:
        o = random_origami(rng, max_squares=9)
        genus = singularity_data(o).genus
        if genus in surfaces:
            surfaces[genus].append(o)
    for genus, found in surfaces.items():
        for o in found:
            report = forni_upper_bound(o)
            graph = orbit_graph(o)
            read = len(report.witnesses)
            assert [word for word, _ in report.witnesses] == \
                [graph.words[first] for first, _ in graph.cusps[:read]]
            ranks = [rank for _, rank in report.witnesses]
            assert ranks == [
                core_span_rank(periodic_decomposition(o, slope))
                for slope in cusp_slopes(report)], o
            assert all(rank < genus for rank in ranks[:-1]), o
            assert read == len(graph.cusps) or ranks[-1] == genus, o
            assert report.upper_bound == 2 * (genus - max(ranks))
            box, witnesses = slope_box_bound(o, 2)
            assert list(witnesses) == [
                (slope, core_span_rank(periodic_decomposition(o, slope)))
                for slope in enumerate_slopes(2)]
            assert report.upper_bound <= box


def test_cusp_bound_is_the_slope_box_bound_on_the_census():
    """On every genus-2 and genus-3 class with at most seven squares: on
    each orbit's least member the bound equals the bound over the box of
    slopes that holds the slope of every cusp read (a cusp after the first
    of rank ``g`` cannot lower it).  On every member the direction of
    each cusp read, carried over by the member's word, has that cusp's
    rank, and the member's box-2 bound is never below the bound.  The box
    reads too high on 41 genus-3 classes, among them the H(3,1) surface
    with rank 2 on the whole box.  Every genus-3 orbit has a cusp whose
    core curves span a Lagrangian, so its bound is 0."""
    higher = {}
    for genus in (2, 3):
        classes = classes_of_genus(genus, 7)
        higher[genus] = 0
        seen = set()
        for o in sorted(classes, key=lambda x: (x.n, x.h, x.v)):
            if o in seen:
                continue
            graph = orbit_graph(o)
            seen.update(graph.members)
            report = forni_upper_bound(o)
            if genus == 3:
                assert report.upper_bound == 0, o
            bound = max(max(abs(p), q) for p, q in cusp_slopes(report))
            assert slope_box_bound(o, bound)[0] == report.upper_bound, o
            for member, word in zip(graph.members, graph.words):
                # the inverse of the member's matrix, of determinant 1
                (a, b), (c, d) = action_oracle.word_matrix(word)
                back = ((d, -b), (-c, a))
                for cusp, rank in report.witnesses:
                    slope = cusp_slope(mat_mul(
                        action_oracle.word_matrix(cusp), back))
                    assert periodic_decomposition(member, slope) \
                        .dual_graph.cycle_rank == rank, (member, slope)
                box = slope_box_bound(member, 2)[0]
                assert box >= report.upper_bound, member
                higher[genus] += box > report.upper_bound
        assert seen == classes
    assert higher == {2: 0, 3: 41}
    o = parse_origami(H31_SIX)
    assert canonical_form(o) in classes_of_genus(3, 7)
    assert forni_upper_bound(o).upper_bound == 0
    assert slope_box_bound(o, 2) == \
        (2, tuple((slope, 2) for slope in enumerate_slopes(2)))


def test_h22_orbit_without_a_lagrangian_cusp():
    """The 8-square H(2,2) orbit has no cusp of rank 3, so the cusp bound
    leaves 2, yet the classifier excludes every member from its
    horizontal direction alone: Case 1, Case 1 and Case 3."""
    o = parse_origami(H22_EIGHT)
    assert canonical_form(o) == o and str(singularity_data(o)) == "H(2,2)"
    graph = orbit_graph(o)
    assert len(graph.members) == 3
    assert forni_upper_bound(o) == ForniReport(
        upper_bound=2, witnesses=(((), 2), (("T", "S"), 2)))
    labels = []
    for member in graph.members:
        verdict = classify_surface(member)
        assert verdict.status == "TrivialForni", member
        assert [r.slope for r in verdict.evidence] == [(0, 1)], member
        labels.append(verdict.evidence[0].label)
        assert labels[-1] == classify_case(
            horizontal_decomposition(member).dual_graph), member
    assert labels == ["Case1", "Case1", "Case3"]


def one_cylinder_h2(lengths, twist):
    """The one-cylinder origami whose bottom has saddles of the given
    lengths in order from x = 0 and whose top has them in reverse order
    from x = ``twist``: the one-cylinder H(2) diagram."""
    n = sum(lengths)
    bottom = list(itertools.accumulate((0,) + lengths[:-1]))
    v = [0] * n
    x = twist
    for start, length in reversed(list(zip(bottom, lengths))):
        for d in range(length):
            v[(x + d) % n] = start + d
        x += length
    return build_origami(tuple(range(1, n)) + (0,), tuple(v))


# per n, the cusp counts of the orbits that the primitive one-cylinder H(2)
# seeds reach, in the order of the closed-form sizes, and the sizes of the
# orbits that the other seeds reach
H2_PRIMITIVE_CUSPS = {5: [3, 5], 6: [8], 7: [8, 10], 8: [17], 9: [14, 16],
                      10: [30], 11: [26, 26], 12: [38], 13: [39, 37]}
H2_OTHER_SIZES = {5: [], 6: [3], 7: [], 8: [18], 9: [12], 10: [18, 27],
                  11: [], 12: [6, 36, 72], 13: []}


def test_h2_orbit_sizes_match_the_closed_form():
    """For every n from 5 to 13 squares, the one-cylinder H(2) seeds
    (bottom saddles of lengths a + b + c = n, the top order reversed,
    every twist) with gcd(a, b, c) = 1 reach exactly the orbits of the
    primitive surfaces, of sizes (3/8)(n - 2)J(n) for even n and
    (3/16)(n - 3)J(n), (3/16)(n - 1)J(n) for odd n, where J(n) =
    n²∏(1 - p⁻²) over the primes p dividing n (Hubert-Lelièvre for prime
    n, Lelièvre-Royer for every n): an external check of the orbit walk.
    The seeds whose lengths share a factor reach only other orbits.  Their
    sizes and the cusp counts of the primitive orbits are pinned as
    regression values; no formula is claimed for them."""
    for n in range(5, 14):
        jordan = n * n
        for p in range(2, n + 1):
            if n % p == 0 and all(p % q for q in range(2, p)):
                jordan = jordan // (p * p) * (p * p - 1)
        expected = [3 * (n - 2) * jordan // 8] if n % 2 == 0 else \
            [3 * (n - 3) * jordan // 16, 3 * (n - 1) * jordan // 16]
        # canonical form -> index in orbits, whose entries are (size, cusp
        # count, whether seeds with gcd 1 reached it, whether others did)
        orbit_of, orbits = {}, []
        for a in range(1, n - 1):
            for b in range(1, n - a):
                c = n - a - b
                for twist in range(n):
                    o = one_cylinder_h2((a, b, c), twist)
                    assert singularity_data(o).kappa == (2,), o
                    key = canonical_form(o)
                    if key not in orbit_of:
                        graph = orbit_graph(o)
                        orbit_of.update(dict.fromkeys(graph.members,
                                                      len(orbits)))
                        orbits.append([len(graph.members), len(graph.cusps),
                                       False, False])
                    orbits[orbit_of[key]][2 if gcd(a, b, c) == 1 else 3] = True
        assert all(primitive != other for _, _, primitive, other in orbits), n
        primitive = sorted((size, cusps)
                           for size, cusps, gcd_one, _ in orbits if gcd_one)
        assert [size for size, _ in primitive] == expected, n
        assert [cusps for _, cusps in primitive] == H2_PRIMITIVE_CUSPS[n], n
        assert sorted(size for size, _, gcd_one, _ in orbits
                      if not gcd_one) == H2_OTHER_SIZES[n], n


# the 9-square H(5,1) surface: its orbit has 38 736 members in 4888 cusps,
# and its second cusp already has core span rank 4, the genus
NINE_SQUARES = 'origami n=9 h="(0 1 2 8 5 7)(3 4 6)" v="(0 5)(1 3 2 8 6)"'


def test_orbit_graph_matches_the_eager_oracle():
    """``orbit_graph`` drains the lazy walk into the graph that the eager
    walk builds, field by field, and ``forni_upper_bound``, which reads
    the walk only up to the first cusp of rank ``g``, reports what
    ``_cusp_bound`` reads off the oracle's cusps.  The surfaces are every
    orbit of genus 2, 3 and 4 up to seven squares, from its least member
    (so every class is a member of one), the reference, H(4), H(3,1) and
    the 6- and 7-square H(2,2) surfaces."""
    surfaces = [wollmilchsau()] + [parse_origami(line) for line in (
        H4_LINE, H31_SIX, SIX_SQUARES, CASE5_SEVEN)]
    orbits = {}
    for genus in (2, 3, 4):
        graphs, classes = census_orbits(genus)
        surfaces += [o for o, _ in graphs]
        orbits[genus] = (len(graphs), classes)
    assert orbits == {2: (19, 456), 3: (45, 3164), 4: (14, 1260)}
    for o in surfaces:
        graph, expected = orbit_graph(o), orbit_oracle.orbit_graph(o)
        for field in OrbitGraph._fields:
            assert getattr(graph, field) == getattr(expected, field), \
                (o, field)
        assert forni_upper_bound(o) == monodromy._cusp_bound(
            (expected.members[first], expected.words[first])
            for first, _ in expected.cusps), o


def test_nine_square_bound_stops_at_the_first_rank_g_cusp(monkeypatch):
    """On the 9-square H(5,1) surface the bound is 0 at the second cusp,
    and the walk stops there: fewer than 100 of the orbit's 77 473
    canonical forms are computed."""
    calls = []

    def counted(o):
        calls.append(o)
        return canonical_form(o)

    monkeypatch.setattr(monodromy, "canonical_form", counted)
    report = forni_upper_bound(parse_origami(NINE_SQUARES))
    assert (report.upper_bound, len(report.witnesses)) == (0, 2)
    assert [rank for _, rank in report.witnesses] == [2, 4]
    assert len(calls) < 100


def test_upper_bound_needs_higher_genus():
    with pytest.raises(ValueError):
        forni_upper_bound(torus(), 1)


def test_a_word_without_a_relabelling_raises(monkeypatch):
    """A Schreier word that the relabelling search cannot carry onto the
    origami raises when the closure reads it, instead of joining the
    generators: ``homology_action`` is the one stabilizer check."""
    monkeypatch.setattr(monodromy, "origami_isomorphism", lambda a, b: None)
    o = wollmilchsau()
    b = homology_basis(o)
    with pytest.raises(NotAStabilizer, match="does not stabilize"):
        homology_action(o, orbit_graph(o).generators[0], b)
    with pytest.raises(NotAStabilizer, match="does not stabilize"):
        closure_classify(restrict_to_zero_holonomy(
            (homology_action(o, w, b) for w in orbit_graph(o).generators),
            b))
