"""Surface layer: permutation plumbing, strata, the shear/rotate action,
isomorphism and canonical forms, the text format, and metric nets."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

import canonical_form_oracle
from conftest import MALFORMED_LINES, l_origami, random_genus3, \
    random_origami, relabelled, torus, wollmilchsau
from net_oracle import CylinderGeometry, NegativeLength, build_net
from squaretiled.cylinders import CylinderDiagram
from squaretiled.errors import InvariantViolation, NotTransitive
from squaretiled.monodromy import forni_upper_bound, orbit_graph, \
    stabilizer_generators
from squaretiled.pipeline import affine_reference, reference_surface
from squaretiled.surface import (
    Origami,
    act_sl2z,
    build_origami,
    canonical_form,
    cycles_str,
    origami_isomorphism,
    parse_origami,
    perm_compose,
    perm_from_cycles,
    perm_inverse,
    singularity_data,
)


def test_known_strata():
    assert str(singularity_data(torus())) == "H(0)"
    assert singularity_data(l_origami()).kappa == (2,)
    assert singularity_data(l_origami()).genus == 2
    ew = singularity_data(wollmilchsau())
    assert ew.kappa == (1, 1, 1, 1)
    assert ew.genus == 3


def four_neighbour_message(h, v):
    """The ``NotTransitive`` message for the pair ``(h, v)`` from a search
    out of square 0 along ``h``, ``h⁻¹``, ``v`` and ``v⁻¹``, or ``None``
    when it reaches every square."""
    n = len(h)
    hi, vi = perm_inverse(h), perm_inverse(v)
    reached, frontier = {0}, [0]
    while frontier:
        i = frontier.pop()
        for j in (h[i], hi[i], v[i], vi[i]):
            if j not in reached:
                reached.add(j)
                frontier.append(j)
    if len(reached) == n:
        return None
    return f"squares {set(range(n)) - reached} are not connected to square 0"


def test_transitivity_required():
    """``build_origami`` follows forward edges only, and raises exactly
    when the four-neighbour search misses a square, with its message: on
    every pair on at most 4 squares and on 2000 random pairs on 5 to 12
    squares."""
    with pytest.raises(NotTransitive):
        build_origami((1, 0, 2), (0, 1, 2))
    small = [(h, v) for n in range(1, 5)
             for h in itertools.permutations(range(n))
             for v in itertools.permutations(range(n))]
    assert len(small) == 617
    rng = random.Random(4242)
    large = []
    for _ in range(2000):
        n = rng.randint(5, 12)
        h, v = list(range(n)), list(range(n))
        rng.shuffle(h)
        rng.shuffle(v)
        large.append((tuple(h), tuple(v)))
    for sample in (small, large):
        raised = 0
        for h, v in sample:
            expected = four_neighbour_message(h, v)
            try:
                build_origami(h, v)
            except NotTransitive as exc:
                assert str(exc) == expected, (h, v)
                raised += 1
            else:
                assert expected is None, (h, v)
        assert 0 < raised < len(sample)


def test_perm_utilities():
    p = perm_from_cycles([(0, 2, 1)], 4)
    assert p == (2, 0, 1, 3)
    assert perm_compose(p, perm_inverse(p)) == (0, 1, 2, 3)


def test_empty_cycle_is_the_identity():
    """An empty cycle, as ``cycles_str`` prints the identity, adds
    nothing: in a tuple or a list, alone or beside other cycles, and in
    the text format."""
    assert perm_from_cycles([()], 3) == (0, 1, 2)
    assert perm_from_cycles([[], [0, 2]], 3) == (2, 1, 0)
    assert cycles_str(perm_from_cycles([()], 4)) == "()"
    assert parse_origami('origami n=3 h="()(0 1)()" v="(0 2)"') == \
        parse_origami('origami h="(0 1)" v="(0 2)"')

def test_action_letter_inverses():
    rng = random.Random(11)
    for _ in range(20):
        o = random_origami(rng)
        assert act_sl2z(act_sl2z(o, ("T",)), ("T^-1",)).v == o.v
        assert act_sl2z(o, ["S", "S", "S", "S"]).h == o.h


def composed_action(o, word):
    """``act_sl2z`` letter by letter from the definitions, every inverse
    built afresh: ``T: (h, v∘h⁻¹)``, ``T^-1: (h, v∘h)``, ``S: (v, h⁻¹)``."""
    h, v = o.h, o.v
    for letter in word:
        if letter == "T":
            v = perm_compose(v, perm_inverse(h))
        elif letter == "T^-1":
            v = perm_compose(v, h)
        else:
            h, v = v, perm_inverse(h)
    return Origami(h, v)


def test_word_action_is_the_letter_fold(rng):
    """A word carries h^-1 and v^-1 from letter to letter; the result must
    match one-letter calls, which build every inverse afresh, and the
    letter-by-letter composition of the definitions: on 200 words of
    independent letters, and on 300 words of shear runs between quarter
    turns, where a shear follows an ``S`` that carried ``h⁻¹`` in and
    precedes one that must rebuild it (surfaces of 2 to 12 squares)."""
    letters = ["T", "T^-1", "S"]
    for _ in range(200):
        o = random_origami(rng)
        h_inv = perm_inverse(o.h)
        assert act_sl2z(o, ("T",)) == Origami(o.h, perm_compose(o.v, h_inv))
        assert act_sl2z(o, ("T^-1",)) == Origami(o.h, perm_compose(o.v, o.h))
        assert act_sl2z(o, ("S",)) == Origami(o.v, h_inv)
        word = [rng.choice(letters) for _ in range(rng.randint(0, 9))]
        folded = o
        for letter in word:
            folded = act_sl2z(folded, (letter,))
        assert act_sl2z(o, word) == folded
        assert act_sl2z(o, tuple(word)) == folded
        assert composed_action(o, word) == folded
    for _ in range(300):
        o = random_origami(rng, 12)
        word = []
        for _ in range(rng.randint(1, 4)):
            word += ["S"] * rng.randint(0, 3)
            word += [rng.choice(["T", "T^-1"])] * rng.randint(0, 5)
        assert act_sl2z(o, word) == composed_action(o, word), (o, word)
    o = random_origami(rng)
    for word in (["R"], ["T", "S", "T^+1"], ["S", "S", "s"]):
        with pytest.raises(ValueError, match="unknown generator letter"):
            act_sl2z(o, word)
        with pytest.raises(ValueError, match="unknown generator letter"):
            act_sl2z(o, (word[-1],))


def test_action_is_stratum_preserving(rng):
    for _ in range(20):
        o = random_origami(rng)
        word = [rng.choice(["T", "T^-1", "S"]) for _ in range(4)]
        assert singularity_data(act_sl2z(o, word)).kappa == \
            singularity_data(o).kappa


def test_isomorphism_and_canonical_form(rng):
    for _ in range(20):
        o = random_origami(rng)
        relabel = list(range(o.n))
        rng.shuffle(relabel)
        inv = perm_inverse(tuple(relabel))
        other = build_origami(
            tuple(relabel[o.h[inv[i]]] for i in range(o.n)),
            tuple(relabel[o.v[inv[i]]] for i in range(o.n)),
        )
        p = origami_isomorphism(o, other)
        assert p is not None
        assert [p[o.h[i]] for i in range(o.n)] == [other.h[p[i]]
                                                  for i in range(o.n)]
        assert canonical_form(o) == canonical_form(other)


def test_isomorphism_rejects_different_surfaces():
    assert origami_isomorphism(l_origami(), torus()) is None


def test_isomorphism_rejects_a_non_injective_map():
    """Propagating from a transitive source reaches every square, but onto
    a target that is not transitive the map need not be a bijection: the
    2-square torus sends both squares onto one of two 1-square tori."""
    two_square_torus = build_origami((1, 0), (0, 1))
    two_tori = Origami((0, 1), (0, 1))
    assert origami_isomorphism(two_square_torus, two_tori) is None
    assert origami_isomorphism(two_square_torus, two_square_torus) == (0, 1)


def test_isomorphism_agrees_with_canonical_forms():
    rng = random.Random(13)
    outcomes = []
    for _ in range(200):
        a = random_origami(rng, 5)
        b = relabelled(rng, a) if rng.random() < 0.5 else \
            random_origami(rng, 5)
        found = origami_isomorphism(a, b) is not None
        assert found == (canonical_form(a) == canonical_form(b)), (a, b)
        outcomes.append(found)
    # both answers occur: relabelled copies, and random pairs that are
    # mostly not isomorphic
    assert 50 < sum(outcomes) < 180


def test_canonical_form_matches_the_full_scan():
    """The lock-step canonical form, which drops a start square at its
    first relabelled ``h`` entry above the least, is the least pair of the
    full scan that builds every start's relabelling, both stepping forward
    only: on random genus-3 surfaces and their ``T`` and ``S`` images, on
    100 random surfaces each of genus 2 and 4 with 5 to 10 squares, and on
    the reference, its affine image ``affine_reference(2, 1, 1)`` and
    their images, where several starts tie through all of ``h`` and ``v``
    decides."""
    rng = random.Random(14)
    surfaces = []
    for _ in range(2000):
        o = random_genus3(rng, 5, 12)
        surfaces += [o, act_sl2z(o, ["T"]), act_sl2z(o, ["S"])]
    genera = Counter()
    while min(genera[2], genera[4]) < 100:
        o = random_origami(rng, 10)
        genus = singularity_data(o).genus
        if o.n >= 5 and genus in (2, 4) and genera[genus] < 100:
            genera[genus] += 1
            surfaces.append(o)
    for x in surfaces:
        assert canonical_form(x) == canonical_form_oracle.canonical_form(
            x), x
    for o in (reference_surface(), affine_reference(2, 1, 1)):
        for x in (o, act_sl2z(o, ["T"]), act_sl2z(o, ["S"])):
            pairs = canonical_form_oracle.relabellings(x)
            least = min(pairs)
            assert canonical_form(x) == Origami(*least), x
            assert sum(h == least[0] for h, _ in pairs) > 1, x


def test_canonical_form_rejects_a_disconnected_pair():
    """A pair built with ``Origami`` that is not connected raises
    ``InvariantViolation``, not ``IndexError``, from the canonical form
    and so from the orbit walk and everything built on it: two genus-2
    L-shaped surfaces, whose Euler count reads genus 3, and a 1-square
    torus beside a 2-square one, where only the fixed point of ``h``
    starts."""
    two_ls = Origami((1, 0, 2, 4, 3, 5), (2, 1, 0, 5, 4, 3))
    two_tori = Origami((0, 2, 1), (0, 2, 1))
    for o in (two_ls, two_tori):
        for f in (canonical_form, orbit_graph, stabilizer_generators):
            with pytest.raises(InvariantViolation,
                               match="surface must be connected"):
                f(o)
    with pytest.raises(InvariantViolation, match="surface must be connected"):
        forni_upper_bound(two_ls)


def test_commutator_is_the_corner_permutation(rng):
    """``Origami.commutator``, built without inverses, is
    ``h∘v∘h⁻¹∘v⁻¹``."""
    for _ in range(300):
        o = random_origami(rng, max_squares=12)
        expected = perm_compose(o.h, perm_compose(o.v, perm_compose(
            perm_inverse(o.h), perm_inverse(o.v))))
        assert o.commutator() == expected, o


def test_parse_roundtrip():
    ew = wollmilchsau()
    assert parse_origami(str(ew)) == ew


def test_malformed_cycles_raise_value_error():
    """An entry outside ``0..n-1``, an unclosed cycle or text between the
    cycles raises ``ValueError`` instead of an ``IndexError`` or another
    surface; empty cycle lists and omitted fixed points are still read."""
    for line in MALFORMED_LINES:
        with pytest.raises(ValueError):
            parse_origami(line)
    for cycles, n in (([(0, 5)], 2), ([(0, 1, -1)], 2), ([(-1, 0)], 1)):
        with pytest.raises(ValueError, match="is not in 0.."):
            perm_from_cycles(cycles, n)
    assert parse_origami('origami n=1 h="" v=""') == torus()
    assert parse_origami('origami n=1 h="()" v="( )"') == torus()
    assert parse_origami('origami n=3 h="(0 1)" v="(0 2)"') == l_origami()
    assert parse_origami('origami n=4 h="(0 1 2)" v="(2 3)"').n == 4
    rng = random.Random(30)
    for _ in range(50):
        o = random_origami(rng, 12)
        assert parse_origami(str(o)) == o


# lines with a square in no cycle, each with the count of such squares and
# the least of them; the first two would ask for gigabytes if a
# permutation of their squares were built
ISOLATED_SQUARE_LINES = (
    ('origami n=99999999999 h="(0 1)" v=""', 99999999997, 2),
    ('origami h="(0 99999999999)" v=""', 99999999998, 1),
    ('origami n=2000 h="(0 1)" v="(0 2)"', 1997, 3),
    ('origami n=3 h="(1 2)" v=""', 1, 0),
)


def test_isolated_squares_raise_before_any_permutation_is_built():
    """A square in no cycle, on more than one square, raises
    ``NotTransitive`` with a one-line message that gives the count and the
    least such square, and builds nothing of the size of ``n``; an entry
    out of range still raises ``ValueError`` first, and a pair whose
    squares all lie in cycles keeps the message of ``build_origami``."""
    for line, count, least in ISOLATED_SQUARE_LINES:
        with pytest.raises(NotTransitive) as exc:
            parse_origami(line)
        message = str(exc.value)
        assert message.startswith("%d of the " % count), line
        assert ", the least %d, " % least in message, line
        assert message.endswith("not connected to square 0"), line
        assert "\n" not in message and len(message) < 200, line
    with pytest.raises(ValueError,
                       match="entry 99999999999 is not in 0..99999999998"):
        parse_origami('origami n=99999999999 h="(0 5)" v="(5 99999999999)"')
    with pytest.raises(NotTransitive,
                       match=r"squares \{3, 4, 5\} are not connected"):
        parse_origami('origami n=6 h="(0 1)(3 4)" v="(0 2)(3 5)"')


def test_net_saddles_need_positive_length():
    diagram = CylinderDiagram((("a", "b"),), (("b", "a"),))
    geometry = {0: CylinderGeometry(1, 1, 0)}
    net = build_net(geometry, diagram, {"a": Fraction(1, 3),
                                        "b": Fraction(2, 3)})
    assert net.top_positions == {"b": 0, "a": Fraction(2, 3)}
    for lengths in ({"a": 1, "b": 0}, {"a": 2, "b": -1}):
        with pytest.raises(NegativeLength, match="saddle b"):
            build_net(geometry, diagram, lengths)
