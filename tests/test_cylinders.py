"""Cylinder decompositions: areas, saddles, diagram canonical keys, case
classification of pinch graphs, and moduli exponents."""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import factorial, gcd, prod

import pytest

import decomposition_oracle
import key_oracle
import survivor_oracle
from action_oracle import word_matrix
from conftest import (
    CASE4A_DIAGRAM,
    CASE_LABELS,
    EXEMPLARS,
    classes_of_genus,
    exemplar,
    l_origami,
    random_case4a_net,
    random_genus3,
    random_origami,
    relabelled,
    torus,
    vertical_stretch,
    wollmilchsau,
)
from decomposition_oracle import core_row
from survivor_oracle import enumerate_slopes
from squaretiled import cylinders
from squaretiled.cylinders import (
    CylinderDiagram,
    DualGraph,
    classify_case,
    direction_member,
    horizontal_decomposition,
    moduli_exponents,
    periodic_decomposition,
)
from squaretiled.errors import InvariantViolation
from squaretiled.pipeline import classify_surface, enumerate_diagrams
from squaretiled.surface import Origami, parse_origami, singularity_data


def cylinder_shapes(d):
    return sorted(zip(d.circumferences, d.heights))


def test_wollmilchsau_horizontal_decomposition():
    d = horizontal_decomposition(wollmilchsau())
    assert cylinder_shapes(d) == [(4, 1), (4, 1)]
    assert sum(w * h for w, h in zip(d.circumferences, d.heights)) == 8
    assert [len(word) for word in d.diagram.bottom_words] == [4, 4]
    assert all(length == 1 for length in d.saddle_lengths)


def test_simple_decompositions():
    assert cylinder_shapes(horizontal_decomposition(torus())) == [(1, 1)]
    assert cylinder_shapes(horizontal_decomposition(l_origami())) == \
        [(1, 1), (2, 1)]


def test_exemplar_cylinder_shapes():
    assert cylinder_shapes(horizontal_decomposition(exemplar("Case1"))) == \
        [(1, 2), (4, 1)]
    assert cylinder_shapes(horizontal_decomposition(exemplar("Case5"))) == \
        [(6, 1)]
    assert cylinder_shapes(horizontal_decomposition(exemplar("Case6"))) == \
        [(3, 1), (3, 1)]
    assert cylinder_shapes(horizontal_decomposition(exemplar("Case4B"))) == \
        [(1, 1), (4, 1), (4, 1), (5, 1)]


@pytest.mark.parametrize("name,label", [
    ("Case1", "Case1"),
    ("Case2", "Case2"),
    ("Case3", "Case3"),
    ("Case4A", "Case4"),
    ("Case4B", "Case4"),
    ("Case5", "Case5"),
    ("Case6", "Case6"),
])
def test_exemplar_case_labels(name, label):
    d = horizontal_decomposition(exemplar(name))
    assert classify_case(d.dual_graph) == label


def test_wollmilchsau_slope_one_is_case6():
    d = periodic_decomposition(wollmilchsau(), (1, 1))
    assert classify_case(d.dual_graph) == "Case6"


def test_genus_two_graphs_match_no_case():
    d = horizontal_decomposition(l_origami())
    with pytest.raises(InvariantViolation, match="cycle rank 2 and genus "
                       "labels summing to 0 matches none of the six shapes"):
        classify_case(d.dual_graph)


def bottom_runs(d):
    """Each saddle's unit squares: the run of its bottom row that
    ``bottom_positions`` and ``saddle_lengths`` give."""
    runs = {}
    for cid, word in enumerate(d.diagram.bottom_words):
        for sid in word:
            a = d.bottom_positions[sid]
            runs[sid] = core_row(d, cid)[a:a + d.saddle_lengths[sid]]
    return runs


def test_decomposition_matches_the_oracle():
    """The one-pass integer decomposition, dual graph and case label equal
    the set-based ones of the oracle on every slope up to bound 3, every
    record at the position of its cylinder or saddle, the oracle's saddles
    numbered 0, 1, ... as the one pass numbers them, and the label raises
    exactly where the oracle finds no shape; the oracle's zeros, read from
    the corners, are the ``τ∘β⁻¹`` reading of the one pass's words; the
    dual graph's genus is the stratum's genus, and every cylinder's
    circumference and height, equal to the oracle's ``Fraction``s, are
    ``int``s.  The oracle's graph of a random net over the Case 4A diagram
    is that of a decomposition with that diagram."""
    rng = random.Random(1313)
    surfaces = [random_genus3(rng, 5, 12) for _ in range(300)]
    surfaces += [exemplar(name) for name in EXEMPLARS]
    surfaces += [wollmilchsau(), torus(), l_origami()]
    labels = set()
    for o in surfaces:
        for slope in enumerate_slopes(3):
            member = direction_member(o, slope)[1]
            d = horizontal_decomposition(member)
            old, old_saddles = decomposition_oracle.decomposition_with_saddles(
                member)
            assert d.dual_graph.genus == singularity_data(member).genus
            assert d == old, (o, slope)
            assert zeros_of(d) == corner_zeros_of(old_saddles), (o, slope)
            assert d.dual_graph == decomposition_oracle.dual_graph(d)
            assert all(type(x) is int
                       for x in d.circumferences + d.heights)
            assert list(old_saddles) == list(range(len(d.saddle_lengths)))
            assert bottom_runs(d) == {sid: s.squares
                                      for sid, s in old_saddles.items()}
            g = d.dual_graph
            label = label_or_none(g)
            assert label == decomposition_oracle.classify_case(g)
            labels.add(label)
    assert labels == CASE_LABELS | {None}
    # nets carry no genus; the graph depends on the diagram alone
    case4a = horizontal_decomposition(exemplar("Case4A"))
    assert case4a.diagram == CASE4A_DIAGRAM
    for _ in range(20):
        net = random_case4a_net(rng)
        assert decomposition_oracle.dual_graph(net) == case4a.dual_graph


def label_or_none(g):
    """The label of ``g``, or ``None`` where :func:`classify_case` raises
    because ``g`` matches none of the six shapes."""
    try:
        return classify_case(g)
    except InvariantViolation as exc:
        assert "matches none of the six shapes" in str(exc), exc
        return None


def small_multigraphs():
    """Every genus-labelled multigraph on vertices ``0..V-1`` with
    ``V <= 3``, at most five edges (loops allowed) and genus labels 0 to
    2, as a :class:`DualGraph`: 12 996 graphs, isomorphic ones repeated."""
    for nv in range(1, 4):
        pairs = list(itertools.combinations_with_replacement(range(nv), 2))
        for ne in range(6):
            for edges in itertools.combinations_with_replacement(pairs, ne):
                for genera in itertools.product(range(3), repeat=nv):
                    yield DualGraph(genera, edges)


def test_closed_form_matches_the_permutation_search():
    """The per-vertex (genus, valence, loops) lookup gives the label of the
    vertex-permutation search on every multigraph of
    :func:`small_multigraphs` and on every small genus-labelled multigraph
    drawn, and raises exactly where that search matches no shape."""
    graphs = list(small_multigraphs())
    assert len(graphs) == 12996
    rng = random.Random(1314)
    for _ in range(3000):
        nv = rng.randint(1, 4)
        edges = tuple(tuple(sorted(rng.sample(range(nv), 2)
                                   if nv > 1 and rng.random() < 0.7
                                   else [rng.randrange(nv)] * 2))
                      for _ in range(rng.randint(1, 5)))
        graphs.append(DualGraph(tuple(rng.randint(0, 2)
                                      for _ in range(nv)), edges))
    labels = set()
    for g in graphs:
        label = label_or_none(g)
        assert label == decomposition_oracle.classify_case(g), g
        labels.add(label)
    assert labels == CASE_LABELS | {None}


def connected(nv, edges):
    """Whether the multigraph on vertices ``0..nv-1`` is connected."""
    reached, stack = {0}, [0]
    while stack:
        u = stack.pop()
        for a, b in edges:
            for x, y in ((a, b), (b, a)):
                if x == u and y not in reached:
                    reached.add(y)
                    stack.append(y)
    return len(reached) == nv


def admissible_pinch_graphs(max_vertices=4):
    """Pairs ``(h, graph)``: every genus-labelled multigraph on vertices
    ``0..V-1``, ``V <= max_vertices``, that the argument of
    :func:`classify_case` allows for a genus-3 pinch of cycle rank ``h`` in
    1..3.  It has ``V - 1 + h`` edges (loops allowed), is connected and
    has no bridge, its genus labels sum to ``3 - h``, and every genus-0
    vertex has valence at least 3, a loop counting twice.  Isomorphic
    graphs are repeated."""
    for h in (1, 2, 3):
        for nv in range(1, max_vertices + 1):
            pairs = list(itertools.combinations_with_replacement(range(nv),
                                                                 2))
            for edges in itertools.combinations_with_replacement(
                    pairs, nv - 1 + h):
                if not connected(nv, edges) or any(
                        not connected(nv, edges[:i] + edges[i + 1:])
                        for i in range(len(edges))):
                    continue
                valence = [sum(e.count(x) for e in edges) for x in range(nv)]
                for genera in itertools.product(range(4 - h), repeat=nv):
                    if sum(genera) == 3 - h and all(
                            genus or valence[x] >= 3
                            for x, genus in enumerate(genera)):
                        yield h, DualGraph(genera, edges)


def test_pinch_shape_table_is_complete():
    """The six-entry table of :func:`classify_case` holds every pinch
    shape of a genus-3 origami: over every admissible graph of cycle rank
    ``h`` in 1..3 on up to four vertices, every one has at most ``h + 1``
    vertices; those of rank 1 and 2 have exactly the six table keys as
    their per-vertex (genus, valence, loops) signatures, each key one
    isomorphism class, labelled as the vertex-permutation search labels
    it; and rank 3 leaves only genus-0 labels, none of them in the table,
    so ``classify_case`` raises there (the Lagrangian branch)."""
    shapes, lagrangian = {}, 0
    for h, g in admissible_pinch_graphs():
        assert len(g.genera) <= h + 1, g
        valence, loops = Counter(), Counter()
        for u, w in g.edges:
            valence[u] += 1
            valence[w] += 1
            loops[u] += u == w
        signature = tuple(sorted((genus, valence[x], loops[x])
                                 for x, genus in enumerate(g.genera)))
        if h == 3:
            assert all(genus == 0 for genus in g.genera), g
            assert signature not in cylinders._CASE_SIGNATURES, g
            with pytest.raises(InvariantViolation,
                               match="cycle rank 3 and genus labels summing "
                               "to 0 matches none of the six shapes"):
                classify_case(g)
            lagrangian += 1
        else:
            label = decomposition_oracle.classify_case(g)
            assert label is not None and classify_case(g) == label, g
            shapes.setdefault(signature, []).append(g)
    assert set(shapes) == set(cylinders._CASE_SIGNATURES)
    assert set(cylinders._CASE_SIGNATURES.values()) == CASE_LABELS
    for graphs in shapes.values():
        first = graphs[0]
        for g in graphs:
            assert decomposition_oracle._multigraph_isomorphic(
                first.genera, first.edges, g.genera, g.edges), g
    assert lagrangian == 18


def zeros_of(d):
    """The zero pairs of ``d``'s saddles read off its words by ``τ∘β⁻¹``,
    in saddle order and renamed in first-seen order."""
    return decomposition_oracle.renamed_zeros(
        decomposition_oracle.word_zeros(d.diagram))


def corner_zeros_of(saddles):
    """The zero pairs of the oracle's saddles read from the corners, in
    saddle order and renamed in first-seen order."""
    return decomposition_oracle.renamed_zeros(
        decomposition_oracle.corner_zeros(saddles))


def outcome(o):
    """The one pass's decomposition of ``o`` and the ``τ∘β⁻¹`` zeros of
    its words, or the type and message of what it raised."""
    try:
        d = horizontal_decomposition(o)
    except InvariantViolation as exc:
        return type(exc), str(exc)
    return d, zeros_of(d)


def oracle_outcome(o):
    """The oracle's decomposition of ``o`` and the zeros of its saddles
    read from the corners, or the type and message of what it raised."""
    try:
        d, saddles = decomposition_oracle.decomposition_with_saddles(o)
    except InvariantViolation as exc:
        return type(exc), str(exc)
    return d, corner_zeros_of(saddles)


def test_one_pass_matches_the_oracle_in_every_genus():
    """The one pass gives the oracle's decomposition and dual graph, field
    by field and position by position, and the ``τ∘β⁻¹`` reading of its
    words gives the oracle's corner zeros, on the torus, the genus-2 L, the
    reference, 600 random origamis of genus 1 to 6 on 1 to 12 squares,
    and the vertical 2- to 5-fold stretches of every genus-2 and genus-3
    class up to 5 squares, each randomly relabelled.  On each of these the
    genus obeys Gauss-Bonnet against the ``τ∘β⁻¹`` zeros: ``2·(genus - 1)``
    is the number of saddles less the number of zeros.  The stretches make
    stacks up to 15 rows high, and in more than 300 surfaces a stack has
    an upper row holding a smaller square than its bottom row, so the
    loop over the rows meets that row first and must skip it.  On
    permutation pairs that skip the transitivity check, connected or
    not (3000 random ones and every pair on at most 4 squares), it
    returns what the oracle returns or raises what it raises, with the
    same message.  The oracle keeps the boundary checks that the one pass
    leaves to the corner identity, and only two messages are ever raised:
    a stack without a bottom row and a disconnected surface."""
    rng = random.Random(3333)
    surfaces = [torus(), l_origami(), wollmilchsau()]
    surfaces += [random_origami(rng, 12) for _ in range(600)]
    relabel_rng = random.Random(3334)
    stretched = [relabelled(relabel_rng, vertical_stretch(o, k))
                 for genus in (2, 3)
                 for o in sorted(classes_of_genus(genus, 5), key=repr)
                 for k in range(2, 6)]
    assert len(stretched) == 452
    genera = Counter()
    upper_first = 0
    for o in surfaces + stretched:
        d = horizontal_decomposition(o)
        genus = d.dual_graph.genus
        genera[genus] += 1
        assert genus == singularity_data(o).genus
        # Gauss-Bonnet: the genus of the pinch graph agrees with the
        # τ∘β⁻¹ zeros of the pass's words
        zeros = zeros_of(d)
        assert 2 * (genus - 1) == len(zeros) - len(
            {z for pair in zeros for z in pair}), o
        assert outcome(o) == oracle_outcome(o), o
        assert d.dual_graph == decomposition_oracle.dual_graph(d), o
        upper_first += any(min(row) < min(stack[0])
                           for stack in d.rows for row in stack[1:])
    assert sorted(genera) == [1, 2, 3, 4, 5, 6]
    assert upper_first > 300
    pairs = []
    for _ in range(3000):
        n = rng.randint(1, 12)
        h, v = list(range(n)), list(range(n))
        rng.shuffle(h)
        rng.shuffle(v)
        pairs.append((tuple(h), tuple(v)))
    pairs += [(h, v) for n in range(1, 5)
              for h in itertools.permutations(range(n))
              for v in itertools.permutations(range(n))]
    assert len(pairs) == 3000 + 617
    raised = Counter()
    messages = Counter()
    for i, (h, v) in enumerate(pairs):
        o = Origami(h, v)
        result = outcome(o)
        assert result == oracle_outcome(o), o
        if i < 3000:
            raised[result[0] is InvariantViolation] += 1
        if result[0] is InvariantViolation:
            messages[result[1]] += 1
    assert raised[True] > 300 and raised[False] > 2000
    assert set(messages) == {"cylinder stack must have a unique bottom row",
                             "surface must be connected"}, messages


def longest_find_walk(d):
    """The longest walk to a root, in links, made by joining the pinch
    halves of ``d`` in top-word order with a union-find that links the
    larger root under the smaller: how far the sample stresses the join."""
    bottom_of = {sid: cid for cid, word in enumerate(d.diagram.bottom_words)
                 for sid in word}
    parent = list(range(2 * len(d.rows)))
    longest = 0

    def root(q):
        nonlocal longest
        links = 0
        while parent[q] != q:
            q = parent[q]
            links += 1
        longest = max(longest, links)
        return q

    for cid, word in enumerate(d.diagram.top_words):
        for sid in word:
            y, z = root(2 * cid + 1), root(2 * bottom_of[sid])
            parent[max(y, z)] = min(y, z)
    return longest


def test_pinch_union_matches_the_oracle_on_large_pairs():
    """The union of the pinch halves gives the oracle's decomposition and
    dual graph, position by position, and the ``τ∘β⁻¹`` reading of its
    words the oracle's corner zeros, on 300 random transitive pairs of 10
    to 16 squares, mostly of genus 4 to 8, whose joins walk further to
    their roots than those of genus-3 samples do, and on two pinned pairs
    where a join that stops two links short of its root merges the wrong
    halves.  Linking the two halves of a join without walking to their
    roots fails here."""
    rng = random.Random(4040)
    surfaces = [parse_origami(
        'origami n=15 h="(1 3 8 5)(2 10 4)(6 13 7 12)(9 11)" '
        'v="(0 6 8 1 4 10 12 5)(2 7 11)(9 14)"'), parse_origami(
        'origami n=16 h="(0 10 7 13 6 9 4)(2 11 12 14 3)(8 15)" '
        'v="(0 4 6 9 5 12 2 3 10 13 7)(1 15 11 8 14)"')]
    assert all(longest_find_walk(horizontal_decomposition(o)) >= 3
               for o in surfaces)
    while len(surfaces) < 302:
        o = random_origami(rng, 16)
        if o.n >= 10:
            surfaces.append(o)
    deep = 0
    for o in surfaces:
        d = horizontal_decomposition(o)
        old, old_saddles = decomposition_oracle.decomposition_with_saddles(o)
        assert d == old, o
        assert zeros_of(d) == corner_zeros_of(old_saddles), o
        assert list(old_saddles) == list(range(len(d.saddle_lengths))), o
        assert d.dual_graph == decomposition_oracle.dual_graph(d), o
        deep += longest_find_walk(d) >= 3
    assert deep > 2


def test_malformed_origami_raises_as_the_oracle_does():
    """Two 1-square tori, bypassing the transitivity check: the second
    torus's row sits on itself, so its stack has no bottom row."""
    two_tori = Origami((0, 1), (0, 1))
    for decompose in (horizontal_decomposition,
                      decomposition_oracle.horizontal_decomposition):
        with pytest.raises(InvariantViolation, match="unique bottom row"):
            decompose(two_tori)


def test_disconnected_origami_raises_as_the_oracle_does():
    """Two genus-2 L-shaped surfaces, bypassing the transitivity check:
    every row is in a stack and the Euler count reads genus 3, but the
    pinch graph has two components, so the pair is not classified."""
    two_ls = Origami((1, 0, 2, 4, 3, 5), (2, 1, 0, 5, 4, 3))
    assert singularity_data(two_ls).genus == 3
    for decompose in (horizontal_decomposition,
                      decomposition_oracle.horizontal_decomposition,
                      classify_surface):
        with pytest.raises(InvariantViolation,
                           match="surface must be connected"):
            decompose(two_ls)


def test_area_conservation_under_direction_change(rng):
    for _ in range(15):
        o = random_origami(rng)
        for slope in ((0, 1), (1, 0), (1, 1), (-1, 2)):
            d = periodic_decomposition(o, slope)
            assert sum(w * h for w, h in zip(d.circumferences, d.heights)) == o.n


def test_saddle_words_partition_boundaries(rng):
    for _ in range(15):
        o = random_origami(rng)
        d = horizontal_decomposition(o)
        d.diagram.validate()
        for cid, w in enumerate(d.circumferences):
            word = d.diagram.bottom_words[cid]
            lengths = [d.saddle_lengths[s] for s in word]
            assert [d.bottom_positions[s] for s in word] == \
                list(itertools.accumulate([0] + lengths[:-1]))
            for words in (d.diagram.bottom_words, d.diagram.top_words):
                total = sum(d.saddle_lengths[s] for s in words[cid])
                assert total == w


def brute_force_key(diagram):
    """Reference canonical key: the minimum, over every cylinder order and
    every rotation of each boundary word, of the word list with saddles
    renamed in first-seen order (the words fix the zeros)."""
    rotation_sets = [[(rb, rt)
                      for rb in range(max(len(bw), 1))
                      for rt in range(max(len(tw), 1))]
                     for bw, tw in zip(diagram.bottom_words,
                                       diagram.top_words)]
    best = None
    for order in itertools.permutations(range(len(rotation_sets))):
        for rots in itertools.product(*(rotation_sets[i] for i in order)):
            saddles, enc = {}, []
            for i, (rb, rt) in zip(order, rots):
                bw = diagram.bottom_words[i]
                tw = diagram.top_words[i]
                enc.append(tuple(
                    tuple(saddles.setdefault(s, len(saddles)) for s in w)
                    for w in (bw[rb:] + bw[:rb], tw[rt:] + tw[:rt])))
            cand = tuple(enc)
            if best is None or cand < best:
                best = cand
    return best


def brute_force_size(diagram):
    """Number of encodings :func:`brute_force_key` tries."""
    return factorial(len(diagram.bottom_words)) * prod(
        len(bw) * len(tw)
        for bw, tw in zip(diagram.bottom_words, diagram.top_words))


def scrambled(diagram, rng):
    """An isomorphic copy: cylinders moved to positions permuted at
    random, saddles renamed at random (to strings) and every boundary word
    rotated."""
    k = len(diagram.bottom_words)
    saddle_ids = [s for w in diagram.bottom_words for s in w]
    new_saddles = dict(zip(saddle_ids, rng.sample(
        ["s%d" % i for i in range(100)], len(saddle_ids))))

    def move(word):
        r = rng.randrange(len(word))
        return tuple(new_saddles[s] for s in word[r:] + word[:r])

    # position i of the copy holds cylinder order[i]
    order = rng.sample(range(k), k)
    return CylinderDiagram(
        bottom_words=tuple(move(diagram.bottom_words[c]) for c in order),
        top_words=tuple(move(diagram.top_words[c]) for c in order),
    )


def random_diagrams(rng, count, max_squares=9, max_encodings=5000):
    """Diagrams of horizontal and sheared decompositions of random origamis
    small enough for :func:`brute_force_key`."""
    slopes = ((0, 1), (1, 0), (1, 1), (-1, 2))
    out = []
    while len(out) < count:
        d = periodic_decomposition(random_origami(rng, max_squares),
                                   rng.choice(slopes))
        if brute_force_size(d.diagram) <= max_encodings:
            out.append(d.diagram)
    return out


# two saddle-connected groups of words joined only through cylinders 1-3,
# and no symmetry: the key depends on the rotations its branches try
BRANCHING_DIAGRAM = CylinderDiagram(
    bottom_words=((0,), (1, 2), (3, 4), (5, 6), (7,)),
    top_words=((6,), (0, 7), (3, 2), (1, 4), (5,)),
)


def test_diagram_canonical_key_invariance(rng):
    diagrams = [horizontal_decomposition(wollmilchsau()).diagram,
                CASE4A_DIAGRAM, BRANCHING_DIAGRAM] + random_diagrams(rng, 40)
    for diagram in diagrams:
        key = diagram.canonical_key()
        for _ in range(5):
            assert scrambled(diagram, rng).canonical_key() == key


def test_canonical_key_equals_the_all_anchor_oracle(rng):
    # key values, not only classes: anchoring on the shortest bottoms
    # finds the minimum over every anchor
    diagrams = [horizontal_decomposition(wollmilchsau()).diagram,
                CASE4A_DIAGRAM, BRANCHING_DIAGRAM] + random_diagrams(rng, 60)
    assert len({len(w) for d in diagrams[3:]
                for w in d.bottom_words}) > 2
    for diagram in diagrams:
        copy = scrambled(diagram, rng)
        assert diagram.canonical_key() == key_oracle.canonical_key(diagram)
        assert copy.canonical_key() == key_oracle.canonical_key(copy)


def test_canonical_key_classes_match_brute_force(rng):
    diagrams = random_diagrams(rng, 320)
    new = [d.canonical_key() for d in diagrams]
    old = [brute_force_key(d) for d in diagrams]
    # equal new keys exactly when equal brute-force keys, for every pair
    assert len(set(new)) == len(set(old)) == len(set(zip(new, old)))
    assert len(set(new)) > 40


def test_slope_words_carry_the_direction_to_horizontal():
    """Every reduced slope with entries up to 40 gets a word whose matrix
    carries its direction vector ``(q, p)`` to ``(1, 0)``, with at most
    one ``S`` per halving of ``|p|`` and two more."""
    o = wollmilchsau()
    slopes = [(p, q) for p in range(-40, 41) for q in range(-40, 41)
              if gcd(p, q) == 1]
    assert len(slopes) == 3920
    for p, q in slopes:
        word, _ = direction_member(o, (p, q))
        (a, b), (c, d) = word_matrix(word)
        assert (a * q + b * p, c * q + d * p) == (1, 0), (p, q)
        assert word.count("S") <= abs(p).bit_length() + 2, (p, q)
        # the word depends on the slope alone
        assert direction_member(torus(), (p, q))[0] == word
    for _ in range(2):
        with pytest.raises(ValueError, match="not reduced"):
            direction_member(o, (2, 4))


def test_slope_words_are_pinned():
    """The words of the axes and of the slopes ``(1, q)``, ``|q| <= 6``,
    where ``(1, q)`` gets ``T⁻q S S S``; the census and corpus samples
    defer only to slopes of rise 1."""
    assert cylinders._slope_word(0, 1) == ()
    assert cylinders._slope_word(0, -1) == ("S", "S")
    assert cylinders._slope_word(1, 0) == ("S", "S", "S")
    assert cylinders._slope_word(-1, 0) == ("S",)
    for q in range(-6, 7):
        shear = ("T^-1",) * q if q > 0 else ("T",) * -q
        assert cylinders._slope_word(1, q) == shear + ("S", "S", "S"), q


def test_one_cylinder_catalog_keys_are_pairwise_distinct():
    catalog = enumerate_diagrams((1, 1, 1, 1), "one_cylinder")
    assert len(catalog) == 4
    assert len({d.canonical_key() for d in catalog.diagrams}) == 4
    assert len({brute_force_key(d) for d in catalog.diagrams}) == 4


def test_malformed_diagrams_raise():
    repeated = CylinderDiagram(((0, 0),), ((0, 1),))
    with pytest.raises(InvariantViolation, match="repeated on bottoms"):
        repeated.validate()
    with pytest.raises(InvariantViolation):
        repeated.canonical_key()
    with pytest.raises(InvariantViolation, match="disagree"):
        CylinderDiagram(((0,),), ((1,),)).validate()
    disconnected = CylinderDiagram(((0,), (1,)), ((0,), (1,)))
    with pytest.raises(InvariantViolation, match="disconnected"):
        disconnected.canonical_key()
    # no saddle, so no anchor: one cylinder, and two disconnected ones
    for words in (((),), ((), ())):
        with pytest.raises(InvariantViolation, match="no saddle"):
            CylinderDiagram(words, words).canonical_key()
    # two bottoms and one top: each saddle is once on each side, and the
    # traversal places all three words, so only the count tells
    uneven = CylinderDiagram(((0,), (1,)), ((0, 1),))
    for check in (uneven.validate, uneven.canonical_key):
        with pytest.raises(InvariantViolation,
                           match="bottom and top words number different "
                           "cylinders"):
            check()


def test_moduli_exponents():
    """The exponents of a decomposition; plain lists of moduli go to the
    fraction oracle, the only code that reads them."""
    o = parse_origami('origami n=5 h="(0 1)(2 3 4)" v="(1 2)"')
    assert moduli_exponents(horizontal_decomposition(o)) == (3, 2)
    assert moduli_exponents(horizontal_decomposition(l_origami())) == (1, 2)
    assert moduli_exponents(horizontal_decomposition(wollmilchsau())) == \
        (1, 1)
    assert survivor_oracle.moduli_exponents(
        [Fraction(1, 2), Fraction(1, 3)]) == (3, 2)
    assert survivor_oracle.moduli_exponents(
        [Fraction(1, 4), Fraction(1, 4)]) == (1, 1)
    with pytest.raises(ValueError, match="not an exact rational"):
        survivor_oracle.moduli_exponents([0.5, Fraction(1, 3)])
