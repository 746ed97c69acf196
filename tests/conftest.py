"""Shared fixtures: frozen exemplar surfaces (one per pinch shape) and
random-instance generators used across the suite."""

import functools
import itertools
import random
from fractions import Fraction

import pytest

from net_oracle import CylinderGeometry, build_net
from squaretiled.cylinders import CylinderDiagram
from squaretiled.errors import NotTransitive
from squaretiled.surface import build_origami, canonical_form, \
    perm_from_cycles, singularity_data
from squaretiled.transverse import TransverseWitness


# the H(4) surface of the monodromy tests and the benchmark: its orbit has
# 10 members in 3 cusps and its restricted closure is unbounded
H4_LINE = 'origami h="(1 3)(2 4)" v="(0 3 4)"'
# a 6-square H(2,2) surface whose stabilizer words up to length 3 generate
# a finite group of order 18, though its orbit's closure is unbounded
SIX_SQUARES = 'origami n=6 h="(0 1 2)(3 4 5)" v="(0 3 1 5 2 4)"'
# an H(3,1) surface whose directions with slope entries up to 2 all have
# core span rank 2, while a cusp of its orbit has rank 3
H31_SIX = 'origami n=6 h="(0 4 1 2 3)" v="(0 3 4 1 5)"'
# lines that name no origami: an entry past n, a negative entry, the
# reference with its second h-cycle unclosed, and stray text between cycles
MALFORMED_LINES = (
    'origami n=2 h="(0 5)" v=""',
    'origami n=2 h="(0 1 -1)" v=""',
    'origami h="(0 1 2 3)(4 7 6 5" v="(0 4 2 6)(1 5 3 7)"',
    'origami h="(0 1 2 3) and (4 7 6 5)" v="(0 4 2 6)(1 5 3 7)"',
)


def wollmilchsau():
    return build_origami(
        perm_from_cycles([(0, 1, 2, 3), (4, 7, 6, 5)], 8),
        perm_from_cycles([(0, 4, 2, 6), (1, 5, 3, 7)], 8),
    )


def l_origami():
    """Three-square genus-2 surface: two squares in a row, one on top."""
    return build_origami(perm_from_cycles([(0, 1)], 3),
                         perm_from_cycles([(0, 2)], 3))


def torus():
    return build_origami((0,), (0,))


# the labels of the six genus-3 pinch shapes
CASE_LABELS = {"Case1", "Case2", "Case3", "Case4", "Case5", "Case6"}

# one frozen genus-3 origami per horizontal pinch shape
EXEMPLARS = {
    "Case1": ((0, 3, 4, 2, 1, 5), (5, 0, 1, 3, 4, 2)),
    "Case2": ((1, 6, 5, 2, 4, 3, 7, 0), (4, 2, 1, 6, 0, 7, 5, 3)),
    "Case3": ((6, 1, 3, 4, 2, 0, 5), (2, 3, 5, 6, 0, 4, 1)),
    "Case4A": ((1, 2, 3, 0, 5, 4, 7, 6, 9, 10, 11, 8),
               (6, 4, 5, 7, 9, 8, 10, 11, 3, 2, 1, 0)),
    "Case4B": (tuple(perm_from_cycles(
        [(0, 1, 2, 3), (4, 5, 6, 7, 8), (10, 11, 12, 13)], 14)),
        (5, 6, 7, 8, 9, 10, 11, 12, 13, 4, 3, 2, 1, 0)),
    "Case5": ((2, 5, 1, 0, 3, 4), (2, 1, 0, 5, 3, 4)),
    "Case6": ((2, 3, 5, 4, 1, 0), (3, 5, 1, 2, 0, 4)),
}


# an H(1,1,1,1) surface whose horizontal direction is Case 4A with the
# wide middle spanning exactly half of the outer circumference and no
# window cell glued into the window: the boundary construction
BOUNDARY_4A = ('origami n=12 h="(0 1 2 3)(4 5)(6 7)(8 9 10 11)" '
               'v="(0 4 8 3 7 11)(1 5 9 2 6 10)"')


def exemplar(name):
    h, v = EXEMPLARS[name]
    return build_origami(h, v)


def random_origami(rng, max_squares=10):
    """A uniformly sampled transitive origami with 2..max_squares squares."""
    while True:
        n = rng.randint(2, max_squares)
        h = list(range(n))
        v = list(range(n))
        rng.shuffle(h)
        rng.shuffle(v)
        try:
            return build_origami(tuple(h), tuple(v))
        except NotTransitive:
            continue


def relabelled(rng, x):
    """``x`` with ``h`` and ``v`` conjugated by a random permutation."""
    p = list(range(x.n))
    rng.shuffle(p)
    h, v = [0] * x.n, [0] * x.n
    for i in range(x.n):
        h[p[i]], v[p[i]] = p[x.h[i]], p[x.v[i]]
    return build_origami(tuple(h), tuple(v))


def vertical_stretch(o, k):
    """``o`` with every square stretched into a column of ``k`` squares:
    square ``s + j·n`` is row ``j`` of the column over square ``s``."""
    n = o.n
    return build_origami(
        tuple(o.h[s % n] + s // n * n for s in range(k * n)),
        tuple(s + n if s < (k - 1) * n else o.v[s % n]
              for s in range(k * n)))


def random_genus3(rng, low, high):
    """A random transitive genus-3 permutation pair on ``low``..``high``
    squares."""
    while True:
        o = random_origami(rng, high)
        if o.n >= low and singularity_data(o).genus == 3:
            return o


def _partitions(n, largest=None):
    """The partitions of ``n`` into parts of at most ``largest``, parts in
    decreasing order."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _cycle_count(p):
    seen = [False] * len(p)
    count = 0
    for s in range(len(p)):
        if not seen[s]:
            count += 1
            while not seen[s]:
                seen[s] = True
                s = p[s]
    return count


def origamis_of_genus(genus, max_squares):
    """Every transitive origami of the given genus on at most
    ``max_squares`` squares whose ``h`` is the representative of its cycle
    type that cycles consecutive squares, paired with every ``v``.
    Relabeling carries any origami to one of these, so up to isomorphism
    the set holds every origami of that genus and size and every member of
    its ``SL(2, Z)`` orbit."""
    for n in range(1, max_squares + 1):
        for cycle_type in _partitions(n):
            starts = itertools.accumulate((0,) + cycle_type)
            h = perm_from_cycles([tuple(range(a, a + k)) for a, k in
                                  zip(starts, cycle_type)], n)
            for v in itertools.permutations(range(n)):
                # a connected surface of n squares has genus g when its
                # corner permutation c(v(h(j))) = h(v(j)) has n + 2 - 2g
                # cycles (Euler characteristic)
                corner = [0] * n
                for j in range(n):
                    corner[v[h[j]]] = h[v[j]]
                if _cycle_count(corner) != n + 2 - 2 * genus:
                    continue
                try:
                    o = build_origami(h, v)
                except NotTransitive:
                    continue
                yield o


@functools.cache
def classes_of_genus(genus, max_squares):
    """The canonical forms of :func:`origamis_of_genus`, one per
    isomorphism class, built once per session for every census test."""
    return frozenset(canonical_form(o)
                     for o in origamis_of_genus(genus, max_squares))


def random_unimodular(rng, n):
    """A random n-by-n integer matrix of determinant 1 (n >= 2): a
    product of elementary row additions."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        m = [[m[r][k] + (c * m[j][k] if r == i else 0) for k in range(n)]
             for r in range(n)]
    return m


# the four-cylinder "stacked pair with two middles" diagram: outer
# cylinders 0 and 3 share a full interface, middles 1 (wide) and 2 sit
# between the top of 0 and the bottom of 3
CASE4A_DIAGRAM = CylinderDiagram(
    bottom_words=((0, 1, 2, 3), (4,), (5,), (6, 7)),
    top_words=((4, 5), (6,), (7,), (3, 2, 1, 0)),
)


def random_case4a_net(rng, denominator=8):
    """A random metric net over the four-cylinder stacked diagram.

    All saddle lengths and twists are multiples of ``1/denominator`` and
    the wide middle is strictly wider than half the outer circumference,
    so any nonempty open window hit contains a grid point of denominator
    ``2*denominator``."""
    q = Fraction(1, denominator)

    def composition(total_units, parts):
        cuts = sorted(rng.sample(range(1, total_units), parts - 1))
        prev, out = 0, []
        for c in cuts + [total_units]:
            out.append((c - prev) * q)
            prev = c
        return out

    l0, l1, l2, l3 = composition(denominator, 4)
    l4 = rng.choice([k for k in range(1, denominator)
                     if 2 * k != denominator]) * q
    l5 = 1 - l4
    lengths = {0: l0, 1: l1, 2: l2, 3: l3, 4: l4, 5: l5, 6: l4, 7: l5}
    widths = {0: Fraction(1), 1: l4, 2: l5, 3: Fraction(1)}

    def geom(cid):
        h = Fraction(rng.randint(1, 4), rng.choice([1, 2]))
        twist = rng.randrange(int(widths[cid] / q)) * q
        return CylinderGeometry(widths[cid], h, twist)

    return build_net({c: geom(c) for c in range(4)}, CASE4A_DIAGRAM,
                     lengths)


def decomposition_net(d):
    """The metric net of an origami's cylinder decomposition ``d``:
    :func:`build_net` recomputes every saddle position from the lengths and
    each cylinder's twist, read as the start of its first top saddle."""
    geoms = {cid: CylinderGeometry(
        c.circumference, c.height, d.top_positions[top[0]])
        for cid, (c, top) in enumerate(zip(d.cylinders, d.diagram.top_words))}
    return build_net(geoms, d.diagram, dict(enumerate(d.saddle_lengths)))


def scaled_net(net, k):
    """``net`` with every length, position and height multiplied by ``k``;
    ``k = 16`` takes a :func:`random_case4a_net` to whole units."""
    geoms = {c: CylinderGeometry(g.circumference * k, g.height * k,
                                 g.twist * k)
             for c, g in net.cylinders.items()}
    return build_net(geoms, net.diagram,
                     {sid: length * k
                      for sid, length in net.saddle_lengths.items()})


def scaled_witness(witness, k):
    """``witness`` with its width, start interval and direction multiplied
    by ``k``: the witness of the net scaled by ``k``."""
    return TransverseWitness(
        witness.crossed, witness.width * k,
        tuple(x * k for x in witness.start_interval),
        tuple(x * k for x in witness.direction), witness.kind)


@pytest.fixture
def rng():
    return random.Random(20260824)
