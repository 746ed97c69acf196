r"""
The affine group of an origami acting on integer homology: the
``SL(2, Z)``-orbit graph and the Schreier generators of the Veech group
read off it, their symplectic matrices, the restriction to the
zero-holonomy subspace, an exact finiteness decision by reduction mod 3,
and the core-curve upper bound on the isometric-subspace dimension read
off the cusps as the orbit walk closes them.

The computable surrogate for an isometrically-moving subspace is the
monodromy of the affine group on the kernel of the two holonomy covectors:
a compact (equivalently, finite) restricted monodromy group is what a
maximal such subspace produces, and the core-curve ranks of the
directions bound its dimension from above.  Up to the Veech group, the
rational directions fall into one class per cusp of the orbit graph, so
the bound reads one horizontal decomposition per cusp, not a box of
slopes.  The orbit is walked by one lazy walk that yields each cusp as
soon as its ``T``-cycle closes: :func:`orbit_graph` drains it, and the
bound stops it at the first cusp whose rank is the genus.

The generators are exact, not a search up to a word length: one word in
``T`` and ``S`` per edge of the orbit graph outside a spanning tree
(G. Schmithüsen, Experiment. Math. 13, 2004), the cusp parabolics first.
A word becomes a matrix only when something reads it:
:func:`homology_action` finds its relabelling onto ``o`` and its action on
homology, :func:`restrict_to_zero_holonomy` yields the restrictions one
at a time, and :func:`closure_classify` stops reading at its first
witness, so an ``Unbounded`` closure acts on homology only with the
generators up to that witness.

The finiteness decision grows the group one generator at a time, with one
exact lift per residue mod 3.  A generator whose residue's lift equals it
is already an element and is skipped; one whose residue's lift differs
gives a nonidentity element of the torsion-free kernel of reduction mod 3,
so the group is unbounded; any other generator extends the group, and each
pair of an element and an added generator is multiplied once.  A finite
group of order ``N`` so costs at most ``N`` products per generator that
enlarged it: ``T`` and ``S`` generate the reference surface's group of
order 96 in 192 products.

EXAMPLES::

    >>> from squaretiled.surface import build_origami
    >>> stabilizer_generators(build_origami((0,), (0,)))
    [('T',), ('S',)]
"""

from __future__ import annotations

import itertools
from operator import mul
from typing import NamedTuple

from .cylinders import horizontal_decomposition
from .errors import InvariantViolation, NotAStabilizer
from .homology import HomologyBasis, transport_chains
from .intlinalg import identity_matrix, mat_mul, smith_normal_form, \
    snf_rank
from .surface import Origami, _inverse, act_sl2z, canonical_form, \
    origami_isomorphism

# ---------------------------------------------------------------------------
# the orbit graph and the Veech group's generators
# ---------------------------------------------------------------------------


class OrbitGraph(NamedTuple):
    """The ``SL(2, Z)``-orbit of an origami ``o`` as a graph on canonical
    forms, from :func:`orbit_graph`; a named tuple, as every record is
    (see Records in the README).

    ``members`` are the canonical forms, ``members[0]`` that of ``o``;
    ``act_sl2z(o, words[i])`` is isomorphic to ``members[i]``, the words
    following a spanning tree.  ``cusps`` lists each ``T``-cycle as
    ``(first, width)``: ``T`` maps member ``first + a`` to
    ``first + (a + 1) % width``.  ``s_images[i]`` is the index of ``S``
    applied to member ``i``.  ``generators`` holds one word per edge
    outside the tree: the cusp parabolics ``w T^k w⁻¹`` in cusp order,
    then the ``S``-edges in member order.  The graph holds the whole
    walk; :func:`forni_upper_bound` reads the walk's cusps as they close
    instead."""

    members: tuple
    words: tuple
    cusps: tuple
    s_images: tuple
    generators: tuple


def orbit_graph(o: Origami) -> OrbitGraph:
    r"""
    Walk ``T`` and ``S`` breadth-first over the canonical forms of the
    ``SL(2, Z)``-orbit of ``o``: :func:`_orbit_walk` drained.

    A member reached for the first time through ``S`` (or ``o`` itself)
    opens a cusp: its whole ``T``-cycle is walked at once and joins the
    spanning tree along ``T``, so member ``first + a`` has the word
    ``w T^a``.  The cycle's closing ``T``-edge is then the only ``T``-edge
    outside the tree, and its Schreier generator ``w T^k (w T^0)⁻¹`` is
    the cusp parabolic ``w T^k w⁻¹``.  An ``S``-edge from member ``i`` to
    a member ``j`` already reached is outside the tree and gives
    ``w_i S w_j⁻¹``.  A tree on ``|O|`` members has ``|O| - 1`` of the
    ``2|O|`` edges, so there are ``|O| + 1`` generators, and
    ``2|O| + 1`` canonical forms are computed.

    Schreier's lemma makes these words generate the stabilizer of ``o`` in
    the free group on ``T`` and ``S``, and the action on origamis factors
    through ``SL(2, Z)``, so their matrices generate the Veech group.
    The generators are plain words: no word is applied to ``o`` here.
    :func:`homology_action` lifts a word to an affine map of ``o`` when it
    is read, with the relabelling that carries the transformed origami
    onto ``o``.  These lifts may miss translations of ``o``, which form a
    finite normal subgroup of the affine group, so whether the restricted
    closure is finite does not depend on them.

    EXAMPLES::

        >>> from squaretiled.surface import build_origami
        >>> g = orbit_graph(build_origami((1, 0, 2), (2, 1, 0)))
        >>> g.words, g.cusps, g.s_images
        (((), ('T',), ('T', 'S')), ((0, 2), (2, 1)), (0, 2, 1))
        >>> for word in g.generators:
        ...     print(" ".join(word))
        T T
        T S T S S S T^-1
        S
        T S S T^-1
    """
    members, words, s_images = [], [], []
    cusps = tuple(_orbit_walk(o, members, words, s_images))
    parabolics = [words[first] + ("T",) * width + _inverse(words[first])
                  for first, width in cusps]
    # an S-edge is a tree edge exactly when it opened member j's cusp,
    # and tree words are distinct
    schreier = [words[i] + ("S",) + _inverse(words[j])
                for i, j in enumerate(s_images)
                if words[j] != words[i] + ("S",)]
    return OrbitGraph(tuple(members), tuple(words), cusps,
                      tuple(s_images), tuple(parabolics + schreier))


def _orbit_walk(o: Origami, members, words, s_images):
    """The walk of :func:`orbit_graph`: it appends the members, their
    words and the ``S``-image of each member whose ``S``-edge it walked
    to the caller's lists, and yields each cusp ``(first, width)`` as
    soon as its ``T``-cycle closes.  The ``S``-edges that open the next
    cusp are walked only when it is asked for, so a reader that stops
    early computes no member past the cusp it stopped at."""
    index, x, word = {}, canonical_form(o), ()
    for i in itertools.count():  # members grows while it is read
        first = len(members)
        # a member first reached (o, then through the S-edge of member
        # i - 1) opens a cusp; its T-cycle holds only new members, so the
        # walk ends back at its first one
        while x not in index:
            index[x] = len(members)
            members.append(x)
            words.append(word)
            x = canonical_form(act_sl2z(x, ("T",)))
            word += ("T",)
        if first < len(members):
            yield first, len(members) - first
        if i == len(members):
            return
        x = canonical_form(act_sl2z(members[i], ("S",)))
        word = words[i] + ("S",)
        s_images.append(index.get(x, len(members)))


def stabilizer_generators(o: Origami, word_bound=None):
    r"""
    The generators of the affine group of ``o`` as a list of words, the
    cusp parabolics first: those of :func:`orbit_graph`.  ``word_bound``
    is ignored.

    EXAMPLES::

        >>> from squaretiled.surface import build_origami, perm_from_cycles
        >>> ew = build_origami(perm_from_cycles([(0, 1, 2, 3), (4, 7, 6, 5)], 8),
        ...                    perm_from_cycles([(0, 4, 2, 6), (1, 5, 3, 7)], 8))
        >>> stabilizer_generators(ew)
        [('T',), ('S',)]
    """
    return list(orbit_graph(o).generators)


def homology_action(o: Origami, word, basis: HomologyBasis):
    r"""
    The integer symplectic matrix of a stabilizing word on the homology
    basis of ``o``.

    The basis cycles are transported through the word's shears and
    rotations (:func:`~squaretiled.homology.transport_chains`), which also
    gives the transformed origami.  Its relabelling onto ``o``
    (:func:`~squaretiled.surface.origami_isomorphism`) makes the word an
    affine map of ``o``; a word without one raises
    :class:`~squaretiled.errors.NotAStabilizer`, the one check that a
    generator stabilizes ``o``.  The image chains are re-indexed by that
    relabelling back onto the squares of ``o``, and their coordinates in
    ``basis`` are the columns.  This builds no homology basis beyond
    ``basis`` and reads each column with one coordinate solve, which also
    checks that the image is a cycle.  The matrix must preserve the
    intersection form.

    EXAMPLES::

        >>> from squaretiled.homology import homology_basis
        >>> from squaretiled.surface import build_origami
        >>> torus = build_origami((0,), (0,))
        >>> homology_action(torus, ("T",), homology_basis(torus))
        [[1, 1], [0, 1]]
    """
    transformed, images = transport_chains(o, word, basis.basis_chains)
    perm = origami_isomorphism(transformed, o)
    if perm is None:
        raise NotAStabilizer("word %r does not stabilize the origami"
                             % (tuple(word),))
    n = o.n
    cols = []
    for chain in images:
        # square i of the transformed origami is square perm[i] of o
        relabelled = [0] * (2 * n)
        for i, j in enumerate(perm):
            relabelled[j] = chain[i]
            relabelled[n + j] = chain[n + i]
        cols.append(basis.coords(relabelled))
    result = [list(row) for row in zip(*cols)]
    _check_symplectic_matrix(result, basis.omega)
    return result


def _check_symplectic_matrix(m, omega):
    if mat_mul(tuple(zip(*m)), mat_mul(omega, m)) != omega:
        raise InvariantViolation("homology action must preserve the form")


# ---------------------------------------------------------------------------
# holonomy and the zero-holonomy restriction
# ---------------------------------------------------------------------------


def restrict_to_zero_holonomy(matrices, basis: HomologyBasis):
    r"""
    Yield each symplectic matrix of ``matrices``, an iterable read one
    matrix at a time, on an integer basis of the zero-holonomy subspace.

    The Smith normal form ``U·H·V = S`` of the two holonomy rows ``H``
    has rank ``r``; the last columns ``K`` of ``V`` are an integer basis
    of the zero-holonomy subspace, of rank ``2g - 2``.  In the basis of
    all columns of ``V``, ``M·K`` has coordinates ``Y = V⁻¹·M·K``.  The
    subspace is invariant exactly when the top ``r`` rows of ``Y`` vanish
    (checked), and then the other rows are the restriction ``X`` with
    ``K·X = M·K``, integral by construction.  A subspace of rank 0 has
    nothing to restrict to, and then no matrix is read.

    EXAMPLES::

        >>> from squaretiled.homology import homology_basis
        >>> from squaretiled.surface import build_origami
        >>> torus = build_origami((0,), (0,))
        >>> b = homology_basis(torus)
        >>> list(restrict_to_zero_holonomy([identity_matrix(2)], b))
        []
    """
    _, s, v, _, v_inv = smith_normal_form(list(basis.holonomy_covectors()))
    r = snf_rank(s)
    if r == basis.rank:
        return
    k = [row[r:] for row in v]
    for m in matrices:
        y = mat_mul(v_inv, mat_mul(m, k))
        if any(any(row) for row in y[:r]):
            raise InvariantViolation("zero-holonomy subspace must be "
                                     "invariant")
        yield y[r:]


# ---------------------------------------------------------------------------
# closure finiteness
# ---------------------------------------------------------------------------


class ClosureResult(NamedTuple):
    """Outcome of :func:`closure_classify`: ``Finite`` with the group
    order, or ``Unbounded`` with a witness word of infinite order (indices
    into the generator list, 1-based and negative for inverses, multiplied
    left to right).  ``generated_by`` lists, in order, the 1-based indices
    of the generators that enlarged the group; the others were already
    elements of it (for ``Unbounded``, up to where the search stopped)."""

    status: str
    order: int = None
    witness: tuple = None
    generated_by: tuple = ()

    @property
    def is_finite(self):
        return self.status == "Finite"


def _residue(m):
    return tuple(tuple(e % 3 for e in row) for row in m)


def _tree_word(parents, r):
    word = []
    while parents[r] is not None:
        r, j = parents[r]
        word.append(j)
    return tuple(reversed(word))


def _inverse_word(word):
    return tuple(-i for i in reversed(word))


def closure_classify(generators) -> ClosureResult:
    r"""
    Decide whether the group generated by invertible integer matrices,
    read from an iterable, is finite.

    The group is grown one generator at a time, in order, keeping one
    exact integer lift per residue mod 3 of the elements reached, each with
    its tree word.  After each generator the lifts are closed under right
    multiplication by every generator added so far, so they are the group
    those generators generate (a finite set of invertible matrices that
    contains ``I`` and is closed under the generators is a group), and
    reduction mod 3 is injective on it.  The kernel of reduction mod 3 is
    torsion-free (Minkowski), so a nonidentity element of it has infinite
    order.  For each generator ``g_j`` there are three cases:

    - *already an element*: the lift of its residue equals ``g_j``, so
      adding it changes nothing and it is skipped;
    - *residue collision*: the lift ``L`` of its residue differs from
      ``g_j``, so ``g_j·L⁻¹`` is a nonidentity element of the kernel and
      the group is ``Unbounded``, with witness ``(j,)`` followed by the
      inverse tree word of ``L``;
    - *new*: every element already reached is multiplied by ``g_j``, and
      every element reached from then on by every generator added so far.
      A product landing on a residue already seen is a Schreier generator
      ``L_r·g·L_{rg}⁻¹`` of the kernel; a nonidentity one makes the group
      ``Unbounded``.

    Each pair of an element and an added generator is multiplied once, so
    a ``Finite`` group of order ``N`` costs at most ``N`` times the number
    of generators that enlarged it, never more than ``N`` times the
    number of generators.  The image mod 3 is finite, so the search always
    ends and never needs inverses.  Products are taken on tuple rows
    against each generator's columns.  The generators are read only until
    a witness is found, so a lazy iterable computes no generator after
    it.  Each generator's shape is checked as it is read: one that is not
    square of the first one's size raises
    :class:`~squaretiled.errors.InvariantViolation` before any product
    with it (a zipped product would silently truncate).

    EXAMPLES::

        >>> closure_classify([identity_matrix(3)]).order
        1
        >>> closure_classify([[[0, -1], [1, 0]]]).order
        4
        >>> closure_classify([[[1, 1], [0, 1]]]).witness
        (1, 1, 1)
        >>> s, s_inverse = [[0, -1], [1, 0]], [[0, 1], [-1, 0]]
        >>> closure_classify([s, s_inverse, [[-1, 0], [0, 1]]]).generated_by
        (1, 3)
        >>> closure_classify([s, [[1, 3], [0, 1]]]).witness
        (2,)
    """
    generators = iter(generators)
    first = next(generators, None)
    if first is None:
        return ClosureResult("Finite", order=1)
    n = len(first)
    ident = tuple(map(tuple, identity_matrix(n)))
    start = _residue(ident)
    lifts = {start: ident}
    parents = {start: None}
    reached = [start]
    added = []  # (index, columns) of the generators that enlarged the group
    for j, g in enumerate(itertools.chain((first,), generators), 1):
        if len(g) != n or not all(len(row) == n for row in g):
            raise InvariantViolation("closure generators must be square "
                                     "matrices of one size")
        g = tuple(map(tuple, g))
        key = _residue(g)
        lift = lifts.get(key)
        if lift == g:
            continue
        if lift is not None:
            return ClosureResult(
                "Unbounded", generated_by=tuple(i for i, _ in added),
                witness=(j,) + _inverse_word(_tree_word(parents, key)))
        added.append((j, tuple(zip(*g))))
        old = len(reached)
        pos = 0
        while pos < len(reached):  # grows while it is read
            r = reached[pos]
            m = lifts[r]
            for i, cols in (added[-1:] if pos < old else added):
                prod = tuple(tuple(sum(map(mul, row, col)) for col in cols)
                             for row in m)
                key = _residue(prod)
                if key not in lifts:
                    lifts[key] = prod
                    parents[key] = (r, i)
                    reached.append(key)
                elif prod != lifts[key]:
                    return ClosureResult(
                        "Unbounded", generated_by=tuple(i for i, _ in added),
                        witness=_tree_word(parents, r) + (i,)
                        + _inverse_word(_tree_word(parents, key)))
            pos += 1
    return ClosureResult("Finite", order=len(lifts),
                         generated_by=tuple(i for i, _ in added))


# ---------------------------------------------------------------------------
# dimension bound
# ---------------------------------------------------------------------------


class ForniReport(NamedTuple):
    """Per-cusp evidence about the maximal isometric subspace: the even
    upper bound ``2·(g - max core rank)`` and, for each cusp read, the
    record ``(word, core span rank)``, the word carrying that cusp's
    direction of ``o`` to the horizontal."""

    upper_bound: int
    witnesses: tuple


def forni_upper_bound(o: Origami, direction_bound=None) -> ForniReport:
    r"""
    Upper bound ``min over directions of 2·(g - core span rank)`` for the
    dimension of an isometrically-moving subspace, with the core span
    ranks of the cusps read as evidence; ``direction_bound`` is ignored.
    An affine map keeps core span ranks, and up to the Veech group the
    rational directions fall into one class per cusp of
    :func:`orbit_graph` (G. Schmithüsen, Experiment. Math. 13, 2004), so
    :func:`_cusp_bound` takes the minimum over the cusps.  It reads them
    as the orbit walk closes them and stops the walk at the first cusp of
    rank ``g``: on the 38 736-member 9-square H(5,1) surface the bound
    is 0 after 2 cusps and 16 members.

    EXAMPLES::

        >>> from squaretiled.surface import build_origami, perm_from_cycles
        >>> ew = build_origami(perm_from_cycles([(0, 1, 2, 3), (4, 7, 6, 5)], 8),
        ...                    perm_from_cycles([(0, 4, 2, 6), (1, 5, 3, 7)], 8))
        >>> forni_upper_bound(ew)
        ForniReport(upper_bound=4, witnesses=(((), 1),))
    """
    members, words = [], []
    return _cusp_bound((members[first], words[first]) for first, _
                       in _orbit_walk(o, members, words, []))


def _cusp_bound(cusps) -> ForniReport:
    """The report of :func:`forni_upper_bound` from ``(member, word)``
    pairs, one per cusp in the orbit's order: the cusp's first member and
    its word.  A cusp's rank is the
    :attr:`~squaretiled.cylinders.DualGraph.cycle_rank` of the pinch dual
    graph of its member's horizontal decomposition, the rank of the span
    of that direction's core curves, and its word carries the direction
    to the horizontal.  The genus is that of the first pinch graph and
    must be at least 2.  Disjoint core curves span at most ``genus``
    dimensions, so the pairs are read up to the first cusp of rank
    ``genus``, where the bound is 0."""
    witnesses = []
    for member, word in cusps:
        decomposition = horizontal_decomposition(member)
        if not witnesses:
            genus = decomposition.dual_graph.genus
            if genus < 2:
                raise ValueError("needs genus at least 2")
        rank = decomposition.dual_graph.cycle_rank
        witnesses.append((word, rank))
        if rank == genus:
            break
    return ForniReport(2 * (genus - max(rank for _, rank in witnesses)),
                       tuple(witnesses))
