r"""
The affine group of an origami acting on integer homology: stabilizer
words, their symplectic matrices, the restriction to the zero-holonomy
subspace, an exact finiteness decision by reduction mod 3, and the
core-curve upper bound on the isometric-subspace dimension.

The computable surrogate for an isometrically-moving subspace is the
monodromy of the affine group on the kernel of the two holonomy covectors:
a compact (equivalently, finite) restricted monodromy group is what a
maximal such subspace produces, and per-direction core-curve ranks bound
its dimension from above.

The finiteness decision grows the group one generator at a time, with one
exact lift per residue mod 3.  A generator whose residue's lift equals it
is already an element and is skipped; one whose residue's lift differs
gives a nonidentity element of the torsion-free kernel of reduction mod 3,
so the group is unbounded; any other generator extends the group, and each
pair of an element and an added generator is multiplied once.  A finite
group of order ``N`` so costs at most ``N`` products per generator that
enlarged it: ``T`` and ``S`` generate the reference surface's group of
order 96 in 192 products, whatever the word bound.

EXAMPLES::

    >>> from squaretiled.surface import build_origami
    >>> gens = stabilizer_generators(build_origami((0,), (0,)), 1)
    >>> [w for w, _ in gens]
    [('T',), ('T^-1',), ('S',)]
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import mul

from .cylinders import classify_case, periodic_decomposition
from .errors import InvariantViolation, NotAStabilizer
from .homology import (
    HomologyBasis,
    dual_graph,
    homology_basis,
    transport_chains,
)
from .intlinalg import identity_matrix, mat_mul, smith_normal_form, \
    snf_rank
from .surface import Origami, act_sl2z, origami_isomorphism, singularity_data

_LETTERS = ("T", "T^-1", "S")
_INVERSE_BLOCK = {"T": "T^-1", "T^-1": "T"}


# ---------------------------------------------------------------------------
# stabilizer generators and their homology action
# ---------------------------------------------------------------------------


def stabilizer_generators(o: Origami, word_bound: int):
    r"""
    All words over ``T``, ``T^-1``, ``S`` of length up to ``word_bound``
    (without immediate shear backtracking) whose action returns an origami
    isomorphic to ``o``, paired with the relabeling permutation.

    EXAMPLES::

        >>> from squaretiled.surface import build_origami, perm_from_cycles
        >>> ew = build_origami(perm_from_cycles([(0, 1, 2, 3), (4, 7, 6, 5)], 8),
        ...                    perm_from_cycles([(0, 4, 2, 6), (1, 5, 3, 7)], 8))
        >>> sorted(w for w, _ in stabilizer_generators(ew, 1))
        [('S',), ('T',), ('T^-1',)]
    """
    out = []
    frontier = [((), o)]
    for _ in range(word_bound):
        new_frontier = []
        for word, current in frontier:
            for letter in _LETTERS:
                if word and _INVERSE_BLOCK.get(word[-1]) == letter:
                    continue
                nxt = act_sl2z(current, [letter])
                new_word = word + (letter,)
                perm = origami_isomorphism(nxt, o)
                if perm is not None:
                    out.append((new_word, perm))
                new_frontier.append((new_word, nxt))
        frontier = new_frontier
    return out


def homology_action(o: Origami, gen, basis: HomologyBasis = None):
    r"""
    The integer symplectic matrix of one stabilizer generator on the
    homology basis of ``o``.

    The basis cycles are transported through the word's shears and
    rotations (:func:`~squaretiled.homology.transport_chains`), the image
    chains are re-indexed by the relabelling permutation back onto the
    squares of ``o``, and their coordinates in ``basis`` are the columns.
    This builds no homology basis beyond ``basis`` and reads each column
    with one coordinate solve, which also checks that the image is a
    cycle.  The matrix must preserve the intersection form.

    ``gen`` is a ``(word, permutation)`` pair as produced by
    :func:`stabilizer_generators`; a bare word is accepted and the
    permutation recomputed (raising
    :class:`~squaretiled.errors.NotAStabilizer` if there is none).

    EXAMPLES::

        >>> from squaretiled.surface import build_origami
        >>> torus = build_origami((0,), (0,))
        >>> homology_action(torus, (("T",), (0,)))
        [[1, 1], [0, 1]]
    """
    if basis is None:
        basis = homology_basis(o)
    if isinstance(gen, tuple) and len(gen) == 2 and not isinstance(gen[0], str):
        word, perm = gen
    else:
        word, perm = tuple(gen), None
    transformed, images = transport_chains(o, word, basis.basis_chains)
    if perm is None:
        perm = origami_isomorphism(transformed, o)
    if perm is None:
        raise NotAStabilizer("word %r does not stabilize the origami"
                             % (word,))
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
    Express each symplectic matrix on an integer basis of the
    zero-holonomy subspace.

    The Smith normal form ``U·H·V = S`` of the two holonomy rows ``H``
    has rank ``r``; the last columns ``K`` of ``V`` are an integer basis
    of the zero-holonomy subspace, of rank ``2g - 2``.  In the basis of
    all columns of ``V``, ``M·K`` has coordinates ``Y = V⁻¹·M·K``.  The
    subspace is invariant exactly when the top ``r`` rows of ``Y`` vanish
    (checked), and then the other rows are the restriction ``X`` with
    ``K·X = M·K``, integral by construction.

    EXAMPLES::

        >>> from squaretiled.surface import build_origami
        >>> torus = build_origami((0,), (0,))
        >>> b = homology_basis(torus)
        >>> restrict_to_zero_holonomy([identity_matrix(2)], b)
        []
    """
    _, s, v, _, v_inv = smith_normal_form(list(basis.holonomy_covectors()))
    r = snf_rank(s)
    if r == basis.rank:
        return []
    k = [row[r:] for row in v]
    out = []
    for m in matrices:
        y = mat_mul(v_inv, mat_mul(m, k))
        if any(any(row) for row in y[:r]):
            raise InvariantViolation("zero-holonomy subspace must be "
                                     "invariant")
        out.append(y[r:])
    return out


# ---------------------------------------------------------------------------
# closure finiteness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosureResult:
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


def _square_size(generators):
    """The common size ``n`` of ``n``-by-``n`` generators, checked with an
    explicit raise (a zipped product would silently truncate)."""
    n = len(generators[0])
    if not all(len(g) == n and all(len(row) == n for row in g)
               for g in generators):
        raise InvariantViolation("closure generators must be square "
                                 "matrices of one size")
    return n


def closure_classify(generators) -> ClosureResult:
    r"""
    Decide whether the group generated by invertible integer matrices is
    finite.

    The group is grown one generator at a time, in list order, keeping one
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
    against each generator's columns.  Generators that are not square
    matrices of one size raise
    :class:`~squaretiled.errors.InvariantViolation` before any product.

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
    if not generators:
        return ClosureResult("Finite", order=1)
    n = _square_size(generators)
    ident = tuple(map(tuple, identity_matrix(n)))
    start = _residue(ident)
    lifts = {start: ident}
    parents = {start: None}
    reached = [start]
    added = []  # (index, columns) of the generators that enlarged the group
    for j, g in enumerate(generators, 1):
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


@dataclass(frozen=True)
class ForniReport:
    """Per-direction evidence about the maximal isometric subspace: the
    even upper bound ``2·(g - max core rank)``, the per-direction records
    ``(slope, case label, core span rank)``."""

    upper_bound: int
    witnesses: tuple


def enumerate_slopes(bound):
    """Reduced slope pairs ``(p, q)`` (direction ``(q, p)``) with entries
    up to ``bound``, horizontal and vertical included."""
    slopes = [(0, 1), (1, 0)]
    for q in range(1, bound + 1):
        for p in range(1, bound + 1):
            if gcd(p, q) == 1:
                slopes.append((p, q))
                slopes.append((-p, q))
    return slopes


def forni_upper_bound(o: Origami, direction_bound: int) -> ForniReport:
    r"""
    Upper bound ``min over directions of 2·(g - core span rank)`` for the
    dimension of an isometrically-moving subspace, with the per-direction
    case labels as evidence.  The core span rank of a direction is the
    :attr:`~squaretiled.homology.DualGraph.cycle_rank` of its pinch dual
    graph, which equals the rank of the span of the core-curve classes in
    homology without building a homology basis.

    EXAMPLES::

        >>> from squaretiled.surface import build_origami, perm_from_cycles
        >>> ew = build_origami(perm_from_cycles([(0, 1, 2, 3), (4, 7, 6, 5)], 8),
        ...                    perm_from_cycles([(0, 4, 2, 6), (1, 5, 3, 7)], 8))
        >>> forni_upper_bound(ew, 2).upper_bound
        4
    """
    g = singularity_data(o).genus
    if g < 2:
        raise ValueError("needs genus at least 2")
    best = 2 * g
    witnesses = []
    for slope in enumerate_slopes(direction_bound):
        graph = dual_graph(periodic_decomposition(o, slope))
        rank = graph.cycle_rank
        label = str(classify_case(graph))
        witnesses.append((slope, label, rank))
        best = min(best, 2 * (g - rank))
    return ForniReport(best, tuple(witnesses))
