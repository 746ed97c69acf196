r"""
Square-tiled translation surfaces (origamis).

An origami is a translation surface tiled by ``n`` unit squares, encoded by
two permutations of ``{0, ..., n-1}``: ``h`` sends each square to its right
neighbor and ``v`` to its upper neighbor.  This module provides

- construction and validation (:func:`build_origami`, the one-line text
  format of :func:`parse_origami`),
- the stratum of the associated Abelian differential
  (:func:`singularity_data`),
- the shear/rotation action of ``SL(2, Z)`` (:func:`act_sl2z`),
- relabeling-invariant canonical forms (:func:`canonical_form`,
  :func:`origami_isomorphism`).

EXAMPLES::

    >>> o = build_origami(perm_from_cycles([(0, 1, 2, 3), (4, 7, 6, 5)], 8),
    ...                   perm_from_cycles([(0, 4, 2, 6), (1, 5, 3, 7)], 8))
    >>> singularity_data(o)
    Stratum(kappa=(1, 1, 1, 1), genus=3)
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import Checked, InvariantViolation, NotTransitive

# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

Perm = tuple[int, ...]


def perm_from_cycles(cycles, n=None) -> Perm:
    r"""
    Build a permutation of ``{0, ..., n-1}`` from disjoint cycles.

    Fixed points may be omitted, and an empty cycle is the identity; ``n``
    defaults to one more than the largest entry mentioned.  An entry
    outside ``0..n-1`` raises ``ValueError``.

    EXAMPLES::

        >>> perm_from_cycles([(0, 1)], 3)
        (1, 0, 2)
        >>> perm_from_cycles([], 2)
        (0, 1)
        >>> identity = perm_from_cycles([()], 3)
        >>> identity, cycles_str(identity)
        ((0, 1, 2), '()')
        >>> perm_from_cycles([(0, 1, -1)], 2)
        Traceback (most recent call last):
        ...
        ValueError: entry -1 is not in 0..1
    """
    if n is None:
        n = 1 + max((x for c in cycles for x in c), default=-1)
    _cycle_entries(cycles, n)
    p = list(range(n))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            p[a] = b
    return tuple(p)


def _cycle_entries(cycles, n):
    """The set of entries of ``cycles``; an entry outside ``0..n-1`` or
    repeated raises ``ValueError``.  Nothing of size ``n`` is built."""
    seen = set()
    for cycle in cycles:
        for a in cycle:
            if not 0 <= a < n:
                raise ValueError(f"entry {a} is not in 0..{n - 1}")
            if a in seen:
                raise ValueError(f"entry {a} repeated in cycle notation")
            seen.add(a)
    return seen


def perm_inverse(p: Perm) -> Perm:
    """Return the inverse permutation.

    EXAMPLES::

        >>> perm_inverse((1, 2, 0))
        (2, 0, 1)
    """
    q = [0] * len(p)
    for i, j in enumerate(p):
        q[j] = i
    return tuple(q)


def perm_compose(p: Perm, q: Perm) -> Perm:
    """Return the composition ``p∘q``, i.e. ``i ↦ p[q[i]]``.

    EXAMPLES::

        >>> perm_compose((1, 0, 2), (0, 2, 1))
        (1, 2, 0)
    """
    return tuple([p[j] for j in q])


def perm_cycles(p: Perm, include_fixed=True):
    r"""
    Return the cycles of ``p`` as tuples, each starting at its minimum.

    EXAMPLES::

        >>> perm_cycles((1, 0, 2))
        [(0, 1), (2,)]
        >>> perm_cycles((1, 0, 2), include_fixed=False)
        [(0, 1)]
    """
    seen = [False] * len(p)
    cycles = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        j = p[start]
        while j != start:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        if len(cyc) > 1 or include_fixed:
            cycles.append(tuple(cyc))
    return cycles


def cycles_str(p: Perm) -> str:
    """Cycle-notation string with fixed points omitted; identity is ``()``.

    EXAMPLES::

        >>> cycles_str((1, 0, 2))
        '(0 1)'
    """
    parts = ["(" + " ".join(map(str, c)) + ")" for c in perm_cycles(p, include_fixed=False)]
    return "".join(parts) if parts else "()"


# ---------------------------------------------------------------------------
# origamis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Origami:
    """A square-tiled surface given by right- and up-neighbor permutations.

    Instances are immutable; use :func:`build_origami` to get the
    transitivity check, the input check of every parsed surface.  A pair
    built here directly skips it, but
    :func:`~squaretiled.cylinders.horizontal_decomposition`, which every
    classification starts from, and :func:`canonical_form`, which every
    orbit walk starts from, still reject a disconnected pair with
    :class:`~squaretiled.errors.InvariantViolation`.
    """

    h: Perm
    v: Perm

    @property
    def n(self) -> int:
        """Number of unit squares."""
        return len(self.h)

    def commutator(self) -> Perm:
        r"""
        The corner permutation ``c = h∘v∘h⁻¹∘v⁻¹``.

        Its orbit through a square ``i`` walks the squares whose bottom-left
        corners meet at a single vertex of the surface; orbits of length one
        are regular points, longer orbits are cone points.  It is built
        without inverses from ``c(v(h(j))) = h(v(j))``.

        EXAMPLES::

            >>> build_origami((0,), (0,)).commutator()
            (0,)
            >>> build_origami((1, 0, 2), (2, 1, 0)).commutator()
            (1, 2, 0)
        """
        h, v = self.h, self.v
        c = [0] * len(h)
        for j in range(len(h)):
            c[v[h[j]]] = h[v[j]]
        return tuple(c)

    def vertex_orbits(self):
        """Orbits of :meth:`commutator`, one per vertex of the square tiling."""
        return perm_cycles(self.commutator())

    def __str__(self):
        return f'origami n={self.n} h="{cycles_str(self.h)}" v="{cycles_str(self.v)}"'


class _StratumFields(NamedTuple):
    kappa: tuple[int, ...]
    genus: int


class Stratum(Checked, _StratumFields):
    """Zero orders ``kappa`` (sorted descending) and the genus they force."""

    __slots__ = ()

    def _check(self):
        if any(k < 1 for k in self.kappa):
            raise ValueError(f"zero orders {self.kappa} must be positive")
        if sum(self.kappa) != 2 * self.genus - 2:
            raise ValueError(
                f"kappa {self.kappa} incompatible with genus {self.genus}"
            )

    def __str__(self):
        return "H(" + (",".join(map(str, self.kappa)) if self.kappa else "0") + ")"


def build_origami(h, v) -> Origami:
    r"""
    Validate the permutation pair and return the origami.

    Raises :class:`~squaretiled.errors.NotTransitive` when the group
    generated by ``h`` and ``v`` does not act transitively, i.e. the glued
    surface would be disconnected.  The search from square 0 follows
    ``h`` and ``v`` forward only: ``⟨h, v⟩`` is finite, and
    ``h⁻¹ = h^(m-1)`` for the order ``m`` of ``h`` (likewise for ``v``),
    so the forward images of square 0 are its whole orbit.

    EXAMPLES::

        >>> build_origami((0,), (0,)).n
        1
        >>> build_origami((1, 0, 2), (0, 2, 1)).n
        3
        >>> build_origami((1, 0, 2, 3), (1, 0, 3, 2))
        Traceback (most recent call last):
        ...
        squaretiled.errors.NotTransitive: squares {2, 3} are not connected to square 0
    """
    h, v = tuple(h), tuple(v)
    if len(h) != len(v):
        raise ValueError("h and v must permute the same set")
    n = len(h)
    if n < 1:
        raise ValueError("an origami needs at least one square")
    if sorted(h) != list(range(n)) or sorted(v) != list(range(n)):
        raise ValueError("h and v must be permutations of 0..n-1")
    seen = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in (h[i], v[i]):
            if j not in seen:
                seen.add(j)
                frontier.append(j)
    if len(seen) != n:
        missing = set(range(n)) - seen
        raise NotTransitive(f"squares {missing} are not connected to square 0")
    return Origami(h, v)


def singularity_data(o: Origami) -> Stratum:
    r"""
    Stratum of the origami: cone angles from commutator orbits, genus from
    the Euler characteristic of the square tiling.

    EXAMPLES::

        >>> singularity_data(build_origami((0,), (0,)))
        Stratum(kappa=(), genus=1)
        >>> singularity_data(build_origami((1, 0, 2), (0, 2, 1)))
        Stratum(kappa=(2,), genus=2)
    """
    orbits = o.vertex_orbits()
    kappa = tuple(sorted((len(c) - 1 for c in orbits if len(c) > 1), reverse=True))
    # V - E + F with V = #orbits, E = 2n, F = n
    euler = len(orbits) - 2 * o.n + o.n
    genus = (2 - euler) // 2
    return Stratum(kappa, genus)


# -- SL(2, Z) action ---------------------------------------------------------

def act_sl2z(o: Origami, word) -> Origami:
    r"""
    Apply a word over ``{"T", "T^-1", "S"}``, first letter first: ``T``
    is the full right Dehn shear of every horizontal cylinder, ``S`` the
    counterclockwise quarter turn.

    On permutation pairs: ``T: (h, v) ↦ (h, v∘h⁻¹)``,
    ``T^-1: (h, v) ↦ (h, v∘h)``, ``S: (h, v) ↦ (v, h⁻¹)``.  The result
    corresponds to acting by the matrix product
    ``M(word[-1]) ··· M(word[0])``, where ``M(T) = ((1, 1), (0, 1))`` and
    ``M(S) = ((0, -1), (1, 0))`` act on column vectors.

    ``T`` is one scatter, ``v'[h[i]] = v[i]``, and ``T^-1`` one
    composition ``v∘h``; neither needs an inverse.  The inverses ``h⁻¹``
    and ``v⁻¹`` are carried along the word for ``S``, which rotates the
    four permutations, ``(h, v, h⁻¹, v⁻¹) ↦ (v, h⁻¹, v⁻¹, h)``.  An ``S``
    builds ``h⁻¹`` only when none is carried in; a shear drops ``v⁻¹``,
    which the next ``S`` would have carried into ``h⁻¹``.

    EXAMPLES::

        >>> o = build_origami((0,), (0,))
        >>> act_sl2z(o, ["T"]) == o
        True
        >>> act_sl2z(o, ["S", "S", "S", "S"]) == o
        True
    """
    h, v = o.h, o.v
    hi = vi = None
    for letter in word:
        if letter == "S":
            if hi is None:
                hi = perm_inverse(h)
            h, v, hi, vi = v, hi, vi, h
        elif letter == "T":
            sheared = [0] * len(h)
            for i, j in enumerate(h):
                sheared[j] = v[i]
            v, vi = tuple(sheared), None
        elif letter == "T^-1":
            v, vi = perm_compose(v, h), None
        else:
            raise ValueError(f"unknown generator letter {letter!r}")
    return Origami(h, v)


_INVERSE_LETTER = {"T": ("T^-1",), "T^-1": ("T",), "S": ("S", "S", "S")}


def _inverse(word):
    """The word of the inverse affine map: ``S⁻¹`` is ``S S S``."""
    return tuple(x for letter in reversed(word)
                 for x in _INVERSE_LETTER[letter])


# -- isomorphism and canonical forms ----------------------------------------


def origami_isomorphism(a: Origami, b: Origami):
    r"""
    A relabeling permutation ``p`` with ``p∘a.h = b.h∘p`` and
    ``p∘a.v = b.v∘p``, or ``None`` when the origamis are not isomorphic.

    EXAMPLES::

        >>> a = build_origami((1, 0, 2), (0, 2, 1))
        >>> origami_isomorphism(a, a)
        (0, 1, 2)
    """
    if a.n != b.n:
        return None
    n = a.n
    for image in range(n):
        p = [None] * n
        p[0] = image
        frontier = [0]
        ok = True
        while frontier and ok:
            i = frontier.pop()
            for pa, pb in ((a.h, b.h), (a.v, b.v)):
                j, pj = pa[i], pb[p[i]]
                if p[j] is None:
                    p[j] = pj
                    frontier.append(j)
                elif p[j] != pj:
                    ok = False
                    break
        # the propagation checked both constraints at every square it
        # reached; a map that reaches every square and is injective is a
        # relabeling (``b`` need not be transitive)
        if ok and None not in p and len(set(p)) == n:
            return tuple(p)
    return None


def canonical_form(o: Origami) -> Origami:
    r"""
    Lexicographically minimal relabeling of the origami.

    The relabeling is produced by breadth-first traversals from every start
    square that follow ``h`` and ``v`` forward only: at each square the
    traversal labels its right neighbour ``h[i]`` and then its upper
    neighbour ``v[i]``, each if it is new.  Forward steps reach every
    square: ``⟨h, v⟩`` is finite and transitive, and ``h⁻¹ = h^(m-1)``
    for the order ``m`` of ``h`` (likewise for ``v``), so the forward
    images of a start are all the squares.  Two origamis are
    isomorphic exactly when their canonical forms are equal.  Versions
    that also stepped left and down picked other representatives of the
    same classes, so a canonical form is a key to compare, not a labelling
    to store.

    The traversals run in lock step.  At level ``k`` every surviving start
    labels the forward neighbours of its ``k``-th square, which gives entry
    ``k`` of its relabelled ``h``, and only the starts whose entry is least
    survive.  The survivors share the least prefix of length ``k + 1`` of
    every start's relabelled ``h``, so a start dropped at level ``k`` has
    an ``h`` larger than some survivor's whatever follows, and cannot give
    the least pair; after ``n`` levels the survivors are exactly the starts
    of least ``h``, and ``v`` is compared among them alone.  Entry 0 needs
    no traversal: it is 0 when ``h`` fixes the start and 1 otherwise, so
    only the fixed points of ``h`` start when there are any.

    A disconnected pair built with :class:`Origami` raises
    :class:`~squaretiled.errors.InvariantViolation`: a traversal labels
    only its start's component and runs out of squares before level ``n``.

    EXAMPLES::

        >>> a = build_origami((1, 0, 2), (0, 2, 1))
        >>> b = build_origami((0, 2, 1), (1, 0, 2))   # relabeled copy of a
        >>> canonical_form(a) == canonical_form(b)
        True
        >>> canonical_form(a)
        Origami(h=(0, 2, 1), v=(1, 0, 2))
    """
    n = o.n
    h, v = o.h, o.v
    starts = [s for s in range(n) if h[s] == s] or range(n)
    # one (labels, squares in label order) pair per surviving start
    survivors = []
    for s in starts:
        label = [-1] * n
        label[s] = 0
        survivors.append((label, [s]))
    best_h = []
    try:
        for k in range(n):
            least, kept = n, []
            for state in survivors:
                label, order = state
                i = order[k]
                j = h[i]
                x = label[j]
                if x < 0:
                    x = label[j] = len(order)
                    order.append(j)
                j = v[i]
                if label[j] < 0:
                    label[j] = len(order)
                    order.append(j)
                if x < least:
                    least, kept = x, [state]
                elif x == least:
                    kept.append(state)
            survivors = kept
            best_h.append(least)
    except IndexError:
        raise InvariantViolation("surface must be connected") from None
    best_v = min([label[v[i]] for i in order] for label, order in survivors)
    return Origami(tuple(best_h), tuple(best_v))


# -- text format -------------------------------------------------------------

_ORIGAMI_RE = re.compile(
    r'^\s*origami\s+(?:n=(?P<n>\d+)\s+)?h="(?P<h>[^"]*)"\s+v="(?P<v>[^"]*)"\s*$'
)


# parenthesised groups of space-separated square numbers and nothing else
_CYCLES_RE = re.compile(r"\s*(?:\(\s*(?:[0-9]+(?:\s+[0-9]+)*\s*)?\)\s*)*")


def _parse_cycles(text):
    if not _CYCLES_RE.fullmatch(text):
        raise ValueError(f"not a list of cycles: {text!r}")
    return [tuple(int(x) for x in part.split())
            for part in re.findall(r"\(([^()]*)\)", text)]


def parse_origami(line: str) -> Origami:
    r"""
    Parse the one-line text format
    ``origami h="(0 1 2 3)(4 7 6 5)" v="(0 4 2 6)(1 5 3 7)"``.

    Cycles are space-separated integers and fixed points may be omitted; an
    optional ``n=<count>`` attribute pins the square count when fixed points
    leave it ambiguous.  Text other than parenthesised cycles, and an entry
    outside ``0..n-1``, raise ``ValueError``.  A square in no cycle is
    fixed by ``h`` and ``v``, so on more than one square it is isolated:
    :class:`~squaretiled.errors.NotTransitive` is raised before any
    permutation of the ``n`` squares is built.

    EXAMPLES::

        >>> parse_origami('origami h="(0 1)" v="(0 2)"').n
        3
        >>> parse_origami('origami n=1 h="" v=""').n
        1
        >>> parse_origami('origami h="(0 1)(2 3" v=""')
        Traceback (most recent call last):
        ...
        ValueError: not a list of cycles: '(0 1)(2 3'
        >>> parse_origami('origami n=99999999999 h="(0 1)" v=""')
        Traceback (most recent call last):
        ...
        squaretiled.errors.NotTransitive: 99999999997 of the 99999999999 squares lie in no cycle, the least 2, so some square is not connected to square 0
    """
    m = _ORIGAMI_RE.match(line)
    if not m:
        raise ValueError(f"not a valid origami line: {line!r}")
    hc, vc = _parse_cycles(m.group("h")), _parse_cycles(m.group("v"))
    n = int(m.group("n")) if m.group("n") else 1 + max(
        (x for c in hc + vc for x in c), default=0
    )
    squares = _cycle_entries(hc, n) | _cycle_entries(vc, n)
    if n > 1 and len(squares) < n:
        least = next(x for x in range(n) if x not in squares)
        raise NotTransitive(f"{n - len(squares)} of the {n} squares lie in no "
                            f"cycle, the least {least}, so some square is not "
                            "connected to square 0")
    return build_origami(perm_from_cycles(hc, n), perm_from_cycles(vc, n))
