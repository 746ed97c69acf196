r"""
Cylinder decompositions of origamis in periodic directions.

A periodic direction decomposes a translation surface into maximal metric
cylinders; for an origami and the horizontal direction this is a purely
combinatorial computation on the two permutations.  This module computes

- the horizontal decomposition (:func:`horizontal_decomposition`): maximal
  stacks of ``h``-cycles glued along cone-point-free interfaces, together
  with all saddle connections on the cylinder boundaries, their integer
  lengths and their positions on the one bottom and the one top each
  lies on, which the transverse-cylinder searches read directly, and the
  dual graph of the pinch of every core curve (:class:`DualGraph`: the
  genus of each component and, per cylinder, the components of its two
  halves), built in the same pass,
- decompositions in arbitrary rational directions
  (:func:`periodic_decomposition`) by shearing the direction to horizontal
  with an ``SL(2, Z)`` word (:func:`direction_member`),
- the combinatorial cylinder diagram: its boundary words alone, which
  fix its zeros, with a relabeling-invariant canonical form
  (:class:`CylinderDiagram`),
- integer moduli exponents (:func:`moduli_exponents`), and
- matching of a pinch dual graph against the six genus-3 reference shapes
  (:func:`classify_case`).

EXAMPLES::

    >>> from squaretiled.surface import build_origami, perm_from_cycles
    >>> o = build_origami(perm_from_cycles([(0, 1)], 3),
    ...                   perm_from_cycles([(0, 2)], 3))
    >>> d = horizontal_decomposition(o)
    >>> [(c.circumference, c.height) for c in d.cylinders]
    [(2, 1), (1, 1)]
"""

from __future__ import annotations

from math import gcd, lcm
from typing import NamedTuple

from .errors import InvariantViolation
from .surface import Origami, act_sl2z


class Cylinder(NamedTuple):
    """A maximal horizontal cylinder of an origami decomposition.

    ``rows`` lists the constituent ``h``-cycles from bottom to top, each
    rotated so that its first square sits at ``x = 0`` of the cylinder;
    ``circumference`` and ``height`` are whole numbers of squares.  A
    cylinder's id is its position in the decomposition's ``cylinders``.
    """

    rows: tuple
    circumference: int
    height: int


class CylinderDiagram(NamedTuple):
    """Combinatorics of a cylinder decomposition with metric data forgotten.

    ``bottom_words`` and ``top_words`` hold, at the position of each
    cylinder id, the cyclic sequence of saddle ids along that boundary.
    Every saddle id appears exactly once among the bottom words and
    exactly once among the top words.

    The words fix the zeros.  Write ``β(s)`` and ``τ(s)`` for the saddle
    after ``s`` on its bottom word and on its top word.  Saddle ``s`` ends
    where ``β(s)`` starts, and also where ``τ(s)`` starts, so ``τ∘β⁻¹``
    keeps the zero a saddle starts at.  The saddles starting at one zero
    are exactly one cycle of ``τ∘β⁻¹``, and a zero of order ``k`` has
    ``k + 1`` saddles in its cycle.
    """

    bottom_words: tuple
    top_words: tuple

    def validate(self):
        """Raise :class:`~squaretiled.errors.InvariantViolation` unless there
        are as many top words as bottom words and every saddle appears
        exactly once among the bottom words and exactly once among the top
        words."""
        if len(self.bottom_words) != len(self.top_words):
            raise InvariantViolation("bottom and top words number different "
                                     "cylinders")
        bottoms = [s for w in self.bottom_words for s in w]
        tops = [s for w in self.top_words for s in w]
        if len(bottoms) != len(set(bottoms)):
            raise InvariantViolation("saddle repeated on bottoms")
        if len(tops) != len(set(tops)):
            raise InvariantViolation("saddle repeated on tops")
        if set(bottoms) != set(tops):
            raise InvariantViolation("tops and bottoms disagree")

    def canonical_key(self):
        r"""
        A hashable encoding, equal for two diagrams if and only if they
        differ by relabeling of cylinders, saddles and zeros and by
        rotations of the cyclic boundary words.

        The encoding records the boundary words in the order of a
        first-seen traversal:

        - *Anchor.*  A cylinder whose bottom word has the least nonempty
          length ``m``, together with a rotation of that word.  The
          rotated bottom word is placed first, as the record
          ``(0, 0, (0, 1, ..., m - 1))``.
        - *Traversal.*  Saddles are named in the order they are first
          placed.  Repeatedly, the unplaced boundary word holding the
          smallest named saddle is placed, rotated to start at that
          saddle.  Each saddle lies on one bottom and one top, so this
          reaches every word joined to the placed ones through saddles.
        - *Branch.*  When every named saddle has both of its words placed
          but words remain, the next word can be reached only through its
          own cylinder's other side.  The earliest placed word whose
          cylinder's other side is unplaced picks that side, and the
          traversal branches over every rotation of it.

        Each placed word is recorded as ``(side, cylinder, saddles)`` with
        side 0 for a bottom and 1 for a top, cylinders and saddles renamed
        in first-seen order.  The key is the minimum encoding over every
        anchor and branch.  Every step depends only on the diagram up to
        relabeling, and an encoding lists every word, so equal keys mean
        isomorphic diagrams and conversely.  The zeros need no record of
        their own: they are the cycles of ``τ∘β⁻¹``, which the words fix
        (see :class:`CylinderDiagram`).

        Only the shortest bottoms can anchor the minimum.  An anchor on a
        bottom of length ``m`` opens its encoding with the record
        ``(0, 0, (0, 1, ..., m - 1))``, and tuples compare by prefix, so
        every encoding anchored on a longer bottom is larger than every
        encoding anchored on a shorter one.  Anchors on longer bottoms
        are not traversed.

        One traversal costs O(s) in the number of saddles s, so a key costs
        O(s) times the number of complete encodings: the shortest-bottom
        anchors times the rotations their branches try.  The reference
        two-cylinder diagram (two bottoms of 4 saddles, so 8 anchors)
        branches once per anchor, into 4 rotations: 32 complete encodings.

        Raises :class:`~squaretiled.errors.InvariantViolation` when the
        diagram fails :meth:`validate`, has no saddle or is disconnected.

        EXAMPLES::

            >>> d1 = CylinderDiagram((("a", "b"),), (("b", "a"),))
            >>> d2 = CylinderDiagram((("x", "y"),), (("x", "y"),))
            >>> d1.canonical_key() == d2.canonical_key()
            True
            >>> d1.canonical_key()
            ((0, 0, (0, 1)), (1, 0, (0, 1)))
        """
        self.validate()
        # (side, cylinder) -> boundary word and (side, saddle) ->
        # (cylinder, index in that word), side 0 being the bottom
        words, where = {}, {}
        for side, table in enumerate((self.bottom_words, self.top_words)):
            for cid, word in enumerate(table):
                words[side, cid] = word
                for i, sid in enumerate(word):
                    where[side, sid] = (cid, i)
        m = min(filter(None, map(len, self.bottom_words)), default=0)
        if not m:
            raise InvariantViolation("cylinder diagram has no saddle")
        return min(enc for cid, word in enumerate(self.bottom_words)
                   if len(word) == m
                   for rot in range(m)
                   for enc in _Traversal(words, where).run(0, cid, rot))


class _Traversal:
    """The state of one first-seen traversal of a diagram's boundary words
    (see :meth:`CylinderDiagram.canonical_key`), which ``words`` and
    ``where`` index as there."""

    __slots__ = ("words", "where", "encoding", "names", "order", "cylinders",
                 "placed")

    def __init__(self, words, where):
        self.words = words
        self.where = where
        self.encoding = []
        self.names = {}       # saddle -> first-seen name
        self.order = []       # saddles by name
        self.cylinders = {}   # cylinder -> first-seen name
        self.placed = {}      # (side, cylinder) in placement order

    def _copy(self):
        other = _Traversal(self.words, self.where)
        other.encoding = list(self.encoding)
        other.names = dict(self.names)
        other.order = list(self.order)
        other.cylinders = dict(self.cylinders)
        other.placed = dict(self.placed)
        return other

    def _place(self, side, cid, rot):
        """Place word (side, cid) rotated by ``rot``."""
        word = self.words[side, cid]
        word = word[rot:] + word[:rot]
        names = self.names
        for sid in word:
            if sid not in names:
                names[sid] = len(names)
                self.order.append(sid)
        self.placed[side, cid] = None
        self.encoding.append(
            (side, self.cylinders.setdefault(cid, len(self.cylinders)),
             tuple(map(names.__getitem__, word))))

    def run(self, side, cid, rot, next_saddle=0):
        """Place word (side, cid) rotated by ``rot``, extend through saddles,
        and yield the encoding of each completed branch."""
        self._place(side, cid, rot)
        order, placed = self.order, self.placed
        where, words = self.where, self.words
        while next_saddle < len(order):
            sid = order[next_saddle]
            next_saddle += 1
            for s in (0, 1):
                c, i = where[s, sid]
                if (s, c) not in placed:
                    self._place(s, c, i)
        if len(placed) == len(words):
            yield tuple(self.encoding)
            return
        for s, c in placed:
            if (1 - s, c) not in placed:
                break
        else:
            raise InvariantViolation("cylinder diagram is disconnected")
        for r in range(max(len(words[1 - s, c]), 1)):
            yield from self._copy().run(1 - s, c, r, next_saddle)


class CylinderDecomposition(NamedTuple):
    """A cylinder decomposition of an origami in a periodic direction.

    All combinatorial and metric data refer to the sheared origami
    ``origami`` in whose coordinates the direction is horizontal.
    ``saddle_lengths`` holds, at the position of each saddle id, its length
    in squares; ``bottom_positions`` and ``top_positions`` hold there its
    integer start coordinate, in squares, on the one bottom and the one
    top it lies on; each bottom word starts at 0 and the top coordinates
    are reduced mod the circumference.  The order of the saddles along
    each boundary is that of ``diagram.bottom_words`` and
    ``diagram.top_words``.  These are the metric data the
    transverse-cylinder searches read.  ``dual_graph`` is the
    :class:`DualGraph` of the pinch of every core curve, built in the same
    pass; its :attr:`~DualGraph.genus` is the genus of ``origami``.  The
    origami is connected, and its diagram satisfies
    :meth:`CylinderDiagram.validate` by construction (see
    :func:`horizontal_decomposition`).
    """

    origami: Origami
    cylinders: tuple
    diagram: CylinderDiagram
    saddle_lengths: tuple
    bottom_positions: tuple
    top_positions: tuple
    dual_graph: DualGraph


def horizontal_decomposition(o: Origami):
    r"""
    Decompose an origami into maximal horizontal cylinders and build the
    dual graph of their pinch.

    Each cylinder is a maximal stack of ``h``-cycles glued along interfaces
    free of cone points; circumference is the cycle length and height the
    stack depth.  Saddle connections are the maximal cone-point-free runs
    of unit edges on the cylinder boundaries, and the diagram records their
    cyclic order on every top and bottom.

    The marked corners are those the corner permutation
    ``c = h∘v∘h⁻¹∘v⁻¹`` (:meth:`~squaretiled.surface.Origami.commutator`)
    moves, the cone points; for genus one, with no cone point, the corner
    of square 0 is marked.  Cylinders are numbered by the smallest square
    of their bottom row, which starts at its first marked corner, and each
    marked corner on a bottom starts a saddle there.  A zero is a cycle of
    ``c`` through marked corners, read where a bottom first meets it: the
    first of its corners that a bottom reaches, in cylinder and then
    bottom order, walks the cycle once, marking its corners met, and the
    zero is counted on that bottom.

    The pinch cuts every cylinder along its core curve into a bottom half,
    numbered ``2·c``, and a top half, ``2·c + 1``.  A saddle on the top of
    cylinder ``c`` and the bottom of ``c'`` joins half ``2·c + 1`` to half
    ``2·c'``, so the top words, read saddle by saddle, union the halves
    into the components of the cut surface, numbered by their smallest
    half.  A component holding ``k`` halves retracts onto its zeros and
    saddles, so its Euler characteristic ``2 - 2·genus - k`` is its zeros
    less its saddles: each saddle is counted on the component of the
    bottom half it bounds, and each zero on that of the first bottom it
    starts a saddle on.  The components are the vertices of
    :class:`DualGraph`, each cylinder the edge between the components of
    its two halves, and the genus labels and cycle rank add up to the
    genus of the surface, :attr:`DualGraph.genus` (see below).  Cylinders
    and saddles are numbered from 0 in the order they are found, and every
    record of one is stored at its number.

    The corner identity ``c(v(h(j))) = h(v(j))`` proves the checks of
    :meth:`CylinderDiagram.validate`, so none is made.  An unmarked corner
    is fixed by ``c``, so ``v(h(j)) = h(v(j))`` whenever ``v(h(j))`` is
    unmarked.  Hence:

    - a row starts a stack exactly when it holds a marked corner: a row
      above a top with no cone point has that top's corners as its bottom
      corners, and if no corner of a row is marked, ``v∘h = h∘v`` on the
      row below it, so ``v`` carries that row onto it, with a top free of
      cone points;
    - a stack climbs while no square above its top row is marked; ``v`` is
      injective and the climb starts at a marked corner, so it revisits no
      row and meets no other stack;
    - ``v`` carries the top edges from a marked corner to the next onto
      the ``h``-successive squares of one bottom saddle, at full length,
      and ``v`` is a bijection, so each saddle is read on exactly one top.

    A torus component with no cone point and no square 0, from a pair that
    skipped :func:`~squaretiled.surface.build_origami`, starts no stack, so
    the check is that the areas ``Σ circumference·height`` sum to the
    number of squares.  Then the surface is connected exactly when its
    pinch graph is.

    Every row then lies in one stack, and a stack climbs only onto rows
    with no marked corner, so every marked corner lies on a bottom and
    every zero is met.  With ``S`` saddles and ``Z`` zeros, the corners
    are ``n - S`` regular points and ``Z`` zeros, and with the ``2n``
    edges and ``n`` squares they give the Euler characteristic
    ``(n - S + Z) - 2n + n = Z - S``: the surface has genus
    ``1 + (S - Z)/2``.  Summing ``2 - 2·genus - k`` over the ``V``
    components, which hold the ``2E`` halves of the ``E`` cylinders, gives
    ``Σ 2·genus = 2V - 2E + S - Z`` however the halves are grouped, so
    when every label is a whole number the labels and the cycle rank
    ``E - V + 1`` add up to ``1 + (S - Z)/2``: the dual graph's
    :attr:`~DualGraph.genus` is the genus of the surface.

    Raises :class:`~squaretiled.errors.InvariantViolation` when the areas
    fall short of the number of squares ("cylinder stack must have a
    unique bottom row"), when the pinch graph is not connected ("surface
    must be connected"), or when a component has a genus that is not a
    whole number ("component genus must be a whole number"), a guard on
    the union-find's grouping of the halves.  On every pair on at most 5
    squares and on 50 000 random pairs on 1 to 13 squares, only the first
    two are raised.

    EXAMPLES::

        >>> from squaretiled.surface import build_origami
        >>> torus = build_origami((0,), (0,))
        >>> d = horizontal_decomposition(torus)
        >>> len(d.cylinders), d.cylinders[0].circumference
        (1, 1)
        >>> d.diagram.bottom_words, d.diagram.top_words
        (((0,),), ((0,),))
        >>> d.dual_graph, d.dual_graph.genus
        (DualGraph(genera=(0,), edges=((0, 0),)), 1)
        >>> d.bottom_positions, d.top_positions
        ((0,), (0,))
    """
    h, v = o.h, o.v
    n = len(h)
    corner = o.commutator()
    marked = [corner[s] != s for s in range(n)]
    if not any(marked):
        marked[0] = True   # genus one: no cone point

    # the rows in order of their smallest square: a row holding a marked
    # corner starts a stack, reads its bottom saddles (runs from each
    # marked corner to the next, numbered along the bottoms in order) and
    # climbs.  ``bottom_of`` holds the cylinder whose bottom each saddle
    # lies on.  A marked corner not yet ``met`` opens a zero: its corner
    # cycle is walked once and met, and ``new_zeros`` counts the zeros
    # each bottom is the first to start a saddle at
    seen = [False] * n
    met = [False] * n
    cylinders = []
    area = 0
    saddle_lengths = []
    bottom_of = []
    new_zeros = []
    edge_saddle = [-1] * n
    bottom_words = []
    bottom_positions = []
    sid = -1
    for s in range(n):
        if seen[s]:
            continue
        row = [s]
        seen[s] = True
        t = h[s]
        while t != s:
            seen[t] = True
            row.append(t)
            t = h[t]
        for t in row:
            if marked[t]:
                break
        else:
            continue
        k = row.index(t)
        bottom = tuple(row[k:] + row[:k] if k else row)
        first = sid + 1
        zeros = 0
        for x, t in enumerate(bottom):
            if marked[t]:
                if not met[t]:
                    zeros += 1
                    u = t
                    while not met[u]:
                        met[u] = True
                        u = corner[u]
                if x:   # the bottom opens its first saddle at x = 0
                    saddle_lengths.append(x - a)
                sid += 1
                a = x
                bottom_positions.append(x)
                bottom_of.append(len(cylinders))
            edge_saddle[t] = sid
        saddle_lengths.append(len(bottom) - a)
        bottom_words.append(tuple(range(first, sid + 1)))
        new_zeros.append(zeros)
        # climb while no square above the top row is marked
        stacked = [bottom]
        while True:
            for t in stacked[-1]:
                if marked[v[t]]:
                    break
            else:
                stacked.append(tuple([v[t] for t in stacked[-1]]))
                continue
            break
        area += len(row) * len(stacked)
        cylinders.append(Cylinder(tuple(stacked), len(row), len(stacked)))
    # a torus component with no cone point and no square 0 starts none
    if area != n:
        raise InvariantViolation("cylinder stack must have a unique bottom "
                                 "row")

    # top words: the same edges read along each cylinder's top row; x is
    # the index in the row.  A saddle on the top of cylinder c and the
    # bottom of c' joins half 2c + 1 to half 2c'.  The joined halves form
    # a union-find forest: each join walks both ends to their roots and
    # links the larger root under the smaller, so every root is the least
    # half of its class and every other half points to a smaller one
    top_words = []
    top_positions = [0] * len(bottom_of)
    parent = list(range(2 * len(cylinders)))
    for cid, c in enumerate(cylinders):
        word = []
        for x, s in enumerate(c.rows[-1]):
            t = v[s]
            if marked[t]:
                sid = edge_saddle[t]
                word.append(sid)
                top_positions[sid] = x
                y = 2 * cid + 1
                while parent[y] != y:
                    y = parent[y]
                z = 2 * bottom_of[sid]
                while parent[z] != z:
                    z = parent[z]
                if y < z:
                    parent[z] = y
                elif z < y:
                    parent[y] = z
        top_words.append(tuple(word))

    # the components, numbered by their least half, are the vertices.
    # Walked in half order, a root opens the next component and any other
    # half joins that of its parent, a smaller half already named.  One
    # component holding k halves retracts onto its zeros and saddles, so
    # twice its genus is 2 - k - zeros + saddles; a bottom half brings its
    # saddles and new zeros
    component = []
    count = 0
    for q, p in enumerate(parent):
        if p == q:
            component.append(count)
            count += 1
        else:
            component.append(component[p])
    twice_genus = [2] * count
    edges = []
    for cid, zeros in enumerate(new_zeros):
        a, b = component[2 * cid], component[2 * cid + 1]
        twice_genus[a] += len(bottom_words[cid]) - zeros - 1
        twice_genus[b] -= 1
        edges.append((a, b))
    genera = []
    for twice in twice_genus:
        if twice < 0 or twice % 2:
            raise InvariantViolation("component genus must be a whole number")
        genera.append(twice // 2)
    # every row is in a stack, so the surface is connected exactly when
    # the graph is: grow the vertices reached from vertex 0 along edges
    reached = [True] + [False] * (count - 1)
    grown = True
    while grown:
        grown = False
        for a, b in edges:
            if reached[a] != reached[b]:
                reached[a] = reached[b] = grown = True
    if not all(reached):
        raise InvariantViolation("surface must be connected")
    return CylinderDecomposition(
        o, tuple(cylinders),
        CylinderDiagram(tuple(bottom_words), tuple(top_words)),
        tuple(saddle_lengths), tuple(bottom_positions), tuple(top_positions),
        DualGraph(tuple(genera), tuple(edges)))


def direction_member(o: Origami, slope):
    r"""
    The ``SL(2, Z)`` word carrying the direction of ``slope`` to the
    horizontal, and the image of ``o`` under it: the member of the
    ``SL(2, Z)``-orbit of ``o`` whose horizontal decomposition is the
    decomposition of ``o`` in that direction.

    ``slope`` is a reduced pair ``(p, q)`` meaning direction vector
    ``(q, p)``.  The horizontal slope ``(0, 1)`` has the empty word and
    the member ``o`` itself.  The word depends on the slope alone
    (:func:`_slope_word`).

    EXAMPLES::

        >>> from squaretiled.surface import build_origami
        >>> o = build_origami((1, 0, 2), (0, 2, 1))
        >>> direction_member(o, (0, 1)) == ((), o)
        True
        >>> word, member = direction_member(o, (1, 0))   # vertical
        >>> member.h == o.v
        True
    """
    word = _slope_word(*slope)
    return word, act_sl2z(o, word)


def _slope_word(p, q):
    """The word of :func:`direction_member` for slope ``(p, q)``.

    A Euclid walk on the direction vector ``(x, y) = (q, p)``, in integers:
    while ``y ≠ 0``, shear by ``T⁻ᵏ`` so that ``x − k·y`` is the remainder
    nearest 0, at most ``|y|/2``, then turn by ``S``: ``(x, y) ↦ (−y, x)``.
    So the walk makes O(log |p|) turns.  It ends at ``(±1, 0)``, and ``S S``
    turns ``(−1, 0)`` into ``(1, 0)``.  Slope ``(1, q)`` keeps the word
    ``T⁻q S S S``.  Two words carrying one slope to the horizontal differ
    by ``±Tᵏ``, which fixes the horizontal, so the members' horizontal
    decompositions and pinch graphs are isomorphic: the label, mechanism
    and verdict do not depend on the word, though a witness in the
    member's coordinates (its crossed cylinder or direction) may."""
    if gcd(p, q) != 1:
        raise ValueError(f"slope {(p, q)} is not reduced")
    word = []
    x, y = q, p
    while y:
        k = (2 * x + y) // (2 * y)   # floor(x / y + 1/2)
        # one of the two runs is empty
        word += ("T^-1",) * k + ("T",) * -k + ("S",)
        x, y = -y, x - k * y
    if x == -1:
        word += ("S", "S")
    return tuple(word)


def periodic_decomposition(o: Origami, slope):
    r"""
    Cylinder decomposition of ``o`` in the rational direction of ``slope``.

    ``slope`` is a reduced pair ``(p, q)`` meaning direction vector
    ``(q, p)``; ``(1, 0)`` is the vertical direction and ``(0, 1)``
    horizontal.  The origami is carried to a horizontally periodic one by
    an ``SL(2, Z)`` word and decomposed there, in the image's coordinates:
    this is :func:`horizontal_decomposition` of the member
    ``direction_member(o, slope)[1]``.

    EXAMPLES::

        >>> from squaretiled.surface import build_origami, perm_from_cycles
        >>> ew = build_origami(perm_from_cycles([(0, 1, 2, 3), (4, 7, 6, 5)], 8),
        ...                    perm_from_cycles([(0, 4, 2, 6), (1, 5, 3, 7)], 8))
        >>> dv = periodic_decomposition(ew, (1, 0))   # vertical
        >>> [(c.circumference, c.height) for c in dv.cylinders]
        [(4, 1), (4, 1)]
    """
    return horizontal_decomposition(direction_member(o, slope)[1])


def moduli_exponents(d):
    r"""
    Integer exponents ``r_e`` proportional to the cylinder moduli of the
    decomposition ``d``, with overall gcd one.

    Each modulus is a cylinder's height over its circumference, both
    whole numbers of squares; scaling every height by the least common
    multiple of the circumferences over its own makes the moduli
    integers.

    EXAMPLES::

        >>> from squaretiled.surface import parse_origami
        >>> o = parse_origami('origami n=5 h="(0 1)(2 3 4)" v="(1 2)"')
        >>> moduli_exponents(horizontal_decomposition(o))   # moduli 1/2, 1/3
        (3, 2)
        >>> o = parse_origami('origami h="(0 1 2 3)(4 7 6 5)" '
        ...                   'v="(0 4 2 6)(1 5 3 7)"')
        >>> moduli_exponents(horizontal_decomposition(o))   # moduli 1/4, 1/4
        (1, 1)
    """
    pairs = [(c.height, c.circumference) for c in d.cylinders]
    scale = lcm(*(w for _, w in pairs))
    ints = [h * (scale // w) for h, w in pairs]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


class DualGraph(NamedTuple):
    """Dual graph of a cylinder pinch: one genus-labeled vertex per
    component of the surface cut along all core curves, one edge per
    cylinder (loops allowed).

    ``genera[i]`` is the genus of component ``i``; ``edges[c]`` is the
    pair ``(a, b)`` of the components holding the bottom and the top half
    of cylinder ``c``, a loop when ``a == b``.
    """

    genera: tuple
    edges: tuple

    @property
    def genus(self):
        """The arithmetic genus ``Σ genera + cycle_rank``: the genus of the
        surface whose pinch this is (see :func:`horizontal_decomposition`)."""
        return sum(self.genera) + self.cycle_rank

    @property
    def cycle_rank(self):
        """``E - V + 1``, the first Betti number of the (connected) graph:
        the rank of the span of the core curves, whose only relations are
        the component boundaries, which sum to zero."""
        return len(self.edges) - len(self.genera) + 1


# the six genus-3 pinch shapes, keyed by their sorted per-vertex
# (genus, valence, loops); a loop adds two to its vertex's valence
_CASE_SIGNATURES = {
    ((1, 4, 2),): "Case1",
    ((0, 3, 0), (1, 3, 0)): "Case2",
    ((0, 4, 1), (1, 2, 0)): "Case3",
    ((0, 3, 0), (0, 3, 0), (1, 2, 0)): "Case4",
    ((2, 2, 1),): "Case5",
    ((1, 2, 0), (1, 2, 0)): "Case6",
}


def classify_case(g):
    r"""
    Match a pinch dual graph against the six genus-3 reference shapes.

    Returns the label ``"Case1"`` ... ``"Case6"``.  One pass over the edges counts each
    vertex's valence and loops, and the sorted ``(genus, valence, loops)``
    triples are looked up in a table of the six shapes.  The triples fix
    each shape up to isomorphism: once the loops are placed, the other
    edge ends pair up in one way only.  (In Case 4 the genus-1 vertex
    cannot send both its edges to one genus-0 vertex, which would leave
    the other one three edge ends and a single free end to join.)  A graph
    outside the table, such as the Lagrangian branch below or a pinch of
    another genus, raises :class:`~squaretiled.errors.InvariantViolation`.

    Every pinch of a genus-3 origami of cycle rank 1 or 2 is in the table:

    - A core curve has nonzero holonomy, so it does not separate, and the
      graph has no bridge.
    - A component of genus ``g`` with ``k`` boundary circles holds at
      least one zero, and Gauss-Bonnet gives ``2g - 2 + k`` as the sum of
      the orders of its zeros.  So a genus-0 vertex has valence at least
      3, and a vertex of valence 2 has genus at least 1.
    - The genus labels sum to ``3 - h``, ``h`` the cycle rank.  With ``a``
      vertices of genus 0 and ``b`` of higher genus, ``2(V - 1 + h) >= 3a
      + 2b`` and ``b <= 3 - h`` leave at most ``h + 1`` vertices.
    - For ``h = 1`` the graph is a cycle, every vertex of valence 2: one
      vertex of genus 2 with a loop (Case 5) or two of genus 1 (Case 6).
    - For ``h = 2`` it is a theta or a figure-eight, possibly with edges
      subdivided, and one vertex has genus 1.  That vertex either sits at
      the branch point (Case 2 on a theta, Case 1 on a figure-eight) or is
      the one vertex that subdivides an edge (Case 4, Case 3).
    - ``h = 3`` leaves every label 0, the Lagrangian branch that no case
      covers, and ``h = 0`` would make every edge a bridge.
      ``test_pinch_shape_table_is_complete`` enumerates these graphs.

    EXAMPLES::

        >>> g = DualGraph(genera=(1, 1), edges=((0, 1), (0, 1)))
        >>> classify_case(g)
        'Case6'
    """
    valence = [0] * len(g.genera)
    loops = [0] * len(g.genera)
    for a, b in g.edges:
        valence[a] += 1
        valence[b] += 1
        if a == b:
            loops[a] += 1
    try:
        return _CASE_SIGNATURES[tuple(sorted(zip(g.genera, valence, loops)))]
    except KeyError:
        raise InvariantViolation("a pinch graph of cycle rank %d and genus "
                                 "labels summing to %d matches none of the "
                                 "six shapes" % (g.cycle_rank,
                                                 sum(g.genera))) from None
