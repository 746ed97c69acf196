r"""
Constructive searches for transverse cylinders in the two-, three- and
four-cylinder configurations, and the window-inequality solver.

One search, :func:`find_crossing_cylinder`, keyed by the pinch label the
classifier has read, takes the metric data of a cylinder decomposition
directly: every length and position is a whole number of squares, so the
four-cylinder window argument runs over unit cells.  It returns witness
records (crossed-cylinder sequence, start interval, average direction),
whose constructor checks only that the start interval is nonempty and
the crossed cylinders are distinct; checking a witness against the
surface itself is open (ROADMAP.md, item 22).  Existence arguments that
the source material phrases through shearing and cutting-and-regluing
become coordinate re-origin choices here.

EXAMPLES::

    >>> from squaretiled.cylinders import horizontal_decomposition
    >>> from squaretiled.surface import parse_origami
    >>> o = parse_origami('origami n=12 h="(0 1 2 3)(4 5)(6 7)(8 9 10 11)" '
    ...                   'v="(0 4 8 3 7 11)(1 5 9 2 6 10)"')
    >>> d = horizontal_decomposition(o)
    >>> w = find_crossing_cylinder(d, "Case4")
    >>> w.kind, w.crossed, w.start_interval
    ('boundary', (0, 2, 3), (1, 2))
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import Checked, InvariantViolation

# ---------------------------------------------------------------------------
# transverse-cylinder witnesses
# ---------------------------------------------------------------------------


class _TransverseWitnessFields(NamedTuple):
    crossed: tuple
    start_interval: tuple
    direction: tuple
    kind: str = ""


class TransverseWitness(Checked, _TransverseWitnessFields):
    """A certified transverse cylinder: the horizontal cylinders it crosses
    (each exactly once, in order), its start interval ``(lo, hi)`` on the
    bottom of the first, whose length ``hi - lo`` is its width, and the
    average direction ``(dx, dy)`` of its core."""

    __slots__ = ()

    def _check(self):
        lo, hi = self.start_interval
        if not lo < hi:
            raise InvariantViolation("a transverse cylinder needs positive "
                                     "width")
        if len(set(self.crossed)) != len(self.crossed):
            raise InvariantViolation("each cylinder must be crossed exactly "
                                     "once")


def _matched_pair(d):
    """The pair ``(c1, c4)`` with ``bottom(c1)`` and ``top(c4)`` carrying
    the same saddles, plus the middle cylinders over ``top(c1)``."""
    bottoms, tops = d.diagram.bottom_words, d.diagram.top_words
    bottom_owner = {s: c for c, word in enumerate(bottoms) for s in word}
    for c1, bottom in enumerate(bottoms):
        for c4, top in enumerate(tops):
            if c1 != c4 and set(bottom) == set(top):
                middles = {bottom_owner[s] for s in tops[c1]}
                if c1 not in middles and c4 not in middles:
                    return c1, c4, tuple(sorted(middles))
    raise InvariantViolation("no pair of cylinders glued along a full "
                             "interface")


def _saddle_arc(word, positions, saddles):
    """Start position of the (cyclically contiguous) run of ``saddles``
    inside ``word``."""
    idx = [i for i, s in enumerate(word) if s in saddles]
    k = len(word)
    if len(idx) != len(saddles):
        raise InvariantViolation("middle cylinder interface is not a sub-run")
    for start in idx:
        if all((start + t) % k in idx for t in range(len(idx))):
            if (start - 1) % k not in idx or len(idx) == k:
                return positions[word[start]]
    raise InvariantViolation("middle cylinder interface is not contiguous")


def find_crossing_cylinder(d, label) -> TransverseWitness:
    r"""
    A transverse cylinder for a decomposition ``d`` whose pinch dual graph
    has the shape ``label``, the string
    :func:`~squaretiled.cylinders.classify_case` returns: ``"Case1"``,
    ``"Case2"`` or ``"Case4"``; any other label raises ``ValueError``.  Every
    diagram of these shapes has one, whatever its metric data, so a
    witness is always returned; the searches state why.  No dual graph is
    read: a search that finds no witness, as on a diagram of another
    shape, raises :class:`~squaretiled.errors.InvariantViolation`.

    ``d`` is an origami's cylinder decomposition, whose lengths and
    positions are whole numbers of squares; the search reads the diagram,
    the circumference and height of each cylinder, the saddle lengths and
    the saddle positions on every boundary.  The 4A search runs over unit
    cells and raises :class:`~squaretiled.errors.InvariantViolation` on
    any length or position that is not whole.

    - ``"Case1"``: a saddle on both sides of one cylinder spans a simple
      transverse cylinder crossing that cylinder once.
    - ``"Case2"``: the first saddle of cylinder 0's bottom lies on the top
      of another cylinder; with the longest saddle that the top of
      cylinder 0 shares with that cylinder's bottom, it spans a cylinder
      crossing both exactly once (twists are free parameters).
    - ``"Case4"`` with two middle cylinders between the outer pair (4A): the
      window argument on the gluing of the bottom of the outer cylinder to
      the top of its partner, both re-cut so that the wider middle spans
      the window ``[0, s)`` of the circumference ``w``.  The top of the
      outer cylinder is exactly the bottoms of the two middles, so
      ``2s >= w``.  When ``2s > w`` the window and its preimage hold
      ``2s > w`` cells between them, so by pigeonhole some window cell is
      glued into the window: the witness is a run of such cells.  When
      ``2s = w`` and no cell is, the gluing maps ``[0, s)`` onto
      ``[s, w)``, and the witness is the boundary construction at the
      preimage of ``s``, which lies in ``[0, s)``.
    - ``"Case4"`` with one middle cylinder (4B): every saddle on the top of
      the outer partner recurs on the bottom of the outer cylinder; any of
      them spans a cylinder crossing the three stacked cylinders once
      each.

    EXAMPLES::

        >>> from squaretiled.cylinders import horizontal_decomposition
        >>> from squaretiled.surface import parse_origami
        >>> o = parse_origami('origami n=6 h="(1 3 2 4)" v="(0 5 2 1)"')
        >>> d = horizontal_decomposition(o)
        >>> w = find_crossing_cylinder(d, "Case1")
        >>> w.crossed, w.start_interval, w.kind
        ((1,), (0, 1), 'simple-over-1')
    """
    if label == "Case1":
        return _case1_witness(d)
    if label == "Case2":
        return _case2_witness(d)
    if label != "Case4":
        raise ValueError("no crossing-cylinder search for %s" % (label,))
    c1, c4, middles = _matched_pair(d)
    if len(middles) == 2:
        return _case4a_witness(d, c1, c4, middles)
    return _case4b_witness(d, c1, c4, middles[0])


def _case1_witness(d):
    """A simple cylinder over a saddle on both the bottom and the top of
    one cylinder, the first in cylinder order.

    Every Case 1 diagram has such a saddle.  Its pinch is one component
    with the two cylinders ``A`` and ``B`` as loops.  If neither cylinder
    had a saddle on both sides, every saddle of ``bottom(A)`` would lie on
    ``top(B)`` and every saddle of ``bottom(B)`` on ``top(A)``; both sides
    list every saddle once, so these inclusions would be equalities.  The
    halves of ``A`` and ``B`` would then fall into two components,
    ``bottom(A)`` with ``top(B)`` and ``bottom(B)`` with ``top(A)``: the
    shape of Case 6.  So :class:`InvariantViolation` is raised only when
    ``d`` is not Case 1."""
    for cid, (bottom, top) in enumerate(zip(d.diagram.bottom_words,
                                            d.diagram.top_words)):
        both = set(bottom) & set(top)
        if both:
            return _over_saddle(d, min(both), (cid,), "simple-over-%s")
    raise InvariantViolation("no cylinder has a saddle on both its bottom "
                             "and its top: the diagram is not Case 1")


def _case2_witness(d):
    """A cylinder through the first saddle ``sigma`` of the bottom of
    cylinder 0, which lies on the top of another cylinder ``c2``, and back
    through the longest saddle ``tau`` that the top of cylinder 0 shares
    with the bottom of ``c2``.

    Every Case 2 diagram has one, at its first saddle.  Its pinch is a
    theta: each of the three cylinders joins the genus-0 component to the
    genus-1 one.  The boundary circles of a component sum to zero in
    homology and every core curve has positive holonomy, so each component
    holds the bottom of one cylinder and the top of another: two
    cylinders share one orientation and the third, the lone one, has the
    other.  The saddle ``sigma`` on the bottom of cylinder 0 lies on the
    top of a cylinder ``c2`` in the same component, so ``c2`` has the
    other orientation and is not cylinder 0.  One of the two is the lone
    cylinder, and its side in the other component, the top of cylinder 0
    or the bottom of ``c2``, carries every saddle of that component, the
    other's side among them.  So the two sides share a saddle, and
    :class:`InvariantViolation` is raised only when ``d`` is not Case 2."""
    bottoms, tops = d.diagram.bottom_words, d.diagram.top_words
    lengths = d.saddle_lengths
    sigma = bottoms[0][0]
    c2 = next(c for c, top in enumerate(tops) if sigma in top)
    shared = set(tops[0]) & set(bottoms[c2])
    if c2 == 0 or not shared:
        raise InvariantViolation("no cylinder pairs with cylinder 0 at its "
                                 "first saddle: the diagram is not Case 2")
    tau = max(shared, key=lambda t: (lengths[t], t))
    bp = d.bottom_positions[sigma]
    return TransverseWitness(
        crossed=(0, c2),
        start_interval=(bp, bp + min(lengths[sigma], lengths[tau])),
        direction=(0, d.heights[0] + d.heights[c2]),
        kind="through-%s-%s" % (sigma, tau),
    )


def _case4a_witness(d, c1, c4, middles):
    """The window argument over unit cells.  Both outer interfaces are
    re-cut so that the wide middle spans ``[0, s)``; ``image[x]`` is the
    cell on the top of ``c4`` glued to cell ``x`` of the bottom of ``c1``.
    A continuity piece starts at cell 0, at each saddle and wherever the
    image jumps."""
    widths, heights = d.circumferences, d.heights
    wide = max(middles, key=lambda c: (widths[c], c))
    w = widths[c1]
    if widths[c4] != w:
        raise InvariantViolation("outer cylinders must have equal "
                                 "circumference")
    s = widths[wide]
    a_top = _saddle_arc(d.diagram.top_words[c1], d.top_positions,
                        set(d.diagram.bottom_words[wide]))
    a_bot = _saddle_arc(d.diagram.bottom_words[c4], d.bottom_positions,
                        set(d.diagram.top_words[wide]))
    # (start of the saddle on the bottom of c1, start of its image on the
    # top of c4, length), both starts re-cut to the window
    saddles = [(d.bottom_positions[sid] - a_top,
                d.top_positions[sid] - a_bot, d.saddle_lengths[sid])
               for sid in d.diagram.bottom_words[c1]]
    values = [w, s] + [v for triple in saddles for v in triple]
    if not all(isinstance(v, int) for v in values):
        raise InvariantViolation("the cell search needs whole-unit lengths "
                                 "and positions")
    image = [None] * w
    starts = {0}
    for x, y, length in saddles:
        starts.add(x % w)
        for t in range(length):
            image[(x + t) % w] = (y + t) % w
    if set(image) != set(range(w)):
        raise InvariantViolation("the outer gluing must permute the cells")
    starts.update(x for x in range(1, w) if image[x] != image[x - 1] + 1)
    # the leftmost longest run of window cells whose images lie in the
    # window; the wide middle spans at least half of w, so a run exists
    # unless 2s = w and the window maps onto its complement
    best, run = (0, 0), 0
    for x in range(s):
        run = run + 1 if image[x] < s else 0
        if run > best[1] - best[0]:
            best = (x + 1 - run, x + 1)
    if best[0] < best[1]:
        kind, (lo, hi) = "window", best
    elif 2 * s == w:
        lo = image.index(s)
        kind, hi = "boundary", s
    else:
        raise InvariantViolation("no window cell is glued into the window "
                                 "although 2s != w")
    hi = min(hi, min((x for x in starts if x > lo), default=w))
    off = (image[lo] - lo) % w
    rise = heights[c1] + heights[wide] + heights[c4]
    return TransverseWitness(
        crossed=(c1, wide, c4),
        start_interval=(lo, hi),
        direction=(off if off <= w - off else off - w, rise),
        kind=kind,
    )


def _case4b_witness(d, c1, c4, mid):
    """A cylinder over the longest saddle on the top of ``c4``, which
    :func:`_matched_pair` glues to the bottom of ``c1``: it crosses ``c1``,
    ``mid`` and ``c4`` once each."""
    lengths = d.saddle_lengths
    sigma = max(d.diagram.top_words[c4], key=lambda s: (lengths[s], s))
    return _over_saddle(d, sigma, (c1, mid, c4), "over-%s")


def _over_saddle(d, sid, crossed, prefix):
    """The cylinder over saddle ``sid``, crossing the cylinders ``crossed``
    once each: as wide as the saddle, it starts at the saddle's bottom
    position and rises through ``crossed`` to its top position.  Its kind
    is ``prefix % sid``."""
    bp = d.bottom_positions[sid]
    return TransverseWitness(
        crossed=crossed,
        start_interval=(bp, bp + d.saddle_lengths[sid]),
        direction=(d.top_positions[sid] - bp,
                   sum(d.heights[c] for c in crossed)),
        kind=prefix % (sid,),
    )


# ---------------------------------------------------------------------------
# the window inequalities
# ---------------------------------------------------------------------------


class _WindowConstraintFields(NamedTuple):
    t0: int
    s0: int
    t_start: int
    w: int


class WindowConstraint(Checked, _WindowConstraintFields):
    """Window data for the two-cylinder forcing as integer numerators over
    the shared circumference ``w``: the longest saddle lengths ``t0 >= s0``
    on the two bottoms and the offset ``t_start`` of the upper window.
    The inequalities bound ``s0`` below by ``min_saddle``, a quarter of
    the circumference.  Every check is an explicit ``raise``, so it also
    runs under ``python -O``."""

    __slots__ = ()

    def _check(self):
        if not all(type(v) is int
                   for v in (self.t0, self.s0, self.t_start, self.w)):
            raise ValueError("window data must be exact: integer "
                             "numerators over w")
        if not (0 < self.t0 < self.w and 0 < self.s0 < self.w):
            raise ValueError("saddle lengths must lie in (0, w)")
        if not (0 <= self.t_start < self.w):
            raise ValueError("t_start must lie in [0, w)")


class FeasibilityRecord(NamedTuple):
    """Outcome of the window inequalities ``t0 >= s0 >= min_saddle`` and
    ``t_start <= 1 - 2·t0 - 2·s0`` in units of the circumference;
    ``slack`` is the numerator over ``w`` of the right-hand room
    ``1 - 2·t0 - 2·s0``, and ``violated`` names the inequalities that
    fail.  The point is feasible when ``violated`` is empty, and then it
    is the degenerate one where every inequality is tight:
    ``t0 >= s0 >= w/4`` gives ``slack <= 0``, and
    ``0 <= t_start <= slack``."""

    slack: int
    violated: tuple


def window_feasible(c: WindowConstraint) -> FeasibilityRecord:
    r"""
    Decide the window inequalities on the numerators over ``c.w``: the
    room is ``w - 2·t0 - 2·s0`` and the quarter bound ``4·s0 >= w``.

    EXAMPLES::

        >>> window_feasible(WindowConstraint(1, 1, 0, 4))
        FeasibilityRecord(slack=0, violated=())
        >>> r = window_feasible(WindowConstraint(4, 3, 0, 12))
        >>> r.violated, r.slack       # 1 - 2/3 - 1/2 = -1/6
        (('t_start <= 1 - 2*t0 - 2*s0',), -2)
        >>> window_feasible(WindowConstraint(3, 2, 1, 12)).violated
        ('s0 >= min_saddle',)
    """
    slack = c.w - 2 * (c.t0 + c.s0)
    violated = []
    if c.t0 < c.s0:
        violated.append("t0 >= s0")
    if 4 * c.s0 < c.w:
        violated.append("s0 >= min_saddle")
    if c.t_start > slack:
        violated.append("t_start <= 1 - 2*t0 - 2*s0")
    return FeasibilityRecord(slack, tuple(violated))
