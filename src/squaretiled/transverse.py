r"""
Exact piecewise isometries between cylinder interfaces, constructive
searches for transverse cylinders in the two-, three- and four-cylinder
configurations, and the window-inequality solver.

All interval endpoints are exact rationals.  The searches read the
metric data of an origami's cylinder decomposition directly (whole
numbers of squares).  They return witness records (crossed-cylinder
sequence, width, average direction) that are re-verified
combinatorially; existence arguments that the source material phrases
through shearing and cutting-and-regluing become coordinate re-origin
choices here.

EXAMPLES::

    >>> from fractions import Fraction
    >>> f = IntervalMap(Fraction(1), ((Fraction(0), Fraction(1), Fraction(1, 3)),))
    >>> f.apply(Fraction(5, 6))
    Fraction(1, 6)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cylinders import classify_case
from .errors import CaseMismatch, InvariantViolation, LengthMismatch
from .homology import dual_graph

# ---------------------------------------------------------------------------
# interval maps
# ---------------------------------------------------------------------------


class IntervalMap:
    r"""
    A measure-preserving piecewise isometry of ``[0, L)``: each piece is a
    half-open source interval translated by an offset, with the image taken
    mod ``L``.

    On construction the pieces are normalized: sorted, offsets reduced mod
    ``L``, and any piece whose image would wrap is split, so every stored
    piece has a straight (non-wrapping) image.  Both the sources and the
    images must partition ``[0, L)``.

    EXAMPLES::

        >>> rot = IntervalMap(Fraction(1),
        ...                   ((Fraction(0), Fraction(1), Fraction(1, 3)),))
        >>> [p[:2] for p in rot.pieces]
        [(Fraction(0, 1), Fraction(2, 3)), (Fraction(2, 3), Fraction(1, 1))]
        >>> rot.apply(Fraction(1, 2))
        Fraction(5, 6)
    """

    def __init__(self, length, pieces):
        self.length = Fraction(length)
        if self.length <= 0:
            raise ValueError("length must be positive")
        split = []
        for a, b, off in pieces:
            a, b, off = Fraction(a), Fraction(b), Fraction(off) % self.length
            if not (0 <= a < b <= self.length):
                raise ValueError("piece outside [0, L)")
            wrap = self.length - off
            if off and a < wrap < b:
                split.append((a, wrap, off))
                split.append((wrap, b, off))
            else:
                split.append((a, b, off))
        split.sort()
        self.pieces = tuple(split)
        self._validate()

    def _validate(self):
        x = Fraction(0)
        for a, b, _ in self.pieces:
            if a != x:
                raise ValueError("source intervals do not partition [0, L)")
            x = b
        if x != self.length:
            raise ValueError("source intervals do not partition [0, L)")
        images = sorted(self.image_intervals())
        x = Fraction(0)
        for a, b in images:
            if a != x:
                raise ValueError("image intervals do not partition [0, L)")
            x = b
        if x != self.length:
            raise ValueError("image intervals do not partition [0, L)")

    def image_intervals(self):
        """The (non-wrapping) image interval of each piece."""
        out = []
        for a, b, off in self.pieces:
            ia = (a + off) % self.length
            out.append((ia, ia + (b - a)))
        return out

    def apply(self, x):
        """Image of the point ``x``."""
        x = Fraction(x)
        for a, b, off in self.pieces:
            if a <= x < b:
                return (x + off) % self.length
        raise ValueError("point outside [0, L)")

    def piece_at(self, x):
        """The piece ``(a, b, offset)`` whose source contains ``x``."""
        x = Fraction(x)
        for piece in self.pieces:
            if piece[0] <= x < piece[1]:
                return piece
        raise ValueError("point outside [0, L)")


def build_interval_map(d, from_interface, to_interface) -> IntervalMap:
    r"""
    The identification of one cylinder interface with another, as an
    :class:`IntervalMap` between their boundary coordinates, on a cylinder
    decomposition ``d``.

    Interfaces are ``("bottom", cid)`` or ``("top", cid)``; every saddle of
    the source interface must appear on the target interface and the two
    total lengths must agree (:class:`~squaretiled.errors.LengthMismatch`
    otherwise).  A point at distance ``t`` into a saddle on the source is
    sent to distance ``t`` into the same saddle on the target.

    EXAMPLES::

        >>> from squaretiled.cylinders import horizontal_decomposition
        >>> from squaretiled.surface import build_origami
        >>> # one cylinder of three squares, its top glued with twist 1
        >>> d = horizontal_decomposition(build_origami((1, 2, 0), (2, 0, 1)))
        >>> f = build_interval_map(d, ("bottom", 0), ("top", 0))
        >>> f.apply(0)
        Fraction(1, 1)
    """
    def interface_data(interface):
        side, cid = interface
        if side == "bottom":
            word = d.diagram.bottom_words[cid]
            pos = d.bottom_positions[cid]
        elif side == "top":
            word = d.diagram.top_words[cid]
            pos = d.top_positions[cid]
        else:
            raise ValueError("interface side must be 'bottom' or 'top'")
        return word, pos, d.cylinders[cid].circumference

    from_word, from_pos, from_len = interface_data(from_interface)
    to_word, to_pos, to_len = interface_data(to_interface)
    if from_len != to_len:
        raise LengthMismatch("interfaces have lengths %s and %s"
                             % (from_len, to_len))
    if set(from_word) != set(to_word):
        raise LengthMismatch("interfaces do not carry the same saddles")
    pieces = []
    for sid in from_word:
        a = from_pos[sid]
        ln = d.saddle_lengths[sid]
        # a point at distance t into the saddle sits at (a + t) mod L and
        # maps to (to_pos + t) mod L, so the offset is the same mod L on
        # both parts of a source saddle that wraps past the end of [0, L)
        off = to_pos[sid] - a
        if a + ln <= from_len:
            pieces.append((a, a + ln, off))
        else:
            pieces.append((a, from_len, off))
            pieces.append((Fraction(0), a + ln - from_len, off))
    return IntervalMap(from_len, pieces)


def find_window_hit(f: IntervalMap, j, w):
    r"""
    A maximal open interval ``(a, b)`` inside the window ``j`` whose image
    under ``f`` lies inside the window ``w``, chosen leftmost among the
    longest; ``None`` if no positive-length interval qualifies.

    EXAMPLES::

        >>> ident = IntervalMap(1, ((0, 1, 0),))
        >>> find_window_hit(ident, (0, Fraction(1, 2)), (0, Fraction(1, 2)))
        (Fraction(0, 1), Fraction(1, 2))
        >>> rot = IntervalMap(1, ((0, 1, Fraction(1, 3)),))
        >>> find_window_hit(rot, (0, Fraction(1, 3)),
        ...                 (Fraction(1, 3), Fraction(2, 3)))
        (Fraction(0, 1), Fraction(1, 3))
        >>> swap = IntervalMap(1, ((0, Fraction(1, 2), Fraction(1, 2)),
        ...                        (Fraction(1, 2), 1, Fraction(1, 2))))
        >>> find_window_hit(swap, (0, Fraction(1, 2)),
        ...                 (0, Fraction(1, 2))) is None
        True
    """
    j0, j1 = Fraction(j[0]), Fraction(j[1])
    w0, w1 = Fraction(w[0]), Fraction(w[1])
    hits = []
    for a, b, off in f.pieces:
        s0, s1 = max(a, j0), min(b, j1)
        if s0 >= s1:
            continue
        i0 = (s0 + off) % f.length
        i1 = i0 + (s1 - s0)
        m0, m1 = max(i0, w0), min(i1, w1)
        if m0 < m1:
            hits.append((s0 + (m0 - i0), s0 + (m1 - i0)))
    if not hits:
        return None
    hits.sort()
    merged = [list(hits[0])]
    for a, b in hits[1:]:
        if a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    best = max(merged, key=lambda ab: ab[1] - ab[0])
    return (best[0], best[1])


def boundary_hit(f: IntervalMap, value):
    r"""
    The unique preimage of ``value`` under ``f`` (raises if the preimage is
    not unique).  Used for the boundary case where the window hit
    degenerates to a point.

    EXAMPLES::

        >>> rot = IntervalMap(1, ((0, 1, Fraction(1, 3)),))
        >>> boundary_hit(rot, Fraction(1, 2))
        Fraction(1, 6)
    """
    value = Fraction(value) % f.length
    found = []
    for a, b, off in f.pieces:
        x = (value - off) % f.length
        if a <= x < b:
            found.append(x)
    if len(found) != 1:
        raise ValueError("preimage of %s is not unique" % (value,))
    return found[0]


# ---------------------------------------------------------------------------
# transverse-cylinder witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransverseWitness:
    """A certified transverse cylinder: the horizontal cylinders it crosses
    (each exactly once, in order), its width, the interface interval it
    starts from, and the average direction ``(dx, dy)`` of its core."""

    crossed: tuple
    width: Fraction
    start_interface: tuple
    start_interval: tuple
    direction: tuple
    kind: str = ""

    def __post_init__(self):
        if self.width <= 0:
            raise InvariantViolation("a transverse cylinder needs positive "
                                     "width")
        if len(set(self.crossed)) != len(self.crossed):
            raise InvariantViolation("each cylinder must be crossed exactly "
                                     "once")


def _matched_pair(d):
    """The pair ``(c1, c4)`` with ``bottom(c1)`` and ``top(c4)`` carrying
    the same saddles, plus the middle cylinders over ``top(c1)``."""
    cids = d.diagram.cylinder_ids
    bottom_owner = {s: c for c in cids for s in d.diagram.bottom_words[c]}
    for c1 in cids:
        for c4 in cids:
            if c1 == c4:
                continue
            if set(d.diagram.bottom_words[c1]) == \
                    set(d.diagram.top_words[c4]):
                middles = {bottom_owner[s]
                           for s in d.diagram.top_words[c1]}
                if c1 not in middles and c4 not in middles:
                    return c1, c4, tuple(sorted(middles))
    raise CaseMismatch("no pair of cylinders glued along a full interface")


def _saddle_arc(word, positions, saddles):
    """Start position of the (cyclically contiguous) run of ``saddles``
    inside ``word``."""
    idx = [i for i, s in enumerate(word) if s in saddles]
    k = len(word)
    if len(idx) != len(saddles):
        raise CaseMismatch("middle cylinder interface is not a sub-run")
    for start in idx:
        if all((start + t) % k in idx for t in range(len(idx))):
            if (start - 1) % k not in idx or len(idx) == k:
                return positions[word[start]]
    raise CaseMismatch("middle cylinder interface is not contiguous")


def find_crossing_cylinder(d, case) -> TransverseWitness:
    r"""
    A transverse cylinder for one of the named two-, three- and
    four-cylinder configurations, or ``None`` when the configuration's
    guarantee does not apply to the given metric data.

    ``d`` is an origami's cylinder decomposition, whose lengths and
    positions are whole numbers of squares; the search reads the diagram,
    the circumference and height of each cylinder, the saddle lengths and
    the saddle positions on every boundary.

    - ``Case1``: a saddle on both sides of one cylinder spans a simple
      transverse cylinder crossing that cylinder once.
    - ``Case2``: a saddle shared by the bottom of one cylinder and the top
      of another, with a second shared saddle between them, spans a
      cylinder crossing both exactly once (twists are free parameters).
    - ``Case4A``: the window argument on the interval map from the bottom
      of the outer cylinder to the top of its partner.  The top of the
      outer cylinder is exactly the bottoms of the two middles, so the
      wider middle spans at least half the outer circumference and a
      witness always exists: a window hit, or in the critical case of
      exactly half, where ``f`` maps ``[0, s)`` onto ``[s, w)``, the
      boundary construction at the preimage of ``s``, which lies in
      ``[0, s)``.
    - ``Case4B``: every saddle on the top of the outer partner recurs on
      the bottom of the outer cylinder; any of them spans a cylinder
      crossing the three stacked cylinders once each.
    - ``Case4``: ``Case4A`` when two middle cylinders sit between the
      outer pair, ``Case4B`` when one does.

    The requested case must match the shape of ``d``'s pinch dual graph
    (:class:`~squaretiled.errors.CaseMismatch` otherwise).  The
    classifier, which has just matched that shape, skips this check and
    so builds no second dual graph.

    EXAMPLES::

        >>> from squaretiled.cylinders import horizontal_decomposition
        >>> from squaretiled.surface import parse_origami
        >>> o = parse_origami('origami n=6 h="(1 3 2 4)" v="(0 5 2 1)"')
        >>> w = find_crossing_cylinder(horizontal_decomposition(o), "Case1")
        >>> w.crossed, w.width, w.kind
        ((1,), 1, 'simple-over-1')
    """
    case = str(case)
    expected = {"Case1": "Case1", "Case2": "Case2", "Case4": "Case4",
                "Case4A": "Case4", "Case4B": "Case4"}
    if case not in expected:
        raise CaseMismatch("unsupported case %r" % (case,))
    label = str(classify_case(dual_graph(d)))
    if label != expected[case]:
        raise CaseMismatch("diagram is %s, not %s" % (label, case))
    return _crossing_witness(d, case)


def _crossing_witness(d, case):
    """:func:`find_crossing_cylinder` for a ``case`` already known to name
    the shape of ``d``'s pinch dual graph."""
    if case == "Case1":
        return _case1_witness(d)
    if case == "Case2":
        return _case2_witness(d)
    c1, c4, middles = _matched_pair(d)
    if case == "Case4":
        case = "Case4A" if len(middles) == 2 else "Case4B"
    if case == "Case4A":
        if len(middles) != 2:
            raise CaseMismatch("diagram has the stacked (4B) shape")
        return _case4a_witness(d, c1, c4, middles)
    if len(middles) != 1:
        raise CaseMismatch("diagram has the side-by-side (4A) shape")
    return _case4b_witness(d, c1, c4, middles[0])


def _case1_witness(d):
    for cid in d.diagram.cylinder_ids:
        both = set(d.diagram.bottom_words[cid]) & \
            set(d.diagram.top_words[cid])
        if not both:
            continue
        sid = min(both, key=str)
        length = d.saddle_lengths[sid]
        bp = d.bottom_positions[cid][sid]
        tp = d.top_positions[cid][sid]
        return TransverseWitness(
            crossed=(cid,),
            width=length,
            start_interface=("bottom", cid),
            start_interval=(bp, bp + length),
            direction=(tp - bp, d.cylinders[cid].height),
            kind="simple-over-%s" % (sid,),
        )
    return None


def _case2_witness(d):
    cids = d.diagram.cylinder_ids
    lengths = d.saddle_lengths
    for c1 in cids:
        for sigma in d.diagram.bottom_words[c1]:
            c2 = next(c for c in cids
                      if sigma in d.diagram.top_words[c])
            if c2 == c1:
                continue
            shared = set(d.diagram.top_words[c1]) & \
                set(d.diagram.bottom_words[c2])
            if not shared:
                continue
            tau = max(shared, key=lambda t: (lengths[t], str(t)))
            width = min(lengths[sigma], lengths[tau])
            bp = d.bottom_positions[c1][sigma]
            rise = d.cylinders[c1].height + d.cylinders[c2].height
            return TransverseWitness(
                crossed=(c1, c2),
                width=width,
                start_interface=("bottom", c1),
                start_interval=(bp, bp + width),
                direction=(Fraction(0), rise),
                kind="through-%s-%s" % (sigma, tau),
            )
    return None


def case4a_window_map(d, c1=None, c4=None, middles=None):
    """The normalized interval map of the four-cylinder window argument:
    the gluing of the bottom of ``c1`` to the top of ``c4``, in coordinates
    re-cut so that the wider middle cylinder spans ``[0, s)`` on both of
    its interfaces.  Returns ``(map, s)``."""
    if c1 is None:
        c1, c4, middles = _matched_pair(d)
    wide = max(middles, key=lambda c: (d.cylinders[c].circumference, c))
    w = d.cylinders[c1].circumference
    if d.cylinders[c4].circumference != w:
        raise CaseMismatch("outer cylinders must have equal circumference")
    s = d.cylinders[wide].circumference
    a_top = _saddle_arc(d.diagram.top_words[c1], d.top_positions[c1],
                        set(d.diagram.bottom_words[wide]))
    a_bot = _saddle_arc(d.diagram.bottom_words[c4], d.bottom_positions[c4],
                        set(d.diagram.top_words[wide]))
    raw = build_interval_map(d, ("bottom", c1), ("top", c4))
    pieces = []
    for a, b, off in raw.pieces:
        pieces.append(((a - a_top) % w, (a - a_top) % w + (b - a),
                       off + a_top - a_bot))
    # re-splitting at 0 after the shift
    fixed = []
    for a, b, off in pieces:
        if b <= w:
            fixed.append((a, b, off))
        else:
            fixed.append((a, w, off))
            fixed.append((Fraction(0), b - w, off))
    return IntervalMap(w, fixed), s


def _case4a_witness(d, c1, c4, middles):
    f, s = case4a_window_map(d, c1, c4, middles)
    w = f.length
    wide = max(middles, key=lambda c: (d.cylinders[c].circumference, c))
    rise = (d.cylinders[c1].height + d.cylinders[wide].height
            + d.cylinders[c4].height)
    hit = find_window_hit(f, (Fraction(0), s), (Fraction(0), s))
    if hit is not None:
        # shrink into a single continuity piece so the image is a translate
        a, b = hit
        for pa, pb, off in f.pieces:
            lo, hi = max(a, pa), min(b, pb)
            if lo < hi:
                return TransverseWitness(
                    crossed=(c1, wide, c4),
                    width=hi - lo,
                    start_interface=("bottom", c1),
                    start_interval=(lo, hi),
                    direction=(off if off <= w - off else off - w, rise),
                    kind="window",
                )
    if 2 * s == w:
        x = boundary_hit(f, s)
        pa, pb, off = f.piece_at(x)
        eps = min(pb - x, s - x)
        if eps <= 0:
            raise InvariantViolation("boundary witness of zero width")
        return TransverseWitness(
            crossed=(c1, wide, c4),
            width=eps,
            start_interface=("bottom", c1),
            start_interval=(x, x + eps),
            direction=(off if off <= w - off else off - w, rise),
            kind="boundary",
        )
    return None


def _case4b_witness(d, c1, c4, mid):
    top4 = set(d.diagram.top_words[c4])
    bot1 = set(d.diagram.bottom_words[c1])
    if not top4 <= bot1:
        raise CaseMismatch("stacked shape requires the outer interfaces to "
                           "share all saddles")
    lengths = d.saddle_lengths
    sigma = max(top4, key=lambda s: (lengths[s], str(s)))
    bp = d.bottom_positions[c1][sigma]
    tp = d.top_positions[c4][sigma]
    rise = (d.cylinders[c1].height + d.cylinders[mid].height
            + d.cylinders[c4].height)
    return TransverseWitness(
        crossed=(c1, mid, c4),
        width=lengths[sigma],
        start_interface=("bottom", c1),
        start_interval=(bp, bp + lengths[sigma]),
        direction=(tp - bp, rise),
        kind="over-%s" % (sigma,),
    )


# ---------------------------------------------------------------------------
# the window inequalities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WindowConstraint:
    """Normalized window data for the two-cylinder forcing: the longest
    saddle lengths ``t0 >= s0`` on the two bottoms (circumference 1), the
    offset ``t_start`` of the upper window, and the lower bound
    ``min_saddle`` that the longest saddle must satisfy."""

    t0: Fraction
    s0: Fraction
    t_start: Fraction
    min_saddle: Fraction = None

    def __post_init__(self):
        object.__setattr__(self, "t0", Fraction(self.t0))
        object.__setattr__(self, "s0", Fraction(self.s0))
        object.__setattr__(self, "t_start", Fraction(self.t_start))
        if self.min_saddle is not None:
            object.__setattr__(self, "min_saddle",
                               Fraction(self.min_saddle))
        if not (0 < self.t0 < 1 and 0 < self.s0 < 1):
            raise ValueError("saddle lengths must lie in (0, 1)")
        if not (0 <= self.t_start < 1):
            raise ValueError("t_start must lie in [0, 1)")


@dataclass(frozen=True)
class FeasibilityRecord:
    """Outcome of the window inequalities ``t0 >= s0 >= min_saddle`` and
    ``0 <= t_start <= 1 - 2·t0 - 2·s0``; ``slack`` is the right-hand
    room ``1 - 2·t0 - 2·s0``, and ``boundary`` flags the degenerate
    feasible point where every inequality is tight."""

    feasible: bool
    slack: Fraction
    violated: tuple
    boundary: bool


def window_feasible(c: WindowConstraint) -> FeasibilityRecord:
    r"""
    Evaluate the window inequalities exactly.

    EXAMPLES::

        >>> q = Fraction
        >>> window_feasible(WindowConstraint(q(1, 4), q(1, 4), 0, q(1, 4)))
        FeasibilityRecord(feasible=True, slack=Fraction(0, 1), violated=(), boundary=True)
        >>> r = window_feasible(WindowConstraint(q(1, 3), q(1, 4), 0, q(1, 4)))
        >>> r.feasible, r.slack
        (False, Fraction(-1, 6))
        >>> window_feasible(WindowConstraint(q(1, 5), q(1, 5), q(1, 10))).feasible
        True
    """
    slack = 1 - 2 * c.t0 - 2 * c.s0
    violated = []
    if c.t0 < c.s0:
        violated.append("t0 >= s0")
    if c.min_saddle is not None and c.s0 < c.min_saddle:
        violated.append("s0 >= min_saddle")
    if c.t_start < 0:
        violated.append("t_start >= 0")
    if c.t_start > slack:
        violated.append("t_start <= 1 - 2*t0 - 2*s0")
    feasible = not violated
    boundary = feasible and slack == 0 and c.t_start == 0
    return FeasibilityRecord(feasible, slack, tuple(violated), boundary)
