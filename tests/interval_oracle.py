r"""
The four-cylinder (Case 4A) window argument in exact rational arithmetic:
piecewise isometries of ``[0, L)``, the gluing of two cylinder interfaces
as one, the window search on such a map and its boundary construction.
It is the reference that the whole-unit cell search of
:func:`squaretiled.transverse.find_crossing_cylinder` is checked against,
and it also runs on metric nets with rational lengths.

EXAMPLES::

    >>> f = IntervalMap(Fraction(1), ((Fraction(0), Fraction(1), Fraction(1, 3)),))
    >>> f.apply(Fraction(5, 6))
    Fraction(1, 6)
"""

from fractions import Fraction

from squaretiled.errors import InvariantViolation, SquareTiledError
from squaretiled.transverse import TransverseWitness, _matched_pair, \
    _saddle_arc


class LengthMismatch(SquareTiledError, ValueError):
    """Two interfaces that should have equal total length do not."""


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
    total lengths must agree (:class:`LengthMismatch` otherwise).  A point
    at distance ``t`` into a saddle on the source is sent to distance
    ``t`` into the same saddle on the target.

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
            pos = d.bottom_positions
        elif side == "top":
            word = d.diagram.top_words[cid]
            pos = d.top_positions
        else:
            raise ValueError("interface side must be 'bottom' or 'top'")
        return word, pos, d.circumferences[cid]

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


def case4a_window_map(d, c1=None, c4=None, middles=None):
    """The normalized interval map of the four-cylinder window argument:
    the gluing of the bottom of ``c1`` to the top of ``c4``, in coordinates
    re-cut so that the wider middle cylinder spans ``[0, s)`` on both of
    its interfaces.  Returns ``(map, s)``."""
    if c1 is None:
        c1, c4, middles = _matched_pair(d)
    wide = max(middles, key=lambda c: (d.circumferences[c], c))
    w = d.circumferences[c1]
    if d.circumferences[c4] != w:
        raise InvariantViolation("outer cylinders must have equal "
                                 "circumference")
    s = d.circumferences[wide]
    a_top = _saddle_arc(d.diagram.top_words[c1], d.top_positions,
                        set(d.diagram.bottom_words[wide]))
    a_bot = _saddle_arc(d.diagram.bottom_words[c4], d.bottom_positions,
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


def case4a_window_witness(d, c1=None, c4=None, middles=None):
    """The four-cylinder witness of the window argument on
    :func:`case4a_window_map`: the leftmost longest window hit cut down to
    one continuity piece, else the boundary construction at the preimage
    of ``s``; ``None`` when neither applies."""
    if c1 is None:
        c1, c4, middles = _matched_pair(d)
    f, s = case4a_window_map(d, c1, c4, middles)
    w = f.length
    wide = max(middles, key=lambda c: (d.circumferences[c], c))
    rise = (d.heights[c1] + d.heights[wide]
            + d.heights[c4])
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
            start_interval=(x, x + eps),
            direction=(off if off <= w - off else off - w, rise),
            kind="boundary",
        )
    return None
