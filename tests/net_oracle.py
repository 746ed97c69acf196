"""Exact metric nets: horizontal cylinders with rational circumference,
height and twist, glued along labeled saddle connections of rational
length.  A net carries the same metric interface as an origami's
cylinder decomposition (``cylinders``, ``diagram``, ``saddle_lengths``,
``bottom_positions``, ``top_positions``), each indexed by a cylinder or a
saddle id, so the transverse-cylinder searches and the dual graph read it
alike.  A decomposition numbers its cylinders and saddles 0, 1, ... and
stores their data in tuples; a net keeps the diagram's tuples, and maps
its saddles, which may carry any label, in dicts.  The tests use nets to reach
rational-length configurations that no origami has, and to recompute an
origami's saddle positions from its lengths and twists independently.
Whole values are stored as ``int``, as on a decomposition, and the others
as ``Fraction``.
"""

from dataclasses import dataclass
from fractions import Fraction

from squaretiled.errors import SquareTiledError


def _exact(x):
    """``x`` as an ``int`` when it is whole, otherwise as a ``Fraction``."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


class SumMismatch(SquareTiledError, ValueError):
    """Saddle lengths on a cylinder boundary do not sum to its circumference."""


class NegativeLength(SquareTiledError, ValueError):
    """A saddle connection length or cylinder dimension is not positive."""


@dataclass(frozen=True)
class CylinderGeometry:
    """Metric data of one net cylinder: circumference, height and twist."""

    circumference: Fraction
    height: Fraction
    twist: Fraction

    def __post_init__(self):
        for field in ("circumference", "height", "twist"):
            object.__setattr__(self, field, _exact(getattr(self, field)))


@dataclass(frozen=True)
class FlatSurfaceNet:
    """A translation surface presented as horizontal cylinders glued along
    labeled saddle connections.

    ``cylinders`` maps a cylinder id to its :class:`CylinderGeometry`;
    ``diagram`` provides the cyclic boundary words (``bottom_words`` /
    ``top_words`` holding each cylinder's tuple of saddle ids at the
    position of its id, so the ids number the cylinders 0, 1, ...);
    ``saddle_lengths`` assigns an exact length to every saddle id.
    ``bottom_positions`` and ``top_positions`` map a saddle id to its
    start coordinate on the one bottom and the one top it lies on, reduced
    mod the circumference of that cylinder.

    Coordinates: each cylinder is the rectangle ``[0, w) x [0, height]``.
    Its bottom word is laid out left to right starting at ``x = 0`` and its
    top word starting at ``x = twist``, reduced mod ``w``; vertical
    straight-line flow connects equal ``x``.
    """

    cylinders: dict
    diagram: object
    saddle_lengths: dict
    bottom_positions: dict
    top_positions: dict


def _word_positions(word, start, lengths, w):
    """Map saddle id -> start coordinate, reduced mod ``w``, along a
    boundary word laid out from ``start``."""
    pos, x = {}, start
    for sid in word:
        pos[sid] = _exact(x % w)
        x += lengths[sid]
    return pos


def build_net(cylinders, diagram, saddle_lengths) -> FlatSurfaceNet:
    r"""
    Validate and assemble a :class:`FlatSurfaceNet`.

    Saddle lengths must be positive and, per cylinder, sum to the
    circumference on the top and on the bottom.

    >>> from squaretiled.cylinders import CylinderDiagram
    >>> diag = CylinderDiagram(bottom_words=(("a",),), top_words=(("a",),))
    >>> net = build_net({0: CylinderGeometry(1, 1, 0)}, diag, {"a": 1})
    >>> net.cylinders[0].height, net.bottom_positions
    (1, {'a': 0})
    """
    geoms = {}
    for cid, geom in cylinders.items():
        if not isinstance(geom, CylinderGeometry):
            geom = CylinderGeometry(*geom)
        if geom.circumference <= 0 or geom.height <= 0:
            raise NegativeLength(f"cylinder {cid} must have positive dimensions")
        if not 0 <= geom.twist < geom.circumference:
            raise ValueError(f"cylinder {cid}: twist must lie in [0, circumference)")
        geoms[cid] = geom
    lengths = {sid: _exact(val) for sid, val in saddle_lengths.items()}
    for sid, val in lengths.items():
        if val <= 0:
            raise NegativeLength(f"saddle {sid} must have positive length")
    for cid, geom in geoms.items():
        for side, words in (("bottom", diagram.bottom_words), ("top", diagram.top_words)):
            total = sum(lengths[sid] for sid in words[cid])
            if total != geom.circumference:
                raise SumMismatch(
                    f"cylinder {cid}: {side} saddle lengths sum to {total}, "
                    f"expected {geom.circumference}"
                )
    bottoms, tops = {}, {}
    for cid, g in geoms.items():
        bottoms.update(_word_positions(diagram.bottom_words[cid], 0, lengths,
                                       g.circumference))
        tops.update(_word_positions(diagram.top_words[cid], g.twist, lengths,
                                    g.circumference))
    return FlatSurfaceNet(geoms, diagram, lengths, bottoms, tops)
