"""Slow, independent versions of the survivor path of
``squaretiled.pipeline.classify_surface``: the per-slope loop that walks
every direction up to a bound, building the member of each and testing it
for isomorphism with each member analyzed before, and the two-cylinder
metric chain computed in :class:`fractions.Fraction` from the cylinder
moduli, with the window inequalities evaluated on fractions of the
circumference.  The reference that the two-direction decision, the
integer chain and the integer window inequalities are compared against.
Also the box of slopes both walks read, and the core-curve bound over
that box, which the bound over the cusps of the orbit graph is compared
against.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from squaretiled.cylinders import direction_member, \
    horizontal_decomposition, periodic_decomposition
from squaretiled.errors import GenusMismatch, InvariantViolation
from squaretiled.jump import case6_moduli_forcing
from squaretiled.pipeline import DirectionRecord, _analyze_direction
from squaretiled.surface import origami_isomorphism, singularity_data


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


def slope_box_bound(o, bound):
    """``(upper bound, witnesses)``: the core-curve bound
    ``2·(g - max core span rank)`` over the slopes with entries up to
    ``bound``, each slope's decomposition built through its own
    :func:`~squaretiled.cylinders.direction_member`, with the records
    ``(slope, core span rank)`` in :func:`enumerate_slopes` order; the
    package's ``forni_upper_bound`` as it was while it read a box of
    slopes."""
    g = singularity_data(o).genus
    witnesses = tuple(
        (slope, periodic_decomposition(o, slope).dual_graph.cycle_rank)
        for slope in enumerate_slopes(bound))
    return 2 * (g - max(rank for _, rank in witnesses)), witnesses


@dataclass(frozen=True)
class SlopeVerdict:
    """The outcome of :func:`classify_per_slope`: ``TrivialForni``,
    ``WollmilchsauEquivalent`` or ``Undetermined``, which the package's
    classifier no longer has, with the records of the walk."""

    status: str
    evidence: tuple
    origami: object = None


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
        values = (self.t0, self.s0, self.t_start, self.min_saddle)
        if not all(isinstance(v, (int, Fraction)) for v in values
                   if v is not None):
            raise ValueError("window data must be exact: int or Fraction")
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


class ChainResult(NamedTuple):
    """Outcome of the oracle's metric chain: whether the constraints are
    consistent, a short reason and the record that decides it, the moduli
    forcing verdict or the window constraint and its feasibility record.
    The survivor record of :func:`classify_per_slope` holds the window of
    its chain."""

    value: bool
    reason: str
    constraint: object = None
    record: FeasibilityRecord = None
    forcing: object = None


def moduli_exponents(d):
    """Integer exponents proportional to the moduli ``height /
    circumference`` of a decomposition, or of a plain list of exact
    rational moduli, scaled by the lcm of their denominators.  Only the
    oracle reads plain lists; the package's version reads decompositions."""
    if hasattr(d, "heights"):
        moduli = [Fraction(h, w) for h, w in zip(d.heights, d.circumferences)]
    else:
        moduli = list(d)
    if not moduli:
        return ()
    for m in moduli:
        if not isinstance(m, (int, Fraction)):
            raise ValueError(f"modulus {m!r} is not an exact rational")
    scale = lcm(*(Fraction(m).denominator for m in moduli)) \
        if len(moduli) > 1 else Fraction(moduli[0]).denominator
    ints = [int(Fraction(m) * scale) for m in moduli]
    g = gcd(*ints) if len(ints) > 1 else ints[0]
    return tuple(x // g for x in ints)


def window_extraction(d, c1, c2):
    """The window coordinates (t0, s0, t_start) as fractions of the common
    circumference."""
    w = len(d.rows[c1][0])
    if len(d.rows[c2][0]) != w:
        raise InvariantViolation("homologous cylinders must have equal "
                                 "circumferences")
    words, lengths = d.diagram.bottom_words, d.saddle_lengths
    tau = max(words[c1], key=lengths.__getitem__)
    sigma = max(words[c2], key=lengths.__getitem__)
    l_tau = lengths[tau]
    q_b, q_t = d.bottom_positions[tau], d.top_positions[tau]
    p_t, p_b = d.top_positions[sigma], d.bottom_positions[sigma]
    drift = (q_t - q_b + p_t - p_b) % w
    gap = (2 * p_t - drift - 2 * q_b) % w
    return (Fraction(l_tau, w), Fraction(lengths[sigma], w),
            Fraction((gap - 2 * l_tau) % w, w))


def metric_chain(d):
    """Moduli forcing plus window feasibility, comparing the two cylinder
    orders by their fractional coordinates; the window constraint and its
    record are the oracle's fraction versions."""
    r1, r2 = moduli_exponents(d)
    forcing = case6_moduli_forcing(r1, r2)
    if forcing.verdict != "consistent":
        return ChainResult(False, "unequal moduli are forced away",
                           forcing=forcing)
    t0, s0, t_start = min((window_extraction(d, *order)
                           for order in ((0, 1), (1, 0))),
                          key=lambda c: (-c[0], c[2]))
    constraint = WindowConstraint(t0, s0, t_start,
                                  min_saddle=Fraction(1, 4))
    record = window_feasible(constraint)
    if not record.feasible:
        return ChainResult(False, "window inequalities violated",
                           constraint=constraint, record=record)
    return ChainResult(True, "metric constraints consistent",
                       constraint=constraint, record=record)


def classify_per_slope(o, direction_bound=3):
    """The verdict of a scan that builds the member of every direction up
    to the bound and reuses the record of the first analyzed member it is
    isomorphic to, stopping at the first excluding direction: the
    package's classifier as it was while it walked a box of slopes.  It
    is ``Undetermined`` when no direction up to the bound excludes and
    some direction is not Case 6."""
    horizontal = horizontal_decomposition(o)
    genus = horizontal.dual_graph.genus
    if genus != 3:
        raise GenusMismatch("genus %d surface; this classification needs "
                            "genus 3" % genus)
    evidence = []
    analyzed = []
    for slope in enumerate_slopes(direction_bound):
        member = direction_member(o, slope)[1]
        record = next((r for m, r in analyzed
                       if origami_isomorphism(member, m) is not None),
                      None)
        if record is not None:
            evidence.append(record._replace(slope=slope))
            continue
        d = horizontal if slope == (0, 1) else \
            horizontal_decomposition(member)
        record, excludes = _analyze_direction(d, slope)
        evidence.append(record)
        if excludes:
            return SlopeVerdict("TrivialForni", tuple(evidence), o)
        analyzed.append((member, record))
    evidence = tuple(evidence)
    if any(record.label != "Case6" for record in evidence):
        return SlopeVerdict("Undetermined", evidence, o)
    result = ChainResult(True, "window forcing resolves to the reference "
                         "surface", constraint=evidence[0].witness)
    evidence += (DirectionRecord((0, 1), "Case6", "window forcing", result),)
    return SlopeVerdict("WollmilchsauEquivalent", evidence, o)
