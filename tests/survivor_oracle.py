"""Slow, independent versions of the survivor path of
``squaretiled.pipeline.classify_surface``: the per-slope loop that builds
the member of every direction and tests it for isomorphism with each
member analyzed before, and the two-cylinder metric chain computed in
:class:`fractions.Fraction` from the cylinder moduli.  The reference that
the one-point-orbit rule and the integer chain are compared against.
"""

from dataclasses import replace
from fractions import Fraction
from math import gcd, lcm

from squaretiled.cylinders import direction_member, periodic_decomposition
from squaretiled.errors import GenusMismatch, InvariantViolation
from squaretiled.jump import case6_moduli_forcing
from squaretiled.monodromy import enumerate_slopes
from squaretiled.pipeline import (
    DirectionRecord,
    EquivalenceResult,
    Verdict,
    _analyze_direction,
)
from squaretiled.surface import origami_isomorphism
from squaretiled.transverse import WindowConstraint, window_feasible


def moduli_exponents(d):
    """Integer exponents proportional to the moduli ``height /
    circumference`` of a decomposition, or of a plain list of exact
    rational moduli, scaled by the lcm of their denominators.  Only the
    oracle reads plain lists; the package's version reads decompositions."""
    if hasattr(d, "cylinders"):
        moduli = [c.modulus for c in d.cylinders]
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
    w = len(d.cylinders[c1].rows[0])
    if len(d.cylinders[c2].rows[0]) != w:
        raise InvariantViolation("homologous cylinders must have equal "
                                 "circumferences")
    words, lengths = d.diagram.bottom_words, d.saddle_lengths
    tau = max(words[c1], key=lengths.__getitem__)
    sigma = max(words[c2], key=lengths.__getitem__)
    l_tau = lengths[tau]
    q_b, q_t = d.bottom_positions[c1][tau], d.top_positions[c2][tau]
    p_t, p_b = d.top_positions[c1][sigma], d.bottom_positions[c2][sigma]
    drift = (q_t - q_b + p_t - p_b) % w
    gap = (2 * p_t - drift - 2 * q_b) % w
    return (Fraction(l_tau, w), Fraction(lengths[sigma], w),
            Fraction((gap - 2 * l_tau) % w, w))


def metric_chain(d):
    """Moduli forcing plus window feasibility, comparing the two cylinder
    orders by their fractional coordinates."""
    cids = [c.id for c in d.cylinders]
    r1, r2 = moduli_exponents(d)
    forcing = case6_moduli_forcing(r1, r2)
    if forcing.verdict != "consistent":
        return EquivalenceResult(False, "unequal moduli are forced away",
                                 forcing=forcing)
    t0, s0, t_start = min((window_extraction(d, *order)
                           for order in (cids, cids[::-1])),
                          key=lambda c: (-c[0], c[2]))
    constraint = WindowConstraint(t0, s0, t_start,
                                  min_saddle=Fraction(1, 4))
    record = window_feasible(constraint)
    if not record.feasible:
        return EquivalenceResult(False, "window inequalities violated",
                                 constraint=constraint, record=record)
    return EquivalenceResult(True, "metric constraints consistent",
                             constraint=constraint, record=record)


def classify_per_slope(o, direction_bound=3):
    """The verdict of a scan that builds the member of every direction up
    to the bound and reuses the record of the first analyzed member it is
    isomorphic to, stopping at the first excluding direction."""
    horizontal = periodic_decomposition(o, (0, 1), ((), o))
    if horizontal.genus != 3:
        raise GenusMismatch("genus %d surface; this classification needs "
                            "genus 3" % horizontal.genus)
    evidence = []
    analyzed = []
    for slope in enumerate_slopes(direction_bound):
        member = direction_member(o, slope)
        record = next((r for m, r in analyzed
                       if origami_isomorphism(member[1], m) is not None),
                      None)
        if record is not None:
            evidence.append(replace(record, slope=slope))
            continue
        d = horizontal if slope == (0, 1) else \
            periodic_decomposition(o, slope, member)
        record, excludes = _analyze_direction(d, slope)
        evidence.append(record)
        if excludes:
            return Verdict("TrivialForni", tuple(evidence), o)
        analyzed.append((member[1], record))
    evidence = tuple(evidence)
    if any(record.label != "Case6" for record in evidence):
        return Verdict("Undetermined", evidence, o)
    chain = evidence[0].witness
    result = EquivalenceResult(True, "window forcing resolves to the "
                               "reference surface",
                               constraint=chain.constraint,
                               record=chain.record)
    evidence += (DirectionRecord((0, 1), "Case6", "window forcing", result),)
    return Verdict("WollmilchsauEquivalent", evidence, o)
