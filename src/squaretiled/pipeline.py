r"""
The end-to-end classification of genus-3 square-tiled surfaces: analyze
the periodic directions up to a bound one at a time and stop at the first
that excludes a nontrivial isometric subspace, either through the
mechanism of its pinch shape or because its core curves span a Lagrangian
subspace.  When none does and every direction shows two homologous
cylinders with consistent metric constraints, the window forcing of the
horizontal direction already pins the surface to the unique 8-square
survivor's cylinder diagram, and the surface is certified equivalent to
it.

A direction is analyzed on its member, the surface of the
``SL(2, Z)``-orbit in which it is horizontal.  Directions whose members
are isomorphic share one analysis: the record of a direction that
excludes nothing does not depend on the labels of the squares, so the
record of the first such direction is reused with the slope replaced.
When the horizontal direction excludes nothing and both generators ``T``
and ``S`` carry the surface to an isomorphic copy, its orbit is a single
point and every member is isomorphic to the surface itself, so every
direction gets the horizontal record without building its member.  The
reference surface's Veech group is all of ``SL(2, Z)``, so it is
certified this way, from one direction analysis and two sheared copies.

The survivor is the 8-square origami with ``h = (0 1 2 3)(4 7 6 5)`` and
``v = (0 4 2 6)(1 5 3 7)``: two horizontal 4x1 cylinders with homologous
core curves, all four zeros simple, all eight saddle connections of equal
length.

EXAMPLES::

    >>> classify_surface(reference_surface(), direction_bound=1).status
    'WollmilchsauEquivalent'
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, replace
from math import gcd

from .cylinders import (
    CaseLabel,
    classify_case,
    direction_member,
    horizontal_decomposition,
    moduli_exponents,
    periodic_decomposition,
)
from .errors import GenusMismatch, InvariantViolation
from .homology import dual_graph
from .jump import case3_verdict, case6_moduli_forcing
from .monodromy import enumerate_slopes
from .surface import (
    Origami,
    Stratum,
    act_sl2z,
    build_origami,
    origami_isomorphism,
    perm_from_cycles,
)
from .transverse import (
    WindowConstraint,
    _crossing_witness,
    window_feasible,
)


def reference_surface() -> Origami:
    r"""
    The 8-square genus-3 survivor origami.

    EXAMPLES::

        >>> from squaretiled.surface import singularity_data
        >>> str(singularity_data(reference_surface()))
        'H(1,1,1,1)'
    """
    return build_origami(
        perm_from_cycles([(0, 1, 2, 3), (4, 7, 6, 5)], 8),
        perm_from_cycles([(0, 4, 2, 6), (1, 5, 3, 7)], 8),
    )


# ---------------------------------------------------------------------------
# verdicts and per-direction records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DirectionRecord:
    """One analyzed direction: the reduced slope, the pinch case label, the
    exclusion mechanism applied, and the supporting witness object.  The
    label is ``None`` only on the Lagrangian core-curve record, whose
    witness is the dual graph's cycle rank."""

    slope: tuple
    label: str
    mechanism: str
    witness: object = None


@dataclass(frozen=True)
class Verdict:
    """Classification outcome with its per-direction evidence trail.

    ``status`` is ``TrivialForni``, ``WollmilchsauEquivalent`` or
    ``Undetermined``.  A ``TrivialForni`` trail ends at the first
    direction that excludes a nontrivial isometric subspace; the other
    statuses carry a record for every direction up to the bound, shared
    between directions with isomorphic members.
    ``WollmilchsauEquivalent`` is only ever produced when every direction
    carries the two-homologous-cylinders label with consistent metric
    constraints, which resolve to the reference surface."""

    status: str
    evidence: tuple
    origami: Origami = None

    def __post_init__(self):
        if self.status == "WollmilchsauEquivalent" and not all(
                r.label == "Case6" for r in self.evidence
                if r.mechanism != "window forcing"):
            raise InvariantViolation(
                "survivor verdicts require every direction in Case 6")


@dataclass(frozen=True)
class EquivalenceResult:
    """Boolean-valued outcome of the two-cylinder metric chain with the
    decisive record attached: a moduli forcing verdict or a window
    feasibility record.  The survivor's final record restates the
    horizontal chain's window data as the certificate."""

    value: bool
    reason: str
    constraint: WindowConstraint = None
    record: object = None
    forcing: object = None

    def __bool__(self):
        return self.value


# ---------------------------------------------------------------------------
# the two-cylinder metric chain
# ---------------------------------------------------------------------------


def _window_extraction(d, c1, c2):
    """Window coordinates (t0, s0, t_start) for cylinder ``c1`` against
    ``c2``, as integer numerators over the common circumference ``w``.

    A straight trajectory starting inside the longest bottom saddle of
    ``c1``, piercing the longest bottom saddle of ``c2`` and closing when
    it returns through its starting saddle has its per-cylinder drift
    pinned modulo 1/2; the window coordinate ``t_start`` measures how far
    the starting saddle sits from the nearer forbidden interval.  The
    surface survives only when no such trajectory exists, i.e. when
    ``0 <= t_start <= 1 - 2*t0 - 2*s0``.

    Every length and position on an origami decomposition is a whole
    number of squares, so the coordinates are read off as integers.  Let
    ``w`` be the common circumference, ``L_tau`` and ``L_sigma`` the
    lengths of the longest bottom saddles tau of ``c1`` and sigma of
    ``c2``, ``Q_b``, ``Q_t`` the positions of tau on the bottom of ``c1``
    and the top of ``c2``, and ``P_t``, ``P_b`` those of sigma on the top
    of ``c1`` and the bottom of ``c2``.  In units of ``1/(2w)``, the
    closing drift and the gap from tau to the interval of starting points
    whose trajectory pierces sigma are::

        T = (Q_t - Q_b + P_t - P_b) mod w
        G = (2*P_t - T - 2*Q_b) mod w

    and the coordinates are ``t0 = L_tau / w``, ``s0 = L_sigma / w`` and
    ``t_start = ((G - 2*L_tau) mod w) / w``, returned as the numerators
    ``(L_tau, L_sigma, (G - 2*L_tau) mod w)``.

    Two longest saddles on one bottom are told apart by word order; the
    choice does not change ``t_start``.  The order of the two cylinders
    does, which :func:`_metric_chain` settles without reference to their
    labels.

    Raises :class:`~squaretiled.errors.InvariantViolation` when the two
    cylinders have different circumferences.
    """
    w = d.cylinders[c1].circumference
    if d.cylinders[c2].circumference != w:
        raise InvariantViolation("homologous cylinders must have equal "
                                 "circumferences")
    words, lengths = d.diagram.bottom_words, d.saddle_lengths
    tau = max(words[c1], key=lengths.__getitem__)
    sigma = max(words[c2], key=lengths.__getitem__)
    l_tau = lengths[tau]
    q_b, q_t = d.bottom_positions[c1][tau], d.top_positions[c2][tau]
    p_t, p_b = d.top_positions[c1][sigma], d.bottom_positions[c2][sigma]
    # closing forces twice the drift to be Q_t - Q_b + P_t - P_b (mod w),
    # so the two crossing families sit at drifts T and T + w
    drift = (q_t - q_b + p_t - p_b) % w
    # the second copy of the piercing interval is w (one half) further on
    gap = (2 * p_t - drift - 2 * q_b) % w
    return l_tau, lengths[sigma], (gap - 2 * l_tau) % w


def _metric_chain(d) -> EquivalenceResult:
    """Moduli forcing plus window feasibility for one two-homologous-
    cylinder decomposition; truthy when the metric constraints are
    consistent, which forces the reference diagram (see
    :func:`classify_surface`)."""
    cids = [c.id for c in d.cylinders]
    r1, r2 = moduli_exponents(d)
    forcing = case6_moduli_forcing(r1, r2)
    if forcing.verdict != "consistent":
        return EquivalenceResult(False, "unequal moduli are forced away",
                                 forcing=forcing)
    # the first cylinder carries the longest bottom saddle; when both
    # longest saddles are equally long, the order with the smaller t_start
    # is kept, so the record does not depend on the cylinder labels.  Both
    # orders share the denominator w, so their numerators compare alone.
    t0, s0, t_start = min((_window_extraction(d, *order)
                           for order in (cids, cids[::-1])),
                          key=lambda c: (-c[0], c[2]))
    constraint = WindowConstraint(t0, s0, t_start,
                                  d.cylinders[0].circumference)
    record = window_feasible(constraint)
    if not record.feasible:
        return EquivalenceResult(False, "window inequalities violated",
                                 constraint=constraint, record=record)
    return EquivalenceResult(True, "metric constraints consistent",
                             constraint=constraint, record=record)


# ---------------------------------------------------------------------------
# per-direction analysis
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _slopes(bound):
    """:func:`~squaretiled.monodromy.enumerate_slopes` of ``bound`` as a
    tuple, built once per bound for the life of the process."""
    return tuple(enumerate_slopes(bound))


def _analyze_direction(d, slope):
    """Record for the direction of ``slope``, whose decomposition is
    ``d``, and ``True`` when the direction excludes a nontrivial
    isometric subspace on its own.

    A dual graph whose cycle rank is the genus has geometric genus 0, a
    shape none of Cases 1-6 has: the core curves span a Lagrangian
    subspace of homology, and Forni's geometric criterion (J. Mod. Dyn. 5,
    2011) then makes every Lyapunov exponent nonzero.  Any other pinch of
    a genus-3 origami has one of the six shapes
    (:func:`~squaretiled.cylinders.classify_case`), and Cases 1, 2 and 4
    always have a crossing witness; a graph with no label, such as a
    pinch of another genus whose cycle rank falls short of it, raises
    :class:`~squaretiled.errors.InvariantViolation`."""
    graph = dual_graph(d)
    if graph.cycle_rank == d.genus:
        return DirectionRecord(slope, None, "Lagrangian core curves",
                               graph.cycle_rank), True
    label = classify_case(graph)
    if label is None:
        raise InvariantViolation("a pinch graph of cycle rank %d and genus "
                                 "labels summing to %d matches none of the "
                                 "six shapes" % (graph.cycle_rank,
                                                 graph.geometric_genus))
    name = str(label)
    if label in (CaseLabel.CASE1, CaseLabel.CASE2, CaseLabel.CASE4):
        # the label was just read off this graph: skip the public check
        return DirectionRecord(slope, name, "transverse crossing cylinder",
                               _crossing_witness(d, name)), True
    if label is CaseLabel.CASE3:
        # the exponents of the two nodes joining the elliptic and the
        # rational component, the edges whose endpoints differ
        exponents = dict(zip((c.id for c in d.cylinders),
                             moduli_exponents(d)))
        verdict = case3_verdict(*(exponents[e] for e, (a, b) in graph.edges
                                  if a != b))
        return DirectionRecord(slope, name, "period forcing", verdict), True
    if label is CaseLabel.CASE5:
        return DirectionRecord(slope, name, "defer to a simple transverse "
                               "cylinder"), False
    chain = _metric_chain(d)
    if not chain:
        return DirectionRecord(slope, name, "window forcing", chain), True
    return DirectionRecord(slope, name, "two homologous cylinders",
                           chain), False


def classify_surface(o: Origami, direction_bound=3) -> Verdict:
    r"""
    Classify a genus-3 origami by analyzing the reduced directions up to
    ``direction_bound`` in the order of
    :func:`~squaretiled.monodromy.enumerate_slopes`, horizontal first.
    The status is ``TrivialForni`` as soon as one direction excludes a
    nontrivial isometric subspace, through the mechanism of its pinch
    shape or through Lagrangian core curves, and the evidence stops at
    that direction.  Otherwise every direction is analyzed: the status is
    ``Undetermined`` when some direction is Case 5; otherwise every
    direction shows two homologous cylinders with consistent metrics, and
    the status is ``WollmilchsauEquivalent``.  Consistent window data in
    the horizontal direction leave the reference diagram as the only one
    possible, so the final record, ``window forcing``, restates that
    direction's window data as the certificate.

    The genus is read off the horizontal decomposition, which the first
    direction analyzes; a surface of any other genus than 3 raises
    :class:`~squaretiled.errors.GenusMismatch`.

    Each direction is analyzed on its member
    (:func:`~squaretiled.cylinders.direction_member`).  A direction whose
    member is isomorphic to that of an earlier non-excluding direction
    is not analyzed again: its record is the earlier one with the slope
    replaced, which is the record its own analysis would give.  When the
    horizontal direction excludes nothing, ``S·o`` and ``T·o`` are tested
    for isomorphism with ``o``; if both are, every ``SL(2, Z)`` word maps
    ``o`` to an isomorphic copy, so the orbit is one point and every
    later direction gets the horizontal record with its own slope, no
    member built.  Only the table of slope words
    (:func:`~squaretiled.cylinders.direction_member`) and the tuple of
    slopes of each bound are kept for the life of the process.

    EXAMPLES::

        >>> classify_surface(reference_surface()).status
        'WollmilchsauEquivalent'
        >>> from squaretiled.surface import build_origami
        >>> classify_surface(build_origami((1, 2, 0), (0, 2, 1)))
        Traceback (most recent call last):
        ...
        squaretiled.errors.GenusMismatch: genus 2 surface; this classification needs genus 3
    """
    # the horizontal direction's member is o itself, with the empty word
    horizontal = periodic_decomposition(o, (0, 1), ((), o))
    if horizontal.genus != 3:
        raise GenusMismatch("genus %d surface; this classification needs "
                            "genus 3" % horizontal.genus)
    first, excludes = _analyze_direction(horizontal, (0, 1))
    if excludes:
        return Verdict("TrivialForni", (first,), o)
    # every slope list starts with the horizontal (0, 1)
    slopes = _slopes(direction_bound)[1:]
    if all(origami_isomorphism(act_sl2z(o, (g,)), o) is not None
           for g in ("S", "T")):
        evidence = (first,) + tuple(
            DirectionRecord(slope, first.label, first.mechanism,
                            first.witness) for slope in slopes)
    else:
        evidence = [first]
        # (member, record) of each non-excluding direction analyzed
        analyzed = [(o, first)]
        for slope in slopes:
            member = direction_member(o, slope)
            record = next((r for m, r in analyzed
                           if origami_isomorphism(member[1], m) is not None),
                          None)
            if record is not None:
                evidence.append(replace(record, slope=slope))
                continue
            record, excludes = _analyze_direction(
                periodic_decomposition(o, slope, member), slope)
            evidence.append(record)
            if excludes:
                return Verdict("TrivialForni", tuple(evidence), o)
            analyzed.append((member[1], record))
        evidence = tuple(evidence)
    if any(record.label != "Case6" for record in evidence):
        return Verdict("Undetermined", evidence, o)
    # Every direction shows two homologous cylinders whose metric chain is
    # consistent, and the horizontal chain alone, whose record comes first,
    # pins the reference diagram.  Its feasible window forces
    # t0 = s0 = 1/4: no saddle on either bottom is longer than a quarter
    # circumference, so each bottom carries at least four saddles.  A
    # genus-3 decomposition has 4 + n saddle connections, n <= 4 being the
    # number of zeros, so both bottoms carry exactly four, each a quarter
    # circumference long, and n = 4 puts the surface in H(1,1,1,1).  The
    # catalog of two-cylinder boundary-exchanging diagrams there,
    # enumerate_diagrams((1, 1, 1, 1), "case6"), has one entry: the
    # reference diagram.
    chain = evidence[0].witness
    result = EquivalenceResult(True, "window forcing resolves to the "
                               "reference surface",
                               constraint=chain.constraint,
                               record=chain.record)
    evidence += (DirectionRecord((0, 1), "Case6", "window forcing", result),)
    return Verdict("WollmilchsauEquivalent", evidence, o)


# ---------------------------------------------------------------------------
# diagram catalogs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagramCatalog:
    """Exhaustive list of cylinder diagrams of a given shape in a stratum,
    up to relabeling and rotation; entries are pairwise non-isomorphic."""

    stratum: Stratum
    shape: str
    diagrams: tuple

    def __len__(self):
        return len(self.diagrams)


def _as_stratum(stratum):
    if isinstance(stratum, Stratum):
        return stratum
    kappa = tuple(sorted(stratum, reverse=True))
    return Stratum(kappa, (sum(kappa) + 2) // 2)


def _gluings(h, images, kappa):
    """In lexicographic order, the ``v`` with ``v[j]`` in ``images[j]``
    whose corner cycles have the lengths ``k + 1``, ``k`` in ``kappa``."""
    n = len(h)
    # c(v(h(p))) = h(v(p)) is known once the later of p, h(p) is placed
    due = [[p for p in range(n) if max(p, h[p]) == j] for j in range(n)]
    need = Counter(k + 1 for k in kappa)
    longest = max(need)
    v, used, trail = [-1] * n, [False] * n, []
    # the known corner entries form chains: first[t] starts the chain that
    # ends at t, last[s] ends the chain that starts at s, size[s] counts it
    first, last, size = list(range(n)), list(range(n)), [1] * n

    def link(a, b):
        """Add ``c(a) = b`` unless that closes an unneeded cycle length or
        makes a chain longer than the longest cycle."""
        s, t = first[a], last[b]
        if s == b:
            if not need[size[b]]:
                return False
            need[size[b]] -= 1
        elif size[s] + size[b] > longest:
            return False
        trail.append((s, t, a, b, size[s]))
        if s != b:
            last[s], first[t], size[s] = t, s, size[s] + size[b]
        return True

    def place(j):
        if j == n:
            yield tuple(v)
            return
        for x in images[j]:
            if used[x]:
                continue
            v[j], mark = x, len(trail)
            if all(link(v[h[p]], h[v[p]]) for p in due[j]):
                used[x] = True
                yield from place(j + 1)
                used[x] = False
            while len(trail) > mark:
                s, t, a, b, old = trail.pop()
                if s == b:
                    need[old] += 1
                last[s], first[t], size[s] = a, b, old
            v[j] = -1

    return place(0)


def _first_diagrams(h, images, stratum, cylinders):
    """The diagram of the first gluing of each key, in key order."""
    seen = {}
    for v in _gluings(h, images, stratum.kappa):
        d = horizontal_decomposition(Origami(h, v))
        if len(d.cylinders) != cylinders or cylinders == 2 and \
                classify_case(dual_graph(d)) is not CaseLabel.CASE6:
            continue
        seen.setdefault(d.diagram.canonical_key(), d.diagram)
    return tuple(seen[key] for key in sorted(seen))


def _one_cylinder_diagrams(stratum: Stratum):
    m = sum(stratum.kappa) + len(stratum.kappa)
    h = tuple((i + 1) % m for i in range(m))
    return _first_diagrams(h, [(0,)] + [range(1, m)] * (m - 1), stratum, 1)


def _case6_diagrams(stratum: Stratum):
    total = sum(stratum.kappa) + len(stratum.kappa)
    if total % 2:
        return ()
    k = total // 2
    h = perm_from_cycles([tuple(range(k)), tuple(range(k, 2 * k))], 2 * k)
    images = ([(k,)] + [range(k + 1, 2 * k)] * (k - 1)
              + [(0,)] + [range(1, k)] * (k - 1))
    return _first_diagrams(h, images, stratum, 2)


def enumerate_diagrams(stratum, shape) -> DiagramCatalog:
    r"""
    Exhaustive catalog of cylinder diagrams in a genus 2 or 3 stratum, up
    to relabeling and boundary rotation.  ``shape`` is ``"one_cylinder"``
    for single-cylinder diagrams or ``"case6"`` for two cylinders
    exchanging their boundaries.  Zero orders must be positive.

    ``h`` is one cycle, or two ``k``-cycles glued top to bottom, on
    ``sum(k_i + 1)`` squares, so every corner is a zero.  The gluings ``v``
    are searched in lexicographic order, square by square; the corner
    permutation ``c(v(h(j))) = h(v(j))`` grows once ``v[j]`` and
    ``v[h[j]]`` are placed, and a branch is cut when a corner cycle closes
    with a length ``k_i + 1`` not still needed or a corner chain outgrows
    the longest.  A cylinder twist rotates its block of ``v`` and keeps the
    diagram, so each block starts at its smallest image (``v[0] = 0``; or
    ``v[0] = k``, ``v[k] = 0``), as the first ``v`` of every diagram does.

    EXAMPLES::

        >>> len(enumerate_diagrams((1, 1), "one_cylinder"))
        1
        >>> len(enumerate_diagrams((2,), "one_cylinder"))
        1
    """
    stratum = _as_stratum(stratum)
    if not 2 <= stratum.genus <= 3:
        raise ValueError("catalogs cover genus 2 and 3")
    if shape == "one_cylinder":
        diagrams = _one_cylinder_diagrams(stratum)
    elif shape == "case6":
        diagrams = _case6_diagrams(stratum)
    else:
        raise ValueError("shape must be 'one_cylinder' or 'case6'")
    return DiagramCatalog(stratum, shape, diagrams)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _svg_document(elements, width, height):
    body = "\n".join("  " + e for e in elements)
    return ('<svg xmlns="http://www.w3.org/2000/svg" '
            'width="%d" height="%d" viewBox="0 0 %d %d">\n%s\n</svg>\n'
            % (width, height, width, height, body))


def _svg_rect(x, y, w, h, fill="#eef"):
    return ('<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" '
            'fill="%s" stroke="black"/>' % (x, y, w, h, fill))


def _svg_text(x, y, text, size=12):
    return ('<text x="%.2f" y="%.2f" font-size="%d" '
            'font-family="monospace">%s</text>' % (x, y, size, text))


def _svg_line(x1, y1, x2, y2):
    return ('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" '
            'stroke="black"/>' % (x1, y1, x2, y2))


def _diagram_svg(diagram, scale=40):
    """Stacked labeled rectangles, one per cylinder, saddle ids marked
    along both boundaries."""
    elements = []
    y = 20
    max_w = 1
    for cid in diagram.cylinder_ids:
        bottom = diagram.bottom_words[cid]
        top = diagram.top_words[cid]
        w = max(len(bottom), len(top), 1) * scale
        max_w = max(max_w, w)
        elements.append(_svg_rect(20, y, w, scale))
        for i, sid in enumerate(top):
            elements.append(_svg_text(24 + i * scale, y - 4, str(sid), 10))
        for i, sid in enumerate(bottom):
            elements.append(_svg_text(24 + i * scale, y + scale + 12,
                                      str(sid), 10))
        elements.append(_svg_text(26 + w, y + scale // 2 + 4,
                                  "cyl %s" % cid, 11))
        y += scale + 40
    return _svg_document(elements, max_w + 120, y)


def _dual_graph_svg(graph, scale=60):
    """Genus-labeled vertices on a circle with straight edges (loops as
    small circles)."""
    import math

    vs = [v for v, _ in graph.vertices]
    genera = dict(graph.vertices)
    n = max(len(vs), 1)
    cx, cy, r = 2 * scale, 2 * scale, scale
    pos = {}
    for i, v in enumerate(vs):
        ang = 2 * math.pi * i / n
        pos[v] = (cx + r * math.cos(ang), cy + r * math.sin(ang))
    elements = []
    for e, (a, b) in graph.edges:
        xa, ya = pos[a]
        if a == b:
            elements.append('<circle cx="%.2f" cy="%.2f" r="12" '
                            'fill="none" stroke="black"/>'
                            % (xa + 18, ya - 18))
        else:
            xb, yb = pos[b]
            elements.append(_svg_line(xa, ya, xb, yb))
    for v in vs:
        x, y = pos[v]
        elements.append('<circle cx="%.2f" cy="%.2f" r="14" fill="#fee" '
                        'stroke="black"/>' % (x, y))
        elements.append(_svg_text(x - 4, y + 4, str(genera[v]), 11))
    return _svg_document(elements, 4 * scale + 40, 4 * scale + 40)


def _over(numerator, w):
    """``numerator / w`` in lowest terms, as ``str`` of a fraction prints
    it: ``1/4``, ``-1/2``, ``0``."""
    g = gcd(numerator, w)
    return "%d" % (numerator // g) if g == w else \
        "%d/%d" % (numerator // g, w // g)


def _verdict_text(verdict: Verdict):
    lines = ["classification: %s" % verdict.status,
             "directions analyzed: %d" % len(verdict.evidence), ""]
    for rec in verdict.evidence:
        label = rec.label if rec.label is not None else "unmatched"
        lines.append("  slope %-8s %-9s %s"
                     % (str(rec.slope), label, rec.mechanism))
        if isinstance(rec.witness, EquivalenceResult):
            w = rec.witness
            lines.append("    -> %s" % w.reason)
            c = w.constraint
            if c is not None:
                lines.append("    -> t0=%s s0=%s t_start=%s slack=%s"
                             % (_over(c.t0, c.w), _over(c.s0, c.w),
                                _over(c.t_start, c.w),
                                _over(w.record.slack, c.w)))
            if w.record is not None and w.record.violated:
                lines.append("    -> violated: %s"
                             % ", ".join(w.record.violated))
    return "\n".join(lines) + "\n"


def _catalog_text(catalog: DiagramCatalog):
    lines = ["stratum %s, shape %s: %d diagram%s"
             % (catalog.stratum, catalog.shape, len(catalog),
                "" if len(catalog) == 1 else "s")]
    for i, diagram in enumerate(catalog.diagrams):
        lines.append("  diagram %d:" % i)
        for cid in diagram.cylinder_ids:
            lines.append("    cyl %s  bottom %s  top %s"
                         % (cid, diagram.bottom_words[cid],
                            diagram.top_words[cid]))
    return "\n".join(lines) + "\n"


def render_report(record, format="text"):
    r"""
    Deterministic report of a :class:`Verdict` or :class:`DiagramCatalog`.

    ``format="text"`` returns a string; ``format="svg"`` returns a mapping
    of file names to SVG documents — cylinder decompositions and dual
    graphs per analyzed direction for a verdict, one drawing per diagram
    for a catalog.

    EXAMPLES::

        >>> catalog = enumerate_diagrams((2,), "one_cylinder")
        >>> print(render_report(catalog), end="")
        stratum H(2), shape one_cylinder: 1 diagram
          diagram 0:
            cyl 0  bottom (0, 1, 2)  top (0, 2, 1)
        >>> sorted(render_report(catalog, format="svg"))
        ['diagram-0.svg']
    """
    if format not in ("text", "svg"):
        raise ValueError("format must be 'text' or 'svg'")
    if isinstance(record, Verdict):
        if format == "text":
            return _verdict_text(record)
        out = {}
        for rec in record.evidence:
            if rec.mechanism == "window forcing" or record.origami is None:
                continue
            d = periodic_decomposition(record.origami, rec.slope)
            tag = "%d_%d" % rec.slope
            out["direction-%s-cylinders.svg" % tag] = \
                _diagram_svg(d.diagram)
            out["direction-%s-dual-graph.svg" % tag] = \
                _dual_graph_svg(dual_graph(d))
        return out
    if isinstance(record, DiagramCatalog):
        if format == "text":
            return _catalog_text(record)
        return {"diagram-%d.svg" % i: _diagram_svg(diagram)
                for i, diagram in enumerate(record.diagrams)}
    raise ValueError("expected a Verdict or a DiagramCatalog")
