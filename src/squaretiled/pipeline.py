r"""
The end-to-end classification of genus-3 square-tiled surfaces, decided
from at most two direction analyses (:func:`classify_surface`).  A
surface that survives is certified as an affine image of the reference
surface, the 8-square origami with ``h = (0 1 2 3)(4 7 6 5)`` and ``v =
(0 4 2 6)(1 5 3 7)``: two horizontal 4x1 cylinders with homologous core
curves, all four zeros simple, all eight saddle connections of equal
length.  Diagram catalogs and reports live here too.

EXAMPLES::

    >>> classify_surface(reference_surface()).status
    'WollmilchsauEquivalent'
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import NamedTuple

from .cylinders import (
    CylinderDiagram,
    classify_case,
    horizontal_decomposition,
    moduli_exponents,
    periodic_decomposition,
)
from .errors import GenusMismatch, InvariantViolation
from .jump import case3_verdict, case6_moduli_forcing
from .surface import (
    Origami,
    Stratum,
    build_origami,
    origami_isomorphism,
)
from .transverse import (
    WindowConstraint,
    find_crossing_cylinder,
    window_feasible,
)


def reference_surface() -> Origami:
    r"""
    The 8-square genus-3 survivor origami, ``affine_reference(1, 1, 0)``.

    EXAMPLES::

        >>> from squaretiled.surface import singularity_data
        >>> str(singularity_data(reference_surface()))
        'H(1,1,1,1)'
    """
    return affine_reference(1, 1, 0)


# unit i atop reference cylinder c is unit _GLUING[c][i] of the other bottom
_GLUING = ((0, 3, 2, 1), (2, 1, 0, 3))


@lru_cache(maxsize=64)
def affine_reference(a, h, t) -> Origami:
    r"""
    ``R(a, h, t) = [[a, t], [0, h]]·reference``: every square of the
    reference stretched to an ``a`` by ``h`` block and both cylinders
    sheared by ``t``.  Square ``x`` of row ``y`` of cylinder ``c`` is
    ``(c·h + y)·4a + x`` (``-x mod 4a`` on cylinder 1), so ``R(1, 1, 0)``
    has the reference's labels.  The last 64 images are kept: classifying
    a survivor and checking its certificate both ask for its image.

    EXAMPLES::

        >>> # t counts mod a: [[a, t + a], [0, h]] = [[a, t], [0, h]]·T
        >>> origami_isomorphism(affine_reference(2, 1, 3),
        ...                     affine_reference(2, 1, 1)) is not None
        True
    """
    w = 4 * a

    def square(c, x, y):
        return (c * h + y) * w + (-x % w if c else x)

    right, up = [0] * (2 * w * h), [0] * (2 * w * h)
    for c in (0, 1):
        for y in range(h):
            for x in range(w):
                s = square(c, x, y)
                right[s] = square(c, (x + 1) % w, y)
                # the top at x is the point x - t of the stretched reference
                i, r = divmod((x - t) % w, a)
                up[s] = square(c, x, y + 1) if y + 1 < h else \
                    square(1 - c, a * _GLUING[c][i] + r, 0)
    return build_origami(right, up)


# ---------------------------------------------------------------------------
# verdicts and per-direction records
# ---------------------------------------------------------------------------

# the mechanism of the survivor's certificate record
AFFINE_IMAGE = "affine image of the reference"


class DirectionRecord(NamedTuple):
    """One analyzed direction: the reduced slope, the pinch case label, the
    exclusion mechanism applied, and the supporting witness object.  The
    label is ``None`` only on the Lagrangian core-curve record, whose
    witness is the dual graph's cycle rank."""

    slope: tuple
    label: str
    mechanism: str
    witness: object = None


class Verdict(NamedTuple):
    """Classification outcome, ``TrivialForni`` or
    ``WollmilchsauEquivalent``, with its evidence trail (see
    :func:`classify_surface`)."""

    status: str
    evidence: tuple
    origami: Origami = None


def _check_survivor(verdict):
    """``verdict``, unless it is a survivor without a certificate that
    checks: the consistent horizontal Case 6 record, then a record whose
    matrix ``((a, t), (0, h))`` has ``0 <= t < a`` and whose relabelling
    carries the surface onto ``affine_reference(a, h, t)``.  That raises
    :class:`~squaretiled.errors.InvariantViolation`, also under ``-O``."""
    trail, o = verdict.evidence, verdict.origami
    if verdict.status != "WollmilchsauEquivalent":
        return verdict
    matrix = getattr(trail[-1].witness, "matrix", None) if trail else None
    if o is not None and matrix and trail[0].witness and [
            (r.slope, r.label, r.mechanism) for r in trail] == [
            ((0, 1), "Case6", m)
            for m in ("two homologous cylinders", AFFINE_IMAGE)]:
        (a, t), (_, h), p = *matrix, trail[-1].witness.relabelling
        r = affine_reference(a, h, t) if 0 <= t < a and h > 0 else None
        if r is not None and r.n == o.n and sorted(p) == list(range(o.n)) \
                and all(p[o.h[i]] == r.h[p[i]] and p[o.v[i]] == r.v[p[i]]
                        for i in range(o.n)):
            return verdict
    raise InvariantViolation("survivor verdicts require a consistent "
                             "horizontal Case 6 chain followed by its "
                             "affine certificate")


class EquivalenceResult(NamedTuple):
    """Boolean-valued outcome of the two-cylinder metric chain with the
    decisive record attached: a moduli forcing verdict or a window
    feasibility record.  The survivor's certificate restates the window
    data and adds the matrix ``((a, t), (0, h))`` of its image under
    :func:`affine_reference` and the relabelling onto it."""

    value: bool
    reason: str
    constraint: WindowConstraint = None
    record: object = None
    forcing: object = None
    matrix: tuple = None
    relabelling: tuple = None

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
    pinned modulo 1/2; ``t_start`` measures how far the starting saddle
    sits from the nearer forbidden interval.  The surface survives only
    when no such trajectory exists: ``0 <= t_start <= 1 - 2*t0 - 2*s0``.

    Let ``L_tau``, ``L_sigma`` be the whole-unit lengths of the longest
    bottom saddles tau of ``c1`` and sigma of ``c2``, ``Q_b``, ``Q_t`` the
    positions of tau on the bottom of ``c1`` and the top of ``c2``, and
    ``P_t``, ``P_b`` those of sigma on the top of ``c1`` and the bottom of
    ``c2``.  In units of ``1/(2w)``, the closing drift and the gap from
    tau to the interval of starting points whose trajectory pierces sigma
    are ``T = (Q_t - Q_b + P_t - P_b) mod w`` and ``G = (2*P_t - T -
    2*Q_b) mod w``, and the numerators returned are ``(L_tau, L_sigma,
    (G - 2*L_tau) mod w)``.

    Two longest saddles on one bottom are told apart by word order, which
    does not change ``t_start``; the cylinder order does, which
    :func:`_metric_chain` settles without reference to labels.  Unequal
    circumferences raise :class:`~squaretiled.errors.InvariantViolation`.
    """
    w = d.cylinders[c1].circumference
    if d.cylinders[c2].circumference != w:
        raise InvariantViolation("homologous cylinders must have equal "
                                 "circumferences")
    words, lengths = d.diagram.bottom_words, d.saddle_lengths
    tau = max(words[c1], key=lengths.__getitem__)
    sigma = max(words[c2], key=lengths.__getitem__)
    l_tau = lengths[tau]
    q_b, q_t = d.bottom_positions[tau], d.top_positions[tau]
    p_t, p_b = d.top_positions[sigma], d.bottom_positions[sigma]
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
                           for order in ((0, 1), (1, 0))),
                          key=lambda c: (-c[0], c[2]))
    constraint = WindowConstraint(t0, s0, t_start,
                                  d.cylinders[0].circumference)
    record = window_feasible(constraint)
    return EquivalenceResult(record.feasible, "metric constraints consistent"
                             if record.feasible else "window inequalities "
                             "violated", constraint=constraint, record=record)


# ---------------------------------------------------------------------------
# per-direction analysis
# ---------------------------------------------------------------------------


def _analyze_direction(d, slope):
    """Record for the direction of ``slope``, whose decomposition is
    ``d``, and ``True`` when the direction excludes a nontrivial
    isometric subspace on its own.

    The pinch dual graph is ``d.dual_graph``, built with ``d``, and its
    :attr:`~squaretiled.cylinders.DualGraph.genus`, the genus labels plus
    the cycle rank, is the genus of the surface.  One whose cycle rank is
    that genus has every label 0, a shape none of Cases 1-6 has: the core
    curves span a Lagrangian subspace of homology, and Forni's geometric
    criterion (J. Mod. Dyn. 5, 2011) then makes every Lyapunov exponent
    nonzero.  Any other pinch of a genus-3 origami has one of the six
    shapes (:func:`~squaretiled.cylinders.classify_case`, complete by
    ``test_pinch_shape_table_is_complete``), whose label string the record
    carries, and Cases 1, 2 and 4 always have a crossing witness; any
    other graph, such as a pinch of another genus whose cycle rank falls
    short of it, raises there.  A Case 5 record carries the slope it
    defers to (:func:`classify_surface`)."""
    graph = d.dual_graph
    if graph.cycle_rank == graph.genus:
        return DirectionRecord(slope, None, "Lagrangian core curves",
                               graph.cycle_rank), True
    label = classify_case(graph)
    if label in ("Case1", "Case2", "Case4"):
        return DirectionRecord(slope, label, "transverse crossing cylinder",
                               find_crossing_cylinder(d, label)), True
    if label == "Case3":
        # the exponents of the two nodes joining the elliptic and the
        # rational component, the edges whose endpoints differ
        verdict = case3_verdict(*(r for r, (a, b) in zip(
            moduli_exponents(d), graph.edges) if a != b))
        return DirectionRecord(slope, label, "period forcing", verdict), True
    if label == "Case5":
        # the one cylinder holds every saddle on its bottom and its top
        (c,) = d.cylinders
        w, h = c.circumference, c.height
        # tp - bp reduced into (-w/2, w/2]
        dx = min(((tp - bp + (w - 1) // 2) % w - (w - 1) // 2
                  for tp, bp in zip(d.top_positions, d.bottom_positions)),
                 key=lambda x: (abs(x), x))
        g = gcd(dx, h)
        return DirectionRecord(slope, label, "defer to a simple transverse "
                               "cylinder", (h // g, dx // g)), False
    chain = _metric_chain(d)
    if not chain:
        return DirectionRecord(slope, label, "window forcing", chain), True
    return DirectionRecord(slope, label, "two homologous cylinders",
                           chain), False


def classify_surface(o: Origami, *, direction_bound=None) -> Verdict:
    r"""
    Classify a genus-3 origami from at most two direction analyses;
    ``direction_bound`` is ignored.  Any genus but 3, read off the horizontal
    pinch graph, raises :class:`~squaretiled.errors.GenusMismatch`.

    The status is ``TrivialForni`` when the horizontal direction excludes
    a nontrivial isometric subspace (:func:`_analyze_direction`), with that
    one record as evidence.  Two shapes exclude nothing, and each takes
    one more step, whose failure would raise
    :class:`~squaretiled.errors.InvariantViolation`:

    *Case 5* has one cylinder, of circumference ``w`` and height ``h``; a
    saddle at ``bp`` on its bottom lies at ``tp`` on its top.  Joining
    each point of the saddle on the bottom to the same point on the top
    sweeps a simple cylinder in direction ``(dx, h)``, bounded on each side
    by one saddle connection; ``dx = tp - bp`` is taken in ``(-w/2, w/2]``
    and of the least ``(|dx|, dx)``, which no square label changes.  That
    direction is analyzed next, and excludes: a lone cylinder glued to
    itself along one saddle connection is a torus, so it has two cylinders
    or more and is not Case 5; its simple cylinder has one saddle on its
    bottom, a consistent chain four (below), so it is not a consistent
    Case 6; every other shape excludes.

    *A consistent Case 6 chain* forces ``t0 = s0 = 1/4``.  A genus-3
    decomposition has ``4 + n`` saddle connections, ``n <= 4`` the number
    of zeros, so each bottom carries four of length ``a = w/4``, the
    surface is in H(1,1,1,1), and its diagram is the one case6 entry of
    :func:`enumerate_diagrams` there, the reference one.  Moduli forcing
    leaves a common height ``h``, so the surface is fixed by the twists
    ``t1``, ``t2`` (mod ``w``) of its cylinders: in the reference's saddle
    labelling the top saddle at ``i·a`` sits at ``i·a + t_c``.  There, in
    the order (0, 1), :func:`_window_extraction` reads ``Q_b = P_b = 0``,
    ``Q_t = 2a + t2`` and ``P_t = t1``, so ``T = 2a + t1 + t2``, ``G = t1
    - t2 - 2a`` and ``t_start = t1 - t2`` (mod ``w``); the order (1, 0)
    gives ``t2 - t1``.  The feasible ``t_start = 0`` forces ``t1 = t2 =
    t``, and the surface is ``[[a, t], [0, h]]·reference``.  As ``[[a, t
    + a], [0, h]] = [[a, t], [0, h]]·T`` and ``T`` fixes the reference,
    it is ``R(a, h, t mod a)`` (:func:`affine_reference`), ``t mod a``
    being any top saddle position mod ``a``.  The certificate record
    restates the window data and carries the matrix and the relabelling.

    EXAMPLES::

        >>> verdict = classify_surface(reference_surface())
        >>> verdict.status, verdict.evidence[-1].witness.matrix
        ('WollmilchsauEquivalent', ((1, 0), (0, 1)))
        >>> from squaretiled.surface import build_origami
        >>> classify_surface(build_origami((1, 2, 0), (0, 2, 1)))
        Traceback (most recent call last):
        ...
        squaretiled.errors.GenusMismatch: genus 2 surface; this classification needs genus 3
    """
    horizontal = horizontal_decomposition(o)
    genus = horizontal.dual_graph.genus
    if genus != 3:
        raise GenusMismatch("genus %d surface; this classification needs "
                            "genus 3" % genus)
    first, excludes = _analyze_direction(horizontal, (0, 1))
    if excludes:
        return Verdict("TrivialForni", (first,), o)
    if first.label == "Case5":
        slope = first.witness
        record, excludes = _analyze_direction(
            periodic_decomposition(o, slope), slope)
        if not excludes:
            raise InvariantViolation(
                "the simple cylinder direction %s of a Case 5 direction "
                "excludes nothing" % (slope,))
        return Verdict("TrivialForni", (first, record), o)
    chain, c = first.witness, horizontal.cylinders[0]
    a, h = chain.constraint.t0, c.height
    t = horizontal.top_positions[horizontal.diagram.top_words[0][0]] % a
    relabelling = origami_isomorphism(o, affine_reference(a, h, t))
    if relabelling is None:
        raise InvariantViolation(
            "a consistent Case 6 chain of saddle length %d and height %d is "
            "not the affine image [[%d, %d], [0, %d]] of the reference"
            % (a, h, a, t, h))
    certificate = EquivalenceResult(
        True, "window forcing resolves to the reference diagram",
        constraint=chain.constraint, record=chain.record,
        matrix=((a, t), (0, h)), relabelling=relabelling)
    return _check_survivor(Verdict("WollmilchsauEquivalent", (
        first, DirectionRecord((0, 1), "Case6", AFFINE_IMAGE, certificate)),
        o))


# ---------------------------------------------------------------------------
# diagram catalogs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagramCatalog:
    """Every cylinder diagram of a given shape in a stratum, as
    :func:`enumerate_diagrams` finds them, up to relabeling and rotation;
    entries are pairwise non-isomorphic."""

    stratum: Stratum
    shape: str
    diagrams: tuple

    def __len__(self):
        return len(self.diagrams)


# for each cylinder, the cylinder whose bottom saddles its top carries
_SHAPES = {"one_cylinder": (0,), "case6": (1, 0)}


def _top_words(bottoms, into, kappa):
    """In lexicographic order, every list of top words whose corner
    permutation ``c = τ∘β⁻¹`` has cycles of the lengths ``k + 1``, ``k``
    in ``kappa``.  The top of cylinder ``i`` is a cyclic order of the
    saddles of ``bottoms[into[i]]``, from that bottom's first saddle."""
    m = sum(map(len, bottoms))
    # the bottoms number the saddles 0, 1, ... in order
    beta = [t for w in bottoms for t in w[1:] + w[:1]]
    # slot j of the joined tops takes a saddle of images[j]; the top words
    # run between the cuts, and due[j] holds the slot pairs (p, q) with
    # τ(top[p]) = top[q] that are known once slot j is placed
    images, due, cuts = [], [], [0]
    for b in into:
        w = bottoms[b]
        images += [w[:1]] + [w[1:]] * (len(w) - 1)
        due += [[]] + [[(j - 1, j)] for j in range(cuts[-1] + 1, len(images))]
        due[-1].append((len(images) - 1, cuts[-1]))
        cuts.append(len(images))
    need = Counter(k + 1 for k in kappa)
    longest = max(need)
    top, used, trail = [-1] * m, [False] * m, []
    # the known corner entries c(β(x)) = τ(x) form chains: first[t] starts
    # the chain that ends at t, last[s] ends the chain that starts at s,
    # size[s] counts it
    first, last, size = list(range(m)), list(range(m)), [1] * m

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
        if j == m:
            yield tuple(tuple(top[a:b]) for a, b in zip(cuts, cuts[1:]))
            return
        for x in images[j]:
            if used[x]:
                continue
            top[j], mark = x, len(trail)
            if all(link(beta[top[p]], top[q]) for p, q in due[j]):
                used[x] = True
                yield from place(j + 1)
                used[x] = False
            while len(trail) > mark:
                s, t, a, b, old = trail.pop()
                if s == b:
                    need[old] += 1
                last[s], first[t], size[s] = a, b, old

    return place(0)


def enumerate_diagrams(stratum, shape) -> DiagramCatalog:
    r"""
    Catalog of cylinder diagrams in a genus 2 or 3 stratum, given by its
    positive zero orders, up to relabeling and boundary rotation.
    ``shape`` is ``"one_cylinder"`` for every single-cylinder diagram or
    ``"case6"`` for every diagram of two cylinders exchanging their
    boundaries.

    The diagrams are boundary words on ``m = sum(k_i + 1)`` saddles, one
    cylinder per entry of ``_SHAPES[shape]``.  The bottom words are fixed:
    ``(0, ..., m - 1)`` for one cylinder, ``(0, ..., ⌈m/2⌉ - 1)`` and
    ``(⌈m/2⌉, ..., m - 1)`` for two.  The top of cylinder ``i`` carries
    the saddles of bottom ``_SHAPES[shape][i]``, written from that
    bottom's first saddle.  The top words (:func:`_top_words`) are
    searched in lexicographic order, slot by slot; each top adjacency
    ``τ(x) = y`` adds the corner entry ``c(β(x)) = y`` of ``c = τ∘β⁻¹``,
    whose cycles are the zeros, and a branch is cut when a corner cycle
    closes with a length not still needed or a corner chain outgrows the
    longest.

    Rotating a bottom, or swapping two bottoms of equal length, relabels
    the saddles and keeps the diagram, so its image is again a list of
    the search, with the same key.  Read as offsets from its bottom's
    first saddle, a top is a word ``w`` with ``w[0] = 0``; rotating that
    bottom to start at offset ``w[s]`` takes ``w`` to ``(w[s + j] - w[s])
    mod len(w)``, each top on its own, and the swap reverses the list of
    words.  The first list of each key is the least of its own orbit, so
    only the lists that no relabelling makes smaller are keyed; in every
    genus 2 and 3 catalog that is one list per diagram.

    Both catalogs are complete over words.  A zero of order ``k`` starts
    ``k + 1`` saddles, so a diagram of the stratum has ``m`` saddles,
    each once on a bottom and once on a top.  A single cylinder carries
    all ``m`` on its bottom; numbering them along it and writing its top
    from saddle 0 gives a searched word.  In ``"case6"`` each cylinder's
    top carries the other's bottom, so the two cylinders exchange their
    boundaries: Case 6 in genus 3, and no diagram in genus 2
    (``test_pinch_shape_table_is_complete``).  Each component of a
    genus-3 Case 6 pinch has genus 1 and two boundary circles, so by
    Gauss-Bonnet its zero orders sum to 2 and it holds ``z + 2`` saddles,
    ``z`` in {1, 2} its zeros: the bottoms carry 3 and 3, 4 and 3, or 4
    and 4 saddles, ``⌈m/2⌉`` and ``⌊m/2⌋``.  Numbering the longer bottom
    first and writing each top from the first saddle of the bottom it
    carries gives a searched pair of words.

    EXAMPLES::

        >>> len(enumerate_diagrams((1, 1), "one_cylinder"))
        1
        >>> len(enumerate_diagrams((2,), "one_cylinder"))
        1
    """
    kappa = tuple(sorted(stratum, reverse=True))
    stratum = Stratum(kappa, (sum(kappa) + 2) // 2)
    if not 2 <= stratum.genus <= 3:
        raise ValueError("catalogs cover genus 2 and 3")
    if shape not in _SHAPES:
        raise ValueError("shape must be " + " or ".join(map(repr, _SHAPES)))
    into = _SHAPES[shape]
    m, n = sum(kappa) + len(kappa), len(into)
    cuts = [-(-i * m // n) for i in range(n + 1)]
    bottoms = tuple(tuple(range(a, b)) for a, b in zip(cuts, cuts[1:]))
    seen = {}
    for tops in _top_words(bottoms, into, kappa):
        # skip the lists that rotating a bottom, or swapping equal bottoms,
        # makes smaller, each word read from its bottom's first saddle
        words = tuple(tuple(x - w[0] for x in w) for w in tops)
        if (len(set(map(len, words))) == 1 and words[::-1] < words) or any(
                tuple((x - w[s]) % len(w) for x in w[s:] + w[:s]) < w
                for w in words for s in range(1, len(w))):
            continue
        d = CylinderDiagram(bottoms, tops)
        seen.setdefault(d.canonical_key(), d)
    return DiagramCatalog(stratum, shape,
                          tuple(seen[key] for key in sorted(seen)))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _svg_document(elements, width, height):
    body = "\n".join("  " + e for e in elements)
    return ('<svg xmlns="http://www.w3.org/2000/svg" '
            'width="%d" height="%d" viewBox="0 0 %d %d">\n%s\n</svg>\n'
            % (width, height, width, height, body))


def _svg_text(x, y, text, size):
    return ('<text x="%.2f" y="%.2f" font-size="%d" '
            'font-family="monospace">%s</text>' % (x, y, size, text))


def _diagram_svg(diagram):
    """Stacked labeled rectangles, one per cylinder, saddle ids marked
    along both boundaries."""
    scale = 40
    elements = []
    y = 20
    max_w = 1
    for cid, (bottom, top) in enumerate(zip(diagram.bottom_words,
                                            diagram.top_words)):
        w = max(len(bottom), len(top), 1) * scale
        max_w = max(max_w, w)
        elements.append('<rect x="20.00" y="%.2f" width="%.2f" height="%.2f" '
                        'fill="#eef" stroke="black"/>' % (y, w, scale))
        for i, sid in enumerate(top):
            elements.append(_svg_text(24 + i * scale, y - 4, str(sid), 10))
        for i, sid in enumerate(bottom):
            elements.append(_svg_text(24 + i * scale, y + scale + 12,
                                      str(sid), 10))
        elements.append(_svg_text(26 + w, y + scale // 2 + 4,
                                  "cyl %s" % cid, 11))
        y += scale + 40
    return _svg_document(elements, max_w + 120, y)


def _dual_graph_svg(graph):
    """Genus-labeled vertices on a circle.  A lone edge is a straight
    line; the ``k``-th of ``m > 1`` edges between two vertices is a
    quadratic path bent ``(k - (m - 1)/2)·40`` off their segment, and the
    ``k``-th loop at a vertex a circle of radius ``12 + 6k`` beside it,
    so every edge is drawn apart from the others."""
    import math

    scale = 60
    cx, cy, r = 2 * scale, 2 * scale, scale
    pos = []
    for i in range(len(graph.genera)):
        ang = 2 * math.pi * i / len(graph.genera)
        pos.append((cx + r * math.cos(ang), cy + r * math.sin(ang)))
    pairs = [tuple(sorted(e)) for e in graph.edges]
    elements = []
    for e, (a, b) in enumerate(graph.edges):
        k, m = pairs[:e].count(pairs[e]), pairs.count(pairs[e])
        # parallel edges are bent about the segment from the lesser vertex
        (xa, ya), (xb, yb) = pos[pairs[e][0]], pos[pairs[e][1]]
        if a == b:
            elements.append('<circle cx="%.2f" cy="%.2f" r="%d" '
                            'fill="none" stroke="black"/>'
                            % (xa + 18 + 4 * k, ya - 18 - 4 * k, 12 + 6 * k))
        elif m == 1:
            elements.append('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" '
                            'stroke="black"/>' % (*pos[a], *pos[b]))
        else:
            bend = (k - (m - 1) / 2) * 40 / math.hypot(xb - xa, yb - ya)
            elements.append('<path d="M %.2f %.2f Q %.2f %.2f %.2f %.2f" '
                            'fill="none" stroke="black"/>'
                            % (xa, ya, (xa + xb) / 2 - (yb - ya) * bend,
                               (ya + yb) / 2 + (xb - xa) * bend, xb, yb))
    for (x, y), genus in zip(pos, graph.genera):
        elements.append('<circle cx="%.2f" cy="%.2f" r="14" fill="#fee" '
                        'stroke="black"/>' % (x, y))
        elements.append(_svg_text(x - 4, y + 4, str(genus), 11))
    return _svg_document(elements, 4 * scale + 40, 4 * scale + 40)


def _over(numerator, w):
    """``numerator / w`` in lowest terms, as ``str`` of a fraction prints
    it: ``1/4``, ``-1/2``, ``0``."""
    g = gcd(numerator, w)
    return "%d" % (numerator // g) if g == w else \
        "%d/%d" % (numerator // g, w // g)


def _verdict_text(verdict: Verdict):
    lines = ["classification: %s" % verdict.status,
             "directions analyzed: %d"
             % len({rec.slope for rec in verdict.evidence}), ""]
    for rec in verdict.evidence:
        lines.append("  slope %-8s %-9s %s"
                     % (str(rec.slope), rec.label or "-", rec.mechanism))
        if rec.label == "Case5":
            lines.append("    -> simple cylinder at slope %s"
                         % (rec.witness,))
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
            if w.matrix is not None:
                (a, t), (_, h) = w.matrix
                lines.append("    -> %s: [[%d, %d], [0, %d]]"
                             % (AFFINE_IMAGE, a, t, h))
                lines.append("    -> relabelling: %s"
                             % " ".join(map(str, w.relabelling)))
    return "\n".join(lines) + "\n"


def _catalog_text(catalog: DiagramCatalog):
    lines = ["stratum %s, shape %s: %d diagram%s"
             % (catalog.stratum, catalog.shape, len(catalog),
                "" if len(catalog) == 1 else "s")]
    for i, diagram in enumerate(catalog.diagrams):
        lines.append("  diagram %d:" % i)
        for cid, words in enumerate(zip(diagram.bottom_words,
                                        diagram.top_words)):
            lines.append("    cyl %s  bottom %s  top %s" % (cid, *words))
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
        _check_survivor(record)
        if format == "text":
            return _verdict_text(record)
        out = {}
        for rec in record.evidence:
            if rec.mechanism == AFFINE_IMAGE or record.origami is None:
                continue
            d = periodic_decomposition(record.origami, rec.slope)
            tag = "%d_%d" % rec.slope
            out["direction-%s-cylinders.svg" % tag] = \
                _diagram_svg(d.diagram)
            out["direction-%s-dual-graph.svg" % tag] = \
                _dual_graph_svg(d.dual_graph)
        return out
    if isinstance(record, DiagramCatalog):
        if format == "text":
            return _catalog_text(record)
        return {"diagram-%d.svg" % i: _diagram_svg(diagram)
                for i, diagram in enumerate(record.diagrams)}
    raise ValueError("expected a Verdict or a DiagramCatalog")
