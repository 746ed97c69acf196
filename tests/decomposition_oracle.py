"""Slow, independent horizontal cylinder decomposition, pinch dual graph
and case matching: set-based versions that rebuild the vertex orbits,
build every cylinder twice, build the dual graph from the finished
diagram with its halves labelled by ``(cylinder, side)`` pairs and try
every vertex permutation against each reference shape.  The reference
that the one pass of ``squaretiled.cylinders.horizontal_decomposition``,
which builds the decomposition and its ``dual_graph`` together, and the
table lookup of ``squaretiled.cylinders.classify_case`` are compared
against.  It keeps every check of the boundary words that the one pass
leaves to the corner identity, so a test that compares outcomes shows
that none of them fires.  Also the rank of the span of the core-curve
classes in homology, which the dual graph's cycle rank is compared
against, with the core-curve chains and classes it reads.

The oracle decomposition's ``dual_graph`` is :func:`dual_graph` of the
finished decomposition, counting zeros from the saddles' corner classes
and checking that the genus labels and the cycle rank add up to the
genus ``singularity_data`` reads off the corners; the tests compare the
genus of the package's dual graph with ``singularity_data`` too.  Its
saddles are objects of their own (:class:`DecompositionSaddle`), which
the package's decomposition does not build: there a saddle's squares
are the run of its bottom row that ``bottom_positions`` and
``saddle_lengths`` give, and its zeros are not stored at all, since the
boundary words fix them (:func:`word_zeros`).  The tests compare the
corner-class zeros of the saddles (:func:`corner_zeros`) with that
reading of the package's words.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from squaretiled.cylinders import (
    Cylinder,
    CylinderDecomposition,
    CylinderDiagram,
    DualGraph,
)
from squaretiled.errors import InvariantViolation
from squaretiled.homology import HomologyBasis, homology_basis
from squaretiled.intlinalg import smith_normal_form, snf_rank
from squaretiled.surface import perm_cycles, singularity_data


def _marked_corners(o):
    """Corners carrying cone points; for genus one (no cone points) the
    single corner of square 0 is marked so boundaries carry a saddle."""
    orbits = o.vertex_orbits()
    corner_class = {}
    for idx, orbit in enumerate(orbits):
        for sq in orbit:
            corner_class[sq] = idx
    marked = {sq for orbit in orbits if len(orbit) > 1 for sq in orbit}
    if not marked:
        marked = {0}
    return marked, corner_class


@dataclass(frozen=True)
class DecompositionSaddle:
    """A saddle connection on a horizontal boundary: its unit squares (the
    bottom edges traversed left to right) and zero labels at both ends."""

    id: int
    squares: tuple
    start_zero: int
    end_zero: int


def horizontal_decomposition(o):
    """Maximal horizontal cylinders, saddle connections, their positions
    and the pinch dual graph, as
    :func:`squaretiled.cylinders.horizontal_decomposition` computes them."""
    return decomposition_with_saddles(o)[0]


def decomposition_with_saddles(o):
    """:func:`horizontal_decomposition` and its saddles, a dict from saddle
    id to :class:`DecompositionSaddle`."""
    n = o.n
    marked, corner_class = _marked_corners(o)
    rows = perm_cycles(o.h)
    row_of = {}
    for ri, row in enumerate(rows):
        for sq in row:
            row_of[sq] = ri

    # merge rows across interfaces without marked corners
    parent = list(range(len(rows)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    above = {}  # row -> row directly above, when the interface is regular
    for ri, row in enumerate(rows):
        upstairs = [o.v[sq] for sq in row]
        if not any(sq in marked for sq in upstairs):
            rj = row_of[upstairs[0]]
            above[ri] = rj
            ra, rb = find(ri), find(rj)
            if ra != rb:
                parent[ra] = rb

    components = {}
    for ri in range(len(rows)):
        components.setdefault(find(ri), []).append(ri)

    cylinders = []
    square_x = {}
    for comp in components.values():
        merged_up = set(above.get(ri) for ri in comp)
        bottoms = [ri for ri in comp if ri not in merged_up]
        if len(bottoms) != 1:
            raise InvariantViolation("cylinder stack must have a unique "
                                     "bottom row")
        chain = [bottoms[0]]
        while chain[-1] in above:
            chain.append(above[chain[-1]])
        if sorted(chain) != sorted(comp):
            raise InvariantViolation("cylinder stack is not one chain of "
                                     "rows")
        # rotate the bottom row to start at its first marked corner
        r0 = rows[chain[0]]
        start = min(i for i, sq in enumerate(r0) if sq in marked)
        r0 = r0[start:] + r0[:start]
        stacked = [r0]
        for sq_i, sq in enumerate(r0):
            square_x[sq] = sq_i
        for ri in chain[1:]:
            prev = stacked[-1]
            nxt = tuple(o.v[sq] for sq in prev)
            for sq, below in zip(nxt, prev):
                square_x[sq] = square_x[below]
            stacked.append(nxt)
        cylinders.append(Cylinder(
            tuple(stacked), Fraction(len(r0)), Fraction(len(stacked))
        ))
    # deterministic ids, the positions in ``cylinders``: sort by smallest
    # square of the bottom row
    cylinders.sort(key=lambda c: min(c.rows[0]))

    # saddle connections: runs between marked corners on each bottom row
    saddles = {}
    edge_saddle = {}
    bottom_words = []
    bottom_positions = {}
    for c in cylinders:
        word_ids = []
        run = []
        run_start_x = 0
        for i, sq in enumerate(c.rows[0]):
            if sq in marked and run:
                sid = len(saddles)
                _close_run(saddles, edge_saddle, sid, run, corner_class, o)
                word_ids.append(sid)
                bottom_positions[sid] = run_start_x
                run = []
            if not run:
                run_start_x = i
            run.append(sq)
        sid = len(saddles)
        _close_run(saddles, edge_saddle, sid, run, corner_class, o)
        word_ids.append(sid)
        bottom_positions[sid] = run_start_x
        bottom_words.append(tuple(word_ids))

    # top words: read the same quotient edges along each cylinder's top row
    top_words = []
    top_positions = {}
    for c in cylinders:
        rt = c.rows[-1]
        starts = [i for i, sq in enumerate(rt) if o.v[sq] in marked]
        if not starts:
            raise InvariantViolation("top boundary must contain a marked "
                                     "corner")
        k0 = min(starts, key=lambda i: square_x[rt[i]])
        rt = rt[k0:] + rt[:k0]
        word_ids = []
        run_edges = []
        run_start = None
        for sq in rt:
            edge = o.v[sq]
            if edge in marked and run_edges:
                word_ids.append(_close_top_run(run_edges, edge_saddle,
                                               saddles))
                top_positions[word_ids[-1]] = square_x[run_start]
                run_edges = []
            if not run_edges:
                run_start = sq
            run_edges.append(edge)
        word_ids.append(_close_top_run(run_edges, edge_saddle, saddles))
        top_positions[word_ids[-1]] = square_x[run_start]
        top_words.append(tuple(word_ids))

    diagram = CylinderDiagram(tuple(bottom_words), tuple(top_words))
    diagram.validate()
    # the saddle ids number the saddles 0, 1, ...; every record of a
    # saddle is stored at its id
    sids = range(len(saddles))
    d = CylinderDecomposition(
        origami=o,
        cylinders=tuple(cylinders),
        diagram=diagram,
        saddle_lengths=tuple(len(saddles[sid].squares) for sid in sids),
        bottom_positions=tuple(bottom_positions[sid] for sid in sids),
        top_positions=tuple(top_positions[sid] for sid in sids),
        dual_graph=None,
    )
    if sum(len(row) for c in cylinders for row in c.rows) != n:
        raise InvariantViolation("cylinder areas must sum to the number of "
                                 "squares")
    return d._replace(dual_graph=dual_graph(d, corner_zeros(saddles))), \
        saddles


def corner_zeros(saddles):
    """Saddle id -> (zero at its start, zero at its end) of the saddles of
    :func:`decomposition_with_saddles`, read from the origami's corners."""
    return {sid: (s.start_zero, s.end_zero) for sid, s in saddles.items()}


def word_zeros(diagram):
    """Saddle id -> (zero at its start, zero at its end) read off the
    boundary words alone, the zeros numbered in the order their first
    saddle appears on the bottom words.  With ``β(s)`` and ``τ(s)`` the
    saddle after ``s`` on its bottom word and on its top word, the saddles
    starting at one zero are one cycle of ``τ∘β⁻¹``, and ``s`` ends where
    ``β(s)`` starts."""
    beta, beta_inv, tau = {}, {}, {}
    for table, succ in ((diagram.bottom_words, beta),
                        (diagram.top_words, tau)):
        for word in table:
            for i, sid in enumerate(word):
                succ[sid] = word[(i + 1) % len(word)]
    for sid, nxt in beta.items():
        beta_inv[nxt] = sid
    start, zeros = {}, 0
    for sid in beta:
        if sid in start:
            continue
        s = sid
        while s not in start:
            start[s] = zeros
            s = tau[beta_inv[s]]
        zeros += 1
    return {sid: (start[sid], start[beta[sid]]) for sid in beta}


def renamed_zeros(pairs):
    """The zero pairs of ``pairs`` (saddle id -> (start, end)) in saddle id
    order, the zeros renamed in first-seen order: equal for two maps on
    one set of saddles exactly when they agree up to renaming the zeros."""
    names = {}
    return tuple((names.setdefault(a, len(names)),
                  names.setdefault(b, len(names)))
                 for _, (a, b) in sorted(pairs.items()))


def _close_run(saddles, edge_saddle, sid, run, corner_class, o):
    start = run[0]
    end = o.h[run[-1]]
    saddles[sid] = DecompositionSaddle(
        sid, tuple(run), corner_class[start], corner_class[end]
    )
    for sq in run:
        edge_saddle[sq] = sid


def _close_top_run(run_edges, edge_saddle, saddles):
    sid = edge_saddle[run_edges[0]]
    if any(edge_saddle[e] != sid for e in run_edges):
        raise InvariantViolation("top run crosses a saddle boundary")
    if len(run_edges) != len(saddles[sid].squares):
        raise InvariantViolation("top run length disagrees with its saddle")
    return sid


def dual_graph(d, saddle_zeros=None):
    """The pinch dual graph of ``d`` (a decomposition or a net), read off
    its finished diagram with halves labelled ``(cylinder, "bot" |
    "top")``, as :func:`squaretiled.cylinders.horizontal_decomposition`
    builds it while it reads the top words; a disconnected surface
    raises, and the genus check reads the stratum of ``d.origami`` when
    ``d`` carries one.  A component's zeros are counted from
    ``saddle_zeros`` (saddle id -> (start, end)), by default
    :func:`word_zeros` of the diagram."""
    diagram = d.diagram
    if saddle_zeros is None:
        saddle_zeros = word_zeros(diagram)
    cids = range(len(diagram.bottom_words))
    halves = [(cid, side) for cid in cids for side in ("bot", "top")]
    parent = {h: h for h in halves}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    bottom_owner = {sid: cid for cid, word in enumerate(diagram.bottom_words)
                    for sid in word}
    top_owner = {sid: cid for cid, word in enumerate(diagram.top_words)
                 for sid in word}
    for sid, cid in bottom_owner.items():
        union((cid, "bot"), (top_owner[sid], "top"))

    comp_ids = {}
    for h in halves:
        root = find(h)
        if root not in comp_ids:
            comp_ids[root] = len(comp_ids)
    comp_of = {h: comp_ids[find(h)] for h in halves}

    comp_saddles = {v: set() for v in comp_ids.values()}
    for sid, cid in bottom_owner.items():
        comp_saddles[comp_of[(cid, "bot")]].add(sid)
    comp_ends = {v: 0 for v in comp_ids.values()}
    for h in halves:
        comp_ends[comp_of[h]] += 1

    genera = []
    for vid in sorted(comp_ids.values()):
        saddles = comp_saddles[vid]
        zeros = {z for sid in saddles for z in saddle_zeros[sid]}
        euler = len(zeros) - len(saddles)
        genus2 = 2 - euler - comp_ends[vid]
        if genus2 < 0 or genus2 % 2:
            raise InvariantViolation("component genus must be a whole number")
        genera.append(genus2 // 2)

    # the surface is connected exactly when gluing each cylinder's halves
    # back together leaves one component
    for cid in cids:
        union((cid, "bot"), (cid, "top"))
    if len({find(h) for h in halves}) != 1:
        raise InvariantViolation("surface must be connected")

    edges = tuple((comp_of[(cid, "bot")], comp_of[(cid, "top")])
                  for cid in cids)
    g = DualGraph(tuple(genera), edges)
    # stable-curve genus formula: sum of genera plus cycle rank of the graph
    if getattr(d, "origami", None) is not None:
        if sum(g.genera) + g.cycle_rank != \
                singularity_data(d.origami).genus:
            raise InvariantViolation("dual graph must carry the surface's "
                                     "genus")
    return g


_REFERENCE_GRAPHS = {
    # (genus labels, edges as vertex-index pairs)
    "Case1": ([1], [(0, 0), (0, 0)]),
    "Case2": ([0, 1], [(0, 1), (0, 1), (0, 1)]),
    "Case3": ([0, 1], [(0, 0), (0, 1), (0, 1)]),
    "Case4": ([0, 0, 1], [(0, 1), (0, 1), (0, 2), (1, 2)]),
    "Case5": ([2], [(0, 0)]),
    "Case6": ([1, 1], [(0, 1), (0, 1)]),
}


def _multigraph_isomorphic(genera_a, edges_a, genera_b, edges_b):
    if sorted(genera_a) != sorted(genera_b) or len(edges_a) != len(edges_b):
        return False
    nv = len(genera_a)
    for perm in itertools.permutations(range(nv)):
        if any(genera_a[i] != genera_b[perm[i]] for i in range(nv)):
            continue
        mapped = sorted(tuple(sorted((perm[u], perm[w]))) for u, w in edges_a)
        if mapped == sorted(tuple(sorted(e)) for e in edges_b):
            return True
    return False


def classify_case(g):
    """The first reference shape that ``g`` is isomorphic to, tried one
    vertex permutation at a time, as
    :func:`squaretiled.cylinders.classify_case` decides it."""
    for label, (ref_genera, ref_edges) in _REFERENCE_GRAPHS.items():
        if _multigraph_isomorphic(g.genera, g.edges, ref_genera, ref_edges):
            return label
    return None


def core_row(d, cid):
    """The bottom row of cylinder ``cid`` of decomposition ``d``; its
    squares' bottom edges sum to a core-curve representative."""
    return d.cylinders[cid].rows[0]


def core_curve_chain(d, cid):
    """Chain of the core curve of cylinder ``cid``: the bottom edges of its
    bottom row, oriented rightward."""
    chain = [0] * (2 * d.origami.n)
    for sq in core_row(d, cid):
        chain[sq] += 1
    return chain


def core_curve_class(d, cid, basis: HomologyBasis = None):
    r"""
    Homology class of the core curve of cylinder ``cid``.

    EXAMPLES::

        >>> from squaretiled.surface import build_origami
        >>> from squaretiled.cylinders import horizontal_decomposition
        >>> d = horizontal_decomposition(build_origami((0,), (0,)))
        >>> core_curve_class(d, 0)
        [1, 0]
    """
    if basis is None:
        basis = homology_basis(d.origami)
    return basis.coords(core_curve_chain(d, cid))


def core_span_rank(d) -> int:
    """Rank of the span of all core-curve classes of the decomposition,
    computed in a homology basis of ``d.origami``.

    >>> from squaretiled.surface import build_origami, perm_from_cycles
    >>> from squaretiled.cylinders import horizontal_decomposition
    >>> o = build_origami(perm_from_cycles([(0, 1)], 3),
    ...                   perm_from_cycles([(0, 2)], 3))
    >>> core_span_rank(horizontal_decomposition(o))
    2
    """
    basis = homology_basis(d.origami)
    rows = [core_curve_class(d, cid, basis)
            for cid in range(len(d.cylinders))]
    return snf_rank(smith_normal_form(rows)[1])
