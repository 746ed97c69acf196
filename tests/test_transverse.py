"""Transverse crossing-cylinder witnesses for the stacked configurations,
the Case 4A cell search against the rational interval-map oracle, and the
window inequalities against the fraction oracle."""

import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

import decomposition_oracle
import survivor_oracle

from conftest import BOUNDARY_4A, CASE4A_DIAGRAM, decomposition_net, \
    exemplar, random_case4a_net, random_genus3, scaled_net, scaled_witness, \
    torus, wollmilchsau
from interval_oracle import IntervalMap, LengthMismatch, boundary_hit, \
    build_interval_map, case4a_window_map, case4a_window_witness, \
    find_window_hit
from net_oracle import CylinderGeometry, build_net
from survivor_oracle import enumerate_slopes
from squaretiled.cylinders import (
    classify_case,
    horizontal_decomposition,
    periodic_decomposition,
)
from squaretiled.errors import InvariantViolation
from squaretiled.surface import parse_origami
from squaretiled.transverse import (
    TransverseWitness,
    WindowConstraint,
    _matched_pair,
    _saddle_arc,
    find_crossing_cylinder,
)


def window_feasible_pairs(max_denominator):
    r"""
    All pairs ``(t0, s0)`` of fractions of the circumference, over every
    circumference ``w`` up to ``max_denominator``, for which some
    ``t_start`` satisfies the window inequalities, as the integer
    :attr:`WindowConstraint.violated` decides them.  Each numerator pair
    is decided at ``t_start = 0``: the inequalities bound ``t_start`` by
    ``0`` below and by the slack ``w - 2*t0 - 2*s0`` above, so ``0`` is
    feasible whenever any value is.  A pair with ``t0 < s0`` violates ``t0 >= s0``
    and one with ``2*t0 >= w`` has a negative slack, so only the pairs
    ``s0 <= t0 < w/2`` are decided.  Exactly one pair survives.

    >>> window_feasible_pairs(12)
    [(Fraction(1, 4), Fraction(1, 4))]
    """
    out = set()
    for w in range(1, max_denominator + 1):
        for t0 in range(1, (w + 1) // 2):
            for s0 in range(1, t0 + 1):
                if not WindowConstraint(t0, s0, 0, w).violated:
                    out.add((Fraction(t0, w), Fraction(s0, w)))
    return sorted(out)


def total_length(intervals):
    return sum(b - a for a, b in intervals)


def test_interval_map_normalization_and_apply():
    f = IntervalMap(4, [(0, 3, 1), (3, 4, 1)])
    assert f.apply(0) == 1
    assert f.apply(Fraction(5, 2)) == Fraction(7, 2)
    assert f.apply(3) == 0
    assert f.piece_at(Fraction(7, 2)) == (3, 4, 1)


@pytest.mark.parametrize("crossed, width, message", [
    ((0, 1), 0, "positive width"),
    ((0, 1, 0), 1, "crossed exactly once"),
    ((0, 1), -1, "positive width"),
])
def test_malformed_witness_raises(crossed, width, message):
    """``width`` is the signed length of the start interval
    ``(1, 1 + width)``: an empty or a reversed interval is rejected."""
    with pytest.raises(InvariantViolation, match=message):
        TransverseWitness(crossed=crossed, start_interval=(1, 1 + width),
                          direction=(1, 1))


def test_interval_map_requires_partition():
    with pytest.raises(Exception):
        IntervalMap(2, [(0, 1, 0)])
    with pytest.raises(Exception):
        IntervalMap(2, [(0, 1, 0), (1, 2, 1)])


def test_interval_map_measure_preservation(rng):
    for _ in range(40):
        n = rng.randint(1, 5)
        cuts = sorted(rng.sample(range(1, 24), n - 1)) if n > 1 else []
        bounds = [0] + [Fraction(c, 4) for c in cuts] + [6]
        pieces = [(bounds[i], bounds[i + 1],
                   Fraction(rng.randint(0, 23), 4))
                  for i in range(n)]
        try:
            f = IntervalMap(6, pieces)
        except Exception:
            continue  # the random offsets produced overlapping images
        assert total_length([(a, b) for a, b, _ in f.pieces]) == 6
        assert total_length(f.image_intervals()) == 6


def carriers(o):
    """The horizontal decomposition of ``o`` and its metric net."""
    d = horizontal_decomposition(o)
    return d, decomposition_net(d)


def test_torus_interface_map_is_twist_translation():
    for carrier in carriers(torus()):
        f = build_interval_map(carrier, ("bottom", 0), ("top", 0))
        assert f.pieces == ((0, 1, 0),)


def test_wollmilchsau_interface_map_oracle():
    for carrier in carriers(wollmilchsau()):
        f = build_interval_map(carrier, ("bottom", 0), ("top", 1))
        assert f.pieces == ((0, 1, 2), (1, 2, 0), (2, 3, 2), (3, 4, 0))


def test_interface_map_rejects_mismatched_interfaces():
    for carrier in carriers(wollmilchsau()):
        with pytest.raises((LengthMismatch, KeyError, AssertionError)):
            build_interval_map(carrier, ("bottom", 0), ("bottom", 1))


def test_find_window_hit_basic():
    swap = IntervalMap(4, [(0, 2, 2), (2, 4, 2)])
    assert find_window_hit(swap, (0, 4), (0, 1)) == (2, 3)
    assert find_window_hit(swap, (0, 2), (0, 2)) is None


def test_find_window_hit_picks_leftmost_among_longest():
    rot = IntervalMap(3, [(0, 3, 1)])
    assert find_window_hit(rot, (0, 3), (0, 2)) == (0, 1)


def test_boundary_hit():
    f = IntervalMap(2, [(0, 2, Fraction(1, 2))])
    assert boundary_hit(f, 1) == Fraction(1, 2)


def test_net_case_labels():
    for name in ("Case1", "Case2", "Case4A", "Case4B"):
        d, net = carriers(exemplar(name))
        expected = "Case4" if name.startswith("Case4") else name
        assert str(classify_case(decomposition_oracle.dual_graph(net))) == \
            expected
        assert decomposition_oracle.dual_graph(net) == d.dual_graph


# each exemplar's witness: crossed cylinders, start interval, direction
# and kind
EXEMPLAR_WITNESSES = {
    "Case1": ((1,), (0, 1), (2, 1), "simple-over-1"),
    "Case2": ((0, 2), (0, 1), (0, 2), "through-0-5"),
    "Case4A": ((0, 2, 3), (1, 2), (0, 3), "window"),
    "Case4B": ((0, 1, 3), (3, 4), (-3, 3), "over-3"),
}


@pytest.mark.parametrize("name", ["Case1", "Case2", "Case4A", "Case4B"])
def test_exemplar_witnesses(name):
    """Each exemplar's label leads to its own search: one crossed cylinder
    for Case 1, two for Case 2, and for Case 4 the window or boundary
    witness over two middle cylinders (4A) or the stacked witness over one
    (4B).  The whole witness is pinned, so a Case 1 or 4B direction that
    rises through too few cylinders or runs from top to bottom fails."""
    d = horizontal_decomposition(exemplar(name))
    label = classify_case(d.dual_graph)
    assert str(label) == name[:5]
    witness = find_crossing_cylinder(d, label)
    assert tuple(witness) == EXEMPLAR_WITNESSES[name]
    a, b = witness.start_interval
    assert a < b
    assert len(witness.crossed) == {"Case1": 1, "Case2": 2}.get(name, 3)
    if name.startswith("Case4"):
        middles = _matched_pair(d)[2]
        assert len(middles) == (2 if name == "Case4A" else 1)
        assert witness.kind.startswith("over-") == (name == "Case4B")
        assert witness.crossed[1] in middles


@pytest.mark.parametrize("label", ["Case3", "Case5", "Case6", None], ids=str)
def test_crossing_search_needs_a_crossing_label(label):
    """Only Cases 1, 2 and 4 have a crossing-cylinder search; any other
    label raises ``ValueError`` before a search runs, on the label's own
    exemplar and on a Case 1 diagram and its net alike."""
    surfaces = [exemplar("Case1")]
    if label is not None:
        surfaces.append(exemplar(label))
    for o in surfaces:
        for carrier in carriers(o):
            with pytest.raises(ValueError,
                               match="no crossing-cylinder search for %s"
                               % (label,)):
                find_crossing_cylinder(carrier, label)


# at slope (1, -1), a Case 2 direction whose top(0) shares three saddles
# of lengths 1, 1 and 2 with the bottom of the other crossed cylinder
UNEQUAL_CASE2 = ('origami n=10 h="(0 1 4 3)(2 8 6 5 9 7)" '
                 'v="(0 5 2 3 4 1 9 8 6 7)"')


def test_decomposition_and_net_witnesses_agree():
    """The searches read an origami's decomposition directly; on every Case
    1/2/4 direction up to bound 3 of the exemplars and of random genus-3
    surfaces, the witness equals the one found on the decomposition's
    metric net.  A Case 2 witness starts at the first saddle of cylinder
    0's bottom and is the widest band back through a saddle that the top
    of cylinder 0 shares with the other crossed cylinder's bottom."""
    rng = random.Random(4242)
    surfaces = [exemplar(name) for name in ("Case1", "Case2", "Case4A",
                                            "Case4B")]
    surfaces += [random_genus3(rng, 5, 12) for _ in range(200)]
    pairs = [(o, slope) for o in surfaces for slope in enumerate_slopes(3)]
    pairs.append((parse_origami(UNEQUAL_CASE2), (1, -1)))
    found = Counter()
    for o, slope in pairs:
        d = periodic_decomposition(o, slope)
        graph = d.dual_graph
        # a Lagrangian pinch, of cycle rank 3, has none of the shapes
        if graph.cycle_rank == 3:
            continue
        label = classify_case(graph)
        if label not in ("Case1", "Case2", "Case4"):
            continue
        witness = find_crossing_cylinder(d, label)
        assert witness == find_crossing_cylinder(decomposition_net(d),
                                                 label), (o, slope)
        if label == "Case2":
            sigma = d.diagram.bottom_words[0][0]
            assert witness.crossed[0] == 0, (o, slope)
            assert witness.kind.startswith("through-%d-" % sigma), \
                (o, slope)
            lengths = d.saddle_lengths
            shared = set(d.diagram.top_words[0]) & set(
                d.diagram.bottom_words[witness.crossed[1]])
            tau = int(witness.kind.rsplit("-", 1)[1])
            assert tau in shared and lengths[tau] == max(
                lengths[t] for t in shared), (o, slope)
            a, b = witness.start_interval
            assert (a, b - a) == (d.bottom_positions[sigma], min(
                lengths[sigma], lengths[tau])), (o, slope)
        found[label, witness is not None] += 1
    # at this seed, with the pair at slope (1, -1): 1486 Case 1, 13 Case 2
    # and 2 Case 4 directions, every one with a witness
    assert found["Case1", True] > 1000
    assert found["Case2", True] > 5
    assert found["Case4", True] >= 2


def brute_window_point(net, denominator=16):
    """Independent existence check for the four-cylinder witness: scan grid
    points on the re-cut bottom of the lower outer cylinder and follow the
    boundary gluing by hand, without the window-search machinery."""
    from squaretiled.transverse import _saddle_arc

    c1, c4, middles = _matched_pair(net)
    wide = max(middles, key=lambda c: (net.cylinders[c].circumference, c))
    w = net.cylinders[c1].circumference
    s = net.cylinders[wide].circumference
    lengths = net.saddle_lengths
    a_top = _saddle_arc(net.diagram.top_words[c1], net.top_positions,
                        set(net.diagram.bottom_words[wide]))
    a_bot = _saddle_arc(net.diagram.bottom_words[c4], net.bottom_positions,
                        set(net.diagram.top_words[wide]))
    hits = []
    grid = [Fraction(k, denominator) for k in range(1, int(s * denominator))]
    for x in grid:
        xa = (a_top + x) % w
        for sid in net.diagram.bottom_words[c1]:
            lo = net.bottom_positions[sid]
            if lo < xa < lo + lengths[sid]:
                ya = (net.top_positions[sid] + (xa - lo)) % w
                y = (ya - a_bot) % w
                if 0 < y < s:
                    hits.append(x)
    return hits


def test_case4a_random_nets_with_brute_oracle(rng):
    """Random nets scaled to whole units: the witness lies in the window,
    maps into it, matches a brute-force scan, and is the oracle's witness
    on the unscaled net, scaled."""
    for _ in range(60):
        small = random_case4a_net(rng)
        net = scaled_net(small, 16)
        witness = find_crossing_cylinder(net, "Case4")
        assert witness is not None
        f, s = case4a_window_map(net)
        a, b = witness.start_interval
        mid = a + Fraction(b - a, 2)
        assert 0 <= a < b <= s
        assert 0 <= f.apply(mid) < s
        assert brute_window_point(net), "brute scan must confirm existence"
        assert witness == scaled_witness(case4a_window_witness(small), 16)


def test_case4a_cell_search_matches_the_interval_oracle():
    """The cell search returns the rational oracle's witness on the Case 4A
    exemplar, the boundary surface, every whole-unit net over the Case 4A
    diagram with circumferences 4/2/2/4 (every twist, heights 1-2), and
    2000 random nets scaled by 16, where the oracle runs on the unscaled
    net and its witness is scaled."""
    found = Counter()

    def check(d, expected):
        witness = find_crossing_cylinder(d, "Case4")
        assert witness == expected, d
        found[witness.kind] += 1

    for o in (exemplar("Case4A"), parse_origami(BOUNDARY_4A)):
        d = horizontal_decomposition(o)
        check(d, case4a_window_witness(d))
    widths = (4, 2, 2, 4)
    lengths = {0: 1, 1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 2, 7: 2}
    for twists in itertools.product(*(range(w) for w in widths)):
        for heights in itertools.product((1, 2), repeat=4):
            net = build_net({c: CylinderGeometry(widths[c], heights[c],
                                                 twists[c])
                             for c in range(4)}, CASE4A_DIAGRAM, lengths)
            check(net, case4a_window_witness(net))
    rng = random.Random(4242)
    for _ in range(2000):
        small = random_case4a_net(rng)
        check(scaled_net(small, 16),
              scaled_witness(case4a_window_witness(small), 16))
    assert sum(found.values()) == 3026
    assert found["boundary"] > 0 and found["window"] > 0


def test_case4a_cell_search_needs_whole_units():
    net = random_case4a_net(random.Random(4242))
    with pytest.raises(InvariantViolation, match="whole-unit"):
        find_crossing_cylinder(net, "Case4")


def test_saddle_arc_reads_the_start_of_the_run():
    """The start of a run of saddles on a boundary word is the position of
    its first saddle: a run inside the word, a run that wraps round its
    end, and the whole word, which starts at the word's first saddle.
    A run that is not contiguous, or holds a saddle off the word, raises."""
    word, positions = (0, 1, 2, 3), (0, 2, 3, 5)
    assert _saddle_arc(word, positions, {1, 2}) == 2
    assert _saddle_arc(word, positions, {3, 0}) == 5
    assert _saddle_arc((0, 1, 2), (0, 1, 2), {0, 1, 2}) == 0
    with pytest.raises(InvariantViolation, match="not contiguous"):
        _saddle_arc(word, positions, {0, 2})
    with pytest.raises(InvariantViolation, match="not a sub-run"):
        _saddle_arc(word, positions, {2, 4})


def test_window_feasible_known_points():
    """The window reads its own slack and violated inequalities."""
    c = WindowConstraint(1, 1, 0, 4)
    assert (c.slack, c.violated) == (0, ())
    assert type(c.slack) is int
    # t0 = 1/3, s0 = 1/4: the slack 1 - 2/3 - 1/2 = -1/6 is -2 twelfths
    c = WindowConstraint(4, 3, 0, 12)
    assert (c.slack, c.violated) == (-2, ("t_start <= 1 - 2*t0 - 2*s0",))


# constraints with one value out of range or not an integer, and the
# message each raises
EXACT = "window data must be exact: integer numerators over w"
BAD_WINDOWS = [
    ((0, 1, 0, 4), "saddle lengths must lie in (0, w)"),
    ((4, 1, 0, 4), "saddle lengths must lie in (0, w)"),
    ((1, 0, 0, 4), "saddle lengths must lie in (0, w)"),
    ((1, 4, 0, 4), "saddle lengths must lie in (0, w)"),
    ((1, 1, 0, 1), "saddle lengths must lie in (0, w)"),
    ((1, 1, -1, 4), "t_start must lie in [0, w)"),
    ((1, 1, 4, 4), "t_start must lie in [0, w)"),
    ((0.25, 1, 0, 4), EXACT),
    ((1, Fraction(1), 0, 4), EXACT),
    ((1, 1, 0.0, 4), EXACT),
    ((1, 1, 0, 4.0), EXACT),
    ((1, 1, 0, Fraction(4)), EXACT),
    ((True, 1, 0, 4), EXACT),
]

RAISE_BAD_WINDOWS = """
import sys
from fractions import Fraction
from squaretiled.transverse import WindowConstraint
for args in %r:
    try:
        WindowConstraint(*args)
    except ValueError as exc:
        print("optimize=%%d raised: %%s" %% (sys.flags.optimize, exc))
""" % [args for args, _ in BAD_WINDOWS]


def test_window_constraint_needs_exact_values():
    """Out-of-range and non-integer window data raise ``ValueError``, also
    under ``python -O``: every check is an explicit ``raise``."""
    assert WindowConstraint(1, 1, 0, 4).t_start == 0
    for args, message in BAD_WINDOWS:
        with pytest.raises(ValueError) as info:
            WindowConstraint(*args)
        assert str(info.value) == message, args
    src = os.path.dirname(os.path.dirname(survivor_oracle.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(src, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    run = subprocess.run([sys.executable, "-O", "-c", RAISE_BAD_WINDOWS],
                         env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "optimize=1 raised: " + message for _, message in BAD_WINDOWS]


def test_integer_window_inequalities_match_the_fraction_oracle():
    """For every circumference ``w`` from 1 to 16 and every numerator
    triple the constraint accepts, the integer inequalities give the
    oracle's verdict on the fractions of ``w`` with the quarter bound, and
    the slack numerator is the oracle's slack times ``w``."""
    seen = Counter()
    for w in range(1, 17):
        for t0, s0, t_start in itertools.product(range(1, w), range(1, w),
                                                 range(w)):
            rec = WindowConstraint(t0, s0, t_start, w)
            oracle = survivor_oracle.window_feasible(
                survivor_oracle.WindowConstraint(
                    Fraction(t0, w), Fraction(s0, w), Fraction(t_start, w),
                    Fraction(1, 4)))
            assert rec.violated == oracle.violated, (t0, s0, t_start, w)
            assert oracle.feasible == (not rec.violated), \
                (t0, s0, t_start, w)
            # every feasible point is the degenerate boundary point
            assert oracle.boundary == (not rec.violated), \
                (t0, s0, t_start, w)
            assert type(rec.slack) is int
            assert Fraction(rec.slack, w) == oracle.slack
            seen[rec.violated, oracle.boundary] += 1
    assert sum(seen.values()) == sum((w - 1) ** 2 * w for w in range(1, 17))
    # every inequality is violated somewhere except t_start >= 0, which
    # the constraint's range already guarantees
    assert {v for violated, _ in seen for v in violated} == {
        "t0 >= s0", "s0 >= min_saddle", "t_start <= 1 - 2*t0 - 2*s0"}
    # the feasible triples are the boundary point (w/4, w/4, 0) of
    # w = 4, 8, 12 and 16
    assert seen[(), True] == 4 and seen[(), False] == 0


def test_window_feasible_pairs_unique():
    assert window_feasible_pairs(40) == [(Fraction(1, 4), Fraction(1, 4))]
