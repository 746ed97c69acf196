"""End-to-end classification, diagram catalogs, report rendering, and the
command-line entry points."""

import ast
import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

import catalog_oracle
import decomposition_oracle
import key_oracle
import survivor_oracle
from conftest import BOUNDARY_4A, CASE_LABELS, EXEMPLARS, H4_LINE, H31_SIX, \
    MALFORMED_LINES, SIX_SQUARES, classes_of_genus, decomposition_net, exemplar, \
    l_origami, origamis_of_genus, random_genus3, relabelled, \
    vertical_stretch, wollmilchsau
from decomposition_oracle import core_span_rank
from survivor_oracle import enumerate_slopes
from squaretiled.cli import build_parser, main as cli_main
from squaretiled.cylinders import (
    Cylinder,
    CylinderDiagram,
    classify_case,
    direction_member,
    horizontal_decomposition,
    moduli_exponents,
    periodic_decomposition,
)
from squaretiled.monodromy import orbit_graph
from squaretiled import cli, cylinders, homology, monodromy, pipeline, \
    transverse
from squaretiled.errors import GenusMismatch, InvariantViolation
from squaretiled.pipeline import (
    DirectionRecord,
    Verdict,
    affine_reference,
    classify_surface,
    enumerate_diagrams,
    reference_surface,
    render_report,
)
from squaretiled.surface import (
    Origami,
    act_sl2z,
    build_origami,
    canonical_form,
    parse_origami,
    perm_from_cycles,
    singularity_data,
)
from squaretiled.transverse import TransverseWitness
from test_cylinders import label_or_none


def record_for(verdict, slope):
    return next(r for r in verdict.evidence if r.slope == slope)


def analyze(o, slope):
    """The record of the direction of ``slope`` on ``o``, whether it
    excludes, and its decomposition."""
    d = periodic_decomposition(o, slope)
    return pipeline._analyze_direction(d, slope) + (d,)


def test_reference_surface_matches_fixture():
    """The reference surface is the affine image at ``a = h = 1``,
    ``t = 0``, with the fixture's labels."""
    assert reference_surface() == affine_reference(1, 1, 0) == \
        wollmilchsau()


def test_reference_surface_survives():
    verdict = classify_surface(reference_surface())
    assert verdict.status == "WollmilchsauEquivalent"
    chain, final = verdict.evidence
    assert (chain.slope, chain.label, chain.mechanism) == \
        ((0, 1), "Case6", "two homologous cylinders")
    assert (final.slope, final.label, final.mechanism) == \
        ((0, 1), "Case6", "affine image of the reference")
    result = final.witness
    assert bool(result)
    # t0 = s0 = 1/4 and t_start = 0 over the circumference 4
    assert result.constraint == chain.witness.constraint == \
        transverse.WindowConstraint(1, 1, 0, 4)
    assert result.record == transverse.FeasibilityRecord(True, 0, ())
    assert result.matrix == ((1, 0), (0, 1))
    assert result.relabelling == tuple(range(8))


def test_verdict_invariant_under_shears():
    for word in (["T"], ["S"], ["T", "S", "T^-1"]):
        verdict = classify_surface(act_sl2z(reference_surface(), word))
        assert verdict.status == "WollmilchsauEquivalent"


def test_genus_gate():
    """The gate reads the genus off the horizontal decomposition; the
    message is the same as when it was read off the stratum."""
    for text, genus in (
            ('origami n=1 h="" v=""', 1),
            (str(l_origami()), 2),
            ('origami n=7 h="(0 1 2 3 4 5 6)" v="(1 2)(3 4)(5 6)"', 4)):
        o = parse_origami(text)
        assert singularity_data(o).genus == genus
        with pytest.raises(GenusMismatch) as raised:
            classify_surface(o)
        assert str(raised.value) == \
            "genus %d surface; this classification needs genus 3" % genus


EXPECTED_HORIZONTAL = {
    "Case1": ("Case1", "transverse crossing cylinder"),
    "Case2": ("Case2", "transverse crossing cylinder"),
    "Case3": ("Case3", "period forcing"),
    "Case4A": ("Case4", "transverse crossing cylinder"),
    "Case4B": ("Case4", "transverse crossing cylinder"),
    "Case5": ("Case5", "defer to a simple transverse cylinder"),
    "Case6": ("Case6", "window forcing"),
}


@pytest.mark.parametrize("name", sorted(EXEMPLARS))
def test_exemplars_have_trivial_subspaces(name):
    verdict = classify_surface(exemplar(name))
    assert verdict.status == "TrivialForni"
    label, mechanism = EXPECTED_HORIZONTAL[name]
    horizontal = record_for(verdict, (0, 1))
    assert horizontal.label == label
    assert horizontal.mechanism == mechanism


EXCLUDING_MECHANISMS = ("transverse crossing cylinder", "period forcing",
                        "window forcing")


def has_simple_cylinder(d):
    return any(len(bottom) == 1 and len(top) == 1 for bottom, top in
               zip(d.diagram.bottom_words, d.diagram.top_words))


def test_case5_excluded_through_a_simple_cylinder_direction():
    """The Case 5 exemplar defers to the direction of a simple cylinder
    over a saddle of its one cylinder; that direction has at least two
    cylinders, the simple one among them, and excludes."""
    o = exemplar("Case5")
    verdict = classify_surface(o)
    assert verdict.status == "TrivialForni"
    first, second = verdict.evidence
    assert (first.slope, first.label) == ((0, 1), "Case5")
    assert second.slope == first.witness
    record, excludes, d = analyze(o, first.witness)
    assert excludes and record == second
    assert len(d.cylinders) >= 2 and has_simple_cylinder(d)


# the two 7-square surfaces whose four bound-1 directions are all Case 5,
# which the slope walk left undetermined at bound 1, with the slopes of
# the simple cylinders they defer to
SEVEN_CASE5 = {
    'origami n=7 h="(0 6 3 4 1 2 5)" v="(0 1 6 5 3 2 4)"': (1, 2),
    'origami n=7 h="(0 5 1 6 2 3 4)" v="(0 1 3 5 2 4 6)"': (1, -2)}
CASE5_SEVEN = next(iter(SEVEN_CASE5))
# Case 5 or Lagrangian core curves (cycle rank 3, no case label) in every
# direction up to bound 3
LAGRANGIAN_CASE5 = 'origami n=5 h="(1 2 3)" v="(0 1)(3 4)"'


def test_case5_defers_to_its_simple_cylinder(monkeypatch):
    """Both 7-square surfaces that no direction up to bound 1 decided are
    ``TrivialForni`` from two records: the horizontal Case 5 record, whose
    witness is the slope of its simple cylinder, and that direction's
    Lagrangian record."""
    for text, slope in SEVEN_CASE5.items():
        o = parse_origami(text)
        assert [analyze(o, s)[0].label for s in enumerate_slopes(1)] == \
            ["Case5"] * 4
        verdict = classify_surface(o)
        assert verdict.status == "TrivialForni"
        assert verdict.evidence == (
            DirectionRecord((0, 1), "Case5",
                            "defer to a simple transverse cylinder", slope),
            DirectionRecord(slope, None, "Lagrangian core curves", 3))

    def no_basis(*args, **kwargs):
        raise AssertionError("the Lagrangian rule built a homology basis")

    monkeypatch.setattr(homology, "HomologyBasis", no_basis)
    o = parse_origami(LAGRANGIAN_CASE5)
    verdict = classify_surface(o)
    assert verdict.status == "TrivialForni"
    assert verdict.evidence == (
        DirectionRecord((0, 1), None, "Lagrangian core curves", 3),)
    records = [analyze(o, s)[0]
               for s in enumerate_slopes(3)]
    assert len(records) == 16
    assert {r.label for r in records} <= {"Case5", None}
    assert all(r.mechanism == "Lagrangian core curves"
               for r in records if r.label is None)


# one 6 x 2 cylinder, the vertical 2-fold stretch of a 6-square class,
# whose simple cylinder has slope (2, -1)
STRETCHED_CASE5 = ('origami n=12 h="(0 1 3 5 4 2)(6 7 9 11 10 8)" '
                   'v="(0 6 1 7 4 10 5 11 2 8 3 9)"')


def test_case5_defers_to_a_slope_of_rise_two():
    """The stretched 6-square class defers to slope (2, -1), which the
    Euclid walk carries to the horizontal in four letters, and that
    direction excludes through a crossing cylinder."""
    o = parse_origami(STRETCHED_CASE5)
    assert o == vertical_stretch(parse_origami(
        'origami n=6 h="(0 1 3 5 4 2)" v="(0 1 4 5 2 3)"'), 2)
    d = horizontal_decomposition(o)
    assert [(c.circumference, c.height) for c in d.cylinders] == [(6, 2)]
    verdict = classify_surface(o)
    assert verdict.status == "TrivialForni"
    first, second = verdict.evidence
    assert first == DirectionRecord(
        (0, 1), "Case5", "defer to a simple transverse cylinder", (2, -1))
    assert (second.slope, second.label, second.mechanism) == \
        ((2, -1), "Case1", "transverse crossing cylinder")
    assert direction_member(o, (2, -1))[0] == ("S", "T^-1", "T^-1", "S")


def test_deferred_record_does_not_depend_on_the_word():
    """Two words carrying one slope to the horizontal differ by ``±Tʲ``,
    so the deferred record's label and mechanism stay the same when the
    member is replaced by ``Tʲ·member``, ``0 <= j < n``, or by
    ``S S·member``.  Checked on the vertical 2- and 3-fold stretches of
    the one-cylinder genus-3 classes up to 6 squares, whose deferrals
    reach slopes of rise 2 and 3."""
    stretched = [vertical_stretch(o, k) for o in classes_of_genus(3, 6)
                 if len(horizontal_decomposition(o).cylinders) == 1
                 for k in (2, 3)]
    assert len(stretched) == 200
    rises, replacements = Counter(), 0
    for o in stretched:
        first, second = classify_surface(o).evidence
        assert first.label == "Case5" and second.slope == first.witness
        rises[abs(second.slope[0])] += 1
        member = direction_member(o, second.slope)[1]
        for word in [("T",) * j for j in range(o.n)] + [("S", "S")]:
            record, excludes = pipeline._analyze_direction(
                horizontal_decomposition(act_sl2z(member, word)),
                second.slope)
            assert excludes, (o, word)
            assert (record.label, record.mechanism) == \
                (second.label, second.mechanism), (o, word)
            replacements += 1
    assert replacements == 3160
    assert rises[2] and rises[3]


# two cylinders with both heights 2: R(1, 2, 0) relabelled
SURVIVOR16 = ('origami n=16 h="(0 1 5 2)(3 6 12 8)(4 9 13 7)(10 15 11 14)" '
              'v="(0 3 10 13 5 12 11 4)(1 6 14 9 2 8 15 7)"')


@pytest.mark.parametrize("text, directions, isomorphisms",
                         [(str(reference_surface()), 1, 1),
                          (SURVIVOR16, 1, 1),
                          (CASE5_SEVEN, 2, 0)],
                         ids=["reference", "survivor16", "case5"])
def test_each_direction_analysed_once(monkeypatch, text, directions,
                                      isomorphisms):
    """At most two directions are analysed, each once: the horizontal one
    through ``horizontal_decomposition`` of the surface itself, the one a
    Case 5 direction defers to through ``periodic_decomposition``.  A
    survivor analyses the horizontal direction alone, builds no member and
    makes one isomorphism test, against its affine image of the reference;
    a Case 5 surface builds the member of the one direction it defers
    to.  The shape lookup of each direction reads the dual graph stored
    on the decomposition analysed there."""
    o = parse_origami(text)
    calls = []

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("horizontal_decomposition", "periodic_decomposition",
                 "_metric_chain", "origami_isomorphism"):
        counted(pipeline, name)
    # periodic_decomposition builds members through the names cylinders
    # imported
    counted(cylinders, "direction_member")
    counted(cylinders, "act_sl2z")
    analysed, looked_up = record_graph_lookups(monkeypatch)
    verdict = classify_surface(o)
    assert len({r.slope for r in verdict.evidence}) == directions
    assert verdict.status == ("TrivialForni" if directions == 2
                              else "WollmilchsauEquivalent")
    assert calls.count("horizontal_decomposition") == 1
    assert calls.count("periodic_decomposition") == directions - 1
    assert len(analysed) == directions
    assert looked_up and all(graph is d.dual_graph for d, graph in looked_up)
    assert calls.count("_metric_chain") == 2 - directions
    assert calls.count("direction_member") == directions - 1
    assert calls.count("act_sl2z") == directions - 1
    assert calls.count("origami_isomorphism") == isomorphisms


def record_graph_lookups(monkeypatch):
    """Record every decomposition ``pipeline._analyze_direction`` analyses,
    and for every ``classify_case`` call the decomposition under analysis
    and the graph it was given."""
    analysed, looked_up = [], []
    analyze, lookup = pipeline._analyze_direction, pipeline.classify_case

    def analyze_recorded(d, slope):
        analysed.append(d)
        return analyze(d, slope)

    def lookup_recorded(graph):
        looked_up.append((analysed[-1], graph))
        return lookup(graph)
    monkeypatch.setattr(pipeline, "_analyze_direction", analyze_recorded)
    monkeypatch.setattr(pipeline, "classify_case", lookup_recorded)
    return analysed, looked_up


# the 16-square survivor, a Case 6 surface with unequal moduli and a
# Case 3 surface with unequal exponents
NAMED_SURFACES = [
    SURVIVOR16,
    'origami n=12 h="(0 1 2 3)(4 7 6 5)(8 9 10 11)" '
    'v="(0 4 8 2 6 10)(1 5 11 3 7 9)"',
    'origami n=10 h="(0 6 5)(2 3 4)(7 8 9)" v="(0 7 2 5 9 4)(1 3 6 8)"']


# the surfaces the console-script step of the CI workflow analyses
CI_SURFACES = [
    'origami n=8 h="(0 7 2 4)(1 5 3 6)" v="(0 5 2 6)(1 4 3 7)"',
    'origami n=5 h="(1 2 3)" v="(0 1)(3 4)"',
    'origami n=6 h="(1 3 2 4)" v="(0 5 2 1)"',
    'origami n=8 h="(0 1 6 7)(2 5 3)" v="(0 4)(1 2)(3 6 5 7)"',
    'origami n=7 h="(0 6 5)(2 3 4)" v="(0 2 5 4)(1 3 6)"',
    'origami n=6 h="(0 2 1 5 4 3)" v="(0 2)(3 5 4)"',
    'origami n=12 h="(0 1 2 3)(4 7 6 5)(8 9 10 11)" '
    'v="(0 4 8 2 6 10)(1 5 11 3 7 9)"',
    'origami n=8 h="(0 7 5 3)(1 4 6 2)" v="(0 6 7 1 3 4 5 2)"',
    BOUNDARY_4A,
    SURVIVOR16,
    'origami n=7 h="(0 6 3 4 1 2 5)" v="(0 1 6 5 3 2 4)"']
# random surfaces in the parity test, as many as the per-slope comparison it
# replaced drew (3000 in a run outside the suite)
PARITY_RANDOM = 500


def test_enumerate_slopes():
    slopes = enumerate_slopes(2)
    assert slopes[:2] == [(0, 1), (1, 0)]
    assert (1, 1) in slopes and (-1, 2) in slopes
    assert (2, 2) not in slopes
    assert len(slopes) == len(set(slopes))


def test_verdict_matches_the_per_slope_loop():
    """The two-direction verdict has the status of the bound-3 slope walk
    wherever the walk decides, on the reference and relabelled copies of
    it, the named and CI surfaces, the exemplars and random surfaces of
    5-14 squares.  Its first record is the walk's; when that record
    excludes, the trail is that record alone, as the walk's is, and a
    Case 5 record is followed by the analysis of its slope.  Lagrangian
    records carry the cycle rank 3 of a genus-0 pinch.  The ignored
    ``direction_bound`` keyword leaves the verdict as it is."""
    rng = random.Random(1919)
    surfaces = [reference_surface()]
    surfaces += [relabelled(rng, reference_surface()) for _ in range(20)]
    surfaces += [parse_origami(text) for text in NAMED_SURFACES]
    surfaces += [parse_origami(text) for text in CI_SURFACES]
    surfaces += [parse_origami(text) for text in SEVEN_CASE5]
    surfaces += [exemplar(name) for name in sorted(EXEMPLARS)]
    surfaces += [random_genus3(rng, 5, 14) for _ in range(PARITY_RANDOM)]
    statuses, undecided, deferred = Counter(), 0, 0
    for index, o in enumerate(surfaces):
        verdict = classify_surface(o)
        oracle = survivor_oracle.classify_per_slope(o, 3)
        if oracle.status == "Undetermined":
            undecided += 1
        else:
            assert verdict.status == oracle.status, o
        statuses[verdict.status] += 1
        first = verdict.evidence[0]
        assert first == oracle.evidence[0], o
        if first.label == "Case5":
            deferred += 1
            assert verdict.evidence[1] == analyze(o, first.witness)[0], o
            assert len(verdict.evidence) == 2
        elif verdict.status == "TrivialForni":
            assert verdict.evidence == oracle.evidence, o
        else:
            assert verdict.evidence[-1].witness.constraint == \
                oracle.evidence[-1].witness.constraint, o
        for r in verdict.evidence:
            # the rank is recomputed from a homology basis on the first
            # surfaces only, a basis being slow to build
            if r.mechanism == "Lagrangian core curves" and index < 400:
                d = periodic_decomposition(o, r.slope)
                assert r.witness == core_span_rank(d) == 3
                assert sum(d.dual_graph.genera) == 0
    assert statuses["WollmilchsauEquivalent"] == 24
    assert deferred > 20 and undecided < deferred
    o = parse_origami(CASE5_SEVEN)
    assert classify_surface(o, direction_bound=3) == classify_surface(o)


REFERENCE_KEY = horizontal_decomposition(reference_surface()).diagram \
    .canonical_key()


def test_census_up_to_seven_squares():
    """One pass over every genus-3 origami on at most seven squares, up to
    isomorphism.  Every Case 5 horizontal direction defers to a direction
    that excludes and shows the simple cylinder; every status is the bound-3
    slope walk's wherever the walk decides; and the status does not change
    along an edge ``T`` or ``S`` of the ``SL(2, Z)``-orbit graph, so every
    member of an orbit gets the same status.  The walk is run where the
    horizontal direction excludes nothing: elsewhere it stops at the same
    horizontal record, as :func:`test_verdict_matches_the_per_slope_loop`
    checks."""
    census = classes_of_genus(3, 7)
    assert len(census) == 40 + 479 + 2645
    statuses, deferred, undecided = {}, Counter(), 0
    for o in census:
        verdict = classify_surface(o)
        statuses[o] = verdict.status
        first = verdict.evidence[0]
        if len(verdict.evidence) == 1:
            continue
        if first.label == "Case5":
            record, excludes, d = analyze(o, first.witness)
            assert excludes and verdict.evidence == (first, record), o
            assert len(d.cylinders) >= 2 and has_simple_cylinder(d), o
            deferred[record.label, record.mechanism] += 1
        oracle = survivor_oracle.classify_per_slope(o, 3).status
        if oracle == "Undetermined":
            undecided += 1
        else:
            assert verdict.status == oracle, o
    for o in census:
        for letter in ("T", "S"):
            assert statuses[canonical_form(act_sl2z(o, [letter]))] == \
                statuses[o], (o, letter)
    # no genus-3 origami below eight squares is the reference's image
    assert set(statuses.values()) == {"TrivialForni"}
    assert deferred == {(None, "Lagrangian core curves"): 405,
                        ("Case1", "transverse crossing cylinder"): 160,
                        ("Case3", "period forcing"): 4}
    assert undecided == 0


def twisted_reference(a, h, t0, t1):
    """The reference with every square cut into an ``a`` by ``h`` block
    and the top of cylinder ``c`` glued ``t_c`` squares further right:
    twists ``(t0, t1)`` on the reference diagram, built from the
    reference's permutations square by square."""
    ref = reference_surface()
    twist = {s: (t0 if s < 4 else t1) for s in range(8)}

    def label(s, i, j):
        return (s * h + j) * a + i

    def right(s, i, j, k=1):
        # k steps to the right along the row of (s, i, j)
        i += k
        while i >= a:
            s, i = ref.h[s], i - a
        while i < 0:
            s, i = ref.h.index(s), i + a
        return s, i, j

    n = 8 * a * h
    hp, vp = [0] * n, [0] * n
    for s in range(8):
        for i in range(a):
            for j in range(h):
                hp[label(s, i, j)] = label(*right(s, i, j))
                if j + 1 < h:
                    vp[label(s, i, j)] = label(s, i, j + 1)
                else:
                    u, k, _ = right(s, i, j, -twist[s])
                    vp[label(s, i, j)] = label(ref.v[u], k, 0)
    return build_origami(hp, vp)


def test_twist_family_is_certified_exactly_at_equal_twists():
    """Every twist pair on the reference diagram with saddle length
    ``a <= 3`` and height ``h <= 4``, relabelled at random: 896 surfaces.
    Exactly the 96 with equal twists ``t`` are certified, each by the
    matrix ``((a, t mod a), (0, h))`` and a relabelling onto
    ``R(a, h, t mod a)``; every other one is excluded by window forcing in
    the horizontal direction."""
    rng = random.Random(2424)
    certified = total = 0
    for a in (1, 2, 3):
        for h in (1, 2, 3, 4):
            for t0, t1 in itertools.product(range(4 * a), repeat=2):
                o = relabelled(rng, twisted_reference(a, h, t0, t1))
                verdict = classify_surface(o)
                total += 1
                if t0 != t1:
                    assert verdict.status == "TrivialForni", (a, h, t0, t1)
                    assert [r.mechanism for r in verdict.evidence] == \
                        ["window forcing"]
                    continue
                certified += 1
                assert verdict.status == "WollmilchsauEquivalent"
                result = verdict.evidence[-1].witness
                assert result.matrix == ((a, t0 % a), (0, h))
                image, p = affine_reference(a, h, t0 % a), result.relabelling
                assert all(p[o.h[i]] == image.h[p[i]] and
                           p[o.v[i]] == image.v[p[i]] for i in range(o.n))
    assert (total, certified) == (896, 96)


def test_relabelled_copy_keeps_the_deferral_and_the_certificate():
    """A relabelled copy defers to the same slope, through the same
    records, and is certified by the same matrix."""
    rng = random.Random(77)
    case5 = [parse_origami(text) for text in SEVEN_CASE5]
    case5 += [exemplar("Case5")]
    case5 += [o for o in (random_genus3(rng, 5, 12) for _ in range(400))
              if analyze(o, (0, 1))[0].label == "Case5"]
    assert len(case5) > 20
    for o in case5:
        own = classify_surface(o).evidence
        for _ in range(3):
            other = classify_surface(relabelled(rng, o)).evidence
            assert other[0] == own[0], o
            assert (other[1].slope, other[1].label, other[1].mechanism) == \
                (own[1].slope, own[1].label, own[1].mechanism), o
    for a, h, t in ((1, 1, 0), (1, 2, 0), (2, 1, 1), (3, 2, 2)):
        o = affine_reference(a, h, t)
        for _ in range(3):
            copy = relabelled(rng, o)
            assert classify_surface(copy).evidence[-1].witness.matrix == \
                ((a, t), (0, h))


# the full report of each exemplar: one label per pinch shape in the
# label column
EXEMPLAR_REPORTS = {
    "Case1": "  slope (0, 1)   Case1     transverse crossing cylinder\n",
    "Case2": "  slope (0, 1)   Case2     transverse crossing cylinder\n",
    "Case3": "  slope (0, 1)   Case3     period forcing\n",
    "Case4A": "  slope (0, 1)   Case4     transverse crossing cylinder\n",
    "Case4B": "  slope (0, 1)   Case4     transverse crossing cylinder\n",
    "Case5":
        "  slope (0, 1)   Case5     defer to a simple transverse cylinder\n"
        "    -> simple cylinder at slope (1, 0)\n"
        "  slope (1, 0)   -         Lagrangian core curves\n",
    "Case6":
        "  slope (0, 1)   Case6     window forcing\n"
        "    -> window inequalities violated\n"
        "    -> t0=1/3 s0=1/3 t_start=0 slack=-1/3\n"
        "    -> violated: t_start <= 1 - 2*t0 - 2*s0\n",
}


def test_verdict_text_names_the_deferral_and_the_certificate():
    """The label column prints ``-`` for a Lagrangian record and the
    shape's label for every other, on the exemplar of each shape, a Case 5
    record names its slope, and a survivor prints its matrix and
    relabelling."""
    assert set(EXEMPLAR_REPORTS) == set(EXEMPLARS)
    for name, records in EXEMPLAR_REPORTS.items():
        assert render_report(classify_surface(exemplar(name))) == (
            "classification: TrivialForni\n"
            "directions analyzed: %d\n"
            "\n" % records.count("  slope ") + records), name
    text = render_report(classify_surface(parse_origami(CASE5_SEVEN)))
    assert text == (
        "classification: TrivialForni\n"
        "directions analyzed: 2\n"
        "\n"
        "  slope (0, 1)   Case5     defer to a simple transverse cylinder\n"
        "    -> simple cylinder at slope (1, 2)\n"
        "  slope (1, 2)   -         Lagrangian core curves\n")
    text = render_report(classify_surface(parse_origami(SURVIVOR16)))
    assert text.endswith(
        "  slope (0, 1)   Case6     affine image of the reference\n"
        "    -> window forcing resolves to the reference diagram\n"
        "    -> t0=1/4 s0=1/4 t_start=0 slack=0\n"
        "    -> affine image of the reference: [[1, 0], [0, 2]]\n"
        "    -> relabelling: 0 1 3 4 14 2 5 15 7 13 8 10 6 12 9 11\n")
    assert text.startswith("classification: WollmilchsauEquivalent\n"
                           "directions analyzed: 1\n")




# one representative of each 7-square SL(2,Z)-orbit whose members the
# Case 1-6 mechanisms alone leave split between TrivialForni and
# Undetermined at bound 3
SPLIT_ORBITS = [("(0 1 3 4 5 6 2)", v) for v in (
    "(0 3 1 5 6 2 4)", "(0 2 6 5 1 4 3)", "(0 2 5 1 4 6 3)",
    "(0 2)(1 4 3 5)", "(0 2)(1 4 6 5)")] + \
    [("(0 1 3 4 6 5 2)", "(1 2 6 4)(3 5)")]


@pytest.mark.parametrize("h, v", SPLIT_ORBITS,
                         ids=[v.replace(" ", "_") for _, v in SPLIT_ORBITS])
def test_split_orbits_are_trivial_forni(h, v):
    members = orbit_graph(parse_origami('origami n=7 h="%s" v="%s"'
                                        % (h, v))).members
    for o in members:
        assert classify_surface(o).status == "TrivialForni", o

    def lagrangian_only(o):
        return {r.mechanism for r, excludes, _ in
                (analyze(o, s)
                 for s in enumerate_slopes(3))
                if excludes} == {"Lagrangian core curves"}

    # a member that only the Lagrangian rule decides
    assert any(lagrangian_only(o) for o in members)


def tied_case6(d):
    """Whether some cylinder of the Case 6 decomposition ``d`` has two
    longest bottom saddles, the tie that the window extraction breaks by
    word order without changing ``t_start``."""
    for word in d.diagram.bottom_words:
        lengths = [d.saddle_lengths[s] for s in word]
        if lengths.count(max(lengths)) > 1:
            return True
    return False


def order_dependent_window(d):
    """Whether the Case 6 decomposition ``d`` has equally long longest
    saddles on its two bottoms and a ``t_start`` that depends on which
    cylinder comes first, the choice the metric chain makes without
    reference to labels."""
    first, second = (pipeline._window_extraction(d, *order)
                     for order in ((0, 1), (1, 0)))
    return first[0] == second[0] and first[2] != second[2]


# a Case 6 surface whose excluding window record gave t_start 0, while its
# relabelled copy below gave 2/3, when the cylinder order followed labels
ORDER_DEPENDENT_CASE6 = ('origami n=6 h="(0 1 2)(3 4 5)" v="(0 3 1 5 2 4)"',
                         'origami n=6 h="(0 5 3)(1 4 2)" v="(0 4 3 2 5 1)"')


def test_direction_record_is_invariant_under_relabelling():
    """The record of a direction is the record of its member's horizontal
    direction, and that record does not change when the member's squares
    are relabelled, so the verdict does not depend on square labels.  A
    Case 5 record, whose witness is the slope it defers to, is compared
    whole.  A transverse crossing cylinder
    names the member's cylinders and saddles, so for it the label and
    mechanism are compared; every other record, the excluding window and
    period forcing records included, is compared whole.  A boundary
    exchange of another genus than 3, which :func:`classify_surface`
    refuses, can have a pinch of none of the six shapes; its analysis
    raises, and so does that of the relabelled copy.  A Lagrangian record
    has the genus as its cycle rank."""
    rng = random.Random(1010)
    surfaces = [act_sl2z(reference_surface(), list(w)) for w in WORDS]
    for h, v in SPLIT_ORBITS:
        surfaces += sorted(orbit_graph(parse_origami(
            'origami n=7 h="%s" v="%s"' % (h, v))).members, key=str)
    surfaces += [random_genus3(rng, 5, 12) for _ in range(120)]
    surfaces += [parse_origami(ORDER_DEPENDENT_CASE6[0])]
    surfaces += [random_boundary_exchange(rng) for _ in range(30)]
    compared = ties = excluding = order_dependent = unlabelled = 0
    for o in surfaces:
        for slope in enumerate_slopes(3):
            x = direction_member(o, slope)[1]
            copy = relabelled(rng, x)
            try:
                record, excludes, d = analyze(o, slope)
            except InvariantViolation:
                assert singularity_data(o).genus != 3, (o, slope)
                with pytest.raises(InvariantViolation, match="six shapes"):
                    analyze(copy, (0, 1))
                unlabelled += 1
                continue
            if record.label is None:
                assert record.witness == d.dual_graph.genus, (o, slope)
            own = record._replace(slope=(0, 1))
            if not excludes:
                assert analyze(x, (0, 1))[0] == own, \
                    (o, slope)
            other = analyze(copy, (0, 1))[0]
            if own.mechanism == "transverse crossing cylinder":
                assert (other.label, other.mechanism) == \
                    (own.label, own.mechanism), (x, copy)
            else:
                assert other == own, (x, copy)
            compared += 1
            excluding += excludes
            if record.label == "Case6":
                if excludes:
                    order_dependent += order_dependent_window(d)
                else:
                    ties += tied_case6(d)
    # at this seed: 3271 non-excluding directions, 96 of them tied Case 6,
    # 6437 excluding ones, 16 of them Case 6 windows whose t_start depends
    # on the cylinder order, and 84 unlabelled ones of other genera, ten of
    # them of cycle rank 3
    assert compared - excluding > 3000
    assert ties > 50
    assert excluding > 6000
    assert order_dependent > 10
    assert unlabelled > 80
    own, other = (analyze(parse_origami(text), (0, 1))[0]
                  for text in ORDER_DEPENDENT_CASE6)
    assert own.mechanism == "window forcing"
    assert other == own


def test_lagrangian_rule_needs_the_full_genus():
    """Core curves span a Lagrangian subspace when the cycle rank of the
    pinch graph is the genus.  On a genus-4 boundary exchange the
    direction (1, 1) has cycle rank 4 and gets the Lagrangian record; the
    direction (2, 1) has cycle rank 3, short of the genus, matches none of
    the six shapes and raises."""
    o = parse_origami('origami n=10 h="(0 1 2 3 4)(5 6 7 8 9)" '
                      'v="(0 6 2 7 3 5 4 9)(1 8)"')
    assert singularity_data(o).genus == 4
    record, excludes, _ = analyze(o, (1, 1))
    assert record == DirectionRecord((1, 1), None, "Lagrangian core curves",
                                     4)
    assert excludes
    with pytest.raises(InvariantViolation, match="cycle rank 3 and genus "
                       "labels summing to 1 matches none of the six shapes"):
        analyze(o, (2, 1))


def net_window_extraction(d, c1, c2):
    """The window coordinates computed in exact rationals on the metric net
    of the decomposition: the oracle for the integer extraction.  Every
    choice among tied longest bottom saddles gives the same coordinates."""
    net = decomposition_net(d)
    w = Fraction(net.cylinders[c1].circumference)
    assert net.cylinders[c2].circumference == w

    def longest_bottoms(cid):
        word = net.diagram.bottom_words[cid]
        longest = max(net.saddle_lengths[s] for s in word)
        return [s for s in word if net.saddle_lengths[s] == longest]

    half = Fraction(1, 2)
    triples = set()
    for tau0 in longest_bottoms(c1):
        for sigma0 in longest_bottoms(c2):
            t0 = net.saddle_lengths[tau0] / w
            s0 = net.saddle_lengths[sigma0] / w
            q1 = net.bottom_positions[tau0] / w
            q2 = net.top_positions[tau0] / w
            p1 = net.top_positions[sigma0] / w
            p2 = net.bottom_positions[sigma0] / w
            t_close = ((q2 - q1 + p1 - p2) % 1) / 2
            gap = ((p1 - t_close - q1) % 1) % half
            t_start = (2 * ((gap - t0) % half)) % 1
            triples.add((t0, s0, t_start))
    assert len(triples) == 1, (d.origami, c1, triples)
    return triples.pop()


def random_boundary_exchange(rng):
    """A random origami of two horizontal k x 1 cylinders, 2 <= k <= 5,
    each top glued to the other's bottom."""
    while True:
        k = rng.randint(2, 5)
        h = perm_from_cycles([tuple(range(k)), tuple(range(k, 2 * k))],
                             2 * k)
        up, down = list(range(k, 2 * k)), list(range(k))
        rng.shuffle(up)
        rng.shuffle(down)
        o = build_origami(h, tuple(up + down))
        if len(horizontal_decomposition(o).cylinders) == 2:
            return o


WORDS = ((), ("T",), ("S",), ("T", "S"), ("S", "T^-1"))


def is_case6(d):
    """Whether decomposition ``d`` is Case 6.  ``classify_case`` names the
    pinch shapes of genus 3 and cycle rank 1 or 2 and raises on any other
    graph, so the genus and the cycle rank are checked first."""
    graph = d.dual_graph
    return graph.genus == 3 and graph.cycle_rank < 3 and \
        classify_case(graph) == "Case6"


def feasible_window_has_quarter_saddles(o, d, slope):
    """On a Case 6 decomposition ``d`` of ``o`` at ``slope`` whose metric
    chain is consistent, every saddle is a quarter circumference long and
    the stratum is H(1,1,1,1): the counting argument that lets the final
    step compare diagrams alone.  Returns whether ``d`` is such a
    decomposition."""
    if not is_case6(d) or not pipeline._metric_chain(d):
        return False
    w = len(d.cylinders[0].rows[0])
    assert all(4 * length == w for length in d.saddle_lengths), \
        (o, slope)
    assert str(singularity_data(o)) == "H(1,1,1,1)"
    return True


@pytest.mark.parametrize("word", WORDS, ids=lambda w: "".join(w) or "id")
def test_feasible_windows_force_quarter_saddles(word):
    image = act_sl2z(reference_surface(), list(word))
    feasible = [feasible_window_has_quarter_saddles(
        image, periodic_decomposition(image, slope), slope)
        for slope in enumerate_slopes(3)]
    assert any(feasible)


def test_random_feasible_windows_force_quarter_saddles(rng):
    """Feasible windows are rare among random boundary-exchanging
    surfaces, so draw until five horizontal decompositions have one (1356
    draws at the fixture's seed) and check the saddle count on each."""
    found = draws = 0
    while found < 5 and draws < 3000:
        o = random_boundary_exchange(rng)
        draws += 1
        found += feasible_window_has_quarter_saddles(
            o, horizontal_decomposition(o), (0, 1))
    assert found == 5, draws


def window_coordinates(d, c1, c2):
    """The window coordinates of cylinder ``c1`` against ``c2`` as
    fractions of their common circumference."""
    w = d.cylinders[c1].circumference
    return tuple(Fraction(x, w) for x in
                 pipeline._window_extraction(d, c1, c2))


def fraction_view(chain):
    """The integer metric chain ``chain`` as the fraction oracle states it:
    each window numerator over ``w``, the record's slack over ``w``, and
    the quarter bound as ``min_saddle = 1/4``.  Raises ``AssertionError``
    unless every window value is an ``int``."""
    c, rec = chain.constraint, chain.record
    if c is None:
        return chain
    values = (c.t0, c.s0, c.t_start, c.w, rec.slack)
    assert all(type(x) is int for x in values), values
    constraint = survivor_oracle.WindowConstraint(
        Fraction(c.t0, c.w), Fraction(c.s0, c.w), Fraction(c.t_start, c.w),
        Fraction(1, 4))
    record = survivor_oracle.FeasibilityRecord(
        rec.feasible, Fraction(rec.slack, c.w), rec.violated, rec.feasible)
    return chain._replace(constraint=constraint, record=record)


def test_window_extraction_matches_net_oracle(rng):
    ref = horizontal_decomposition(reference_surface())
    quarter = Fraction(1, 4)
    assert pipeline._window_extraction(ref, 0, 1) == (1, 1, 0)
    assert window_coordinates(ref, 0, 1) == (quarter, quarter, 0)
    assert net_window_extraction(ref, 0, 1) == (quarter, quarter, 0)
    extractions, triples = 0, set()
    while extractions < 300:
        o = random_boundary_exchange(rng)
        for word in WORDS:
            image = act_sl2z(o, list(word))
            for slope in enumerate_slopes(3):
                d = periodic_decomposition(image, slope)
                if not is_case6(d):
                    continue
                feasible_window_has_quarter_saddles(image, d, slope)
                for c1, c2 in ((0, 1), (1, 0)):
                    triple = window_coordinates(d, c1, c2)
                    assert triple == net_window_extraction(d, c1, c2), \
                        (image, slope, c1)
                    triples.add(triple)
                    extractions += 1
    assert len(triples) > 10


def test_window_extraction_rejects_unequal_circumferences():
    d = horizontal_decomposition(l_origami())
    assert [len(c.rows[0]) for c in d.cylinders] == [2, 1]
    with pytest.raises(InvariantViolation, match="circumferences"):
        pipeline._window_extraction(d, 0, 1)


def test_case6_unequal_moduli_are_forced_away():
    # the reference diagram with cylinder heights 1 and 2
    o = parse_origami('origami n=12 h="(0 1 2 3)(4 7 6 5)(8 9 10 11)" '
                      'v="(0 4 8 2 6 10)(1 5 11 3 7 9)"')
    verdict = classify_surface(o)
    assert verdict.status == "TrivialForni"
    horizontal = record_for(verdict, (0, 1))
    assert horizontal.label == "Case6"
    chain = horizontal.witness
    assert not chain
    assert chain.reason == "unequal moduli are forced away"
    assert chain.forcing.branch == "unequal_exponents"


def exchanging_cylinders(heights, twist, a_to_b, b_to_a):
    """Two cylinders A, B of circumference 4 and the given heights, A's
    rows glued with ``twist``, the top row of A glued to the bottom row of
    B by ``a_to_b`` and the top row of B to the bottom row of A by
    ``b_to_a``."""
    ha, hb = heights
    rows = [[4 * r + i for i in range(4)] for r in range(ha + hb)]
    h, v = [0] * (4 * (ha + hb)), [0] * (4 * (ha + hb))
    for r, row in enumerate(rows):
        for i, x in enumerate(row):
            h[x] = row[(i + 1) % 4]
            if r == ha - 1:
                v[x] = rows[ha][a_to_b[i]]
            elif r == ha + hb - 1:
                v[x] = rows[0][b_to_a[i]]
            else:
                v[x] = rows[r + 1][(i + twist) % 4 if r < ha else i]
    return Origami(tuple(h), tuple(v))


def test_consistent_window_chain_is_the_reference_diagram():
    """A consistent horizontal chain forces quarter saddles, four on each
    bottom, so H(1,1,1,1); its one boundary-exchanging diagram is the
    reference one.  Checked on every boundary exchange of two cylinders of
    circumference 4."""
    gluings = list(itertools.permutations(range(4)))
    case6 = consistent = 0
    for heights, twist, a_to_b, b_to_a in itertools.product(
            ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1)), range(4), gluings,
            gluings):
        o = exchanging_cylinders(heights, twist, a_to_b, b_to_a)
        d = horizontal_decomposition(o)
        if not is_case6(d):
            continue
        case6 += 1
        chain = pipeline._metric_chain(d)
        # the integer chain against the Fraction one
        assert fraction_view(chain) == survivor_oracle.metric_chain(d), o
        assert moduli_exponents(d) == survivor_oracle.moduli_exponents(d)
        if chain:
            consistent += 1
            assert d.diagram.canonical_key() == REFERENCE_KEY, o
            assert classify_surface(o).status == \
                "WollmilchsauEquivalent", o
    assert case6 == 8000
    assert consistent == 32


def test_integer_chain_matches_the_fraction_oracle():
    """The moduli exponents of every direction up to bound 3, and the
    metric chain of every Case 6 one, equal those computed in fractions
    from the cylinder moduli, on random surfaces and boundary exchanges,
    the reference and the surfaces above, and on random lists of rational
    moduli.  The chain holds integer window numerators over ``w``, which
    read as the oracle's fractions, and its window inequalities, decided
    on those numerators, give the oracle's record."""
    rng = random.Random(2020)
    surfaces = [random_genus3(rng, 5, 12) for _ in range(150)]
    surfaces += [random_boundary_exchange(rng) for _ in range(150)]
    surfaces += [reference_surface()]
    surfaces += [parse_origami(text) for text in NAMED_SURFACES]
    directions = chains = 0
    feasible = set()
    for o in surfaces:
        for slope in enumerate_slopes(3):
            d = periodic_decomposition(o, slope)
            assert moduli_exponents(d) == \
                survivor_oracle.moduli_exponents(d), (o, slope)
            directions += 1
            if is_case6(d):
                chain = pipeline._metric_chain(d)
                assert fraction_view(chain) == \
                    survivor_oracle.metric_chain(d), (o, slope)
                chains += 1
                feasible.add(chain.reason)
    assert directions == 16 * len(surfaces)
    assert chains > 150
    assert feasible == {"unequal moduli are forced away",
                        "window inequalities violated",
                        "metric constraints consistent"}
    # stacks of random shape, read through their moduli by the oracle
    for _ in range(500):
        shapes = [(rng.randint(1, 30), rng.randint(1, 30))
                  for _ in range(rng.randint(1, 5))]
        stub = SimpleNamespace(cylinders=tuple(
            Cylinder(((0,) * width,) * height, width, height)
            for height, width in shapes))
        assert moduli_exponents(stub) == \
            survivor_oracle.moduli_exponents(stub) == \
            survivor_oracle.moduli_exponents(
                [Fraction(height, width) for height, width in shapes]), shapes


def test_window_text_prints_reduced_fractions():
    """The report prints each window numerator over ``w`` as ``str`` of the
    fraction does: in lowest terms, a whole value without a denominator
    and the sign on the numerator.  A horizontal Case 6 chain with quarter
    and half values and a negative slack shows each form."""
    for w in range(1, 25):
        for n in range(-2 * w, 2 * w + 1):
            assert pipeline._over(n, w) == str(Fraction(n, w)), (n, w)
    text = render_report(classify_surface(reference_surface()))
    assert "    -> t0=1/4 s0=1/4 t_start=0 slack=0\n" in text
    o = parse_origami('origami n=8 h="(0 7 5 3)(1 4 6 2)" '
                      'v="(0 6 7 1 3 4 5 2)"')
    chain = classify_surface(o).evidence[0].witness
    assert chain.constraint == transverse.WindowConstraint(2, 1, 3, 4)
    assert chain.record.slack == -2
    assert render_report(classify_surface(o)).endswith(
        "    -> t0=1/2 s0=1/4 t_start=3/4 slack=-1/2\n"
        "    -> violated: t_start <= 1 - 2*t0 - 2*s0\n")


def test_case6_nonreference_excluded_by_window():
    verdict = classify_surface(exemplar("Case6"))
    horizontal = record_for(verdict, (0, 1))
    chain = horizontal.witness
    assert not chain
    assert chain.reason == "window inequalities violated"
    assert not chain.record.feasible


def test_catalog_counts():
    assert len(enumerate_diagrams((1, 1), "one_cylinder")) == 1
    assert len(enumerate_diagrams((2,), "one_cylinder")) == 1
    assert len(enumerate_diagrams((1, 1, 1, 1), "case6")) == 1
    assert len(enumerate_diagrams((2,), "case6")) == 0
    assert len(enumerate_diagrams((2, 1, 1), "case6")) == 1


@pytest.mark.parametrize("kappa", [(2,), (1, 1), (4,), (3, 1), (2, 2),
                                   (2, 1, 1)],
                         ids=lambda k: "H" + ",".join(map(str, k)))
def test_one_cylinder_catalog_matches_brute_force(kappa):
    # every v, not only v[0] = 0, for the m-cycle h
    m = sum(kappa) + len(kappa)
    h = tuple((i + 1) % m for i in range(m))
    keys = set()
    for v in itertools.permutations(range(m)):
        o = build_origami(h, v)
        if singularity_data(o).kappa == kappa:
            keys.add(horizontal_decomposition(o).diagram.canonical_key())
    catalog = enumerate_diagrams(kappa, "one_cylinder")
    assert [d.canonical_key() for d in catalog.diagrams] == sorted(keys)


CATALOG_STRATA = [(2,), (1, 1), (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


@pytest.mark.parametrize("kappa", CATALOG_STRATA,
                         ids=lambda k: "H" + ",".join(map(str, k)))
def test_catalog_matches_the_oracle(kappa):
    # the same representative diagrams in the same order as the scan over
    # every candidate gluing, not only the same keys; each diagram's words
    # carry its stratum: a zero of order k is a (k + 1)-cycle of τ∘β⁻¹
    for shape, oracle in catalog_oracle.DIAGRAMS.items():
        catalog = enumerate_diagrams(kappa, shape)
        expected = oracle(catalog.stratum)
        assert len(catalog.diagrams) == len(expected), shape
        for got, want in zip(catalog.diagrams, expected):
            assert got.bottom_words == want.bottom_words, shape
            assert got.top_words == want.top_words, shape
            starts = Counter(a for a, _ in
                             decomposition_oracle.word_zeros(got).values())
            assert tuple(sorted((k - 1 for k in starts.values()),
                                reverse=True)) == catalog.stratum.kappa, shape


def catalog_bottoms(kappa, into):
    """The fixed bottom words of a catalog search: the ``m = sum(k + 1)``
    saddles in order, split into one word per cylinder, the longer
    first."""
    m = sum(kappa) + len(kappa)
    if len(into) == 1:
        return (tuple(range(m)),)
    return tuple(range((m + 1) // 2)), tuple(range((m + 1) // 2, m))


def corner_cycle_lengths(bottoms, tops):
    """The sorted cycle lengths of ``τ∘β⁻¹`` on the words: the number of
    saddles starting at each zero."""
    d = CylinderDiagram(bottoms, tops)
    starts = Counter(a for a, _ in
                     decomposition_oracle.word_zeros(d).values())
    return sorted(starts.values())


@pytest.mark.parametrize("kappa, into", [((1, 1), (0,)), ((3, 1), (0,)),
                                         ((2, 1, 1), (0,)),
                                         ((2, 1, 1), (1, 0))],
                         ids=["H1,1", "H3,1", "H2,1,1", "H2,1,1-case6"])
def test_gluings_are_the_filtered_permutations_in_order(kappa, into):
    # the pruned search against a filter of every list of top words, each
    # top a permutation of the bottom it carries from that bottom's first
    # saddle, by the cycle lengths of τ∘β⁻¹; H(2,1,1) case6 has bottoms of
    # 4 and 3 saddles
    bottoms = catalog_bottoms(kappa, into)
    lengths = sorted(k + 1 for k in kappa)
    candidates = itertools.product(*(
        [(w[0],) + rest for rest in itertools.permutations(w[1:])]
        for w in (bottoms[b] for b in into)))
    expected = [tops for tops in candidates
                if corner_cycle_lengths(bottoms, tops) == lengths]
    assert expected
    assert list(pipeline._top_words(bottoms, into, kappa)) == expected
    if len(into) == 1:
        # one cylinder of unit squares: its top word is the gluing v of
        # the m-cycle h, and τ∘β⁻¹ its corner permutation
        m = len(bottoms[0])
        h = tuple((i + 1) % m for i in range(m))
        gluings = [((0,) + rest,)
                   for rest in itertools.permutations(range(1, m))
                   if sorted(map(len, build_origami(
                       h, (0,) + rest).vertex_orbits())) == lengths]
        assert gluings == expected


CATALOG_PAIRS = [(kappa, shape) for kappa in CATALOG_STRATA
                 for shape in ("one_cylinder", "case6")]


def catalog_id(pair):
    return "H" + ",".join(map(str, pair[0])) + "-" + pair[1]


def top_word_images(tops, bottoms, into):
    """Every image of the top words ``tops`` under a relabelling of the
    saddles that rotates each bottom and permutes the cylinders
    compatibly with ``into`` and the bottom lengths, each top then read
    again from the first saddle of the bottom it carries."""
    cylinders = range(len(into))
    for perm in itertools.permutations(cylinders):
        if any(into[perm[c]] != perm[into[c]]
               or len(bottoms[perm[c]]) != len(bottoms[c])
               for c in cylinders):
            continue
        for turns in itertools.product(*(range(len(w)) for w in bottoms)):
            sigma = {}
            for c, w in enumerate(bottoms):
                target = bottoms[perm[c]]
                for i, s in enumerate(w):
                    sigma[s] = target[(i - turns[c]) % len(w)]
            image = [None] * len(into)
            for c, top in enumerate(tops):
                word = [sigma[s] for s in top]
                t = word.index(bottoms[into[perm[c]]][0])
                image[perm[c]] = tuple(word[t:] + word[:t])
            yield tuple(image)


@pytest.mark.parametrize("pair", CATALOG_PAIRS, ids=catalog_id)
def test_catalog_decomposes_and_keys_each_diagram_once(pair, monkeypatch):
    # each image of each list of top words is again a list of the search,
    # and the catalog keys exactly the lists that no image makes smaller,
    # in search order, one per diagram
    kappa, shape = pair
    into = pipeline._SHAPES[shape]
    bottoms = catalog_bottoms(kappa, into)
    lists = list(pipeline._top_words(bottoms, into, kappa))
    least = []
    for tops in lists:
        orbit = set(top_word_images(tops, bottoms, into))
        assert tops in orbit
        assert orbit <= set(lists), tops
        if tops == min(orbit):
            least.append(tops)
    keyed = []
    key = CylinderDiagram.canonical_key

    def recorded_key(diagram):
        keyed.append(diagram)
        return key(diagram)

    monkeypatch.setattr(CylinderDiagram, "canonical_key", recorded_key)
    catalog = enumerate_diagrams(kappa, shape)
    assert keyed == [CylinderDiagram(bottoms, tops) for tops in least]
    assert len(least) == len(keyed) == len(catalog)


def test_case6_catalog_entry_is_the_reference_diagram():
    catalog = enumerate_diagrams((1, 1, 1, 1), "case6")
    ref = horizontal_decomposition(reference_surface())
    assert catalog.diagrams[0].canonical_key() == \
        ref.diagram.canonical_key()


# an H(2,1,1) surface whose horizontal direction is Case 6 with bottoms of
# 4 and 3 saddles, one of them of length 2: its diagram is the one entry of
# the H(2,1,1) case6 catalog, searched against bottoms of 4 and 3 saddles
UNEQUAL_CASE6 = 'origami n=8 h="(0 4 5 2)(1 7 6 3)" v="(0 3 2 1 5 6)(4 7)"'


def test_case6_catalog_lists_the_unequal_bottoms_diagram():
    (diagram,) = enumerate_diagrams((2, 1, 1), "case6").diagrams
    assert diagram.canonical_key() == horizontal_decomposition(
        parse_origami(UNEQUAL_CASE6)).diagram.canonical_key()


def test_catalog_keys_equal_the_all_anchor_oracle():
    diagrams = [horizontal_decomposition(reference_surface()).diagram,
                horizontal_decomposition(parse_origami(UNEQUAL_CASE6)).diagram]
    for pair in CATALOG_PAIRS:
        diagrams += enumerate_diagrams(*pair).diagrams
    assert len(diagrams) == 30
    for diagram in diagrams:
        assert diagram.canonical_key() == key_oracle.canonical_key(diagram)


def test_case6_catalog_holds_every_key_with_one_more_square():
    # every gluing of two cylinders one square longer than the catalog's,
    # kept by singularity_data and the oracle's pinch classification, so
    # with two more regular corners than the catalog allows
    for kappa in [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]:
        catalog = enumerate_diagrams(kappa, "case6")
        longer = catalog_oracle.case6_diagrams(
            catalog.stratum, (sum(kappa) + len(kappa) + 1) // 2 + 1)
        assert {d.canonical_key() for d in longer} <= \
            {d.canonical_key() for d in catalog.diagrams}, kappa


def test_case6_with_unequal_bottoms_is_excluded_by_window_forcing():
    o = parse_origami(UNEQUAL_CASE6)
    assert singularity_data(o).kappa == (2, 1, 1)
    d = horizontal_decomposition(o)
    assert sorted(map(len, d.diagram.bottom_words)) == [3, 4]
    verdict = classify_surface(o)
    assert verdict.status == "TrivialForni"
    horizontal = record_for(verdict, (0, 1))
    assert (horizontal.label, horizontal.mechanism) == \
        ("Case6", "window forcing")


def test_catalog_rejects_bad_input():
    with pytest.raises(ValueError):
        enumerate_diagrams((1, 1), "three_cylinder")
    with pytest.raises(ValueError):
        enumerate_diagrams((8,), "one_cylinder")
    for kappa in [(0,), (3, -1), (1, 1, 0), ()]:
        with pytest.raises(ValueError):
            enumerate_diagrams(kappa, "one_cylinder")


# the text of every genus 2 and 3 catalog, in CATALOG_PAIRS order, as the
# search over square-tiled gluings printed it
CATALOG_TEXT = """\
stratum H(2), shape one_cylinder: 1 diagram
  diagram 0:
    cyl 0  bottom (0, 1, 2)  top (0, 2, 1)
stratum H(2), shape case6: 0 diagrams
stratum H(1,1), shape one_cylinder: 1 diagram
  diagram 0:
    cyl 0  bottom (0, 1, 2, 3)  top (0, 3, 2, 1)
stratum H(1,1), shape case6: 0 diagrams
stratum H(4), shape one_cylinder: 4 diagrams
  diagram 0:
    cyl 0  bottom (0, 1, 2, 3, 4)  top (0, 2, 1, 4, 3)
  diagram 1:
    cyl 0  bottom (0, 1, 2, 3, 4)  top (0, 2, 4, 1, 3)
  diagram 2:
    cyl 0  bottom (0, 1, 2, 3, 4)  top (0, 3, 1, 4, 2)
  diagram 3:
    cyl 0  bottom (0, 1, 2, 3, 4)  top (0, 4, 3, 2, 1)
stratum H(4), shape case6: 0 diagrams
stratum H(3,1), shape one_cylinder: 4 diagrams
  diagram 0:
    cyl 0  bottom (0, 1, 2, 3, 4, 5)  top (0, 2, 1, 5, 4, 3)
  diagram 1:
    cyl 0  bottom (0, 1, 2, 3, 4, 5)  top (0, 2, 5, 1, 4, 3)
  diagram 2:
    cyl 0  bottom (0, 1, 2, 3, 4, 5)  top (0, 2, 5, 4, 3, 1)
  diagram 3:
    cyl 0  bottom (0, 1, 2, 3, 4, 5)  top (0, 3, 1, 5, 4, 2)
stratum H(3,1), shape case6: 0 diagrams
stratum H(2,2), shape one_cylinder: 4 diagrams
  diagram 0:
    cyl 0  bottom (0, 1, 2, 3, 4, 5)  top (0, 2, 1, 3, 5, 4)
  diagram 1:
    cyl 0  bottom (0, 1, 2, 3, 4, 5)  top (0, 2, 4, 1, 5, 3)
  diagram 2:
    cyl 0  bottom (0, 1, 2, 3, 4, 5)  top (0, 3, 2, 5, 4, 1)
  diagram 3:
    cyl 0  bottom (0, 1, 2, 3, 4, 5)  top (0, 5, 4, 3, 2, 1)
stratum H(2,2), shape case6: 1 diagram
  diagram 0:
    cyl 0  bottom (0, 1, 2)  top (3, 5, 4)
    cyl 1  bottom (3, 4, 5)  top (0, 2, 1)
stratum H(2,1,1), shape one_cylinder: 7 diagrams
  diagram 0:
    cyl 0  bottom (0, 1, 2, 3, 4, 5, 6)  top (0, 2, 1, 3, 6, 5, 4)
  diagram 1:
    cyl 0  bottom (0, 1, 2, 3, 4, 5, 6)  top (0, 2, 5, 1, 6, 4, 3)
  diagram 2:
    cyl 0  bottom (0, 1, 2, 3, 4, 5, 6)  top (0, 2, 6, 4, 1, 5, 3)
  diagram 3:
    cyl 0  bottom (0, 1, 2, 3, 4, 5, 6)  top (0, 2, 6, 5, 3, 1, 4)
  diagram 4:
    cyl 0  bottom (0, 1, 2, 3, 4, 5, 6)  top (0, 3, 2, 1, 6, 5, 4)
  diagram 5:
    cyl 0  bottom (0, 1, 2, 3, 4, 5, 6)  top (0, 3, 2, 6, 5, 1, 4)
  diagram 6:
    cyl 0  bottom (0, 1, 2, 3, 4, 5, 6)  top (0, 4, 2, 6, 5, 3, 1)
stratum H(2,1,1), shape case6: 1 diagram
  diagram 0:
    cyl 0  bottom (0, 1, 2, 3)  top (4, 6, 5)
    cyl 1  bottom (4, 5, 6)  top (0, 3, 2, 1)
stratum H(1,1,1,1), shape one_cylinder: 4 diagrams
  diagram 0:
    cyl 0  bottom (0, 1, 2, 3, 4, 5, 6, 7)  top (0, 3, 2, 1, 4, 7, 6, 5)
  diagram 1:
    cyl 0  bottom (0, 1, 2, 3, 4, 5, 6, 7)  top (0, 3, 6, 2, 1, 7, 5, 4)
  diagram 2:
    cyl 0  bottom (0, 1, 2, 3, 4, 5, 6, 7)  top (0, 3, 7, 5, 2, 1, 6, 4)
  diagram 3:
    cyl 0  bottom (0, 1, 2, 3, 4, 5, 6, 7)  top (0, 5, 2, 7, 4, 1, 6, 3)
stratum H(1,1,1,1), shape case6: 1 diagram
  diagram 0:
    cyl 0  bottom (0, 1, 2, 3)  top (4, 7, 6, 5)
    cyl 1  bottom (4, 5, 6, 7)  top (0, 3, 2, 1)
"""


def test_catalog_text_is_pinned():
    assert "".join(render_report(enumerate_diagrams(*pair))
                   for pair in CATALOG_PAIRS) == CATALOG_TEXT


def test_catalogs_build_no_origami_and_decompose_nothing(monkeypatch):
    # the catalogs are searched as words: with every way to build or
    # decompose an origami in the pipeline raising, each is still built
    def forbidden(*args, **kwargs):
        raise AssertionError("a catalog built or decomposed an origami")

    for name in ("Origami", "build_origami", "horizontal_decomposition"):
        monkeypatch.setattr(pipeline, name, forbidden)
    assert "".join(render_report(enumerate_diagrams(*pair))
                   for pair in CATALOG_PAIRS) == CATALOG_TEXT


def test_render_text_reports():
    verdict = classify_surface(reference_surface())
    text = render_report(verdict)
    assert "WollmilchsauEquivalent" in text
    catalog_text = render_report(enumerate_diagrams((1, 1, 1, 1), "case6"))
    assert "H(1,1,1,1)" in catalog_text


def test_render_svg_reports():
    verdict = classify_surface(reference_surface())
    docs = render_report(verdict, format="svg")
    # one drawing of each kind for the one analysed direction
    assert sorted(docs) == ["direction-0_1-cylinders.svg",
                            "direction-0_1-dual-graph.svg"]
    for name, content in docs.items():
        assert name.endswith(".svg")
        assert content.startswith("<svg")
    # the sizes follow from the fixed scales: 40 per saddle and per
    # cylinder row, and a circle of radius 60 for the dual graph
    assert [docs[name].splitlines()[0].split(" viewBox")[0]
            for name in sorted(docs)] == [
        '<svg xmlns="http://www.w3.org/2000/svg" width="280" height="180"',
        '<svg xmlns="http://www.w3.org/2000/svg" width="280" height="280"']


def test_dual_graph_svg_draws_every_edge_apart():
    """The dual-graph drawing holds one element per edge, pairwise
    different, so that loops and parallel edges show their multiplicity,
    and one filled circle per vertex: on the horizontal pinch graph of
    each exemplar, which covers the six shapes, and on a Lagrangian one
    with three loops at one vertex."""
    graphs = [horizontal_decomposition(exemplar(name)).dual_graph
              for name in EXEMPLARS]
    assert {classify_case(g) for g in graphs} == CASE_LABELS
    lagrangian = horizontal_decomposition(
        parse_origami(LAGRANGIAN_CASE5)).dual_graph
    assert lagrangian.cycle_rank == 3 and lagrangian.edges == ((0, 0),) * 3
    for g in graphs + [lagrangian]:
        lines = pipeline._dual_graph_svg(g).splitlines()
        edges = [e for e in lines if e.lstrip().startswith(
            ("<line ", "<path ", "<circle ")) and 'fill="#fee"' not in e]
        assert len(edges) == len(set(edges)) == len(g.edges), g
        assert sum('fill="#fee"' in e for e in lines) == len(g.genera), g


def origami_file(tmp_path, o):
    path = tmp_path / "surface.txt"
    path.write_text("# input\n%s\n" % o, encoding="utf-8")
    return str(path)


def test_cli_analyze_and_report(tmp_path, capsys):
    """``analyze`` prints the same report from the file and from a copy
    that starts with a UTF-8 byte-order mark."""
    path = origami_file(tmp_path, wollmilchsau())
    bom = tmp_path / "bom.txt"
    with open(path, "rb") as f:
        bom.write_bytes(b"\xef\xbb\xbf" + f.read())
    out = str(tmp_path / "svg")
    printed = []
    for source in (path, str(bom)):
        assert cli_main(["analyze", source, "--format", "svg",
                         "--out", out]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    assert "WollmilchsauEquivalent" in printed[0]
    assert list((tmp_path / "svg").glob("*.svg"))
    # no direction bound: the classifier analyses at most two directions
    for argv in (["analyze", path, "--direction-bound", "2"],
                 ["report", "--direction-bound", "2"]):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --direction-bound" in \
            capsys.readouterr().err


def test_cli_enumerate(capsys):
    assert cli_main(["enumerate", "--stratum", "1,1,1,1",
                     "--shape", "case6"]) == 0
    assert "1" in capsys.readouterr().out


def test_cli_enumerate_rejects_nonpositive_orders(capsys):
    for stratum, shape in [("-1,3", "one_cylinder"), ("0", "case6"),
                           ("0", "one_cylinder"), ("1,1,0", "case6")]:
        assert cli_main(["enumerate", "--stratum=" + stratum,
                         "--shape", shape]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be positive" in captured.err


def test_cli_monodromy(tmp_path, capsys):
    path = origami_file(tmp_path, wollmilchsau())
    assert cli_main(["monodromy", path]) == 0
    out = capsys.readouterr().out
    assert ("orbit size: 1\ncusps: 1, widths 1\n"
            "affine group generators: 2 (cusp parabolics first)\n") in out
    assert "restricted closure: Finite, order 96\n" in out
    assert "witness" not in out
    assert "dimension bound: 4" in out


def test_cli_monodromy_unbounded(tmp_path, capsys):
    path = tmp_path / "h4.txt"
    path.write_text(H4_LINE + "\n", encoding="utf-8")
    assert cli_main(["monodromy", str(path)]) == 0
    out = capsys.readouterr().out
    assert ("orbit size: 10\ncusps: 3, widths 2 3 5\n"
            "affine group generators: 11 (cusp parabolics first)\n") in out
    assert ("restricted closure: Unbounded (element of infinite order, "
            "witness word length 3)\n"
            "witness starts from generator 1, a cusp parabolic: T T\n") in out
    # the dimension bound reads the cusps of the orbit, with no bound
    for option in ("--norm-bound", "--direction-bound"):
        with pytest.raises(SystemExit) as exc:
            cli_main(["monodromy", str(path), option, "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: " + option in \
            capsys.readouterr().err


def test_cli_monodromy_walks_the_orbit_once(tmp_path, capsys,
                                            monkeypatch):
    """The command reads the dimension bound off the orbit graph it built
    for the generators: ``orbit_graph`` runs once, whichever module calls
    it.  The H(3,1) surface reads 0, below the bound 2 of the slopes with
    entries up to 2."""
    walks = []

    def counted(o):
        walks.append(o)
        return orbit_graph(o)

    monkeypatch.setattr(cli, "orbit_graph", counted)
    monkeypatch.setattr(monodromy, "orbit_graph", counted)
    for line, bound in ((H31_SIX, 0), (H4_LINE, 0)):
        path = tmp_path / "surface.txt"
        path.write_text(line + "\n", encoding="utf-8")
        walks.clear()
        assert cli_main(["monodromy", str(path)]) == 0
        assert len(walks) == 1
        assert ("isometric-subspace dimension bound: %d\n" % bound) in \
            capsys.readouterr().out


def test_cli_monodromy_takes_no_word_bound(tmp_path, capsys):
    path = origami_file(tmp_path, wollmilchsau())
    for argv in (["--word-bound", "1"], ["--word-bound=3"]):
        with pytest.raises(SystemExit) as exc:
            cli_main(["monodromy", path] + argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --word-bound" in \
            capsys.readouterr().err


def test_cli_error_exits(tmp_path, capsys):
    assert cli_main(["analyze", str(tmp_path / "missing.txt")]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("not an origami line\n", encoding="utf-8")
    assert cli_main(["analyze", str(bad)]) == 2
    genus2 = origami_file(tmp_path, l_origami())
    assert cli_main(["analyze", genus2]) == 2
    # malformed cycles exit 2 with an error, not a traceback or a verdict
    for line in MALFORMED_LINES:
        bad.write_text(line + "\n", encoding="utf-8")
        for command in ("analyze", "monodromy"):
            capsys.readouterr()
            assert cli_main([command, str(bad)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: "), (line, err)
    # an empty path is an unreadable file, not the reference surface
    capsys.readouterr()
    assert cli_main(["analyze", ""]) == 2
    assert capsys.readouterr().out == ""
    # one parser serves every call in the process; a usage error leaves
    # it as it was
    assert build_parser() is build_parser()
    capsys.readouterr()
    assert cli_main(["report"]) == 0
    report = capsys.readouterr().out
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli_main(["report", "--bogus"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert cli_main(["report"]) == 0
    assert capsys.readouterr().out == report


def test_cli_reports_an_isolated_square_in_one_line(tmp_path, capsys):
    """A square in no cycle makes ``analyze`` and ``monodromy`` exit 2
    with a one-line error under 200 bytes, on a square count too large to
    allocate and on one whose missing squares would fill a long list."""
    bad = tmp_path / "isolated.txt"
    for line in ('origami n=99999999999 h="(0 1)" v=""',
                 'origami n=2000 h="(0 1)" v="(0 2)"'):
        bad.write_text(line + "\n", encoding="utf-8")
        for command in ("analyze", "monodromy"):
            capsys.readouterr()
            assert cli_main([command, str(bad)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1, (line, err)
            assert len(err.encode()) < 200, (line, err)
            assert "not connected to square 0" in err, (line, err)


def test_cli_rejects_a_second_origami_line(tmp_path, capsys):
    """A file holds one origami line: any further line that is neither
    blank nor a ``#`` comment makes ``analyze`` and ``monodromy`` exit 2
    with an error and no report, wherever it stands and whether or not it
    parses.  Blank lines and comments around the one line are ignored."""
    path = tmp_path / "surface.txt"
    reference = str(wollmilchsau())
    for extra in ('origami h="(0 1)" v="(0 2)"', "not an origami line",
                  reference):
        for text in ("%s\n%s\ngarbage\n" % (reference, extra),
                     "# two\n%s\n\n%s\n" % (extra, reference)):
            path.write_text(text, encoding="utf-8")
            for command in ("analyze", "monodromy"):
                capsys.readouterr()
                assert cli_main([command, str(path)]) == 2, (text, command)
                out, err = capsys.readouterr()
                assert out == "", (text, command)
                assert err.startswith("error: "), (text, command)
    path.write_text("\n# a comment\n  %s  \n\n  # another\n" % reference,
                    encoding="utf-8")
    assert cli_main(["analyze", str(path)]) == 0
    assert "WollmilchsauEquivalent" in capsys.readouterr().out


def test_cli_monodromy_is_unbounded_where_the_word_cap_read_finite(
        tmp_path, capsys):
    """The 7-square Case 5 surface and the 6-square H(2,2) surface, whose
    stabilizer words up to length 3 generate finite groups of order 2 and
    18, have unbounded closures, witnessed from a cusp parabolic.  The
    cusp widths are printed in ascending order, ``wxk`` for a width that
    occurs ``k > 1`` times."""
    for line, size, cusps, first in [
            (CASE5_SEVEN, 72, "14, widths 2 3x3 5x4 6 7x5", 5),
            (SIX_SQUARES, 12, "4, widths 1 2 3 6", 3)]:
        path = tmp_path / "surface.txt"
        path.write_text(line + "\n", encoding="utf-8")
        assert cli_main(["monodromy", str(path)]) == 0
        out = capsys.readouterr().out
        assert "surface: H(2,2), genus 3\norbit size: %d\ncusps: %s\n" \
            % (size, cusps) in out
        assert "affine group generators: %d " % (size + 1) in out
        assert "zero-holonomy restriction: dimension 4" in out
        assert "restricted closure: Unbounded" in out
        assert "witness starts from generator %d, a cusp parabolic: " \
            % first in out
        assert "Finite" not in out
        assert "isometric-subspace dimension bound: 0" in out


def test_cli_monodromy_acts_only_on_the_generators_the_closure_reads(
        tmp_path, capsys, monkeypatch):
    """The closure reads the generators in order and stops at its first
    witness, so ``monodromy`` acts on homology with the first cusp
    parabolic of the H(4) surface, with ``T`` and ``S`` on the reference,
    and with the first five cusp parabolics of the 7-square Case 5
    surface, whose witness starts from the fifth."""
    calls = []
    action = cli.homology_action

    def counted(o, word, basis=None):
        calls.append(word)
        return action(o, word, basis)
    monkeypatch.setattr(cli, "homology_action", counted)
    for line, reads in [(H4_LINE, 1), (str(wollmilchsau()), 2),
                        (CASE5_SEVEN, 5)]:
        path = tmp_path / "surface.txt"
        path.write_text(line + "\n", encoding="utf-8")
        del calls[:]
        assert cli_main(["monodromy", str(path)]) == 0
        assert len(calls) == reads, line
        generators = orbit_graph(parse_origami(line)).generators
        assert calls == list(generators[:reads])
        assert "generators: %d " % len(generators) in capsys.readouterr().out


def test_one_dual_graph_per_analysed_direction(monkeypatch):
    """A Case 1, 2 or 4 direction reaches its crossing-witness search
    without a second dual graph: one decomposition per analysed direction,
    which every entry point builds through ``horizontal_decomposition``
    together with its dual graph, and every shape lookup reads the graph
    stored on the decomposition under analysis."""
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        for name, module in list(sys.modules.items()):
            if name.startswith("squaretiled") and \
                    getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, wrapper)

    counted(horizontal_decomposition)
    analysed, looked_up = record_graph_lookups(monkeypatch)
    rng = random.Random(4242)
    surfaces = [exemplar(name) for name in EXEMPLARS]
    surfaces += [random_genus3(rng, 5, 12) for _ in range(100)]
    labels, directions, lagrangian = [], 0, 0
    for o in surfaces:
        verdict = classify_surface(o)
        labels += [r.label for r in verdict.evidence
                   if r.mechanism == "transverse crossing cylinder"]
        directions += len({r.slope for r in verdict.evidence})
        lagrangian += sum(r.mechanism == "Lagrangian core curves"
                          for r in verdict.evidence)
    assert {"Case1", "Case2", "Case4"} <= set(labels)
    assert len(analysed) == calls.count("horizontal_decomposition") == \
        directions > 100
    assert len({id(d) for d in analysed}) == directions
    assert len(looked_up) == directions - lagrangian > 0
    assert all(graph is d.dual_graph for d, graph in looked_up)


def test_every_small_genus3_direction_has_a_shape_and_a_witness():
    """The horizontal direction of every genus-3 origami on at most six
    squares, and so every direction of each, since the set is closed
    under ``SL(2, Z)``: the closed-form label is the oracle's, it raises
    exactly at cycle rank 3, where the oracle finds no shape, the
    direction analysis never raises, and every Case 1, 2 and 4 record
    carries a crossing witness."""
    records = Counter()
    for o in origamis_of_genus(3, 6):
        d = horizontal_decomposition(o)
        graph = d.dual_graph
        label = label_or_none(graph)
        assert label == decomposition_oracle.classify_case(graph), o
        assert (label is None) == (graph.cycle_rank == 3), o
        record, excludes = pipeline._analyze_direction(d, (0, 1))
        if record.label in ("Case1", "Case2", "Case4"):
            assert excludes, o
            assert isinstance(record.witness, TransverseWitness), o
        records[record.label, record.mechanism] += 1
    assert records == {
        ("Case1", "transverse crossing cylinder"): 1646,
        ("Case5", "defer to a simple transverse cylinder"): 544,
        ("Case6", "window forcing"): 9,
        (None, "Lagrangian core curves"): 1880,
    }


WITNESSLESS = """
import sys
from squaretiled.cylinders import horizontal_decomposition
from squaretiled.errors import InvariantViolation
from squaretiled.pipeline import reference_surface
from squaretiled.surface import build_origami
from squaretiled.transverse import find_crossing_cylinder
for label, o in (("Case1", reference_surface()),
                 ("Case2", build_origami(%r, %r)),
                 ("Case4", build_origami(%r, %r))):
    try:
        find_crossing_cylinder(horizontal_decomposition(o), label)
    except InvariantViolation as exc:
        print("optimize=%%d raised: %%s" %% (sys.flags.optimize, exc))
""" % (EXEMPLARS["Case5"] + EXEMPLARS["Case1"])


def test_witness_searches_raise_without_a_witness(monkeypatch):
    """The Case 1, Case 2 and Case 4 searches raise, also under
    ``python -O``, on a diagram without their witness: the reference's
    horizontal diagram (Case 6), where no cylinder has a saddle on both
    sides, the Case 5 exemplar's, whose one cylinder has no other to pair
    with, and the Case 1 exemplar's, whose two cylinders are not glued
    along a full interface.  Period forcing needs no crossing witness."""
    with pytest.raises(InvariantViolation, match="not Case 1"):
        transverse._case1_witness(
            horizontal_decomposition(reference_surface()))
    with pytest.raises(InvariantViolation, match="not Case 2"):
        transverse._case2_witness(horizontal_decomposition(exemplar("Case5")))
    with pytest.raises(InvariantViolation, match="full interface"):
        transverse.find_crossing_cylinder(
            horizontal_decomposition(exemplar("Case1")), "Case4")
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]]
                 if os.environ.get("PYTHONPATH") else [])))
    run = subprocess.run([sys.executable, "-O", "-c", WITNESSLESS], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "optimize=1 raised: no cylinder has a saddle on both its bottom and "
        "its top: the diagram is not Case 1",
        "optimize=1 raised: no two cylinders share a saddle both ways: the "
        "diagram is not Case 2",
        "optimize=1 raised: no pair of cylinders glued along a full "
        "interface"]

    class WitnessAsked(Exception):
        pass

    def no_witness(d, label):
        raise WitnessAsked(label)

    monkeypatch.setattr(pipeline, "find_crossing_cylinder", no_witness)
    o = exemplar("Case3")
    verdict = classify_surface(o)
    assert verdict.status == "TrivialForni"
    assert [r.mechanism for r in verdict.evidence] == ["period forcing"]
    # the vertical direction is the one that asks for a crossing witness
    with pytest.raises(WitnessAsked):
        analyze(o, (1, 0))


FORGED_SURVIVOR = """
import sys
from squaretiled.errors import InvariantViolation
from squaretiled.pipeline import (
    Verdict, classify_surface, reference_surface, render_report)
o = reference_surface()
chain, certificate = classify_surface(o).evidence
for trail in ((), (chain,), (certificate,), (chain, chain),
              (certificate, chain), (chain, certificate, certificate)):
    try:
        render_report(Verdict("WollmilchsauEquivalent", trail, o))
    except InvariantViolation as exc:
        print("optimize=%d raised: %s" % (sys.flags.optimize, exc))
"""

# the raises of classify_surface, each reached by monkeypatching: a Case 5
# surface whose deferred direction is made to exclude nothing, and the
# reference with the isomorphism test made to fail or to return a
# relabelling that is not an isomorphism; then the shape lookup on the
# genus-2 L-origami's horizontal pinch, which no genus-3 shape matches
FORGED_DECISIONS = """
import sys
from squaretiled import pipeline
from squaretiled.cylinders import classify_case, horizontal_decomposition
from squaretiled.errors import InvariantViolation
from squaretiled.surface import build_origami, parse_origami
analyze = pipeline._analyze_direction
pipeline._analyze_direction = lambda d, slope: (analyze(d, slope)[0], False)
try:
    pipeline.classify_surface(parse_origami(%r))
except InvariantViolation as exc:
    print("optimize=%%d raised: %%s" %% (sys.flags.optimize, exc))
pipeline._analyze_direction = analyze
for forged in (None, (1, 0, 2, 3, 4, 5, 6, 7)):
    pipeline.origami_isomorphism = lambda a, b: forged
    try:
        pipeline.classify_surface(pipeline.reference_surface())
    except InvariantViolation as exc:
        print("optimize=%%d raised: %%s" %% (sys.flags.optimize, exc))
try:
    classify_case(horizontal_decomposition(
        build_origami((1, 0, 2), (2, 1, 0))).dual_graph)
except InvariantViolation as exc:
    print("optimize=%%d raised: %%s" %% (sys.flags.optimize, exc))
""" % CASE5_SEVEN

FORGED_WITNESS = """
import sys
from squaretiled.errors import InvariantViolation
from squaretiled.transverse import TransverseWitness
try:
    TransverseWitness(crossed=(0, 1), width=0, start_interval=(0, 0),
                      direction=(1, 1))
except InvariantViolation as exc:
    print("optimize=%d raised: %s" % (sys.flags.optimize, exc))
"""

FORGED_FORCING = """
import sys
from squaretiled.errors import InvariantViolation
from squaretiled.jump import ForcingVerdict
try:
    ForcingVerdict("Forni impossible", "equal_exponents", 2, 0)
except InvariantViolation as exc:
    print("optimize=%d raised: %s" % (sys.flags.optimize, exc))
"""

FORGED_ACTION = """
import sys
from squaretiled import monodromy
from squaretiled.errors import InvariantViolation
from squaretiled.homology import homology_basis
from squaretiled.surface import build_origami
l_shape = build_origami((1, 0, 2), (2, 1, 0))
shear = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
try:
    list(monodromy.restrict_to_zero_holonomy([shear], homology_basis(l_shape)))
except InvariantViolation as exc:
    print("optimize=%d raised: %s" % (sys.flags.optimize, exc))
# doubled cycles are still cycles: only the form check can reject them
transport = monodromy.transport_chains
monodromy.transport_chains = lambda o, word, chains: transport(
    o, word, [[2 * x for x in chain] for chain in chains])
try:
    monodromy.homology_action(build_origami((0,), (0,)), ("T",))
except InvariantViolation as exc:
    print("optimize=%d raised: %s" % (sys.flags.optimize, exc))
"""

FORGED_HOMOLOGY = """
import sys
from squaretiled import homology
from squaretiled.errors import InvariantViolation
from squaretiled.surface import build_origami
gram = homology._cup_gram
for forged in (lambda o, cocycles: [[1] * len(cocycles)] * len(cocycles),
               lambda o, cocycles: [[2 * x for x in row]
                                    for row in gram(o, cocycles)]):
    homology._cup_gram = forged
    try:
        homology.homology_basis(build_origami((1, 0, 2), (2, 1, 0)))
    except InvariantViolation as exc:
        print("optimize=%d raised: %s" % (sys.flags.optimize, exc))
"""


def test_forged_survivor_verdict_raises():
    """A survivor is returned and reported only with the horizontal Case 6
    record with a consistent chain followed by an affine certificate that
    checks.  A hand-built survivor verdict without one can be constructed
    (so a caller may build a deliberately wrong verdict) but not
    reported."""
    o = reference_surface()
    chain, certificate = classify_surface(o).evidence
    inconsistent = classify_surface(exemplar("Case6")).evidence[0]
    case1 = DirectionRecord((0, 1), "Case1", "transverse crossing cylinder")
    shifted = chain._replace(slope=(1, 0))

    def forged(**changes):
        return certificate._replace(
            witness=certificate.witness._replace(**changes))

    # the relabelled copy needs a relabelling other than the identity
    copy = relabelled(random.Random(7), o)
    assert copy != o
    for trail, surface in (
            ((case1,), o), ((), o), ((chain,), o), ((certificate,), o),
            ((chain, chain), o), ((certificate, chain), o),
            ((chain, certificate, certificate), o),
            ((inconsistent, certificate), o), ((shifted, certificate), o),
            ((chain, forged(matrix=None)), o), ((case1, certificate), o),
            # t must lie in [0, a), and the image must be the surface's
            ((chain, forged(matrix=((1, 1), (0, 1)))), o),
            ((chain, forged(matrix=((1, 0), (0, 2)))), o),
            ((chain, forged(relabelling=(1, 0, 2, 3, 4, 5, 6, 7))), o),
            ((chain, certificate), copy), ((chain, certificate), None)):
        verdict = Verdict("WollmilchsauEquivalent", trail, surface)
        for format in ("text", "svg"):
            with pytest.raises(InvariantViolation, match="Case 6"):
                render_report(verdict, format=format)
    genuine = Verdict("WollmilchsauEquivalent", (chain, certificate), o)
    assert genuine == classify_surface(o)
    assert render_report(genuine) == render_report(classify_surface(o))
    assert classify_surface(copy).status == "WollmilchsauEquivalent"


def test_decision_raises_survive_python_O(monkeypatch):
    """A Case 5 direction whose deferred direction excluded nothing, or a
    consistent chain without a relabelling onto its affine image, would
    contradict the arguments of :func:`classify_surface`; both raise, also
    under ``python -O``, and so does the shape lookup on a pinch that
    matches none of the six shapes."""
    analyze_direction = pipeline._analyze_direction
    monkeypatch.setattr(pipeline, "_analyze_direction", lambda d, slope: (
        analyze_direction(d, slope)[0], False))
    with pytest.raises(InvariantViolation, match=r"direction \(1, 2\) of a "
                       "Case 5 direction excludes nothing"):
        classify_surface(parse_origami(CASE5_SEVEN))
    monkeypatch.setattr(pipeline, "_analyze_direction", analyze_direction)
    monkeypatch.setattr(pipeline, "origami_isomorphism", lambda a, b: None)
    with pytest.raises(InvariantViolation, match="not the affine image"):
        classify_surface(reference_surface())
    monkeypatch.setattr(pipeline, "origami_isomorphism",
                        lambda a, b: (1, 0, 2, 3, 4, 5, 6, 7))
    with pytest.raises(InvariantViolation, match="affine certificate"):
        classify_surface(reference_surface())
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]]
                 if os.environ.get("PYTHONPATH") else [])))
    run = subprocess.run([sys.executable, "-O", "-c", FORGED_DECISIONS],
                         env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "optimize=1 raised: the simple cylinder direction (1, 2) of a Case 5 "
        "direction excludes nothing",
        "optimize=1 raised: a consistent Case 6 chain of saddle length 1 and "
        "height 1 is not the affine image [[1, 0], [0, 1]] of the reference",
        "optimize=1 raised: survivor verdicts require a consistent "
        "horizontal Case 6 chain followed by its affine certificate",
        "optimize=1 raised: a pinch graph of cycle rank 2 and genus labels "
        "summing to 0 matches none of the six shapes"]


def test_checks_survive_python_O():
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    def run(*args, flags=("-O",)):
        return subprocess.run([sys.executable, *flags, *args], env=env,
                              capture_output=True, text=True, timeout=120)

    report = run("-m", "squaretiled.cli", "report")
    assert report.returncode == 0, report.stderr
    assert "classification: WollmilchsauEquivalent" in report.stdout
    forged = run("-c", FORGED_SURVIVOR)
    assert forged.returncode == 0, forged.stderr
    assert forged.stdout.splitlines() == [
        "optimize=1 raised: survivor verdicts require a consistent "
        "horizontal Case 6 chain followed by its affine certificate"] * 6
    forged = run("-c", FORGED_WITNESS)
    assert forged.returncode == 0, forged.stderr
    assert forged.stdout.startswith("optimize=1 raised: a transverse "
                                    "cylinder needs positive width")
    forged = run("-c", FORGED_FORCING)
    assert forged.returncode == 0, forged.stderr
    assert forged.stdout.splitlines() == [
        "optimize=1 raised: the obstructing coefficient must be nonzero"]
    for flags, optimize in (((), 0), (("-O",), 1)):
        forged = run("-c", FORGED_ACTION, flags=flags)
        assert forged.returncode == 0, forged.stderr
        assert forged.stdout.splitlines() == [
            "optimize=%d raised: zero-holonomy subspace must be invariant"
            % optimize,
            "optimize=%d raised: homology action must preserve the form"
            % optimize]
    forged = run("-c", FORGED_HOMOLOGY)
    assert forged.returncode == 0, forged.stderr
    assert forged.stdout.splitlines() == [
        "optimize=1 raised: intersection form must be skew",
        "optimize=1 raised: intersection form must be unimodular"]


def test_no_assert_statement_in_the_package():
    """``python -O`` strips ``assert`` statements, so every check in the
    package is an explicit ``raise``; this keeps a new one out."""
    package = os.path.dirname(pipeline.__file__)
    modules = sorted(n for n in os.listdir(package) if n.endswith(".py"))
    assert "pipeline.py" in modules
    found = []
    for name in modules:
        path = os.path.join(package, name)
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), filename=path)
        found += ["%s:%d" % (name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_only_origami_and_catalog_are_dataclasses():
    """A dataclass builds its methods at every import of the package,
    about a millisecond each, and as dataclasses the result records took
    half of the set-up time that is not compilation, so they are named
    tuples; only ``Origami``, formatted as a single ``%`` operand, and
    ``DiagramCatalog``, whose ``len`` counts diagrams, stay dataclasses."""
    package = os.path.dirname(pipeline.__file__)
    found = []
    for name in sorted(n for n in os.listdir(package) if n.endswith(".py")):
        path = os.path.join(package, name)
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.dump(d) for d in node.decorator_list):
                found.append("%s:%s" % (name, node.name))
    assert found == ["pipeline.py:DiagramCatalog", "surface.py:Origami"]
