"""The result records are immutable named tuples: the four validated ones
reject bad fields through the constructor, ``_make`` and ``_replace``
alike, also under ``python -O``; none takes attribute assignment; and
they compare and hash by value."""

import contextlib
import io
import os
import subprocess
import sys

import pytest

from conftest import exemplar
from squaretiled import pipeline
from squaretiled.cylinders import horizontal_decomposition
from squaretiled.jump import case3_verdict
from squaretiled.monodromy import closure_classify, forni_upper_bound, \
    orbit_graph
from squaretiled.pipeline import classify_surface, enumerate_diagrams, \
    reference_surface
from squaretiled.surface import singularity_data
from squaretiled.transverse import TransverseWitness, find_crossing_cylinder

# each valid record with field changes its constructor rejects; every way
# of building the changed record prints the error it raised
FORGED_RECORDS = """
import sys
from squaretiled.errors import InvariantViolation
from squaretiled.jump import ForcingVerdict
from squaretiled.surface import Stratum
from squaretiled.transverse import TransverseWitness, WindowConstraint
witness = TransverseWitness((0, 1), (0, 1), (1, 1))
window = WindowConstraint(1, 1, 0, 4)
for record, changes in (
        (Stratum((1, 1)), {"kappa": (0, 2)}),
        (Stratum((1, 1)), {"kappa": (1, 2)}),
        (ForcingVerdict("Forni impossible", "equal_exponents", 2, 2),
         {"coefficient": 0}),
        (witness, {"start_interval": (1, 1)}),
        (witness, {"start_interval": (1, 0)}),
        (witness, {"crossed": (0, 0)}),
        (window, {"t0": 0}),
        (window, {"t_start": 4}),
        (window, {"w": 4.0})):
    fields = dict(record._asdict(), **changes)
    for build in (lambda: type(record)(**fields),
                  lambda: type(record)._make(fields.values()),
                  lambda: record._replace(**changes)):
        try:
            build()
            print("optimize=%d accepted" % sys.flags.optimize)
        except (ValueError, InvariantViolation) as exc:
            print("optimize=%d %s raised %s: %s" % (
                sys.flags.optimize, type(record).__name__,
                type(exc).__name__, exc))
"""

REJECTED = [
    "Stratum raised ValueError: zero orders (0, 2) must be positive",
    "Stratum raised ValueError: zero orders (1, 2) have an odd sum",
    "ForcingVerdict raised InvariantViolation: the obstructing coefficient "
    "must be nonzero",
    "TransverseWitness raised InvariantViolation: a transverse cylinder "
    "needs positive width",
    "TransverseWitness raised InvariantViolation: a transverse cylinder "
    "needs positive width",
    "TransverseWitness raised InvariantViolation: each cylinder must be "
    "crossed exactly once",
    "WindowConstraint raised ValueError: saddle lengths must lie in (0, w)",
    "WindowConstraint raised ValueError: t_start must lie in [0, w)",
    "WindowConstraint raised ValueError: window data must be exact: integer "
    "numerators over w",
]


def test_validated_records_reject_bad_fields_on_every_path():
    """The constructor, ``_make`` and ``_replace`` raise the same error on
    each bad field, in this process and under ``python -O``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(FORGED_RECORDS, {})
    assert out.getvalue().splitlines() == [
        "optimize=%d %s" % (sys.flags.optimize, line)
        for line in REJECTED for _ in range(3)]
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]]
                 if os.environ.get("PYTHONPATH") else [])))
    run = subprocess.run([sys.executable, "-O", "-c", FORGED_RECORDS],
                         env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "optimize=1 " + line for line in REJECTED for _ in range(3)]


def records():
    """One record of each result type the package returns, read off the
    reference surface and the Case 1 exemplar."""
    o = reference_surface()
    d = horizontal_decomposition(o)
    chain, certificate = classify_surface(o).evidence
    case1 = horizontal_decomposition(exemplar("Case1"))
    return [d.diagram, d, d.dual_graph, case3_verdict(1, 2),
            closure_classify([[[0, -1], [1, 0]]]), forni_upper_bound(o, 1),
            chain, classify_surface(o), chain.witness,
            find_crossing_cylinder(case1, "Case1"), certificate.witness,
            singularity_data(o)]


def test_records_reject_attribute_assignment():
    found = records()
    assert sorted(type(r).__name__ for r in found) == [
        "AffineCertificate", "ClosureResult", "CylinderDecomposition",
        "CylinderDiagram", "DirectionRecord", "DualGraph", "ForcingVerdict",
        "ForniReport", "Stratum", "TransverseWitness", "Verdict",
        "WindowConstraint"]
    for record in found:
        for name in (record._fields[0], "note"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        assert not hasattr(record, "__dict__"), type(record).__name__


def test_records_compare_and_hash_by_value():
    """Two runs build equal records with equal hashes; changing one field
    makes them unequal."""
    o, case1 = reference_surface(), exemplar("Case1")
    first, again = classify_surface(o), classify_surface(o)
    assert first is not again and first == again
    assert hash(first) == hash(again)
    assert first.evidence[0] == again.evidence[0]
    assert hash(first.evidence[0]) == hash(again.evidence[0])
    assert first.evidence[0]._replace(slope=(1, 0)) != again.evidence[0]
    graph = horizontal_decomposition(o).dual_graph
    copy = horizontal_decomposition(o).dual_graph
    assert graph is not copy and graph == copy and hash(graph) == hash(copy)
    assert graph._replace(edges=graph.edges[:1]) != copy
    witness = find_crossing_cylinder(horizontal_decomposition(case1),
                                     "Case1")
    rebuilt = TransverseWitness(*witness)
    assert rebuilt is not witness and rebuilt == witness
    assert hash(rebuilt) == hash(witness)
    lo, hi = witness.start_interval
    assert witness._replace(start_interval=(lo, hi + 1)) != rebuilt



def test_every_record_kind_hashes():
    """A record of every kind the package returns hashes, the
    decompositions, diagrams and catalogs among them: their cylinders and
    saddles are positions in tuples.  Two decompositions of one origami
    are equal and hash equal, and so are their diagrams."""
    o = reference_surface()
    d = horizontal_decomposition(o)
    case1 = horizontal_decomposition(exemplar("Case1"))
    found = [o, singularity_data(o), d.diagram, d,
             d.dual_graph, enumerate_diagrams((2,), "one_cylinder"),
             classify_surface(o),
             find_crossing_cylinder(case1, "Case1"), orbit_graph(o),
             closure_classify([[[0, -1], [1, 0]]]), forni_upper_bound(o, 1)]
    assert [type(r).__name__ for r in found] == [
        "Origami", "Stratum", "CylinderDiagram",
        "CylinderDecomposition", "DualGraph", "DiagramCatalog", "Verdict",
        "TransverseWitness", "OrbitGraph", "ClosureResult", "ForniReport"]
    for record in found:
        hash(record)
    again = horizontal_decomposition(reference_surface())
    assert again is not d and again == d and hash(again) == hash(d)
    assert hash(again.diagram) == hash(d.diagram)
    assert again._replace(top_positions=case1.top_positions) != d
