r"""
Compute the restricted monodromy closure for the 8-square survivor.

The affine group of an origami acts on integer homology by symplectic
matrices.  Its generators are words in ``T`` and ``S`` read off the
surface's SL(2,Z)-orbit graph: one per edge outside a spanning tree, the
cusp parabolics first.  The survivor's orbit is a single member, so ``T``
and ``S`` generate its affine group, and on the rank-4 kernel of the two
holonomy covectors they generate a finite matrix group — the computable
signature of an isometrically-moving subspace — while the torus shear
generates an infinite group: its cube is congruent to the identity mod 3
without being the identity.  The H(4) surface's orbit has three cusps,
and its first cusp parabolic already generates an infinite group.  The
script prints the orbits, cusps and generators, their matrices, and the
closure classifications.

Run with::

    python3 demos/monodromy_closure.py
"""

from squaretiled.homology import homology_basis
from squaretiled.monodromy import (
    closure_classify,
    forni_upper_bound,
    homology_action,
    orbit_graph,
    restrict_to_zero_holonomy,
)
from squaretiled.pipeline import reference_surface
from squaretiled.surface import build_origami, parse_origami


def restricted_closure(o):
    """Print the orbit, cusps and generators of ``o`` and return the
    restricted closure of its affine group."""
    graph = orbit_graph(o)
    print("orbit of %d member(s), cusp widths %s"
          % (len(graph.members), [k for _, k in graph.cusps]))
    basis = homology_basis(o)
    matrices = [homology_action(o, gen, basis) for gen in graph.generators]
    print("affine group generators: %d" % len(matrices))
    for word, m in zip(graph.generators, matrices):
        print("  %-36s -> %dx%d symplectic matrix"
              % (" ".join(word), len(m), len(m)))
    restricted = list(restrict_to_zero_holonomy(matrices, basis))
    print("zero-holonomy restriction: dimension %d" % len(restricted[0]))
    return closure_classify(restricted)


def main():
    o = reference_surface()
    closure = restricted_closure(o)
    print("restricted closure: %s, order %s"
          % (closure.status, closure.order))

    report = forni_upper_bound(o)
    print("isometric-subspace dimension bound: %d" % report.upper_bound)
    print("per-cusp core ranks all equal 1:",
          all(rank == 1 for _, rank in report.witnesses))

    torus = build_origami((0,), (0,))
    shear = homology_action(torus, ("T",))
    print("\ntorus shear %s generates: %s"
          % (shear, closure_classify([shear]).status))

    print("\nH(4) surface:")
    closure = restricted_closure(parse_origami(
        'origami h="(1 3)(2 4)" v="(0 3 4)"'))
    print("restricted closure: %s, witness %s"
          % (closure.status, closure.witness))


if __name__ == "__main__":
    main()
