r"""
Compute the restricted monodromy closure for the 8-square survivor.

The affine group of an origami acts on integer homology by symplectic
matrices.  On the rank-4 kernel of the two holonomy covectors this action
generates a finite matrix group for the survivor — the computable
signature of an isometrically-moving subspace — while the torus shear
generates an infinite group: its cube is congruent to the identity mod 3
without being the identity.  The script prints the stabilizer words,
their matrices, and both closure classifications.

Run with::

    python3 demos/monodromy_closure.py
"""

from squaretiled.homology import homology_basis
from squaretiled.monodromy import (
    closure_classify,
    forni_upper_bound,
    homology_action,
    restrict_to_zero_holonomy,
    stabilizer_generators,
)
from squaretiled.pipeline import reference_surface
from squaretiled.surface import build_origami


def main():
    o = reference_surface()
    basis = homology_basis(o)
    gens = stabilizer_generators(o, 2)
    print("stabilizer words up to length 2: %d" % len(gens))
    matrices = [homology_action(o, gen, basis) for gen in gens]
    for (word, _), m in zip(gens, matrices):
        print("  %-12s -> %dx%d symplectic matrix"
              % (" ".join(word), len(m), len(m)))

    restricted = restrict_to_zero_holonomy(matrices, basis)
    print("\nzero-holonomy restriction: dimension %d" % len(restricted[0]))
    closure = closure_classify(restricted)
    print("restricted closure: %s, order %s"
          % (closure.status, closure.order))

    report = forni_upper_bound(o, 2)
    print("isometric-subspace dimension bound: %d" % report.upper_bound)
    print("per-direction core ranks all equal 1:",
          all(rank == 1 for _, _, rank in report.witnesses))

    torus = build_origami((0,), (0,))
    shear = homology_action(torus, ("T",))
    print("\ntorus shear %s generates: %s"
          % (shear, closure_classify([shear]).status))


if __name__ == "__main__":
    main()
