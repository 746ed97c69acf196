r"""
Walk through the full certification of the 8-square survivor.

The script builds the reference origami, inspects its horizontal cylinder
decomposition and pinch dual graph, extracts the normalized window
coordinates, and runs the classification, printing each piece of evidence
along the way: the horizontal Case 6 chain, whose window is read off its
record, and the certificate, the matrix of the affine image of the
reference and the relabelling onto it.

Run with::

    python3 demos/survivor_walkthrough.py
"""

from fractions import Fraction

from squaretiled.cylinders import classify_case, horizontal_decomposition
from squaretiled.homology import homology_basis
from squaretiled.pipeline import classify_surface, reference_surface
from squaretiled.surface import singularity_data


def main():
    o = reference_surface()
    print("surface:", o)
    stratum = singularity_data(o)
    print("stratum %s, genus %d" % (stratum, stratum.genus))

    d = horizontal_decomposition(o)
    print("\nhorizontal cylinders:")
    for cid, (w, h) in enumerate(zip(d.circumferences, d.heights)):
        print("  cylinder %d: circumference %s, height %s, modulus %s"
              % (cid, w, h, Fraction(h, w)))
    lengths = sorted(str(length) for length in d.saddle_lengths)
    print("saddle lengths:", ", ".join(lengths))

    b = homology_basis(o)
    cores = []
    for stack in d.rows:
        # a core curve: the bottom edges of the cylinder's bottom row
        chain = [0] * (2 * o.n)
        for sq in stack[0]:
            chain[sq] += 1
        cores.append(b.coords(chain))
    print("core curves homologous:", cores[0] == cores[1])

    graph = d.dual_graph
    print("pinch dual graph: component genera %s, %d nodes — %s"
          % (sorted(graph.genera), len(graph.edges),
             classify_case(graph)))

    verdict = classify_surface(o)
    print("\nevidence:")
    for record in verdict.evidence:
        print("  slope %-8s %-6s via %s"
              % (record.slope, record.label, record.mechanism))
    window = verdict.evidence[0].witness
    certificate = verdict.evidence[-1].witness
    t0, s0, t_start = (Fraction(x, window.w)
                       for x in (window.t0, window.s0, window.t_start))
    print("\nwindow coordinates: t0 = %s, s0 = %s, t_start = %s"
          % (t0, s0, t_start))
    print("feasible only at the boundary:", not window.violated)
    (a, t), (_, h) = certificate.matrix
    print("affine image of the reference: [[%d, %d], [0, %d]]" % (a, t, h))
    print("relabelling onto it:", certificate.relabelling)
    assert t0 == Fraction(1, 4)
    print("\nverdict:", verdict.status)


if __name__ == "__main__":
    main()
