r"""
Tour the six exclusion mechanisms on a gallery of genus-3 origamis.

Each origami below has a horizontal decomposition whose pinch dual graph
matches one of the six genus-3 degeneration shapes.  The classifier
excludes a nontrivial isometric subspace for every one of them — by a
transverse crossing cylinder, by period forcing, or by the two-cylinder
window argument, in the horizontal direction or in another one — and
this script prints the horizontal mechanism and the verdict.

Run with::

    python3 demos/exclusion_mechanisms.py
"""

from squaretiled.pipeline import classify_surface
from squaretiled.surface import build_origami, perm_from_cycles


def gallery():
    mk = build_origami
    cyc = perm_from_cycles
    return [
        ("two cylinders, one inside the other",
         mk((0, 3, 4, 2, 1, 5), (5, 0, 1, 3, 4, 2))),
        ("triple shared boundary",
         mk((1, 6, 5, 2, 4, 3, 7, 0), (4, 2, 1, 6, 0, 7, 5, 3))),
        ("loop plus two crossing saddles",
         mk((6, 1, 3, 4, 2, 0, 5), (2, 3, 5, 6, 0, 4, 1))),
        ("four cylinders side by side",
         mk((1, 2, 3, 0, 5, 4, 7, 6, 9, 10, 11, 8),
            (6, 4, 5, 7, 9, 8, 10, 11, 3, 2, 1, 0))),
        ("four cylinders stacked",
         mk(cyc([(0, 1, 2, 3), (4, 5, 6, 7, 8), (10, 11, 12, 13)], 14),
            (5, 6, 7, 8, 9, 10, 11, 12, 13, 4, 3, 2, 1, 0))),
        ("one cylinder filling the surface",
         mk((2, 5, 1, 0, 3, 4), (2, 1, 0, 5, 3, 4))),
        ("two homologous cylinders, wrong metrics",
         mk((2, 3, 5, 4, 1, 0), (3, 5, 1, 2, 0, 4))),
    ]


def main():
    for title, o in gallery():
        verdict = classify_surface(o)
        horizontal = next(r for r in verdict.evidence if r.slope == (0, 1))
        print("%-42s horizontal pinch %-6s" % (title, horizontal.label))
        print("    horizontal mechanism: %s" % horizontal.mechanism)
        print("    verdict: %s" % verdict.status)
        print()


if __name__ == "__main__":
    main()
