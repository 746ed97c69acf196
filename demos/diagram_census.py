r"""
Count cylinder diagrams in the small genus-2 and genus-3 strata.

The classification hinges on three uniqueness facts: there is a single
one-cylinder diagram in H(1,1), a single one-cylinder diagram in H(2),
and a single two-cylinder boundary-exchanging diagram in H(1,1,1,1) —
the diagram of the 8-square survivor.  This script counts them with the
catalogs of ``squaretiled.pipeline`` (the boundary-exchanging catalog
lists every Case 6 diagram) and writes an SVG sheet for the survivor's
catalog.

Run with::

    python3 demos/diagram_census.py
"""

from pathlib import Path

from squaretiled.cylinders import horizontal_decomposition
from squaretiled.pipeline import enumerate_diagrams, reference_surface, \
    render_report


def main():
    for stratum, shape in (((1, 1), "one_cylinder"),
                           ((2,), "one_cylinder"),
                           ((1, 1, 1, 1), "case6")):
        catalog = enumerate_diagrams(stratum, shape)
        print("%s, %s: %d diagram(s)"
              % (catalog.stratum, shape, len(catalog)))

    catalog = enumerate_diagrams((1, 1, 1, 1), "case6")
    ref = horizontal_decomposition(reference_surface())
    print("\nthe unique boundary-exchanging diagram is the survivor's:",
          catalog.diagrams[0].canonical_key() == ref.diagram.canonical_key())

    out = Path("reports")
    out.mkdir(exist_ok=True)
    for name, svg in render_report(catalog, format="svg").items():
        (out / name).write_text(svg, encoding="utf-8")
        print("wrote", out / name)


if __name__ == "__main__":
    main()
