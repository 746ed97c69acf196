r"""
Command-line interface: classify a surface from its one-line text
encoding, enumerate diagram catalogs, summarize affine-group monodromy
evidence, and emit text or SVG reports.

Subcommands::

    squaretiled analyze <file> [--format text|svg] [--out DIR]
    squaretiled enumerate --stratum 1,1,1,1 --shape case6
                          [--format text|svg] [--out DIR]
    squaretiled monodromy <file>
    squaretiled report [--format text|svg] [--out DIR]

``analyze`` decides a genus-3 surface from at most two directions; a
survivor is certified as an affine image of the reference.  ``monodromy``
walks the surface's ``SL(2, Z)``-orbit, reads the exact generators of its
affine group off it as words and decides whether their action on
zero-holonomy homology generates a finite group, acting on homology only
with the generators the closure reads before its first witness; it
prints cusp widths ascending, ``wxk`` for a width that occurs ``k > 1``
times, and bounds the dimension from the core-curve ranks of the cusps of
the orbit it walked.
Input files contain one origami line, e.g.
``origami h="(0 1 2 3)(4 7 6 5)" v="(0 4 2 6)(1 5 3 7)"``, and may start
with a UTF-8 byte-order mark.  Text goes to
standard output; SVG files go to the ``--out`` directory, ``reports``
unless given.  The exit code
is 0 on success and 2 on validation errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections import Counter
from pathlib import Path

from .errors import SquareTiledError
from .homology import homology_basis
from .monodromy import (
    _cusp_bound,
    closure_classify,
    homology_action,
    orbit_graph,
    restrict_to_zero_holonomy,
)
from .pipeline import (
    _SHAPES,
    classify_surface,
    enumerate_diagrams,
    reference_surface,
    render_report,
)
from .surface import parse_origami, singularity_data


def _load_origami(path):
    """The origami of the one line of ``path`` that is neither blank nor a
    ``#`` comment."""
    text = Path(path).read_text(encoding="utf-8-sig")
    lines = [line for line in map(str.strip, text.splitlines())
             if line and not line.startswith("#")]
    if not lines:
        raise ValueError(f"no origami line found in {path}")
    if len(lines) > 1:
        raise ValueError(f"more than one origami line in {path}")
    return parse_origami(lines[0])


def _emit(record, args):
    """Print the text report of ``record``; with ``--format svg``, also
    write its SVG documents to the ``--out`` directory."""
    print(render_report(record), end="")
    if args.format == "svg":
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, content in sorted(render_report(record, "svg").items()):
            (out / name).write_text(content, encoding="utf-8")
            print(f"wrote {out / name}")
    return 0


def _cmd_analyze(args):
    """``analyze``, and ``report`` on the reference surface (no file)."""
    o = reference_surface() if args.file is None else _load_origami(args.file)
    return _emit(classify_surface(o), args)


def _cmd_enumerate(args):
    kappa = tuple(int(x) for x in args.stratum.split(","))
    return _emit(enumerate_diagrams(kappa, args.shape), args)


def _cmd_monodromy(args):
    o = _load_origami(args.file)
    basis = homology_basis(o)
    graph = orbit_graph(o)
    gens = graph.generators
    stratum = singularity_data(o)
    print("surface: %s, genus %d" % (stratum, stratum.genus))
    print("orbit size: %d" % len(graph.members))
    widths = Counter(k for _, k in graph.cusps)
    print("cusps: %d, widths %s" % (len(graph.cusps), " ".join(
        str(k) if widths[k] == 1 else "%dx%d" % (k, widths[k])
        for k in sorted(widths))))
    print("affine group generators: %d (cusp parabolics first)" % len(gens))
    # the two holonomy covectors of an origami are independent
    print("zero-holonomy restriction: dimension %d" % (basis.rank - 2))
    closure = closure_classify(restrict_to_zero_holonomy(
        (homology_action(o, word, basis) for word in gens), basis))
    if closure.is_finite:
        print("restricted closure: Finite, order %d" % closure.order)
    else:
        print("restricted closure: Unbounded (element of infinite order, "
              "witness word length %d)" % len(closure.witness))
        first = abs(closure.witness[0])
        print("witness starts from generator %d%s: %s"
              % (first, ", a cusp parabolic" if first <= len(graph.cusps)
                 else "", " ".join(gens[first - 1])))
    if stratum.genus >= 2:
        print("isometric-subspace dimension bound: %d"
              % _cusp_bound((graph.members[first], graph.words[first])
                            for first, _ in graph.cusps).upper_bound)
    return 0


@functools.cache
def build_parser():
    """The argument parser, built on first use and shared by every later
    :func:`main` call in the process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="squaretiled",
        description="Classification toolkit for genus-3 square-tiled "
                    "surfaces.")
    sub = parser.add_subparsers(dest="command", required=True)
    # the report options of analyze, enumerate and report
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("text", "svg"), default="text")
    output.add_argument("--out", default="reports")

    p = sub.add_parser("analyze", parents=[output],
                       help="classify a surface from a file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("enumerate", parents=[output],
                       help="catalog cylinder diagrams")
    p.add_argument("--stratum", required=True,
                   help="comma-separated zero orders, e.g. 1,1,1,1")
    p.add_argument("--shape", choices=tuple(_SHAPES), required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("monodromy",
                       help="affine-group action on homology")
    p.add_argument("file")
    p.set_defaults(func=_cmd_monodromy)

    p = sub.add_parser("report", parents=[output],
                       help="reference report for the 8-square survivor")
    p.set_defaults(func=_cmd_analyze, file=None)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SquareTiledError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
