"""Slow, independent diagram catalogs: build and validate every candidate
gluing ``v`` of the one-cylinder and two-cylinder ``h``, read its stratum
with ``singularity_data``, decompose it and keep the diagram of the first
candidate of each canonical key, read by the all-anchor ``key_oracle``
rather than the package's key.  The reference that the pruned search of
``squaretiled.pipeline.enumerate_diagrams`` is compared against, entry by
entry.  That search builds no origami: it lists top words against fixed
bottom words and reads the zeros off ``τ∘β⁻¹``, so this scan of square
gluings is a second, independent route to the same diagrams.  The Case 6
scan keeps a two-cylinder gluing when the vertex permutation search of
``decomposition_oracle.classify_case`` names its pinch Case 6,
independently of the package's shape table.

The one-cylinder scan fixes ``v[0] = 0`` (a twist of the cylinder) and
tries the ``(m - 1)!`` others; the Case 6 scan fixes ``v[0] = k`` (a twist
of the first cylinder) and tries the ``(k - 1)!·k!`` gluings of two
cylinders of ``k`` squares, by default the least ``k`` with ``2·k >=
sum(k_i + 1)``, so one corner may be regular.
"""

import itertools

from decomposition_oracle import classify_case, dual_graph
from key_oracle import canonical_key
from squaretiled.cylinders import horizontal_decomposition
from squaretiled.surface import (
    Stratum,
    build_origami,
    perm_from_cycles,
    singularity_data,
)


def one_cylinder_diagrams(stratum: Stratum):
    m = sum(stratum.kappa) + len(stratum.kappa)
    h = tuple((i + 1) % m for i in range(m))
    seen = {}
    # v and h^a v differ by a twist of the single cylinder, which changes
    # neither the diagram nor the stratum: v[0] = 0 reaches every diagram
    for rest in itertools.permutations(range(1, m)):
        o = build_origami(h, (0,) + rest)
        if singularity_data(o).kappa != stratum.kappa:
            continue
        d = horizontal_decomposition(o)
        if len(d.cylinders) != 1:
            continue
        seen.setdefault(canonical_key(d.diagram), d.diagram)
    return tuple(seen[k] for k in sorted(seen))


def case6_diagrams(stratum: Stratum, k=None):
    if k is None:
        k = (sum(stratum.kappa) + len(stratum.kappa) + 1) // 2
    h = perm_from_cycles([tuple(range(k)), tuple(range(k, 2 * k))], 2 * k)
    seen = {}
    # the tops of the first cylinder go to the second, starting at k (a
    # twist of the first cylinder), and the tops of the second to the first
    for rest in itertools.permutations(range(k + 1, 2 * k)):
        for img2 in itertools.permutations(range(k)):
            o = build_origami(h, (k,) + rest + img2)
            if singularity_data(o).kappa != stratum.kappa:
                continue
            d = horizontal_decomposition(o)
            if len(d.cylinders) != 2:
                continue
            if classify_case(dual_graph(d)) != "Case6":
                continue
            seen.setdefault(canonical_key(d.diagram), d.diagram)
    return tuple(seen[key] for key in sorted(seen))


DIAGRAMS = {"one_cylinder": one_cylinder_diagrams, "case6": case6_diagrams}
