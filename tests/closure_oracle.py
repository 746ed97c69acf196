"""Slow, independent closure finiteness decision: one breadth-first search
over the residues mod 3 of the group, applying every generator to every
element reached, with index-based matrix products.  The reference that
the generator-by-generator ``squaretiled.monodromy.closure_classify`` is
compared against (status and order; the two may return different, equally
valid ``Unbounded`` witnesses).
"""

from squaretiled.monodromy import ClosureResult


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    """The index-based product of two matrices given as lists of rows."""
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def _residue(m):
    return tuple(tuple(e % 3 for e in row) for row in m)


def _tree_word(parents, r):
    word = []
    while parents[r] is not None:
        r, j = parents[r]
        word.append(j)
    return tuple(reversed(word))


def closure_classify(generators) -> ClosureResult:
    r"""
    Decide whether the group generated by invertible integer matrices is
    finite.

    Breadth-first search over the residues mod 3 of the group, keeping one
    integer lift per residue.  An edge reaching a residue already seen
    gives a Schreier generator ``L_r·g·L_{rg}^{-1}`` of the kernel of
    reduction mod 3.  That kernel is torsion-free (Minkowski), so a
    nonidentity one has infinite order and the group is ``Unbounded``; if
    every one is the identity, reduction mod 3 is injective on the group
    and its order is the number of residues reached.  The image mod 3 is
    finite, so the search always ends and never needs inverses.

    EXAMPLES::

        >>> closure_classify([identity_matrix(3)]).order
        1
        >>> closure_classify([[[0, -1], [1, 0]]]).order
        4
        >>> closure_classify([[[1, 1], [0, 1]]]).witness
        (1, 1, 1)
    """
    if not generators:
        return ClosureResult("Finite", order=1)
    ident = identity_matrix(len(generators[0]))
    start = _residue(ident)
    lifts = {start: ident}
    parents = {start: None}
    queue = [start]
    for r in queue:  # grows while it is read: breadth-first order
        for j, g in enumerate(generators, 1):
            prod = mat_mul(lifts[r], g)
            key = _residue(prod)
            if key not in lifts:
                lifts[key] = prod
                parents[key] = (r, j)
                queue.append(key)
            elif prod != lifts[key]:
                back = tuple(-i for i in reversed(_tree_word(parents, key)))
                return ClosureResult(
                    "Unbounded", witness=_tree_word(parents, r) + (j,) + back)
    return ClosureResult("Finite", order=len(lifts))
