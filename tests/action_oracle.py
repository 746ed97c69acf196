"""Slow, independent homology action of an affine stabilizer: one matrix
per letter between the homology bases of consecutive origamis, their
product, and a relabelling matrix into the source basis.  Every
intermediate origami gets its own :class:`HomologyBasis` and every letter
its own coordinate solve.  The reference that the chain-level
``squaretiled.monodromy.homology_action`` is compared against.  Also the
2x2 matrix of an ``act_sl2z`` word, which the holonomy of the action is
compared against.
"""

from squaretiled.homology import HomologyBasis
from squaretiled.intlinalg import identity_matrix, mat_mul
from squaretiled.surface import act_sl2z, origami_isomorphism


#: Matrices of the three generator letters, acting on column vectors.
LETTER_MATRICES = {
    "T": ((1, 1), (0, 1)),
    "T^-1": ((1, -1), (0, 1)),
    "S": ((0, -1), (1, 0)),
}


def word_matrix(word):
    """The 2x2 integer matrix of an ``act_sl2z`` word (first letter first).

    >>> word_matrix(["T", "T"])
    ((1, 2), (0, 1))
    """
    m = ((1, 0), (0, 1))
    for letter in word:
        a = LETTER_MATRICES[letter]
        m = (
            (a[0][0] * m[0][0] + a[0][1] * m[1][0], a[0][0] * m[0][1] + a[0][1] * m[1][1]),
            (a[1][0] * m[0][0] + a[1][1] * m[1][0], a[1][0] * m[0][1] + a[1][1] * m[1][1]),
        )
    return m


def _transpose(cols):
    return [list(row) for row in zip(*cols)]


def letter_action_matrix(o, letter, source):
    """``(target_basis, m)``: ``m`` maps homology coordinates on ``o`` to
    coordinates on ``act_sl2z(o, (letter,))``, column by column."""
    n = o.n
    o1 = act_sl2z(o, (letter,))
    target = HomologyBasis(o1)

    def push(chain):
        out = [0] * (2 * n)
        if letter == "T":
            for i in range(n):
                out[i] += chain[i]
                out[n + i] += chain[n + i]
                out[o1.v[i]] += chain[n + i]
        elif letter == "T^-1":
            for i in range(n):
                out[i] += chain[i]
                out[n + i] += chain[n + i]
                out[o.v[i]] -= chain[n + i]
        elif letter == "S":
            for i in range(n):
                out[n + i] += chain[i]
                out[o1.v[i]] -= chain[n + i]
        else:
            raise ValueError("unknown letter: %r" % (letter,))
        return out

    return target, _transpose([target.coords(push(c))
                               for c in source.basis_chains])


def word_action_matrix(o, word, source):
    """The product of the letter matrices of ``word``, first letter
    first, with the basis of the transformed origami."""
    current_o, current_b = o, source
    m = identity_matrix(source.rank)
    for letter in word:
        current_b, step = letter_action_matrix(current_o, letter, current_b)
        current_o = act_sl2z(current_o, (letter,))
        m = mat_mul(step, m)
    return current_b, m


def relabel_action_matrix(source, target, relabeling):
    """Matrix of the isomorphism sending square ``i`` of the source origami
    to square ``relabeling[i]`` of the target origami."""
    n = source.n
    cols = []
    for chain in source.basis_chains:
        out = [0] * (2 * n)
        for i in range(n):
            out[relabeling[i]] += chain[i]
            out[n + relabeling[i]] += chain[n + i]
        cols.append(target.coords(out))
    return _transpose(cols)


def homology_action(o, word, basis):
    """The matrix of the stabilizing ``word`` on ``basis``, the homology
    basis of ``o``, relabelled onto ``o`` by the isomorphism that
    ``origami_isomorphism`` finds from ``act_sl2z(o, word)``."""
    perm = origami_isomorphism(act_sl2z(o, word), o)
    target, m = word_action_matrix(o, word, basis)
    return mat_mul(relabel_action_matrix(target, basis, perm), m)
