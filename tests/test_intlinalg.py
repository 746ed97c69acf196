"""The Smith normal form and everything read off it, checked against the
Fraction elimination oracle on random integer matrices; the zipped-column
matrix product, checked against the index-based one."""

import pytest

import closure_oracle
import word_oracle
from conftest import H4_LINE, random_unimodular, wollmilchsau
from fraction_oracle import det_rational, holonomy_kernel, integer_kernel, \
    rank_rational, solve_rational
from squaretiled.errors import InvariantViolation
from squaretiled.homology import homology_basis
from squaretiled.intlinalg import identity_matrix, mat_mul, \
    smith_normal_form, snf_rank
from squaretiled.monodromy import (
    homology_action,
    restrict_to_zero_holonomy,
    stabilizer_generators,
)
from squaretiled.surface import parse_origami


def random_matrix(rng, rows, cols):
    """A random integer matrix; four in ten are products through a random
    inner dimension, so of low rank (the zero matrix included)."""
    if rng.random() < 0.4 and rows and cols:
        inner = rng.randint(0, min(rows, cols))
        left = [[rng.randint(-3, 3) for _ in range(inner)]
                for _ in range(rows)]
        right = [[rng.randint(-3, 3) for _ in range(cols)]
                 for _ in range(inner)]
        return [[sum(left[i][k] * right[k][j] for k in range(inner))
                 for j in range(cols)] for i in range(rows)]
    return [[rng.choice((0, 0, 1, -1, 2, -3, 4, 6))
             for _ in range(cols)] for _ in range(rows)]


def snf_cases(rng):
    yield []
    yield [[]]
    yield [[0, 0, 0], [0, 0, 0]]
    yield [[5]]
    yield [[0, 1], [1, 0]]
    for _ in range(300):
        yield random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
    for n in range(2, 7):
        yield random_unimodular(rng, n)


def test_smith_normal_form_properties(rng):
    for a in snf_cases(rng):
        m = len(a)
        n = len(a[0]) if m else 0
        u, s, v, u_inv, v_inv = smith_normal_form(a)
        assert mat_mul(mat_mul(u, a), v) == s
        assert mat_mul(u, u_inv) == mat_mul(u_inv, u) == identity_matrix(m)
        assert mat_mul(v, v_inv) == mat_mul(v_inv, v) == identity_matrix(n)
        diagonal = [s[i][i] for i in range(min(m, n))]
        assert all(s[i][j] == 0 for i in range(m) for j in range(n)
                   if i != j)
        assert all(d >= 0 for d in diagonal)
        for d, e in zip(diagonal, diagonal[1:]):
            assert (e == 0) if d == 0 else (e % d == 0)
        assert snf_rank(s) == rank_rational(a)
        kernel = integer_kernel(a)
        assert len(kernel) == n - snf_rank(s)
        assert all(mat_mul(a, [[x] for x in vec]) == [[0]] * m
                   for vec in kernel)
        if m != n:
            continue
        product = 1
        for d in diagonal:
            product *= d
        assert abs(det_rational(a)) == product


def rational_restriction(matrices, basis):
    """The zero-holonomy restriction column by column with a Fraction
    solve of ``K·x = M·k_j``."""
    kernel_cols = holonomy_kernel(basis)
    k = [[col[i] for col in kernel_cols] for i in range(basis.rank)]
    out = []
    for m in matrices:
        mk = mat_mul(m, k)
        cols = [solve_rational(k, [row[j] for row in mk])
                for j in range(len(kernel_cols))]
        assert all(x.denominator == 1 for col in cols for x in col)
        out.append([[int(col[i]) for col in cols]
                    for i in range(len(kernel_cols))])
    return out


def test_restriction_matches_rational_solve():
    """The restriction of the reference's exact generators and of its ten
    stabilizer words up to length 2, and of the H(4) surface's eleven
    exact generators, equals the rational solve."""
    reference, h4 = wollmilchsau(), parse_origami(H4_LINE)
    cases = [(reference, stabilizer_generators(reference)
              + word_oracle.stabilizer_generators(reference, 2), 12),
             (h4, stabilizer_generators(h4), 11)]
    for o, gens, count in cases:
        assert len(gens) == count
        basis = homology_basis(o)
        matrices = [homology_action(o, gen, basis) for gen in gens]
        restricted = list(restrict_to_zero_holonomy(matrices, basis))
        assert restricted == rational_restriction(matrices, basis)


def test_mat_mul_matches_the_index_product(rng):
    shapes = [(0, 0, 0), (2, 0, 3), (3, 2, 0), (0, 2, 2), (1, 1, 1)]
    shapes += [tuple(rng.randint(0, 5) for _ in range(3)) for _ in range(200)]
    for rows, inner, cols in shapes:
        a = random_matrix(rng, rows, inner)
        b = random_matrix(rng, inner, cols)
        expected = closure_oracle.mat_mul(a, b)
        assert mat_mul(a, b) == expected
        assert mat_mul(tuple(map(tuple, a)), tuple(map(tuple, b))) == \
            expected
        assert all(type(row) is list for row in mat_mul(a, b))


@pytest.mark.parametrize("a, b", [
    ([[1, 2]], [[1, 0], [0, 1], [1, 1]]),
    ([[1, 2], [3]], [[1, 0], [0, 1]]),
    ([[1, 2]], [[1, 0], [0]]),
    ([[1]], []),
], ids=["inner sizes", "ragged left", "ragged right", "empty right"])
def test_mat_mul_shape_mismatch_raises(a, b):
    with pytest.raises(InvariantViolation):
        mat_mul(a, b)
