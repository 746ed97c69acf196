"""Slow, independent rational linear algebra by Gauss-Jordan elimination in
:class:`fractions.Fraction`: the reference that the integer Smith normal
form results of ``squaretiled.intlinalg`` are compared against.  Also the
integer kernels the tests need, read off the Smith form."""

from fractions import Fraction

from squaretiled.intlinalg import smith_normal_form, snf_rank


def integer_kernel(a):
    """A basis (list of vectors) of the integer kernel of ``a``: the last
    columns of ``V`` in the Smith normal form ``U·a·V = S``.

    >>> integer_kernel([[1, 1, 0]])
    [[-1, 1, 0], [0, 0, 1]]
    """
    n = len(a[0]) if a else 0
    _, s, v, _, _ = smith_normal_form(a)
    return [[v[i][j] for i in range(n)] for j in range(snf_rank(s), n)]


def holonomy_kernel(basis):
    """Integer basis of the zero-holonomy subspace of a homology basis:
    the joint kernel of its two holonomy covectors."""
    return integer_kernel(list(basis.holonomy_covectors()))


def rank_rational(rows):
    """Rank over the rationals of the span of the given vectors."""
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    col = 0
    while rank < len(work) and col < ncols:
        piv = next((i for i in range(rank, len(work)) if work[i][col] != 0),
                   None)
        if piv is None:
            col += 1
            continue
        work[rank], work[piv] = work[piv], work[rank]
        pr = work[rank]
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                f = work[i][col] / pr[col]
                work[i] = [x - f * y for x, y in zip(work[i], pr)]
        rank += 1
        col += 1
    return rank


def det_rational(a):
    """Exact determinant of a square matrix, as a Fraction."""
    n = len(a)
    work = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if work[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            det = -det
        det *= work[col][col]
        inv = 1 / work[col][col]
        for i in range(col + 1, n):
            if work[i][col] != 0:
                f = work[i][col] * inv
                work[i] = [x - f * y for x, y in zip(work[i], work[col])]
    return det


def invert_rational(a):
    """Inverse of an invertible square matrix, as rows of Fractions."""
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j))
                                         for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def invert_unimodular(a):
    """Integer inverse of a matrix with determinant +-1."""
    if abs(det_rational(a)) != 1:
        raise ValueError("matrix is not unimodular")
    # the adjugate formula makes the inverse integral when det is +-1
    return [[int(x) for x in row] for row in invert_rational(a)]


def solve_rational(a, b):
    """Solve ``a @ x == b`` over the rationals; return ``None`` if
    inconsistent.  An underdetermined system gets an arbitrary solution."""
    m = len(a)
    n = len(a[0]) if m else 0
    work = [[Fraction(x) for x in row] + [Fraction(bv)]
            for row, bv in zip(a, b)]
    pivots = []
    row = 0
    for col in range(n):
        piv = next((i for i in range(row, m) if work[i][col] != 0), None)
        if piv is None:
            continue
        work[row], work[piv] = work[piv], work[row]
        inv = 1 / work[row][col]
        work[row] = [x * inv for x in work[row]]
        for i in range(m):
            if i != row and work[i][col] != 0:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    for i in range(row, m):
        if work[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        x[col] = work[r][n]
    return x
