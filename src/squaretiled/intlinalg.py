r"""
Exact integer linear algebra helpers.

Everything in this module works with plain Python lists of lists of
``int``; matrices are small (a few dozen rows), so simplicity and
exactness win over asymptotics.

Every fact is read off one Smith normal form, which comes with its two
unimodular transforms and their inverses: rank, integer kernels,
quotient-lattice bases and unimodularity.

EXAMPLES::

    >>> U, S, V, U_inv, V_inv = smith_normal_form([[2, 4], [6, 8]])
    >>> [S[0][0], S[1][1]]
    [2, 4]
    >>> mat_mul(mat_mul(U, [[2, 4], [6, 8]]), V) == S
    True
"""

from __future__ import annotations

from operator import mul

from .errors import InvariantViolation


def identity_matrix(n):
    """Return the n-by-n integer identity matrix as nested lists."""
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    """Multiply two matrices given as lists (or tuples) of rows, each row
    of ``a`` against the columns of ``b``; the result is a list of lists.

    EXAMPLES::

        >>> mat_mul([[1, 1], [0, 1]], [[1, 0], [1, 1]])
        [[2, 1], [1, 1]]
    """
    inner = len(b)
    if not all(len(r) == inner for r in a) or \
            len({len(r) for r in b}) > 1:
        raise InvariantViolation("matrix shapes do not match")
    cols = tuple(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def smith_normal_form(a):
    r"""
    Return ``(U, S, V, U_inv, V_inv)`` with ``U @ a @ V == S`` in Smith
    normal form.

    ``U`` and ``V`` are unimodular integer matrices with inverses ``U_inv``
    and ``V_inv``, and ``S`` is diagonal with each diagonal entry dividing
    the next.

    EXAMPLES::

        >>> U, S, V, U_inv, V_inv = smith_normal_form([[1, 2], [3, 4]])
        >>> [S[0][0], S[1][1]]
        [1, 2]
        >>> mat_mul(U, U_inv) == mat_mul(V_inv, V) == identity_matrix(2)
        True

    TESTS::

        >>> smith_normal_form([[0, 0], [0, 0]])[1]
        [[0, 0], [0, 0]]
    """
    s = [list(row) for row in a]
    m = len(s)
    n = len(s[0]) if m else 0
    u, u_inv = identity_matrix(m), identity_matrix(m)
    v, v_inv = identity_matrix(n), identity_matrix(n)

    # a row operation E (u <- E u) is undone on the right of u_inv
    # (u_inv <- u_inv E^-1); a column operation F (v <- v F) on the left of
    # v_inv (v_inv <- F^-1 v_inv)
    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]
        for row in u_inv:
            row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def add_row(src, dst, c):
        # row dst += c * row src; column src of u_inv -= c * column dst
        for k in range(n):
            s[dst][k] += c * s[src][k]
        for k in range(m):
            u[dst][k] += c * u[src][k]
        for row in u_inv:
            row[src] -= c * row[dst]

    def add_col(src, dst, c):
        # column dst += c * column src; row src of v_inv -= c * row dst
        for row in s:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]
        for k in range(n):
            v_inv[src][k] -= c * v_inv[dst][k]

    def negate_row(i):
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]
        for row in u_inv:
            row[i] = -row[i]

    t = 0
    while True:
        # find a pivot in the submatrix s[t:, t:]
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if s[i][j] != 0:
                    if pivot is None or abs(s[i][j]) < abs(s[pivot[0]][pivot[1]]):
                        pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        # clear row and column t, keeping the pivot minimal
        while True:
            dirty = False
            for i in range(t + 1, m):
                if s[i][t] != 0:
                    q = s[i][t] // s[t][t]
                    add_row(t, i, -q)
                    if s[i][t] != 0:
                        swap_rows(t, i)
                    dirty = True
            for j in range(t + 1, n):
                if s[t][j] != 0:
                    q = s[t][j] // s[t][t]
                    add_col(t, j, -q)
                    if s[t][j] != 0:
                        swap_cols(t, j)
                    dirty = True
            if dirty:
                continue
            # divisibility: the pivot must divide every remaining entry
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if s[i][j] % s[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if s[t][t] < 0:
            negate_row(t)
        t += 1
        if t == m or t == n:
            break
    return u, s, v, u_inv, v_inv


def snf_rank(s):
    """Number of nonzero diagonal entries of a Smith form matrix."""
    return sum(1 for i in range(min(len(s), len(s[0]) if s else 0)) if s[i][i] != 0)
