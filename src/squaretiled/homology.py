r"""
Integer homology of an origami with its intersection form, and the
transport of chains through the ``SL(2, Z)`` generators.

The square tiling is a cell complex: one vertex per cone-point corner
class, edges ``h_i`` (bottom side of square ``i``) and ``v_i`` (left side),
and one square face per square giving the relation
``h_i + v_{h(i)} - h_{v(i)} - v_i = 0``.  First homology is the cycle
lattice modulo the face lattice, both read off integer Smith normal forms.
The rows that read a cycle's coordinates are cocycles dual to the basis,
and by Poincaré duality the intersection form is minus the inverse of
their cup-product Gram matrix.

The affine action on homology is computed on chains: the cycles of one
basis are pushed letter by letter through a word
(:func:`transport_chains`), which needs only the gluings of consecutive
origamis, and coordinates are read once, in that basis, after the pushed
cycles are brought back by a relabelling.

EXAMPLES::

    >>> from squaretiled.surface import build_origami
    >>> H = homology_basis(build_origami((0,), (0,)))
    >>> H.rank, H.omega
    (2, [[0, 1], [-1, 0]])
"""

from __future__ import annotations

from .errors import InvariantViolation
from .intlinalg import mat_mul, smith_normal_form, snf_rank
from .surface import Origami, act_sl2z

# ---------------------------------------------------------------------------
# chains on the square complex
# ---------------------------------------------------------------------------
#
# A chain is a list of 2n integers: entry i is the coefficient of h_i
# (bottom edge of square i, oriented rightward) and entry n+i that of v_i
# (left edge of square i, oriented upward).  A cochain is a list of 2n
# integers in the same order, its values on the edges.


def _require(condition, message):
    """Raise :class:`InvariantViolation` unless ``condition`` holds (an
    explicit check, so it also runs under ``python -O``)."""
    if not condition:
        raise InvariantViolation(message)


def _cup_gram(o: Origami, cocycles):
    """Gram matrix of the cup product of cocycles on the fundamental class:
    on square ``i``, ``α(h_i)·β(v_{h(i)}) - α(v_i)·β(h_{v(i)})``, bottom
    times right minus left times top."""
    n, h, v = o.n, o.h, o.v
    return [[sum(a[i] * b[n + h[i]] - a[n + i] * b[v[i]] for i in range(n))
             for b in cocycles] for a in cocycles]


class HomologyBasis:
    r"""Integer first homology of an origami, with intersection form.

    Cycles, coordinates and classes are read off Smith normal forms.  With
    ``U·∂·V = S`` (rank ``r``) for the boundary map ``∂``, where ``h_i``
    runs from corner ``i`` to ``h(i)`` and ``v_i`` to ``v(i)``, a chain
    ``z`` is a cycle exactly when ``(V⁻¹z)[:r] = 0``, and ``(V⁻¹z)[r:]``
    are its coordinates on the cycle basis ``V[:, r:]``; the Smith form of
    the face relations in those coordinates gives the classes.

    The rows ``α_j`` that read class coordinates vanish on every face
    relation, so they are cocycles, and ``α_j`` is dual to basis class
    ``j``.  Their cup-product Gram matrix ``C`` is the intersection form
    of their Poincaré duals, which gives ``omega = -C⁻¹``; ``C`` must be
    skew and unimodular, and with ``U·C·V = I`` its inverse is ``V·U``.

    Attributes of interest: ``rank`` (2·genus), ``omega`` (the skew
    unimodular Gram matrix of the chosen basis), ``basis_chains`` (cycle
    representatives).  Use :meth:`coords` for the coordinate vector of a
    cycle on the complex.
    """

    def __init__(self, o: Origami):
        n = o.n
        self.n = n
        orbits = o.vertex_orbits()
        corner = {sq: k for k, orbit in enumerate(orbits) for sq in orbit}
        boundary = [[0] * (2 * n) for _ in orbits]
        for i in range(n):
            for e, j in ((i, o.h[i]), (n + i, o.v[i])):
                boundary[corner[i]][e] -= 1
                boundary[corner[j]][e] += 1
        _, s, v, _, v_inv = smith_normal_form(boundary)
        r = snf_rank(s)
        _require(r == len(orbits) - 1, "complex must be connected")
        cycles = [row[r:] for row in v]  # columns: the cycle basis
        _require(not any(map(any, mat_mul(boundary, cycles))),
                 "cycle basis must have zero boundary")

        # face relations in cycle coordinates: four columns of V^-1[r:]
        rows = v_inv[r:]
        faces = [[row[i] + row[n + o.h[i]] - row[o.v[i]] - row[n + i]
                  for i in range(n)] for row in rows]
        u_mat, s, _, u_inv, _ = smith_normal_form(faces)
        r2 = snf_rank(s)
        _require(all(s[i][i] == 1 for i in range(r2)),
                 "face lattice must be primitive")
        self.rank = len(rows) - r2
        # Euler characteristic: len(orbits) corners, 2n edges, n faces
        _require(self.rank == 2 * ((2 + n - len(orbits)) // 2),
                 "rank must be twice the genus")

        # basis class j lifts to column r2 + j of U2^-1 in cycle coordinates
        lifts = mat_mul(cycles, [row[r2:] for row in u_inv])
        self.basis_chains = [list(col) for col in zip(*lifts)]
        # a chain is read by r boundary rows, which vanish on cycles, and
        # by the rank class rows U2[r2:]·V^-1[r:], the dual cocycles
        cocycles = mat_mul(u_mat[r2:], rows)
        self._boundary_rank = r
        self._read_rows = v_inv[:r] + cocycles
        gram = _cup_gram(o, cocycles)
        _require(all(gram[i][j] == -gram[j][i]
                     for i in range(self.rank) for j in range(self.rank)),
                 "intersection form must be skew")
        u_c, s, v_c, _, _ = smith_normal_form(gram)
        _require(all(s[i][i] == 1 for i in range(self.rank)),
                 "intersection form must be unimodular")
        self.omega = [[-x for x in row] for row in mat_mul(v_c, u_c)]

    # -- homology coordinates ---------------------------------------------

    def coords(self, chain):
        r"""
        Homology coordinates (length ``2g``) of a cycle, read with the
        chain's nonzero entries only.

        EXAMPLES::

            >>> from squaretiled.surface import build_origami
            >>> H = homology_basis(build_origami((0,), (0,)))
            >>> H.coords(H.basis_chains[0])
            [1, 0]
        """
        _require(len(chain) == 2 * self.n, "chain is not a cycle")
        nonzero = [(e, c) for e, c in enumerate(chain) if c]
        read = [sum(row[e] * c for e, c in nonzero)
                for row in self._read_rows]
        r = self._boundary_rank
        _require(not any(read[:r]), "chain is not a cycle")
        return read[r:]

    def holonomy_covectors(self):
        """Two integer covectors evaluating horizontal and vertical holonomy
        on the basis classes."""
        hol_x = [sum(c[: self.n]) for c in self.basis_chains]
        hol_y = [sum(c[self.n:]) for c in self.basis_chains]
        return hol_x, hol_y


def homology_basis(o: Origami) -> HomologyBasis:
    r"""
    First integer homology of the origami with its intersection form.

    EXAMPLES::

        >>> from squaretiled.surface import build_origami, perm_from_cycles
        >>> H = homology_basis(build_origami(perm_from_cycles([(0, 1)], 3),
        ...                                  perm_from_cycles([(0, 2)], 3)))
        >>> H.rank
        4
    """
    return HomologyBasis(o)


# ---------------------------------------------------------------------------
# transport of chains through the shear and rotation generators
# ---------------------------------------------------------------------------


def transport_chains(o: Origami, word, chains):
    r"""
    Push edge chains on ``o`` through the affine maps of a word in ``T``,
    ``T^-1``, ``S`` (letters applied first to last).

    Returns ``(target, pushed)``: the transformed origami
    ``act_sl2z(o, word)`` and the image chains on it.  Each letter acts
    by a chain map, so cycles go to cycles and classes to the classes of
    the affine map's images; no homology basis is built along the way.
    With ``v`` and ``v'`` the vertical gluings before and after a letter:

    - ``T`` keeps bottom edges and sends the left edge of square ``i`` to
      the diagonal of its image square, ``v_i + h_{v'(i)}``;
    - ``T^-1`` sends it to the antidiagonal of its left neighbour,
      ``v_i - h_{v(i)}``: up that square's right side, then back along
      its top;
    - ``S``, the quarter rotation, turns bottom edges into left edges,
      ``h_i ↦ v_i``, and left edges into reversed bottom edges of the
      image squares, ``v_i ↦ -h_{v'(i)}``.

    EXAMPLES::

        >>> from squaretiled.surface import build_origami
        >>> torus = build_origami((0,), (0,))
        >>> transport_chains(torus, ["T"], [[1, 0], [0, 1]])[1]
        [[1, 0], [1, 1]]
    """
    n = o.n
    for letter in word:
        nxt = act_sl2z(o, (letter,))
        if letter == "T":
            sign, v = 1, nxt.v
        elif letter == "T^-1":
            sign, v = -1, o.v
        else:
            sign, v = -1, nxt.v
        pushed = []
        for chain in chains:
            out = [0] * n + list(chain[:n]) if letter == "S" else list(chain)
            for i in range(n):
                c = chain[n + i]
                if c:
                    out[v[i]] += sign * c
            pushed.append(out)
        o, chains = nxt, pushed
    return o, chains
