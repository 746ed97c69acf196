"""Slow, independent integer homology of an origami: a breadth-first
spanning tree of the 1-skeleton on the vertex classes, one fundamental
cycle per edge outside it, and the face relations in fundamental-cycle
coordinates reduced by one Smith normal form.  Each coordinate read adds
the fundamental cycles back up to check that its input is a cycle.  The
reference that the Smith-form ``squaretiled.homology.HomologyBasis`` is
compared against: the two bases differ by one unimodular transition
matrix that carries one intersection form to the other.
"""

from squaretiled.errors import InvariantViolation
from squaretiled.intlinalg import smith_normal_form, snf_rank
from squaretiled.surface import Origami, perm_inverse, singularity_data


def _require(condition, message):
    """Raise :class:`InvariantViolation` unless ``condition`` holds (an
    explicit check, so it also runs under ``python -O``)."""
    if not condition:
        raise InvariantViolation(message)


def _zero_chain(n):
    return [0] * (2 * n)


def _add_chain(a, b, c=1):
    return [x + c * y for x, y in zip(a, b)]


class HomologyBasis:
    """Integer first homology of an origami, with intersection form.

    Attributes of interest: ``rank`` (2·genus), ``omega`` (the skew
    unimodular Gram matrix of the chosen basis), ``basis_chains`` (cycle
    representatives).  Use :meth:`coords` for the coordinate vector of a
    cycle on the complex, and :meth:`pair_chains` for intersection
    numbers.
    """

    def __init__(self, o: Origami):
        self.origami = o
        n = o.n
        self.n = n
        self.hi = perm_inverse(o.h)
        self.vi = perm_inverse(o.v)
        orbits = o.vertex_orbits()
        self.corner_class = {}
        for idx, orbit in enumerate(orbits):
            for sq in orbit:
                self.corner_class[sq] = idx
        self.num_vertices = len(orbits)

        # spanning tree of the 1-skeleton on the vertex classes
        endpoints = []
        for i in range(n):
            endpoints.append((self.corner_class[i], self.corner_class[o.h[i]]))
        for i in range(n):
            endpoints.append((self.corner_class[i], self.corner_class[o.v[i]]))
        self.edge_endpoints = endpoints
        in_tree = [False] * (2 * n)
        parent = {0: None}  # vertex -> (edge index, direction) into the tree
        frontier = [0]
        while frontier:
            base = frontier.pop(0)
            for e, (u, w) in enumerate(endpoints):
                if in_tree[e]:
                    continue
                if u == base and w not in parent:
                    parent[w] = (e, +1)
                    in_tree[e] = True
                    frontier.append(w)
                elif w == base and u not in parent:
                    parent[u] = (e, -1)
                    in_tree[e] = True
                    frontier.append(u)
        _require(len(parent) == self.num_vertices, "complex must be connected")
        self._tree_parent = parent
        self.nontree_edges = [e for e in range(2 * n) if not in_tree[e]]

        # fundamental cycle of each non-tree edge
        self.fundamental_cycles = []
        for e in self.nontree_edges:
            u, w = endpoints[e]
            chain = _zero_chain(n)
            chain[e] += 1
            # walk w back to the root, then the root out to u
            chain = _add_chain(chain, self._tree_path(w), -1)
            chain = _add_chain(chain, self._tree_path(u), +1)
            _require(self.boundary(chain) == [0] * self.num_vertices,
                     "fundamental cycle must have zero boundary")
            self.fundamental_cycles.append(chain)

        # face relations in fundamental-cycle coordinates
        k = len(self.nontree_edges)
        faces = [self.face_chain(i) for i in range(n)]
        face_cols = [[f[e] for e in self.nontree_edges] for f in faces]
        a = [[face_cols[i][j] for i in range(n)] for j in range(k)]  # k x n
        u_mat, s, _, u_inv, _ = smith_normal_form(a)
        r = snf_rank(s)
        _require(all(s[i][i] == 1 for i in range(r)),
                 "face lattice must be primitive")
        self._proj_rows = u_mat[r:]  # quotient coordinates: x -> (Ux)[r:]
        self.rank = k - r
        _require(self.rank == 2 * singularity_data(o).genus,
                 "rank must be twice the genus")

        # basis class j lifts to column r + j of U^-1
        self.basis_chains = [self._chain_from_fc([row[r + j] for row in u_inv])
                             for j in range(self.rank)]
        self.omega = [[self.pair_chains(x, y) for y in self.basis_chains]
                      for x in self.basis_chains]
        _require(all(self.omega[i][j] == -self.omega[j][i]
                     for i in range(self.rank) for j in range(self.rank)),
                 "intersection form must be skew")
        s = smith_normal_form(self.omega)[1]
        _require(all(s[i][i] == 1 for i in range(self.rank)),
                 "intersection form must be unimodular")

    # -- cell complex ------------------------------------------------------

    def _tree_path(self, vertex):
        """Chain of tree edges from the root to ``vertex``."""
        chain = _zero_chain(self.n)
        while self._tree_parent[vertex] is not None:
            e, direction = self._tree_parent[vertex]
            chain[e] += direction
            u, w = self.edge_endpoints[e]
            vertex = u if direction == +1 else w
        return chain

    def face_chain(self, i):
        """The boundary relation of square ``i``."""
        o = self.origami
        chain = _zero_chain(self.n)
        chain[i] += 1
        chain[self.n + o.h[i]] += 1
        chain[o.v[i]] -= 1
        chain[self.n + i] -= 1
        return chain

    def boundary(self, chain):
        """Boundary of a chain as a vector over the vertex classes."""
        out = [0] * self.num_vertices
        for e, coeff in enumerate(chain):
            if coeff:
                u, w = self.edge_endpoints[e]
                out[u] -= coeff
                out[w] += coeff
        return out

    # -- homology coordinates ---------------------------------------------

    def _fc_coords(self, chain):
        coeffs = [chain[e] for e in self.nontree_edges]
        recombined = _zero_chain(self.n)
        for c, fc in zip(coeffs, self.fundamental_cycles):
            if c:
                recombined = _add_chain(recombined, fc, c)
        _require(recombined == list(chain), "chain is not a cycle")
        return coeffs

    def _chain_from_fc(self, coeffs):
        chain = _zero_chain(self.n)
        for c, fc in zip(coeffs, self.fundamental_cycles):
            if c:
                chain = _add_chain(chain, fc, c)
        return chain

    def coords(self, chain):
        """Homology coordinates (length ``2g``) of a cycle."""
        fc = self._fc_coords(chain)
        return [sum(a * b for a, b in zip(row, fc, strict=True))
                for row in self._proj_rows]

    # -- intersection numbers ---------------------------------------------

    def _corner_imbalance(self, chain):
        """Net chain flow at each corner (a regular point of the complex
        would have zero; cone corners can disagree sheet by sheet)."""
        n, o = self.n, self.origami
        d = [0] * n
        for j in range(n):
            d[j] = (chain[self.hi[j]] + chain[n + self.vi[j]]
                    - chain[j] - chain[n + j])
        return d

    def balance(self, chain):
        r"""
        Add face relations so the chain's flow through every individual
        corner (not just every vertex class) is balanced.

        The intersection formula below counts crossings at square corners
        and is only valid against balanced representatives.
        """
        n, o = self.n, self.origami
        out = list(chain)
        d = self._corner_imbalance(out)
        # rho moves a corner to the next sheet around its vertex; adding the
        # face v^-1(h^-1(x)) moves one unit of imbalance from x to rho(x)
        rho = tuple(o.v[o.h[self.vi[self.hi[x]]]] for x in range(n))
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            orbit = [start]
            seen[start] = True
            x = rho[start]
            while x != start:
                orbit.append(x)
                seen[x] = True
                x = rho[x]
            _require(sum(d[x] for x in orbit) == 0,
                     "cycle has nonzero boundary")
            transfer = 0
            for x in orbit:
                transfer += d[x]
                if transfer:
                    face = self.vi[self.hi[x]]
                    out = _add_chain(out, self.face_chain(face), transfer)
        _require(all(t == 0 for t in self._corner_imbalance(out)),
                 "balanced chain must have no corner imbalance")
        return out

    def pair_chains(self, x, y):
        """Algebraic intersection number of two cycles given as chains."""
        n, o = self.n, self.origami
        yb = self.balance(y)
        total = 0
        for i in range(n):
            total += x[o.v[i]] * yb[n + i]
            total -= x[n + o.h[i]] * yb[i]
        return total

    def holonomy_covectors(self):
        """Two integer covectors evaluating horizontal and vertical holonomy
        on the basis classes."""
        hol_x = [sum(c[: self.n]) for c in self.basis_chains]
        hol_y = [sum(c[self.n:]) for c in self.basis_chains]
        return hol_x, hol_y
