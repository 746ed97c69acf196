r"""
Leading-order series for period asymptotics along a cylinder pinch, and
the two analytic forcing arguments built on them.

When all cylinders of a periodic direction are stretched to infinite
modulus, the surface degenerates onto a nodal curve whose dual graph
carries one plumbing parameter per node, ``s_e = a_e · s^{n_e} · (1 +
O(s))``.  The Case 3 argument reads the first non-constant term of a
period off the node exponents; the Case 6 argument shows that unequal
exponents give the derivative of the period matrix a determinant with a
nonzero leading term.  Everything here is exact: scalars are rationals,
series keep their determined terms and one remainder, and verdicts rely
only on nonvanishing.

EXAMPLES::

    >>> f = LeadingSeries.monomial(2, 1) + LeadingSeries.big_o(3)
    >>> (f * LeadingSeries.monomial(3, -1)).leading()
    (0, Fraction(6, 1))
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .errors import InvariantViolation, ShapeMismatch, ZeroNodeValue
from .homology import DualGraph


def _frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


# ---------------------------------------------------------------------------
# leading-order series
# ---------------------------------------------------------------------------


class LeadingSeries:
    r"""
    A germ ``[unknown constant] + Σ_k terms[k]·s^k + O(s^order)`` with
    exact rational coefficients.

    ``order`` is ``None`` for an exact expression (no remainder).  The
    optional unknown constant stands for a closed-form constant the
    calculus never needs to evaluate; it blocks any multiplication that
    would smear it across other exponents.

    EXAMPLES::

        >>> f = LeadingSeries.monomial(2, 3)
        >>> g = LeadingSeries.monomial(5, -1)
        >>> (f * g).terms
        {2: Fraction(10, 1)}
        >>> LeadingSeries({1: 2}, order=3, unknown_const=True)
        LeadingSeries(C + 2*s^1 + O(s^3))
    """

    __slots__ = ("terms", "order", "unknown_const")

    def __init__(self, terms=None, order=None, unknown_const=False):
        self.order = order
        self.unknown_const = bool(unknown_const)
        self.terms = {}
        for k, c in (terms or {}).items():
            c = _frac(c)
            if c != 0 and (order is None or k < order):
                self.terms[k] = c

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, c):
        return cls({0: c})

    @classmethod
    def monomial(cls, coeff, k):
        return cls({k: coeff})

    @classmethod
    def big_o(cls, order):
        return cls(order=order)

    # -- inspection --------------------------------------------------------

    @property
    def is_known_scalar(self):
        """True when the expression is a single exactly-known number."""
        return (not self.unknown_const and self.order is None
                and all(k == 0 for k in self.terms))

    def leading(self):
        """``(exponent, coefficient)`` of the lowest determined nonzero
        term, or ``None`` if no nonzero term is determined."""
        if not self.terms:
            return None
        k = min(self.terms)
        return k, self.terms[k]

    def _min_known_exponent(self):
        exps = list(self.terms)
        if self.unknown_const:
            exps.append(0)
        return min(exps) if exps else None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LeadingSeries):
            other = LeadingSeries.constant(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, Fraction(0)) + c
        if self.order is None:
            order = other.order
        elif other.order is None:
            order = self.order
        else:
            order = min(self.order, other.order)
        return LeadingSeries(terms, order,
                             self.unknown_const or other.unknown_const)

    __radd__ = __add__

    def __neg__(self):
        return LeadingSeries({k: -c for k, c in self.terms.items()},
                             self.order, self.unknown_const)

    def __sub__(self, other):
        if not isinstance(other, LeadingSeries):
            other = LeadingSeries.constant(other)
        return self + (-other)

    def scale(self, c):
        c = _frac(c)
        if c == 0:
            return LeadingSeries()
        return LeadingSeries({k: v * c for k, v in self.terms.items()},
                             self.order, self.unknown_const)

    def __mul__(self, other):
        if not isinstance(other, LeadingSeries):
            other = LeadingSeries.constant(other)
        if self.is_known_scalar:
            return other.scale(self.terms.get(0, Fraction(0)))
        if other.is_known_scalar:
            return self.scale(other.terms.get(0, Fraction(0)))
        if self.unknown_const or other.unknown_const:
            raise ValueError("product with a symbolic constant is outside "
                             "the tracked calculus")
        terms = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = k1 + k2
                terms[k] = terms.get(k, Fraction(0)) + c1 * c2
        orders = []
        for f, g in ((self, other), (other, self)):
            if f.order is not None:
                m = g._min_known_exponent()
                if m is not None:
                    orders.append(f.order + m)
                if g.order is not None:
                    orders.append(f.order + g.order)
        order = min(orders) if orders else None
        return LeadingSeries(terms, order)

    __rmul__ = __mul__

    # -- misc --------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, LeadingSeries)
                and self.terms == other.terms and self.order == other.order
                and self.unknown_const == other.unknown_const)

    def __repr__(self):
        parts = []
        if self.unknown_const:
            parts.append("C")
        for k in sorted(self.terms):
            parts.append("%s*s^%d" % (self.terms[k], k))
        if self.order is not None:
            parts.append("O(s^%d)" % self.order)
        return "LeadingSeries(%s)" % (" + ".join(parts) or "0")


def series_determinant(matrix):
    r"""
    Determinant of a square matrix of :class:`LeadingSeries` by Laplace
    expansion.

    EXAMPLES::

        >>> one = LeadingSeries.constant(1)
        >>> two = LeadingSeries.constant(2)
        >>> series_determinant([[two, one], [one, one]]).terms
        {0: Fraction(1, 1)}
    """
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = LeadingSeries()
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = matrix[0][j] * series_determinant(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


# ---------------------------------------------------------------------------
# weighted dual graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightedDualGraph:
    """A dual graph with plumbing data: per edge an exponent ``n_e >= 1``
    and a nonzero scale ``a_e`` (the node parameter is ``a_e·s^{n_e}`` to
    leading order).  Both are kept as read-only copies, so the values
    checked here are the values the forcing arguments read."""

    graph: DualGraph
    n_e: Mapping
    a_e: Mapping

    def __post_init__(self):
        object.__setattr__(self, "n_e", MappingProxyType(dict(self.n_e)))
        object.__setattr__(self, "a_e", MappingProxyType(dict(self.a_e)))
        edge_ids = {e for e, _ in self.graph.edges}
        for e in edge_ids:
            if self.n_e[e] < 1:
                raise ValueError("edge exponent must be >= 1")
            if _frac(self.a_e[e]) == 0:
                raise ZeroNodeValue("edge scale a_e must be nonzero")


# ---------------------------------------------------------------------------
# forcing arguments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ForcingVerdict:
    """Outcome of an analytic forcing argument: which branch fired, the
    exponent and exact nonzero coefficient of the obstructing term, and a
    short verdict string."""

    verdict: str
    branch: str
    exponent: int = None
    coefficient: Fraction = None
    series: LeadingSeries = None


def _case3_shape(graph: DualGraph):
    """Return (elliptic vertex, rational vertex, loop edge, connecting
    edge ids) if the graph is one genus-1 vertex and one genus-0 vertex
    with a loop joined by two edges; raise ShapeMismatch otherwise."""
    genera = dict(graph.vertices)
    if sorted(genera.values()) != [0, 1] or len(graph.edges) != 3:
        raise ShapeMismatch("need one genus-1 and one genus-0 component "
                            "with three nodes")
    elliptic = next(v for v, gn in genera.items() if gn == 1)
    rational = next(v for v, gn in genera.items() if gn == 0)
    loops = [e for e, (a, b) in graph.edges if a == b]
    cross = [e for e, (a, b) in graph.edges if a != b]
    if len(loops) != 1 or len(cross) != 2:
        raise ShapeMismatch("need a loop at the genus-0 component and two "
                            "connecting nodes")
    if dict(graph.edges)[loops[0]][0] != rational:
        raise ShapeMismatch("the loop must sit on the genus-0 component")
    return elliptic, rational, loops[0], cross


def _check_nonzero(coeff):
    if coeff == 0:
        raise InvariantViolation("the obstructing coefficient must be "
                                 "nonzero")


def case3_verdict(g: WeightedDualGraph, node_values) -> ForcingVerdict:
    r"""
    Exclusion of the one-elliptic-plus-rational-with-loop shape.

    If a surface with this pinch shape carried an isometrically-moving
    period row, every period of the corresponding normalized differentials
    would be constant along the stretch.  Two branches contradict that:

    - unequal node exponents (``n1 != n2``): the off-diagonal period picks
      up ``-a·Θ3·Θ1`` at the smaller exponent through a single-edge path;
    - equal exponents: the elliptic self-period picks up
      ``2·a1·a2·ωE(p)·ωE(q)/(1-0)^2`` at ``s^{n1+n2}`` through the two
      two-edge paths across the rational component, whose nodes sit at the
      sphere coordinates 0 and 1.

    ``node_values`` must supply nonzero ``theta1_p``, ``theta1_q``
    (elliptic evaluations at the two connecting nodes) and ``theta3_0``,
    ``theta3_1`` (rational-side evaluations at sphere coordinates 0, 1).

    EXAMPLES::

        >>> v = case3_verdict(_case3_graph_example(1, 2), _UNIT_VALUES)
        >>> v.verdict, v.branch, v.exponent, v.coefficient
        ('Forni impossible', 'unequal_exponents', 1, Fraction(-1, 1))
        >>> v = case3_verdict(_case3_graph_example(1, 1), _UNIT_VALUES)
        >>> v.branch, v.exponent, v.coefficient
        ('equal_exponents', 2, Fraction(2, 1))
    """
    _, _, _, cross = _case3_shape(g.graph)
    e1, e2 = sorted(cross)
    for key in ("theta1_p", "theta1_q", "theta3_0", "theta3_1"):
        if _frac(node_values[key]) == 0:
            raise ZeroNodeValue("node value %s is zero" % key)
    n1, n2 = g.n_e[e1], g.n_e[e2]
    a1, a2 = _frac(g.a_e[e1]), _frac(g.a_e[e2])
    if n1 != n2:
        if n1 < n2:
            a_min, theta3, theta1 = a1, node_values["theta3_0"], \
                node_values["theta1_p"]
            k = n1
        else:
            a_min, theta3, theta1 = a2, node_values["theta3_1"], \
                node_values["theta1_q"]
            k = n2
        coeff = -a_min * _frac(theta3) * _frac(theta1)
        _check_nonzero(coeff)
        series = LeadingSeries({k: coeff}, order=k + 1, unknown_const=True)
        return ForcingVerdict("Forni impossible", "unequal_exponents",
                              k, coeff, series)
    # equal exponents: the sphere kernel between coordinates 0 and 1 is
    # 1/(1-0)^2 with the orientation conventions of this argument
    k = n1 + n2
    coeff = 2 * a1 * a2 * _frac(node_values["theta1_p"]) \
        * _frac(node_values["theta1_q"]) * Fraction(1)
    _check_nonzero(coeff)
    series = LeadingSeries({k: coeff}, order=k + 1, unknown_const=True)
    return ForcingVerdict("Forni impossible", "equal_exponents",
                          k, coeff, series)


_UNIT_VALUES = {"theta1_p": 1, "theta1_q": 1, "theta3_0": 0 + 1,
                "theta3_1": 1}


def _case3_graph_example(n1, n2):
    graph = DualGraph(((0, 1), (1, 0)),
                      ((0, (0, 1)), (1, (0, 1)), (2, (1, 1))))
    return WeightedDualGraph(graph, {0: n1, 1: n2, 2: 1},
                             {0: 1, 1: 1, 2: 1})


def _case6_shape(graph: DualGraph):
    genera = dict(graph.vertices)
    if sorted(genera.values()) != [1, 1] or len(graph.edges) != 2:
        raise ShapeMismatch("need two genus-1 components joined by two "
                            "nodes")
    for _, (a, b) in graph.edges:
        if a == b:
            raise ShapeMismatch("both nodes must join the two components")


def case6_moduli_forcing(r1, r2, node_values, graph=None) -> ForcingVerdict:
    r"""
    The equal-moduli forcing for two homologous cylinders whose pinch has
    two elliptic components joined at two nodes.

    If the two node exponents ``r1, r2`` (the cylinders' modulus ratios in
    lowest terms) differ, the derivative of the period matrix has the exact
    leading structure: diagonal entries ``O(s^{2·min-1})``, mixed entry
    ``-min·Θ1(p1)·Θ2(p2)·s^{min-1} + O(s^min)``, last diagonal entry
    ``(r1+r2)/s + O(1)`` — and its determinant's leading coefficient at
    order ``2·min - 3`` is ``(r1+r2)·(min·Θ1(p1)·Θ2(p2))²``, nonzero.  A
    degenerating isometric subspace would force that determinant to vanish
    to all orders, so unequal exponents are impossible.

    EXAMPLES::

        >>> v = case6_moduli_forcing(1, 2, {"theta1_p1": 1, "theta2_p2": 1})
        >>> v.verdict, v.exponent, v.coefficient
        ('r1 = r2 forced', -1, Fraction(3, 1))
        >>> case6_moduli_forcing(1, 1, {"theta1_p1": 1, "theta2_p2": 1}).verdict
        'consistent'
    """
    if graph is not None:
        _case6_shape(graph)
    if r1 < 1 or r2 < 1:
        raise ValueError("exponents must be positive integers")
    t1 = _frac(node_values["theta1_p1"])
    t2 = _frac(node_values["theta2_p2"])
    if t1 == 0 or t2 == 0:
        raise ZeroNodeValue("nodal evaluations must be nonzero")
    if r1 == r2:
        return ForcingVerdict("consistent", "equal_exponents")
    r = min(r1, r2)
    mixed = LeadingSeries.monomial(-r * t1 * t2, r - 1) \
        + LeadingSeries.big_o(r)
    diag = LeadingSeries.big_o(2 * r - 1)
    tail = LeadingSeries.big_o(r - 1)
    last = LeadingSeries.monomial(r1 + r2, -1) + LeadingSeries.big_o(0)
    matrix = [[diag, mixed, tail],
              [mixed, diag, tail],
              [tail, tail, last]]
    det = series_determinant(matrix)
    k = 2 * r - 3
    lead = det.leading()
    if lead is None or lead[0] != k or lead[1] == 0:
        raise InvariantViolation("the determinant must lead at s^%d, got %r"
                                 % (k, det))
    coeff = (r1 + r2) * (r * t1 * t2) ** 2
    if abs(lead[1]) != coeff:
        raise InvariantViolation("the determinant's leading coefficient %s "
                                 "is not the closed form %s up to sign"
                                 % (lead[1], coeff))
    return ForcingVerdict("r1 = r2 forced", "unequal_exponents",
                          k, coeff, det)
