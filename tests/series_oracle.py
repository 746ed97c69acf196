"""Slow, independent leading-order series calculus: exact rational series
that keep their determined terms and one remainder, determinants of
series matrices by Laplace expansion, and the leading structure of the
derivative of the Case 6 period matrix.  The reference that the closed
forms of ``squaretiled.jump`` are compared against.
"""

from fractions import Fraction


class LeadingSeries:
    r"""
    A germ ``Σ_k terms[k]·s^k + O(s^order)`` with exact rational
    coefficients; ``order`` is ``None`` for an exact expression.  No
    operation keeps a term that the remainder could change.

    >>> f = LeadingSeries.monomial(2, 3)
    >>> g = LeadingSeries.monomial(5, -1)
    >>> (f * g).terms
    {2: Fraction(10, 1)}
    >>> f * (g + LeadingSeries.big_o(0))
    LeadingSeries(10*s^2 + O(s^3))
    """

    __slots__ = ("terms", "order")

    def __init__(self, terms=None, order=None):
        self.order = order
        self.terms = {k: Fraction(c) for k, c in (terms or {}).items()
                      if c != 0 and (order is None or k < order)}

    @classmethod
    def monomial(cls, coeff, k):
        return cls({k: coeff})

    @classmethod
    def big_o(cls, order):
        return cls(order=order)

    def leading(self):
        """``(exponent, coefficient)`` of the lowest determined nonzero
        term, or ``None`` if no nonzero term is determined."""
        if not self.terms:
            return None
        k = min(self.terms)
        return k, self.terms[k]

    def __add__(self, other):
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0) + c
        orders = [o for o in (self.order, other.order) if o is not None]
        return LeadingSeries(terms, min(orders, default=None))

    def __neg__(self):
        return LeadingSeries({k: -c for k, c in self.terms.items()},
                             self.order)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        terms = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                terms[k1 + k2] = terms.get(k1 + k2, 0) + c1 * c2
        # a remainder times the other factor's lowest term or remainder
        orders = [f.order + k for f, g in ((self, other), (other, self))
                  if f.order is not None
                  for k in (min(g.terms, default=None), g.order)
                  if k is not None]
        return LeadingSeries(terms, min(orders, default=None))

    def __eq__(self, other):
        return (isinstance(other, LeadingSeries)
                and self.terms == other.terms and self.order == other.order)

    def __repr__(self):
        parts = ["%s*s^%d" % (self.terms[k], k) for k in sorted(self.terms)]
        if self.order is not None:
            parts.append("O(s^%d)" % self.order)
        return "LeadingSeries(%s)" % (" + ".join(parts) or "0")


def series_determinant(matrix):
    r"""
    Determinant of a square matrix of :class:`LeadingSeries` by Laplace
    expansion along the first row.

    >>> one = LeadingSeries.monomial(1, 0)
    >>> two = LeadingSeries.monomial(2, 0)
    >>> series_determinant([[two, one], [one, one]]).terms
    {0: Fraction(1, 1)}
    """
    if len(matrix) == 1:
        return matrix[0][0]
    total = LeadingSeries()
    for j, entry in enumerate(matrix[0]):
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = entry * series_determinant(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def case6_period_derivative(r1, r2, theta1, theta2):
    r"""
    The leading structure of the derivative of the Case 6 period matrix for
    node exponents ``r1 != r2`` and nodal evaluations ``Θ1(p1) = theta1``,
    ``Θ2(p2) = theta2``, as ``squaretiled.jump.case6_moduli_forcing``
    states it.

    >>> series_determinant(case6_period_derivative(2, 5, 1, 1)).leading()
    (1, Fraction(-28, 1))
    """
    m = min(r1, r2)
    diag = LeadingSeries.big_o(2 * m - 1)
    mixed = LeadingSeries({m - 1: -m * theta1 * theta2}, order=m)
    tail = LeadingSeries.big_o(m - 1)
    last = LeadingSeries({-1: r1 + r2}, order=0)
    return [[diag, mixed, tail],
            [mixed, diag, tail],
            [tail, tail, last]]
