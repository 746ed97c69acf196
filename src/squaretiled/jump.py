r"""
The two analytic forcing arguments along a cylinder pinch, stated as the
closed forms they reduce to.

When all cylinders of a periodic direction are stretched to infinite
modulus, the surface degenerates onto a nodal curve whose dual graph
carries one plumbing parameter per node, ``s_e = a_e · s^{n_e} · (1 +
O(s))``.  The Case 3 argument reads the first non-constant term of a
period off the node exponents; the Case 6 argument shows that unequal
exponents give the derivative of the period matrix a determinant with a
nonzero leading term.  Either leading coefficient is a product of node
values (the scales ``a_e`` and the evaluations ``Θ`` of the limiting
differentials at the nodes) that the argument only needs to be nonzero.
The verdicts report it at node values 1, so each one is fixed by the
node exponents alone.

EXAMPLES::

    >>> case3_verdict(2, 3).exponent
    2
    >>> case6_moduli_forcing(2, 5).coefficient
    28
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import Checked, InvariantViolation

PROVENANCE = "paper argument, node values assumed nonzero"


class _ForcingVerdictFields(NamedTuple):
    verdict: str
    branch: str
    exponent: int = None
    coefficient: int = None
    provenance: str = PROVENANCE


class ForcingVerdict(Checked, _ForcingVerdictFields):
    """Outcome of an analytic forcing argument: which branch fired, the
    exponent and nonzero integer coefficient of the obstructing term at
    node values 1, a short verdict string, and where the fact comes from.
    A zero coefficient is rejected by an explicit ``raise``, so the check
    also runs under ``python -O``."""

    __slots__ = ()

    def _check(self):
        if self.coefficient == 0:
            raise InvariantViolation("the obstructing coefficient must be "
                                     "nonzero")


def _check_exponents(a, b):
    if a < 1 or b < 1:
        raise ValueError("exponents must be positive integers")


def case3_verdict(n1, n2) -> ForcingVerdict:
    r"""
    Exclusion of the one-elliptic-plus-rational-with-loop shape whose two
    connecting nodes have exponents ``n1`` and ``n2``.

    If a surface with this pinch shape carried an isometrically-moving
    period row, every period of the corresponding normalized differentials
    would be constant along the stretch.  Two branches contradict that:

    - unequal exponents: the off-diagonal period picks up ``-a·Θ3·Θ1`` at
      ``s^{min(n1, n2)}`` through a single-edge path, ``a`` being the scale
      of the node with the smaller exponent;
    - equal exponents ``n``: the elliptic self-period picks up
      ``2·a1·a2·ωE(p)·ωE(q)/(1-0)^2`` at ``s^{2n}`` through the two
      two-edge paths across the rational component, whose nodes sit at the
      sphere coordinates 0 and 1.

    At node values 1 the coefficients are ``-1`` and ``2``.

    EXAMPLES::

        >>> v = case3_verdict(1, 2)
        >>> v.verdict, v.branch, v.exponent, v.coefficient
        ('Forni impossible', 'unequal_exponents', 1, -1)
        >>> v = case3_verdict(1, 1)
        >>> v.branch, v.exponent, v.coefficient
        ('equal_exponents', 2, 2)
    """
    _check_exponents(n1, n2)
    if n1 != n2:
        return ForcingVerdict("Forni impossible", "unequal_exponents",
                              min(n1, n2), -1)
    return ForcingVerdict("Forni impossible", "equal_exponents", 2 * n1, 2)


def case6_moduli_forcing(r1, r2) -> ForcingVerdict:
    r"""
    The equal-moduli forcing for two homologous cylinders whose pinch has
    two elliptic components joined at two nodes with exponents ``r1`` and
    ``r2`` (the cylinders' modulus ratios in lowest terms).

    If the exponents differ, let ``m = min(r1, r2)``.  The derivative of
    the period matrix has diagonal entries ``O(s^{2m-1})``, mixed entry
    ``-m·Θ1(p1)·Θ2(p2)·s^{m-1} + O(s^m)``, last diagonal entry
    ``(r1+r2)/s + O(1)`` and the remaining entries ``O(s^{m-1})``.  Its
    determinant leads with ``-(r1+r2)·(m·Θ1(p1)·Θ2(p2))²·s^{2m-3}``, which
    is nonzero.  A degenerating isometric subspace would force that
    determinant to vanish to all orders, so unequal exponents are
    impossible.  ``coefficient`` is the magnitude of the leading term at
    node values 1, ``(r1+r2)·m²``.

    EXAMPLES::

        >>> v = case6_moduli_forcing(1, 2)
        >>> v.verdict, v.exponent, v.coefficient
        ('r1 = r2 forced', -1, 3)
        >>> case6_moduli_forcing(1, 1).verdict
        'consistent'
    """
    _check_exponents(r1, r2)
    if r1 == r2:
        return ForcingVerdict("consistent", "equal_exponents")
    m = min(r1, r2)
    return ForcingVerdict("r1 = r2 forced", "unequal_exponents", 2 * m - 3,
                          (r1 + r2) * m * m)
