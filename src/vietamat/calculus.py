"""Two applications of the leave-one-out structure: the Wronskian of the
nodal polynomial family and the Jacobian of the elementary symmetric map.

Both determinants reduce to the same closed product form.  The Wronskian
picks up an extra prod_{k<n} k! factor and is independent of the
evaluation point (each nodal polynomial solves y^(n) = 0, so the
Wronskian is constant); the Jacobian matrix of (e_1, ..., e_n) is
literally the leave-one-out grid, entry for entry.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .structmat import ExactMatrix, build_vandermonde, build_vieta, vandermonde_det_closed, vieta_det_closed
from .sympoly import DensePolynomial, NodeSet, leave_one_out_table


def nodal_basis(ns: NodeSet) -> tuple[DensePolynomial, ...]:
    """Monic leave-one-out polynomials of the nodes, read off the table:
    polys[j] = prod_{i != j} (x - a_i), of degree n - 1.  With distinct
    nodes, polys[j] vanishes at every node except node j.

    The coefficient of x^{n-1-k} in polys[j] is (-1)^k times entry
    (k, j) of `leave_one_out_table`, so the basis costs one O(n^2) table
    and a sign flip per entry.  For a single node the basis is the
    constant polynomial 1 (empty product).
    """
    signed = [[-e if k % 2 else e for e in row] for k, row in enumerate(leave_one_out_table(ns))]
    signed.reverse()
    return tuple(DensePolynomial(column) for column in zip(*signed))


def poly_derivative(p: DensePolynomial, order: int = 1) -> DensePolynomial:
    """Formal derivative iterated `order` times; order 0 returns p."""
    if order < 0:
        raise ValueError("derivative order must be nonnegative")
    coeffs = p.coefficients
    for _ in range(order):
        coeffs = tuple(k * c for k, c in enumerate(coeffs) if k > 0)
    return DensePolynomial(coeffs)


def wronskian_matrix(basis: Sequence[DensePolynomial], x0: Fraction) -> ExactMatrix:
    """Matrix with entry (r, j) = r-th derivative of polys[j] at x0.

    Works for any polynomial family, of any degree.  Column j comes from
    one integer Taylor shift of polys[j] by x0 = u / v: with D the
    common coefficient denominator and d the degree, the integer
    polynomial G(y) = D v^d p(y / v) is shifted to G(u + s) by Horner
    steps (von zur Gathen & Gerhard, ISSAC 1997), whose coefficient h_r
    gives p^(r)(x0) = r! h_r / (D v^(d-r)), reduced once.  O(d^2)
    integer steps per column.  An empty family is rejected, as any empty
    matrix is.
    """
    n = len(basis)
    x0 = Fraction(x0)
    columns = [_taylor_derivatives(p, x0.numerator, x0.denominator, n) for p in basis]
    return ExactMatrix(tuple(zip(*columns)))


def _taylor_derivatives(p: DensePolynomial, u: int, v: int, count: int) -> list[Fraction]:
    """[p(x0), p'(x0), ..., p^(count-1)(x0)] at x0 = u / v."""
    coeffs = p.coefficients
    d = len(coeffs) - 1
    out = [Fraction(0)] * count
    denom = math.lcm(*(c.denominator for c in coeffs))
    v_pow = [1]
    for _ in range(d):
        v_pow.append(v_pow[-1] * v)
    g = [c.numerator * (denom // c.denominator) * v_pow[d - m] for m, c in enumerate(coeffs)]
    if u:
        for i in range(d):
            for k in range(d - 1, i - 1, -1):
                g[k] += u * g[k + 1]
    factorial = 1
    for r in range(min(d + 1, count)):
        out[r] = Fraction(factorial * g[r], denom * v_pow[d - r])
        factorial *= r + 1
    return out


def wronskian_closed(ns: NodeSet) -> Fraction:
    """Closed-form Wronskian of the nodal basis: prod_{k<n} k! times the
    node-difference product.  Independent of the evaluation point."""
    scale = math.prod(math.factorial(k) for k in range(len(ns)))
    return scale * vieta_det_closed(ns)


# The partial d e_{r+1} / d x_{c+1} is e_r of the other coordinates, so the
# Jacobian of (e_1, ..., e_n) is the leave-one-out grid entry for entry and
# its determinant is the same product prod_{i<k} (x_i - x_k).  The paper's
# names stay; the kernels are the Vieta ones.
jacobian_matrix = build_vieta
jacobian_det_closed = vieta_det_closed


# The one kind -> (build(nodes, at), closed(nodes)) table, read by the CLI
# and by verify; `at` matters only for wronskian.
KINDS = {
    "vieta": (lambda ns, at: build_vieta(ns), vieta_det_closed),
    "vandermonde": (lambda ns, at: build_vandermonde(ns), vandermonde_det_closed),
    "wronskian": (lambda ns, at: wronskian_matrix(nodal_basis(ns), at), wronskian_closed),
    "jacobian": (lambda ns, at: jacobian_matrix(ns), jacobian_det_closed),
}
