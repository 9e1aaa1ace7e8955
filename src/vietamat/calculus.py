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
from .sympoly import DensePolynomial, NodeSet, leave_one_out_scaled, monic


def nodal_basis(ns: NodeSet) -> tuple[DensePolynomial, ...]:
    """Monic leave-one-out polynomials of the nodes, read off the table:
    polys[j] = prod_{i != j} (x - a_i), of degree n - 1.  With distinct
    nodes, polys[j] vanishes at every node except node j.

    The coefficient of x^{n-1-k} in polys[j] is (-1)^k e_k of the nodes
    without node j, so polys[j] is column j of `leave_one_out_scaled`
    through `monic`, over the same denominator: one O(n^2) integer table
    and no Fraction.  For a single node the basis is the constant
    polynomial 1 (empty product).
    """
    columns, denominators = leave_one_out_scaled(ns)
    return tuple(map(monic, columns, denominators))


def wronskian_matrix(basis: Sequence[DensePolynomial], x0: Fraction) -> ExactMatrix:
    """Matrix with entry (r, j) = r-th derivative of polys[j] at x0.

    Works for any polynomial family, of any degree.  Column j comes from
    one integer Taylor shift of polys[j] by x0 = u / v: with D its
    denominator and d its degree, the integer polynomial
    G(y) = D v^d p(y / v) is shifted to G(u + s) by Horner steps (von zur
    Gathen & Gerhard, ISSAC 1997), whose coefficient h_r gives
    p^(r)(x0) = r! h_r v^r / (D v^d): the column is ints over D v^d,
    with nothing reduced.  O(d^2) integer steps per column.  An empty
    family is rejected, as any empty matrix is.
    """
    n = len(basis)
    x0 = Fraction(x0)
    columns = [_taylor_derivatives(p, x0.numerator, x0.denominator, n) for p in basis]
    return ExactMatrix(zip(*(column for column, _ in columns)), [d for _, d in columns])


def _taylor_derivatives(p: DensePolynomial, u: int, v: int, count: int) -> tuple[list[int], int]:
    """[p(x0), p'(x0), ..., p^(count-1)(x0)] at x0 = u / v, as ints over
    one denominator."""
    coeffs = p.numerators
    d = len(coeffs) - 1
    out = [0] * count
    v_pow = [1]
    for _ in range(d):
        v_pow.append(v_pow[-1] * v)
    g = [c * v_pow[d - m] for m, c in enumerate(coeffs)]
    if u:
        for i in range(d):
            for k in range(d - 1, i - 1, -1):
                g[k] += u * g[k + 1]
    factorial = 1
    for r in range(min(d + 1, count)):
        out[r] = factorial * g[r] * v_pow[r]
        factorial *= r + 1
    return out, p.denominator * v_pow[-1]


def wronskian_closed(ns: NodeSet) -> Fraction:
    """Closed-form Wronskian of the nodal basis: prod_{k<n} k! times the
    node-difference product.  Independent of the evaluation point.  Each
    k! goes through the same reduction as the cross differences, and is
    computed only after `vieta_det_closed` has found no repeated node."""
    return vieta_det_closed(ns, factors=map(math.factorial, range(len(ns))))


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
