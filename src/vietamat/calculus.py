"""Two applications of the leave-one-out structure: the Wronskian of the
nodal polynomial family and the Jacobian of the elementary symmetric map.

Both determinants reduce to the same closed product form.  The Wronskian
picks up an extra prod_{k<n} k! factor and is independent of the
evaluation point (each nodal polynomial solves y^(n) = 0, so the
Wronskian is constant); the Jacobian matrix of (e_1, ..., e_n) is
literally the leave-one-out grid, entry for entry.
"""

import math
from fractions import Fraction
from typing import Sequence

from .rational import as_fraction
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
    """Matrix with entry (r, j) = r-th derivative of basis[j] at x0, read by `as_fraction`.

    Works for any polynomial family, of any degree.  Column j is
    `basis[j].derivatives(x0, n)`: ints over one denominator, nothing
    reduced.  An empty family is rejected, as any empty matrix is.
    """
    n = len(basis)
    x0 = as_fraction(x0)
    columns = [p.derivatives(x0, n) for p in basis]
    return ExactMatrix(zip(*(column for column, _ in columns)), [d for _, d in columns])


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
# and by verify; `at` matters only for wronskian.  W(a; x0) = W(a - x0; 0)
# entry for entry, as p_j(x0 + y) is the nodal polynomial of a - x0, so the
# Wronskian is built at 0, where the kernel runs no Taylor pass: O(n^2).
KINDS = {
    "vieta": (lambda ns, at: build_vieta(ns), vieta_det_closed),
    "vandermonde": (lambda ns, at: build_vandermonde(ns), vandermonde_det_closed),
    "wronskian": (lambda ns, at: wronskian_matrix(nodal_basis(NodeSet(a - at for a in ns)), 0), wronskian_closed),
    "jacobian": (lambda ns, at: jacobian_matrix(ns), jacobian_det_closed),
}
