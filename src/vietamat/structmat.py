"""Structured matrix builders and their closed-form determinants.

The central object is the matrix whose column j stacks e_0..e_{n-1} of
the node multiset with node j removed; its determinant has the closed
product form prod_{i<k} (a_i - a_k).  The classic power matrix is built
alongside as a cross-check: its determinant uses the opposite orientation
prod_{k>i} (a_k - a_i), and the two products differ exactly by the sign
(-1)^{n(n-1)/2}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .sympoly import DensePolynomial, NodeSet, leave_one_out_table, poly_from_roots


@dataclass(frozen=True)
class ExactMatrix:
    """Square dense matrix of exact rationals, row-major, at least 1x1.

    Any other shape raises ValueError, so the `matio` JSON/CSV readers
    reject non-square text too.
    """

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(Fraction(e) for e in row) for row in self.entries)
        if not rows or any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square and at least 1x1")
        object.__setattr__(self, "entries", rows)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[Fraction]]) -> "ExactMatrix":
        return cls(tuple(tuple(row) for row in rows))

    @property
    def n_rows(self) -> int:
        return len(self.entries)


def build_vieta(ns: NodeSet) -> ExactMatrix:
    """n x n matrix with entry (r, j) = e_r of the nodes omitting node j.

    Row 0 is all ones; a single node gives [[1]].
    """
    return ExactMatrix(leave_one_out_table(ns))


def vieta_det_closed(ns: NodeSet) -> Fraction:
    """Closed-form determinant of `build_vieta`: prod_{i<k} (a_i - a_k).

    With a_i = p_i / q_i, the integer cross differences
    p_i q_k - p_k q_i are multiplied and reduced once against
    (prod_i q_i)^(n-1).  The empty product (n = 1) is 1; any repeated
    node zeroes a factor.
    """
    nodes = ns.nodes
    num, den = 1, 1
    for i, a in enumerate(nodes):
        p, q = a.numerator, a.denominator
        den *= q
        for b in nodes[i + 1:]:
            num *= p * b.denominator - b.numerator * q
        if not num:
            return Fraction(0)
    return Fraction(num, den ** (len(nodes) - 1))


def build_vandermonde(ns: NodeSet) -> ExactMatrix:
    """n x n power matrix with entry (r, j) = a_j ** r, r = 0..n-1."""
    n = len(ns)
    rows = [[Fraction(1)] * n]
    for _ in range(1, n):
        rows.append([p * a for p, a in zip(rows[-1], ns.nodes)])
    return ExactMatrix(tuple(tuple(row) for row in rows))


def vandermonde_det_closed(ns: NodeSet) -> Fraction:
    """Closed-form determinant of `build_vandermonde`: prod_{k>i} (a_k - a_i),
    which is (-1)^{n(n-1)/2} times `vieta_det_closed`."""
    n = len(ns)
    det = vieta_det_closed(ns)
    return -det if n * (n - 1) // 2 % 2 else det


def shift_nodes(ns: NodeSet, c: Fraction) -> NodeSet:
    """Subtract c from every node, preserving order.

    The closed-form determinant is invariant under this shift even though
    the matrix entries all change.
    """
    return NodeSet(tuple(a - c for a in ns.nodes))


def vieta_extension_poly(ns: NodeSet) -> DensePolynomial:
    """The determinant of the (n+1)-node matrix over nodes + [x], as a
    polynomial in x.

    Closed form: (-1)^n * vieta_det_closed(ns) * prod_i (x - a_i), of
    degree n.  Repeated nodes zero the leading constant, and the zero
    polynomial is returned.
    """
    lead = vieta_det_closed(ns)
    if lead == 0:
        return DensePolynomial.zero()
    if len(ns) % 2:
        lead = -lead
    return poly_from_roots(ns) * lead
