"""Elementary symmetric kernels: e_k values, leave-one-out tables, and
dense univariate polynomials.

Indexing convention, used everywhere downstream: node lists are 0-based,
and column j of a leave-one-out grid describes the multiset with node j
omitted.  Polynomial coefficients are stored in ascending degree; the
empty tuple is the zero polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator


@dataclass(frozen=True)
class NodeSet:
    """Ordered rational nodes; at least one node, duplicates allowed."""

    nodes: tuple[Fraction, ...]

    def __post_init__(self):
        coerced = tuple(Fraction(v) for v in self.nodes)
        if not coerced:
            raise ValueError("a node set needs at least one node")
        object.__setattr__(self, "nodes", coerced)

    @classmethod
    def of(cls, *values) -> "NodeSet":
        """Convenience constructor accepting ints, strings, or Fractions."""
        return cls(tuple(Fraction(v) for v in values))

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.nodes)

    def __getitem__(self, index: int) -> Fraction:
        return self.nodes[index]

    def without(self, index: int) -> tuple[Fraction, ...]:
        """All nodes except the one at `index`, order preserved."""
        return self.nodes[:index] + self.nodes[index + 1:]


@dataclass(frozen=True)
class DensePolynomial:
    """Univariate polynomial with exact coefficients, ascending degree.

    Trailing zeros are trimmed at construction, so a nonzero polynomial
    always has a nonzero leading coefficient and the zero polynomial is
    uniquely the empty tuple.
    """

    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = [Fraction(c) for c in self.coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @classmethod
    def of(cls, *coefficients) -> "DensePolynomial":
        return cls(tuple(Fraction(c) for c in coefficients))

    @classmethod
    def zero(cls) -> "DensePolynomial":
        return cls(())

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    def __call__(self, x: Fraction) -> Fraction:
        """Evaluate at x by Horner's rule."""
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def __mul__(self, other):
        if isinstance(other, DensePolynomial):
            a, b = self.coefficients, other.coefficients
            if not a or not b:
                return DensePolynomial.zero()
            out = [Fraction(0)] * (len(a) + len(b) - 1)
            for i, ca in enumerate(a):
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
            return DensePolynomial(tuple(out))
        if isinstance(other, (int, Fraction)):
            return DensePolynomial(tuple(Fraction(other) * c for c in self.coefficients))
        return NotImplemented

    __rmul__ = __mul__


def elem_sym_all(ns: NodeSet) -> list[Fraction]:
    """All elementary symmetric values [e_0, e_1, ..., e_n] of the nodes.

    Computed by multiplying the running generating polynomial by (1 + a*t)
    once per node: O(n^2) exact multiplications, no divisions.
    """
    e = [Fraction(1)]
    for a in ns:
        e.append(Fraction(0))
        for k in range(len(e) - 1, 0, -1):
            e[k] += a * e[k - 1]
    return e


def leave_one_out_table(ns: NodeSet) -> tuple[tuple[Fraction, ...], ...]:
    """The e_k grid over every leave-one-out multiset of the nodes, as rows:
    entry [k][j] is e_k of the nodes with node j removed.

    Row 0 is all ones (empty products); column j, read with alternating
    signs, lists the coefficients of the monic polynomial whose roots are
    the other nodes.

    Writing a_i = p_i / q_i, the integer coefficients of
    prod_i (q_i + p_i t) are Q * e_k with Q = prod_i q_i.  Column j is
    that product divided exactly by (q_j + p_j t): synthetic division in
    integers, dividing only by q_j >= 1, so repeated or zero nodes need
    no special casing.  Each entry is reduced once, as F / (Q / q_j).
    O(n) integer steps per column, O(n^2) in all.
    """
    n = len(ns)
    full = [1]
    for a in ns:
        p, q = a.numerator, a.denominator
        full.append(0)
        for k in range(len(full) - 1, 0, -1):
            full[k] = q * full[k] + p * full[k - 1]
        full[0] *= q
    columns = []
    for a in ns:
        p, q = a.numerator, a.denominator
        scale = prev = full[0] // q
        column = [Fraction(1)]
        for k in range(1, n):
            prev = (full[k] - p * prev) // q
            column.append(Fraction(prev, scale))
        columns.append(column)
    return tuple(zip(*columns))


def poly_from_roots(roots: Iterable[Fraction]) -> DensePolynomial:
    """Monic prod_i (x - a_i); the coefficient of x^{n-k} is (-1)^k e_k.
    The empty product is 1."""
    coeffs = [Fraction(1)]
    for a in roots:
        coeffs.insert(0, Fraction(0))
        for k in range(len(coeffs) - 1):
            coeffs[k] -= a * coeffs[k + 1]
    return DensePolynomial(tuple(coeffs))
