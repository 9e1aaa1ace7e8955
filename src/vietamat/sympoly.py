"""Elementary symmetric kernels: e_k values, leave-one-out tables, and
dense univariate polynomials.

Indexing convention, used everywhere downstream: node lists are 0-based,
and column j of a leave-one-out grid describes the multiset with node j
omitted.  Polynomial coefficients are stored in ascending degree, as
ints over one denominator; no numerators at all is the zero polynomial.
"""

from fractions import Fraction
from typing import Iterable

from .rational import as_fraction


class NodeSet(tuple):
    """Ordered rational nodes; at least one node, duplicates allowed.

    A tuple of `Fraction`s, equal to the plain tuple of its nodes;
    `NodeSet(nodes)` reads every value through `as_fraction`.
    """

    __slots__ = ()

    def __new__(cls, nodes: Iterable[Fraction]):
        self = super().__new__(cls, map(as_fraction, nodes))
        if not self:
            raise ValueError("a node set needs at least one node")
        return self


class DensePolynomial:
    """Univariate polynomial with exact coefficients, ascending degree.

    Stored as int `numerators` over one `denominator` >= 1: the
    coefficient of x^m is numerators[m] / denominator, and the scale need
    not be the least one.  Trailing zeros are trimmed at construction, so
    a nonzero polynomial always has a nonzero leading coefficient and the
    zero polynomial, `DensePolynomial((), 1)`, has no numerators.
    Equality compares values, not scales, by cross-multiplying the stored
    ints, so it builds no Fraction; instances are not hashable.  Treat
    them as immutable.  It defines no operators, so `p * q` raises
    TypeError: `scaled_product` is the one loop that multiplies linear
    factors.

    `DensePolynomial(numerators, denominator)` raises ValueError unless
    the numerators are ints and the denominator is an int >= 1.
    """

    def __init__(self, numerators: Iterable[int], denominator: int):
        numerators = list(numerators)
        if not all(type(c) is int for c in numerators):
            raise ValueError("polynomial numerators must be ints")
        if type(denominator) is not int or denominator < 1:
            raise ValueError(f"polynomial denominator must be an int >= 1, got {denominator!r}")
        while numerators and not numerators[-1]:
            numerators.pop()
        self.numerators = tuple(numerators)
        self.denominator = denominator

    def __eq__(self, other):
        if not isinstance(other, DensePolynomial):
            return NotImplemented
        a, b = self.numerators, other.numerators
        d, e = self.denominator, other.denominator
        return len(a) == len(b) and all(x * e == y * d for x, y in zip(a, b))

    def __repr__(self):
        return f"DensePolynomial({self.numerators!r}, {self.denominator!r})"

    def __call__(self, x: Fraction) -> Fraction:
        """Evaluate at x: the first entry of `derivatives`, reduced once."""
        (value,), denominator = self.derivatives(x, 1)
        return Fraction(value, denominator)

    def derivatives(self, x0: Fraction, count: int) -> tuple[list[int], int]:
        """[p(x0), p'(x0), ..., p^(count-1)(x0)] as ints over one
        denominator, unreduced: the one integer Taylor kernel.

        For x0 = u / v, D the denominator and d the degree, the integer
        polynomial G(y) = D v^d p(y / v) is shifted to G(u + s) by Horner
        passes (von zur Gathen & Gerhard, ISSAC 1997).  Pass r fixes the
        coefficient h_r of s^r, and p^(r)(x0) = r! h_r v^r / (D v^d); so
        only min(count, d) passes run: count = 1 is Horner's rule, and at
        x0 = 0 none runs.  O(count d) integer steps.
        """
        u, v = x0.numerator, x0.denominator
        coeffs = self.numerators
        d = len(coeffs) - 1
        v_pow = [1]
        for _ in range(d):
            v_pow.append(v_pow[-1] * v)
        g = [c * v_pow[d - m] for m, c in enumerate(coeffs)]
        if u:
            for i in range(min(count, d)):
                for k in range(d - 1, i - 1, -1):
                    g[k] += u * g[k + 1]
        out = [0] * count
        factorial = 1
        for r in range(min(d + 1, count)):
            out[r] = factorial * g[r] * v_pow[r]
            factorial *= r + 1
        return out, self.denominator * v_pow[-1]


def scaled_product(values: Iterable[Fraction]) -> list[int]:
    """Coefficients of prod_i (q_i + p_i t) for a_i = p_i / q_i, ascending:
    entry k is Q * e_k, and entry 0 is Q = prod_i q_i.  The empty product
    is [1].  The one root-product loop; O(n^2) int steps, nothing reduced."""
    product = [1]
    for a in values:
        p, q = a.numerator, a.denominator
        product.append(0)
        for k in range(len(product) - 1, 0, -1):
            product[k] = q * product[k] + p * product[k - 1]
        product[0] *= q
    return product


def leave_one_out_scaled(ns: NodeSet) -> tuple[list[list[int]], list[int]]:
    """The e_k grid over every leave-one-out multiset of the nodes, in
    ints: columns[j][k] / denominators[j] is e_k of the nodes with node j
    removed, for k = 0..n-1.

    With a_i = p_i / q_i, `scaled_product` gives Q * e_k, Q = prod_i q_i,
    as the coefficients of prod_i (q_i + p_i t).  Column j is
    that product divided exactly by (q_j + p_j t): synthetic division in
    integers, dividing only by q_j >= 1, so repeated or zero nodes need
    no special casing.  Its denominator is Q / q_j, which is also its
    entry 0 (e_0 = 1).  Nothing is reduced.  O(n) integer steps per
    column, O(n^2) in all.
    """
    n = len(ns)
    full = scaled_product(ns)
    columns = []
    for a in ns:
        p, q = a.numerator, a.denominator
        prev = full[0] // q
        column = [prev]
        for k in range(1, n):
            prev = (full[k] - p * prev) // q
            column.append(prev)
        columns.append(column)
    return columns, [column[0] for column in columns]


def leave_one_out_table(ns: NodeSet) -> tuple[tuple[Fraction, ...], ...]:
    """`leave_one_out_scaled` as canonical Fractions, in rows: entry [k][j]
    is e_k of the nodes with node j removed.

    Row 0 is all ones (empty products); column j, read with alternating
    signs, lists the coefficients of the monic polynomial whose roots are
    the other nodes.
    """
    columns, denominators = leave_one_out_scaled(ns)
    return tuple(zip(*([Fraction(f, d) for f in column] for column, d in zip(columns, denominators))))


def monic(scaled_e: list[int], denominator: int) -> DensePolynomial:
    """The polynomial with coefficient (-1)^k e_k at x^(d-k), k = 0..d, for
    e_k = scaled_e[k] / denominator: prod (x - a_i) when the e_k are the
    a_i's.  The one e_k -> polynomial sign flip, over the same scale."""
    d = len(scaled_e) - 1
    return DensePolynomial([-e if (d - m) % 2 else e for m, e in enumerate(reversed(scaled_e))], denominator)


def poly_from_roots(roots: Iterable[Fraction]) -> DensePolynomial:
    """Monic prod_i (x - a_i); the coefficient of x^{n-k} is (-1)^k e_k.
    The empty product is 1."""
    product = scaled_product(roots)
    return monic(product, product[0])
