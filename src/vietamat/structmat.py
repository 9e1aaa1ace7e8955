"""Structured matrix builders and their closed-form determinants.

The central object is the matrix whose column j stacks e_0..e_{n-1} of
the node multiset with node j removed; its determinant has the closed
product form prod_{i<k} (a_i - a_k).  The classic power matrix is built
alongside as a cross-check: its determinant uses the opposite orientation
prod_{k>i} (a_k - a_i), and the two products differ exactly by the sign
(-1)^{n(n-1)/2}.
"""

import numbers
from fractions import Fraction
from itertools import chain
from math import gcd, lcm, prod
from typing import Iterable, NamedTuple

from .rational import as_fraction
from .sympoly import DensePolynomial, NodeSet, leave_one_out_scaled, poly_from_roots


class ExactMatrix:
    """Square dense matrix of exact rationals, at least 1x1.

    Stored as int `numerators`, row-major, over one `denominators[j]` >= 1
    per column: entry (r, j) is numerators[r][j] / denominators[j], and
    the scale need not be the least one.  `entries`, the canonical
    Fraction rows, is built anew on each read.  Equality compares values,
    not scales, by cross-multiplying the stored ints, so it builds no
    Fraction; instances are not hashable.  Treat them as immutable.

    `ExactMatrix(numerators, denominators)` takes the integer form and
    raises ValueError unless the numerators are a square grid of ints and
    there is one int >= 1 per column; `from_rows` takes rows of rationals
    (`as_fraction`) and clears each column to its lcm once.  Both reject any
    shape but square.
    """

    def __init__(self, numerators: Iterable[Iterable[int]], denominators: Iterable[int]):
        numerators = tuple(tuple(row) for row in numerators)
        denominators = tuple(denominators)
        _require_square(numerators)
        if not all(type(e) is int for row in numerators for e in row):
            raise ValueError("matrix numerators must be ints")
        if len(denominators) != len(numerators) or not all(type(d) is int and d >= 1 for d in denominators):
            raise ValueError("a matrix needs one int denominator >= 1 per column")
        self.numerators = numerators
        self.denominators = denominators

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[Fraction]]) -> "ExactMatrix":
        rows = [[as_fraction(e) for e in row] for row in rows]
        # Before zip(*rows), which would cut ragged rows to a square.
        _require_square(rows)
        denominators = [lcm(*(e.denominator for e in column)) for column in zip(*rows)]
        return cls(
            [[e.numerator * (d // e.denominator) for e, d in zip(row, denominators)] for row in rows], denominators
        )

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(e, d) for e, d in zip(row, self.denominators)) for row in self.numerators)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        d, e = self.denominators, other.denominators
        return len(self.numerators) == len(other.numerators) and all(
            x * ej == y * dj
            for row, other_row in zip(self.numerators, other.numerators)
            for x, y, dj, ej in zip(row, other_row, d, e)
        )

    def __repr__(self):
        return f"ExactMatrix({self.numerators!r}, {self.denominators!r})"


def _require_square(rows) -> None:
    if not rows or any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix must be square and at least 1x1")


def build_vieta(ns: NodeSet) -> ExactMatrix:
    """n x n matrix with entry (r, j) = e_r of the nodes omitting node j.

    Row 0 is all ones; a single node gives [[1]].  Column j keeps the
    integer kernel's denominator Q / q_j (see `leave_one_out_scaled`).
    """
    columns, denominators = leave_one_out_scaled(ns)
    return ExactMatrix(zip(*columns), denominators)


def vieta_det_closed(ns: NodeSet, *, factors: Iterable[int] = ()) -> Fraction:
    """Closed-form determinant of `build_vieta`: prod_{i<k} (a_i - a_k),
    times the ints `factors` (none by default).

    With a_i = p_i / q_i and Q = prod_i q_i, the value is the product of
    the cross differences d_ik = p_i q_k - p_k q_i over Q^(n-1).  The
    empty product (n = 1) is 1.  A repeated node, wherever it sits,
    zeroes a cross difference, so the nodes are checked for a repeat
    before anything is multiplied and before `factors` is read.  They are
    compared as (p, q) pairs: a Fraction is in lowest terms, so equal
    nodes have equal pairs, and a pair hashes far faster than a Fraction.
    A zero factor returns 0 when the split reaches it: gcd(0, Q) is Q.

    No gcd or division takes the full products.  Each row product
    prod_{k>i} d_ik, and then each of `factors`, splits into a Q-smooth
    part and a part coprime to Q: g = gcd(f, Q), then f //= g and
    g = gcd(f, g) until g is 1.  Only the product S of the smooth parts
    can share a prime with Q^(n-1), and it is cancelled one copy of Q at
    a time: h = gcd(S, Q), S //= h, keep Q // h, until S is 1 or the n - 1
    copies are used.  Each h divides the one before, so after the first
    it is gcd(S, h), a smaller operand.  For each prime, one of S // h and
    Q // h keeps none of it, so every kept Q // h is coprime to the S that
    remains, and the pair is in lowest terms without a final gcd.
    """
    pairs = [(a.numerator, a.denominator) for a in ns]
    if len(set(pairs)) < len(pairs):
        return Fraction(0)
    q = product_tree([t for _, t in pairs])
    # A row multiplies at most n - 1 factors of two entries' size, which a
    # linear product does as fast as a tree.
    rows = (prod([p * t - r * s for r, t in pairs[i + 1:]]) for i, (p, s) in enumerate(pairs))
    smooth, coprime = [], []
    for f in chain(rows, factors):
        if not f:
            return Fraction(0)
        g = gcd(f, q)
        while g > 1:
            smooth.append(g)
            f //= g
            g = gcd(f, g)
        coprime.append(f)
    s = product_tree(smooth)
    kept, h = [], q
    while s > 1 and len(kept) < len(pairs) - 1:
        h = gcd(s, h)
        s //= h
        kept.append(q // h)
    kept.append(q ** (len(pairs) - 1 - len(kept)))
    coprime.append(s)
    return Fraction(_LowestTerms(product_tree(coprime), product_tree(kept)))


class _LowestTerms(NamedTuple):
    """A numerator and a positive denominator that share no prime.

    Registered as a `numbers.Rational`, so `Fraction(_LowestTerms(p, q))`
    takes the pair as it stands, without a gcd: CPython 3.10-3.13 copy a
    Rational's two attributes.  A version that reduced them again would
    only be slower.
    """

    numerator: int
    denominator: int


numbers.Rational.register(_LowestTerms)


def product_tree(factors: list[int]) -> int:
    """Product of ints, split in halves down to runs of at most 8 factors,
    each multiplied in turn.  The large multiplications then join
    operands of similar size, where CPython's Karatsuba pays, instead of
    one growing product and a small factor.  The empty product is 1."""
    if len(factors) <= 8:
        return prod(factors)
    mid = len(factors) // 2
    return product_tree(factors[:mid]) * product_tree(factors[mid:])


def build_vandermonde(ns: NodeSet) -> ExactMatrix:
    """n x n power matrix with entry (r, j) = a_j ** r, r = 0..n-1.

    With a_j = p_j / q_j, column j is p_j^r q_j^(n-1-r) over q_j^(n-1).
    """
    n = len(ns)
    columns = []
    for a in ns:
        p, q = a.numerator, a.denominator
        p_pow, q_pow = [1], [1]
        for _ in range(1, n):
            p_pow.append(p_pow[-1] * p)
            q_pow.append(q_pow[-1] * q)
        columns.append([pr * qr for pr, qr in zip(p_pow, reversed(q_pow))])
    return ExactMatrix(zip(*columns), [column[0] for column in columns])


def vandermonde_det_closed(ns: NodeSet) -> Fraction:
    """Closed-form determinant of `build_vandermonde`: prod_{k>i} (a_k - a_i),
    which is (-1)^{n(n-1)/2} times `vieta_det_closed`."""
    n = len(ns)
    det = vieta_det_closed(ns)
    return -det if n * (n - 1) // 2 % 2 else det


def vieta_extension_poly(ns: NodeSet) -> DensePolynomial:
    """The determinant of the (n+1)-node matrix over nodes + [x], as a
    polynomial in x.

    Closed form: (-1)^n * vieta_det_closed(ns) * prod_i (x - a_i), of
    degree n; (-1)^n is a closed-form factor.  A repeated node zeroes the
    constant, and then the product of the roots is not built.
    """
    lead = vieta_det_closed(ns, factors=[-1] * (len(ns) % 2))
    if lead == 0:
        return DensePolynomial((), 1)
    roots = poly_from_roots(ns)
    return DensePolynomial([c * lead.numerator for c in roots.numerators], roots.denominator * lead.denominator)
