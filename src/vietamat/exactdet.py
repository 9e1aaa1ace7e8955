"""Independent exact determinant oracles.

Two deliberately different algorithms validate every closed form in this
library: cofactor expansion (no elimination ideas at all) and
fraction-free elimination.  A bug would have to strike both the product
formula and two unrelated determinant routes identically to go unnoticed.

Both run on the matrix's stored ints, `ExactMatrix.numerators` over one
column scale `denominators`, and apply that scale once at the end; the
Fraction `entries` are made from the same ints.  det_laplace expands
them bottom-up: one list of minors per row, one per column set, each a
sum of products whose factors a plan cached per n picks.  det_bareiss
returns 0 at once for two equal stored columns, divides each row by the
gcd of its numerators, and eliminates on a trailing block stored over
one int scale per column: a stored entry times its column's scale is the
true Bareiss entry, each column's content moves into its scale before
each step, and a step divides by prev // gcd(prev, scale product) rather
than by the previous pivot prev.  What keeps the two apart is the
algorithm: cofactor expansion, which never divides, against elimination
over per-column content scales, so a bug in one cannot hide in both.
Neither oracle knows the matrix's structure.
`ORACLES` maps each method to an (oracle, reach) pair, the reach being
the largest n it accepts or None: the one list of oracles and reaches.
"""

import functools
import itertools
from fractions import Fraction
from math import gcd, prod
from operator import floordiv, itemgetter, mul, neg

from .rational import SizeGuardError
from .structmat import ExactMatrix

# The largest matrix det_laplace accepts; its work grows as n * 2^n.
LAPLACE_MAX = 8


@functools.cache
def _expansion_plan(n: int) -> tuple:
    """For each level s = 2..n, a triple (s, coeffs, subs) whose two
    itemgetters run over the s-column sets M in `itertools.combinations`
    order and, within each set, over its columns j at positions t =
    0..s-1.  Applied to a row followed by its negation, coeffs picks
    (-1)^t times entry j: from the row for even t, from the negation, n
    places on, for odd t.  Applied to the level below, subs picks the
    minor on the columns M without j."""
    plan = []
    below = {(j,): j for j in range(n)}
    for s in range(2, n + 1):
        level = list(itertools.combinations(range(n), s))
        coeffs = [j + n * (t % 2) for cols in level for t, j in enumerate(cols)]
        subs = [below[cols[:t] + cols[t + 1 :]] for cols in level for t in range(s)]
        plan.append((s, itemgetter(*coeffs), itemgetter(*subs)))
        below = {cols: i for i, cols in enumerate(level)}
    return tuple(plan)


def det_laplace(m: ExactMatrix) -> Fraction:
    """Determinant by cofactor expansion along the first row, built
    bottom-up over column sets.

    Expands the stored int numerators, whose columns are already scaled
    to ints, and divides by the product of the column denominators once,
    so no entry is made as a Fraction.  Level s holds, for each s-column
    set in a fixed order, the minor on the last s rows and those
    columns, expanded along its first row: level 1 is the last row, and
    each level pulls its terms from the one below through the cached
    `_expansion_plan(n)` and sums each set's s terms.  The terms are the
    textbook expansion's, term for term, n * 2^(n-1) - n products in
    all; a zero entry multiplies through like any other.  Sizes beyond
    LAPLACE_MAX raise SizeGuardError rather than silently switching
    algorithm.
    """
    n = len(m.numerators)
    if n > LAPLACE_MAX:
        raise SizeGuardError(
            f"det_laplace is limited to {LAPLACE_MAX}x{LAPLACE_MAX}, got {n}x{n}; bareiss has no size limit"
        )
    minors = m.numerators[-1]
    for row, (s, coeffs, subs) in zip(reversed(m.numerators[:-1]), _expansion_plan(n)):
        terms = iter(map(mul, coeffs(row + tuple(map(neg, row))), subs(minors)))
        # zip of s references to one iterator: each column set's s terms in turn
        minors = list(map(sum, zip(*[terms] * s)))
    return Fraction(minors[0], prod(m.denominators))


def det_bareiss(m: ExactMatrix) -> Fraction:
    """Determinant by fraction-free elimination with row pivoting, on
    entries stored over column scales.

    Runs on the matrix's stored int numerators, whose columns are
    already scaled to ints, and divides by the product of the column
    denominators once.  Columns, not rows: the row lcms of a power
    matrix multiply up to (prod q)^(n(n-1)/2), the column scales only to
    (prod q)^(n-1).

    The trailing block is stored divided by one int scale per column: a
    stored entry times its column's scale is the true Bareiss entry
    (Bareiss 1968).  Before each step the content of each trailing
    column, the gcd of its stored entries, moves into its scale, so a
    step multiplies only primitive entries; on the matrix kinds of this
    library a column's content holds much of its entries' bits.  With f
    the pivot column's scale times column j's and prev the previous true
    pivot, f times the step's numerator is divisible by prev, so the
    numerator divides exactly by prev // gcd(prev, f), and column j's
    new scale is f // gcd(prev, f).  Every entry update asserts that its
    division is exact (unless Python runs with -O), also where the
    divisor is 1.  The new prev is the stored pivot times its scale.
    With every column content 1 this is plain Bareiss.

    A prepass returns 0 when two stored columns (numerator column and
    denominator) are equal, such as a repeated node's, wherever they
    sit, before any step runs; other singular inputs, equal rows among
    them, are left to elimination.  It then divides each row by its
    content, the gcd of its numerators (0 for a zero row, which returns
    0), and multiplies the contents back once at the end: a factor
    common to a row, such as the r! of a Wronskian row, would otherwise
    be carried through every step.  A trailing column of content 0, zero
    in every remaining row, makes the matrix singular and returns 0 at
    once; two proportional columns give one as soon as the first is
    eliminated.  The pivot of column k is its nonzero stored entry in
    rows k..n-1 with the fewest bits, the lowest row on a tie (the
    column shares one scale): every later entry is a minor of the input
    over the pivot rows chosen so far, so pivots from rows of small
    entries keep the later entries small.  Swaps are counted for the
    sign.  All of this reads only the stored ints.
    """
    n = len(m.numerators)
    if len(set(zip(zip(*m.numerators), m.denominators))) < n:
        return Fraction(0)
    contents = [gcd(*row) for row in m.numerators]
    if 0 in contents:
        return Fraction(0)
    # Exact: a row's content divides each of its entries.
    a = [[e // c for e in row] for row, c in zip(m.numerators, contents)]
    scale = [1] * n
    sign = 1
    prev = 1
    for k in range(n - 1):
        rest = a[k:]
        column_contents = [gcd(*[row[j] for row in rest]) for j in range(k, n)]
        if 0 in column_contents:
            return Fraction(0)
        if max(column_contents) > 1:
            for row in rest:
                # Exact: a column's content divides each of its entries.
                row[k:] = map(floordiv, row[k:], column_contents)
            scale[k:] = map(mul, scale[k:], column_contents)
        bits = [row[k].bit_length() for row in rest]
        pivot_row = k + bits.index(min(filter(None, bits)))
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        pivot = a[k][k]
        row_k = a[k]
        # With f = scale[k] * scale[j]: prev // gcd(prev, f) is
        # h // gcd(h, scale[j]) for h = prev // gcd(prev, scale[k]), and
        # f // gcd(prev, f) is (scale[k] // gcd(prev, scale[k])) *
        # (scale[j] // gcd(h, scale[j])).  So one gcd per step is taken with
        # prev and the others with h, which is usually far smaller.
        g = gcd(prev, scale[k])
        h = prev // g
        pivot_scale = scale[k] // g
        divisors = [1] * n
        for j in range(k + 1, n):
            g = gcd(h, scale[j])
            divisors[j] = h // g
            scale[j] = pivot_scale * (scale[j] // g)
        for i in range(k + 1, n):
            row_i = a[i]
            head = row_i[k]
            for j in range(k + 1, n):
                q, r = divmod(pivot * row_i[j] - head * row_k[j], divisors[j])
                assert not r, "fraction-free step divided unevenly"
                row_i[j] = q
        prev = pivot * scale[k]
    last = a[n - 1][n - 1] * scale[n - 1]
    return Fraction(sign * prod(contents) * last, prod(m.denominators))


ORACLES = {"bareiss": (det_bareiss, None), "laplace": (det_laplace, LAPLACE_MAX)}
# Every determinant route the CLI and the bench accept: the kind's closed
# form, then the oracles.
METHODS = ("closed", *ORACLES)
