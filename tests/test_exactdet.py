import builtins
import itertools
from fractions import Fraction
from math import prod
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vietamat import exactdet, structmat
from vietamat.bench import bench_node_set
from vietamat.calculus import KINDS, nodal_basis, wronskian_closed, wronskian_matrix
from vietamat.exactdet import LAPLACE_MAX, det_bareiss, det_laplace
from vietamat.rational import SizeGuardError
from vietamat.structmat import ExactMatrix, build_vieta
from vietamat.sympoly import NodeSet
from vietamat.verify import IDENTITIES

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=20)


def leibniz_det(rows):
    """Third, test-only oracle: signed sum over all permutations."""
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
        )
        term = Fraction(1)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += -term if inversions % 2 else term
    return total


def square_matrices(max_n, min_n=1):
    return st.integers(min_value=min_n, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


def mixed_denominator_matrices(max_n):
    """Square matrices that mix all-integer columns with columns whose
    denominators reach 2**70, so one matrix holds column lcms of 1 and
    lcms far past any machine word."""
    small = st.integers(min_value=-9, max_value=9).map(Fraction)
    huge = st.builds(
        Fraction,
        st.integers(min_value=-(2**70), max_value=2**70),
        st.integers(min_value=1, max_value=2**70),
    )

    def columns(n):
        column = st.one_of(
            st.lists(small, min_size=n, max_size=n),
            st.lists(st.one_of(huge, small), min_size=n, max_size=n),
        )
        return st.lists(column, min_size=n, max_size=n).map(lambda cols: [list(r) for r in zip(*cols)])

    return st.integers(min_value=1, max_value=max_n).flatmap(columns)


def test_laplace_examples():
    assert det_laplace(ExactMatrix.from_rows([[1, 1], [0, 2]])) == 2
    assert det_laplace(ExactMatrix.from_rows([[1, 1, 1], [5, 4, 3], [6, 3, 2]])) == -2
    eye4 = [[int(i == j) for j in range(4)] for i in range(4)]
    assert det_laplace(ExactMatrix.from_rows(eye4)) == 1


def test_bareiss_examples():
    assert det_bareiss(ExactMatrix.from_rows([[1, 1, 1], [1, 2, 3], [1, 4, 9]])) == 2
    assert det_bareiss(ExactMatrix.from_rows([[1, 1, 1], [5, 4, 3], [6, 3, 2]])) == -2
    assert det_bareiss(ExactMatrix.from_rows([[1, 2], [0, 0]])) == 0


def test_bareiss_zero_row_anywhere():
    assert det_bareiss(ExactMatrix.from_rows([[0, 0], [3, 4]])) == 0
    assert det_bareiss(ExactMatrix.from_rows([[1, 2, 3], [0, 0, 0], [7, 8, 9]])) == 0


def test_bareiss_needs_pivot_swap():
    # zero leading pivot forces a row swap and a sign flip
    m = ExactMatrix.from_rows([[0, 1], [1, 0]])
    assert det_bareiss(m) == -1
    m = ExactMatrix.from_rows([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    assert det_bareiss(m) == -1


def test_rational_one_by_one():
    m = ExactMatrix.from_rows([[Fraction(-3, 7)]])
    assert det_bareiss(m) == Fraction(-3, 7)
    assert det_laplace(m) == Fraction(-3, 7)


def test_rational_pivot_swaps():
    F = Fraction
    # zero leading pivot
    leading = ExactMatrix.from_rows([[0, F(1, 2), F(1, 3)], [F(2, 5), F(1, 7), 0], [F(1, 4), F(3, 8), F(5, 6)]])
    # the (1, 1) entry cancels to zero after the first elimination step
    cancelled = ExactMatrix.from_rows([[F(1, 2), F(1, 3), 1], [F(1, 4), F(1, 6), 2], [1, 1, 1]])
    for m, expected in ((leading, F(-9, 70)), (cancelled, F(-1, 4))):
        assert det_bareiss(m) == expected
        assert det_laplace(m) == expected


def test_rational_zero_column():
    F = Fraction
    # column 1 is zero in every row, so there is no pivot for it
    m = ExactMatrix.from_rows(
        [[F(1, 2), 0, 3, F(2, 3)], [F(5, 7), 0, F(1, 9), 1], [2, 0, F(4, 11), F(-1, 5)], [F(3, 8), 0, 1, 4]]
    )
    assert det_bareiss(m) == 0
    assert det_laplace(m) == 0


def test_non_square_rejected():
    # neither oracle can be handed a non-square matrix: construction refuses it
    with pytest.raises(ValueError, match="square"):
        ExactMatrix.from_rows([[1, 2, 3], [4, 5, 6]])


def test_laplace_size_guard():
    """The guard is the constant LAPLACE_MAX = 8."""
    assert LAPLACE_MAX == 8
    eye8, eye9 = (ExactMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)]) for n in (8, 9))
    assert det_laplace(eye8) == 1
    with pytest.raises(SizeGuardError, match="limited to 8x8, got 9x9"):
        det_laplace(eye9)


@given(rows=square_matrices(4))
def test_both_oracles_match_leibniz(rows):
    m = ExactMatrix.from_rows(rows)
    expected = leibniz_det(rows)
    assert det_laplace(m) == expected
    assert det_bareiss(m) == expected


@given(rows=mixed_denominator_matrices(5))
def test_both_oracles_match_leibniz_on_huge_denominators(rows):
    m = ExactMatrix.from_rows(rows)
    expected = leibniz_det(rows)
    assert det_laplace(m) == expected
    assert det_bareiss(m) == expected


@settings(max_examples=50)
@given(rows=square_matrices(6))
def test_oracle_agreement(rows):
    assert IDENTITIES["oracle_agreement"].holds(ExactMatrix.from_rows(rows)) is None


def multilinearity_sees(rows, s, data, oracle):
    """verify's multilinearity law on rows, s, a drawn r and i < j passes both oracles; does it fail `oracle`?"""
    index = st.integers(min_value=0, max_value=len(rows) - 1)
    pair = data.draw(st.lists(index, min_size=2, max_size=2, unique=True))
    inputs = (ExactMatrix.from_rows(rows), s, data.draw(index), tuple(sorted(pair)))
    holds = IDENTITIES["multilinearity"].holds
    assert holds(inputs) is None
    with mock.patch.dict(exactdet.ORACLES, planted=(oracle, None)):
        return holds(inputs) is not None


@given(rows=square_matrices(5, min_n=2), s=rationals, data=st.data())
def test_row_scaling(rows, s, data):
    """det³ keeps every law but scaling, which sees it unless s is 0 or ±1 or the det is 0."""
    seen = multilinearity_sees(rows, s, data, lambda m: det_bareiss(m) ** 3)
    assert seen or s in (-1, 0, 1) or leibniz_det(rows) == 0


@given(rows=square_matrices(5, min_n=2), s=rationals, data=st.data())
def test_row_swap_negates(rows, s, data):
    """|det| keeps det(I) = 1 and a duplicated row's 0; the swap sees it unless the det is 0."""
    assert multilinearity_sees(rows, s, data, lambda m: abs(det_bareiss(m))) or leibniz_det(rows) == 0


@given(rows=square_matrices(5, min_n=2), s=rationals, data=st.data())
def test_duplicate_rows_zero(rows, s, data):
    """An oracle that reads 1 for a zero det fails on the duplicated row."""
    assert multilinearity_sees(rows, s, data, lambda m: det_bareiss(m) or 1)


@given(rows=square_matrices(5, min_n=2), s=rationals, data=st.data())
def test_identity_det(rows, s, data):
    """A doubled oracle keeps every law but det(I) = 1, and the law sees it."""
    assert multilinearity_sees(rows, s, data, lambda m: 2 * det_bareiss(m))


@given(rows=square_matrices(5), data=st.data())
def test_duplicate_columns_zero(rows, data):
    n = len(rows)
    if n < 2:
        return
    i, j = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=2, max_size=2, unique=True))
    duplicated = [[row[i] if c == j else e for c, e in enumerate(row)] for row in rows]
    assert det_laplace(ExactMatrix.from_rows(duplicated)) == 0
    assert det_bareiss(ExactMatrix.from_rows(duplicated)) == 0


@settings(max_examples=80)
@given(
    data=st.integers(min_value=1, max_value=LAPLACE_MAX).flatmap(
        lambda n: st.tuples(
            st.permutations(range(n)),
            st.lists(rationals.filter(bool), min_size=n, max_size=n),
        )
    )
)
def test_laplace_on_signed_scaled_permutation_matrices(data):
    """Row i holds scales[i] in column perm[i]: the determinant is
    sign(perm) * prod(scales), with the sign from an inversion count, so
    the check uses neither oracle.  Up to the guard size, where the table
    has the most levels and each row one nonzero entry."""
    perm, scales = data
    n = len(perm)
    rows = [[scales[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(n), 2))
    expected = (-1) ** inversions * prod(scales)
    assert det_laplace(ExactMatrix.from_rows(rows)) == expected


def test_laplace_zero_column_at_the_guard_size():
    # every row is nonzero, but every minor holding column 3 sums to 0
    n = LAPLACE_MAX
    rows = [[0 if j == 3 else Fraction(i + 2, j + 1) ** j for j in range(n)] for i in range(n)]
    assert det_laplace(ExactMatrix.from_rows(rows)) == 0


@pytest.mark.parametrize("kind", KINDS)
def test_laplace_builds_no_fraction(monkeypatch, kind):
    """Laplace expands the stored ints and divides by the product of the
    column denominators once: with `structmat.Fraction` unusable, so that
    reading `entries` fails, it still gives Bareiss's value on eight
    rational nodes, the Wronskian's at -3/7."""
    ns = NodeSet(Fraction(3 * k - 7, k + 2) for k in range(LAPLACE_MAX))
    build, _ = KINDS[kind]
    m = build(ns, Fraction(-3, 7))
    expected = det_bareiss(m)
    assert expected != 0

    def refuse(*args):
        raise AssertionError("det_laplace built a Fraction entry")

    monkeypatch.setattr(structmat, "Fraction", refuse)
    assert det_laplace(m) == expected


def test_laplace_makes_one_product_per_expansion_term(monkeypatch):
    """Each s-column minor takes s products from the level below, so an
    n x n matrix costs n * 2^(n-1) - n products in all: 1 016 at n = 8,
    where the n!-term expansion would take 40 320 terms, and none at
    n = 1.  Zero entries multiply through, so the count is exact."""
    products = []

    def count(a, b):
        products.append(None)
        return a * b

    matrices = [
        ExactMatrix.from_rows([[Fraction(3 * i - j, j + 2) if (i + j) % 3 else 0 for j in range(n)] for i in range(n)])
        for n in range(1, LAPLACE_MAX + 1)
    ]
    expected = [det_bareiss(m) for m in matrices]
    monkeypatch.setattr(exactdet, "mul", count)
    for n, m, det in zip(range(1, LAPLACE_MAX + 1), matrices, expected):
        products.clear()
        assert det_laplace(m) == det
        assert len(products) == n * 2 ** (n - 1) - n, n


def test_bareiss_integer_input_stays_integral():
    # integer entries give every column an lcm of 1, so elimination runs on
    # the entries themselves and every exact-division assertion checks them
    ns = NodeSet((3, -7, 11, 2, -5))
    m = build_vieta(ns)
    assert m.denominators == (1,) * len(ns)
    assert det_bareiss(m) == det_laplace(m)


def _twelve_node_matrix(kind, repeat=None):
    """The kind's matrix at 2/3 on twelve distinct rational nodes, or with
    node i copied over node j for `repeat` = (i, j)."""
    values = [Fraction(3 * k - 7, k + 2) for k in range(12)]
    if repeat:
        i, j = repeat
        values[j] = values[i]
    build, _ = KINDS[kind]
    return build(NodeSet(values), Fraction(2, 3))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("i, j", [(0, 11), (10, 11)])
def test_bareiss_repeated_node_anywhere_is_zero(kind, i, j):
    # A repeated node stores two equal columns, which the prepass finds
    # wherever they sit, before any elimination step.
    assert det_bareiss(_twelve_node_matrix(kind, (i, j))) == 0


@pytest.mark.parametrize("kind", KINDS)
def test_bareiss_equal_columns_eliminate_nothing(monkeypatch, kind):
    """A late repeat gives 0 before any elimination step: no step divides
    by its previous pivot.  Without the prepass a repeat at (10, 11) runs
    every step, and only the final entry is 0."""

    def refuse(*args):
        raise AssertionError("an elimination step ran")

    monkeypatch.setattr(exactdet, "divmod", refuse, raising=False)
    assert det_bareiss(_twelve_node_matrix(kind, (10, 11))) == 0


@pytest.mark.parametrize("kind", KINDS)
def test_bareiss_proportional_columns_stop_at_the_zero_column(monkeypatch, kind):
    """Column 11 set to twice column 0 is no equal column, so the prepass
    passes it on; once column 0 is eliminated, column 11 of the trailing
    block is zero and the step count stops at the first step's 11 x 11."""
    m = _twelve_node_matrix(kind)
    numerators = [row[:11] + (2 * row[0],) for row in m.numerators]
    denominators = m.denominators[:11] + m.denominators[:1]
    steps = []

    def count(x, y):
        steps.append(y)
        return builtins.divmod(x, y)

    monkeypatch.setattr(exactdet, "divmod", count, raising=False)
    assert det_bareiss(ExactMatrix(numerators, denominators)) == 0
    assert len(steps) == 11 * 11


def test_bareiss_row_contents_match_leibniz(monkeypatch):
    # Each row shares a large factor, some entries are negative and some
    # rational; the contents are divided out, so no pivot or dividend
    # carries them, and multiplied back once.
    F = Fraction
    big = 3**40 * 7**20
    rows = [
        [big * 2, -big * 6, big * 4, 0],
        [F(-5, 3) * big**2, F(10, 7) * big**2, 0, -15 * big**2],
        [-12, 18, F(-24, 5), 30],
        [big * F(9, 2), big, -big * 7, big * 11],
    ]
    expected = leibniz_det(rows)
    assert expected != 0
    pivots = []
    dividends = []

    def record(x, y):
        pivots.append(y)
        dividends.append(x)
        return builtins.divmod(x, y)

    monkeypatch.setattr(exactdet, "divmod", record, raising=False)
    assert det_bareiss(ExactMatrix.from_rows(rows)) == expected
    assert pivots and max(p.bit_length() for p in pivots) < 32
    # 13 bits with the contents divided out, 245 without
    assert max(abs(x).bit_length() for x in dividends) < 32
    rows[2] = [0, 0, 0, 0]
    assert det_bareiss(ExactMatrix.from_rows(rows)) == leibniz_det(rows) == 0


@pytest.mark.parametrize("x0", [Fraction(0), Fraction(5, 3)])
def test_bareiss_integer_wronskian_matches_closed_form(x0):
    # At integer nodes and x0 = 0, row 0 holds the largest entries (the
    # products of eleven nodes), and the smallest-entry pivot swaps it
    # away at the first step.
    ns = NodeSet((3, -1, 4, -5, 9, 2, 6, -8, 7, -2, 10, 1))
    assert det_bareiss(wronskian_matrix(nodal_basis(ns), x0)) == wronskian_closed(ns)


def _scaled_rows(rows):
    """Row r times 2**(100 r), plus 1 in every entry: the scale outweighs
    the entries' own bits but is no common factor of the row, so the
    content division leaves it in place."""
    return [[e * 2 ** (100 * r) + 1 for e in row] for r, row in enumerate(rows)]


@settings(max_examples=60)
@given(rows=square_matrices(6), order=st.data())
def test_bareiss_pivot_swaps_track_the_sign(rows, order):
    # The smallest-entry pivot takes the rows mostly in order of scale,
    # so the shuffle forces swaps; the next test shows a matrix that
    # swaps at every step.
    scaled = _scaled_rows(rows)
    perm = order.draw(st.permutations(range(len(rows))))
    m = ExactMatrix.from_rows([scaled[p] for p in perm])
    assert det_bareiss(m) == det_laplace(m)


def test_bareiss_pivot_swaps_at_every_step(monkeypatch):
    # Rows in scale order 1..5, then 0: at each step the row of least
    # scale is the last one, so every step swaps it up and flips the sign.
    # Pivot k is then a minor of the rows of scale 0..k and has about
    # 100 k(k+1)/2 bits; taking the first remaining row instead would add
    # 100 (k+1).  The pivots are the divisors of the later steps.
    n = 6
    scaled = _scaled_rows([[x**j for j in range(n)] for x in range(2, 2 + n)])
    divisors = []

    def record(x, y):
        divisors.append(y)
        return builtins.divmod(x, y)

    monkeypatch.setattr(exactdet, "divmod", record, raising=False)
    for rows in (scaled[1:] + scaled[:1], scaled[2:3] + scaled[1:2] + scaled[3:] + scaled[:1]):
        m = ExactMatrix.from_rows(rows)
        divisors.clear()
        assert det_bareiss(m) == det_laplace(m) != 0
        pivots = [p for p, _ in itertools.groupby(divisors)][1:]
        assert len(pivots) == n - 2
        assert all(p.bit_length() < 100 * k * (k + 1) // 2 + 50 for k, p in enumerate(pivots))


def test_bareiss_rank_deficient_zero_at_the_last_step():
    F = Fraction
    rows = [
        [2, -1, F(3, 4), 5, F(-2, 7)],
        [F(1, 2), 4, -2, 7, 1],
        [3, F(1, 3), 1, -4, F(5, 6)],
        [-6, 2, F(7, 5), 1, 3],
    ]
    # The last row is a combination of the others: no column of any
    # trailing block is zero, and only the final entry cancels.
    rows.append([a - 2 * b + F(3, 2) * c + d for a, b, c, d in zip(*rows)])
    m = ExactMatrix.from_rows(rows)
    assert det_laplace(m) == 0
    assert det_bareiss(m) == 0


# Column factors built from 2, 3 and 6 share primes with each other, so the
# scales and previous pivots of the elimination share some primes but not
# all: the divisor prev // gcd(prev, scale product) is then neither 1 nor
# prev.
column_factors = st.builds(
    lambda a, b, c, q: 2**a * 3**b * 6**c * q,
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=6),
    st.sampled_from([1, -1, 5, -7, 11]),
)


@given(rows=square_matrices(5), data=st.data())
def test_bareiss_columns_with_shared_prime_factors(rows, data):
    factors = data.draw(st.lists(column_factors, min_size=len(rows), max_size=len(rows)))
    scaled = [[e * f for e, f in zip(row, factors)] for row in rows]
    m = ExactMatrix.from_rows(scaled)
    expected = leibniz_det(scaled)
    assert det_laplace(m) == expected
    assert det_bareiss(m) == expected


# Largest dividend on these nodes, in bits, with about 5 % over the
# measured maximum: vieta 570, vandermonde 2 921, wronskian 588, jacobian
# 570.  Without the row-content prepass they read 621, 2 921, 737 and 621,
# and when every step divides by the previous pivot alone, the Vandermonde
# reads 14 548: each entry then carries its column's content through every
# later step.
_BAREISS_24_MAX_BITS = {"vieta": 600, "vandermonde": 3070, "wronskian": 620, "jacobian": 600}


@pytest.mark.parametrize("kind", KINDS)
def test_bareiss_24_rational_nodes_match_closed_form_with_small_dividends(monkeypatch, kind):
    """Every kind's matrix at 24 distinct 16-bit rational nodes gives the
    closed form, and the column scales keep every dividend small: on the
    vieta, Wronskian and Jacobian matrices each column's content is almost
    all of its entries' bits.  The Vandermonde matrix keeps a factor
    common to no column, so its bound is about a fifth of the unscaled
    run's."""
    ns = bench_node_set(0, 24, 16)
    assert len(set(ns)) == 24
    build, closed = KINDS[kind]
    dividends = []

    def record(x, y):
        dividends.append(x.bit_length())
        return builtins.divmod(x, y)

    monkeypatch.setattr(exactdet, "divmod", record, raising=False)
    assert det_bareiss(build(ns, Fraction(2, 3))) == closed(ns)
    assert len(dividends) == sum(k * k for k in range(24))
    assert max(dividends) <= _BAREISS_24_MAX_BITS[kind]
