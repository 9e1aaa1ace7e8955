from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from vietamat.sympoly import (
    DensePolynomial,
    NodeSet,
    leave_one_out_scaled,
    leave_one_out_table,
    poly_from_roots,
    scaled_product,
)
from vietamat.verify import IDENTITIES, _esp_bruteforce

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=50)
node_lists = st.lists(rationals, min_size=1, max_size=8)
small_node_lists = st.lists(rationals, min_size=1, max_size=6)
# Half the draws come from a small pool, so repeated and zero nodes are common.
pooled_node_lists = st.lists(
    st.one_of(st.sampled_from([Fraction(0), Fraction(1), Fraction(-3), Fraction(-2, 3)]), rationals),
    min_size=1,
    max_size=10,
)


def test_node_set_rejects_empty():
    with pytest.raises(ValueError):
        NodeSet(())


def test_node_set_allows_duplicates():
    assert len(NodeSet((4, 4, 9))) == 3


def test_node_set_is_an_immutable_value():
    ns = NodeSet(nodes=(1, Fraction(1, 2)))
    assert ns == NodeSet((1, "1/2")) and hash(ns) == hash(NodeSet((1, "1/2")))
    assert ns != NodeSet((1,)) and ns == (1, Fraction(1, 2)) and hash(ns) == hash((1, Fraction(1, 2)))
    assert all(type(v) is Fraction for v in NodeSet((1, "1/2")))
    with pytest.raises(TypeError):
        ns[0] = Fraction(2)
    with pytest.raises(AttributeError):
        ns.nodes = (Fraction(2),)
    assert ns == (1, Fraction(1, 2))


def test_node_set_keeps_given_fractions():
    half = Fraction(1, 2)
    ns = NodeSet([half, Fraction(3)])
    assert ns[0] is half and type(ns) is NodeSet
    assert NodeSet(v for v in (2, "-3/4")) == (2, Fraction(-3, 4))


def test_elem_sym_examples():
    assert scaled_product(NodeSet((1, 2, 3))) == [1, 6, 11, 6]
    assert scaled_product(NodeSet((5,))) == [1, 5]
    assert scaled_product(NodeSet((0, 0))) == [1, 0, 0]


def test_table_examples():
    columns, denominators = leave_one_out_scaled(NodeSet((1, 2, 3)))
    assert columns == [[1, 5, 6], [1, 4, 3], [1, 3, 2]] and denominators == [1, 1, 1]


def test_table_single_node():
    columns, denominators = leave_one_out_scaled(NodeSet((Fraction(7, 3),)))
    assert columns == [[1]] and denominators == [1]


def test_table_two_zeros_zero_last_row():
    columns, _ = leave_one_out_scaled(NodeSet((0, 0, 5)))
    assert [column[2] for column in columns] == [0, 0, 0]


@example(values=[Fraction(0)])
@example(values=[Fraction(-2, 3), Fraction(7, 4), Fraction(-2, 3)])
@given(values=pooled_node_lists)
def test_table_view_is_the_scaled_columns_over_their_denominators(values):
    """`leave_one_out_table`, the Fraction view, reads entry [k][j] as
    columns[j][k] / denominators[j] of `leave_one_out_scaled`."""
    ns = NodeSet(values)
    columns, denominators = leave_one_out_scaled(ns)
    table = leave_one_out_table(ns)
    assert table == tuple(tuple(Fraction(c[k], d) for c, d in zip(columns, denominators)) for k in range(len(ns)))


def test_poly_from_roots_examples():
    assert poly_from_roots(NodeSet((1, 2))) == DensePolynomial((2, -3, 1), 1)
    assert poly_from_roots(NodeSet((0,))) == DensePolynomial((0, 1), 1)
    assert poly_from_roots(NodeSet((1, 2, 3))) == DensePolynomial((-6, 11, -6, 1), 1)


def test_poly_from_roots_empty_product():
    assert poly_from_roots(()) == DensePolynomial((1,), 1)


def test_polynomial_trims_and_degrees():
    assert DensePolynomial((1, 2, 0, 0), 1).numerators == (1, 2)
    assert DensePolynomial((0,), 1) == DensePolynomial((), 1)
    assert len(DensePolynomial((), 1).numerators) == 0
    assert len(DensePolynomial((3,), 1).numerators) == 1


def test_scaled_polynomial_equals_its_fraction_twin():
    p = DensePolynomial([2, -4, 6, 0, 0], 4)
    twin = DensePolynomial((1, -2, 3, 0), 2)
    assert p == twin
    with pytest.raises(TypeError):
        hash(p)
    with pytest.raises(TypeError):
        p * twin
    assert (p.numerators, p.denominator) == ((2, -4, 6), 4)
    assert (twin.numerators, twin.denominator) == ((1, -2, 3), 2)
    assert DensePolynomial([0, 0], 7) == DensePolynomial((), 1)
    assert DensePolynomial([0, 0], 7).numerators == ()
    assert p != DensePolynomial([2, -4, 6], 3)


def test_polynomial_repr_round_trips():
    for p, text in [
        (DensePolynomial((3, 0, -2), 5), "DensePolynomial((3, 0, -2), 5)"),
        (DensePolynomial((4,), 1), "DensePolynomial((4,), 1)"),
        (DensePolynomial((), 1), "DensePolynomial((), 1)"),
    ]:
        assert repr(p) == text
        assert eval(repr(p)) == p


@pytest.mark.parametrize(
    "numerators, denominator",
    [([1, Fraction(1, 2)], 1), ([1, 2.0], 1), ([1], 0), ([1], -3), ([1], Fraction(2)), ([True], 1)],
)
def test_scaled_polynomial_rejects_bad_forms(numerators, denominator):
    with pytest.raises(ValueError):
        DensePolynomial(numerators, denominator)


def test_polynomial_evaluate():
    p = DensePolynomial((6, -5, 1), 1)  # x^2 - 5x + 6
    assert p(Fraction(0)) == 6
    assert p(Fraction(2)) == 0
    assert DensePolynomial((), 1)(Fraction(3)) == 0
    assert p(Fraction(5, 2)) == Fraction(-1, 4)
    q = DensePolynomial((6, -8, 0, 9), 12)  # 3/4 x^3 - 2/3 x + 1/2
    x = Fraction(-2, 5)
    assert q(x) == Fraction(3, 4) * x**3 - Fraction(2, 3) * x + Fraction(1, 2) == Fraction(539, 750)


@given(values=node_lists)
def test_elem_sym_matches_bruteforce(values):
    product = scaled_product(NodeSet(values))
    assert len(product) == len(values) + 1
    for k, p_k in enumerate(product):
        assert Fraction(p_k, product[0]) == _esp_bruteforce(values, k)


@given(values=node_lists)
def test_table_matches_bruteforce(values):
    assert IDENTITIES["leave_one_out"].holds(NodeSet(values)) is None


@example(values=[Fraction(0)])
@example(values=[Fraction(0), Fraction(0), Fraction(5)])
@example(values=[Fraction(-2, 3), Fraction(7, 4), Fraction(-2, 3)])
@given(values=pooled_node_lists)
def test_table_columns_match_elem_sym_of_rest(values):
    """Column j is e_0..e_{n-1} of the other nodes, by the definitional recurrence."""
    ns = NodeSet(values)
    n = len(values)
    columns, denominators = leave_one_out_scaled(ns)
    for j in range(n):
        expected = scaled_product(ns[:j] + ns[j + 1:])
        assert [f * expected[0] for f in columns[j]] == [denominators[j] * p for p in expected]


@given(values=node_lists)
def test_sign_coefficient_duality(values):
    """Coefficient of x^{n-k} in prod (x - a_i) is (-1)^k e_k."""
    ns = NodeSet(values)
    n = len(values)
    poly = poly_from_roots(ns)
    product = scaled_product(ns)
    assert len(poly.numerators) == n + 1
    for k in range(n + 1):
        expected = product[k] if k % 2 == 0 else -product[k]
        assert poly.numerators[n - k] * product[0] == poly.denominator * expected


@given(values=st.lists(rationals, min_size=1, max_size=6, unique=True))
def test_recombination(values):
    assert IDENTITIES["recombination"].holds(NodeSet(values)) is None


@given(values=small_node_lists, data=st.data())
def test_permutation_equivariance(values, data):
    sigma = data.draw(st.permutations(range(len(values))))
    assert IDENTITIES["permutation"].holds((NodeSet(values), sigma)) is None
