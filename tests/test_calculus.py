import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vietamat import structmat, sympoly
from vietamat.bench import bench_node_set
from vietamat.calculus import (
    KINDS,
    jacobian_det_closed,
    jacobian_matrix,
    nodal_basis,
    wronskian_closed,
    wronskian_matrix,
)
from vietamat.exactdet import det_bareiss
from vietamat.matio import matrix_to_json
from vietamat.rational import RationalParseError
from vietamat.structmat import ExactMatrix, vandermonde_det_closed, vieta_det_closed, vieta_extension_poly
from vietamat.sympoly import DensePolynomial, NodeSet, poly_from_roots
from vietamat.verify import IDENTITIES, _esp_bruteforce, _oracles_give

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=50)
distinct_nodes = st.lists(rationals, min_size=1, max_size=6, unique=True)
points = st.lists(rationals, min_size=1, max_size=8)
# Half the draws come from a small pool, so repeated and zero nodes are common.
pooled_points = st.lists(
    st.one_of(st.sampled_from([Fraction(0), Fraction(1), Fraction(-3), Fraction(-2, 3)]), rationals),
    min_size=1,
    max_size=8,
)
polynomials = st.builds(DensePolynomial, st.lists(st.integers(-2500, 2500), max_size=9), st.integers(1, 2500))
# Node sets for the closed forms' reduced pairs: denominators that share
# small primes, pairwise coprime denominators, and the pooled draws above
# (negative, zero and repeated nodes, n = 1).
numerators = st.integers(min_value=-60, max_value=60)
shared_denominators = st.lists(
    st.builds(Fraction, numerators, st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, 16])), min_size=1, max_size=8
)
coprime_denominators = st.lists(
    st.tuples(numerators, st.sampled_from([1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])),
    min_size=1,
    max_size=8,
    unique_by=lambda pq: pq[1],
).map(lambda pqs: [Fraction(p, q) for p, q in pqs])


# The derivative oracle for the Wronskian tests: the definition, term by term.
def poly_derivative(p: DensePolynomial, order: int = 1) -> DensePolynomial:
    """Formal derivative iterated `order` times; order 0 returns p."""
    if order < 0:
        raise ValueError("derivative order must be nonnegative")
    numerators = p.numerators
    for _ in range(order):
        numerators = tuple(k * c for k, c in enumerate(numerators) if k > 0)
    return DensePolynomial(numerators, p.denominator)


def test_nodal_basis_examples():
    basis = nodal_basis(NodeSet((1, 2, 3)))
    assert basis == (DensePolynomial((6, -5, 1), 1), DensePolynomial((3, -4, 1), 1), DensePolynomial((2, -3, 1), 1))


def test_nodal_basis_single_node():
    basis = nodal_basis(NodeSet((Fraction(9, 4),)))
    assert len(basis) == 1
    assert basis[0] == DensePolynomial((1,), 1)


def test_nodal_basis_two_nodes():
    basis = nodal_basis(NodeSet((0, 1)))
    assert basis[0] == DensePolynomial((-1, 1), 1)  # x - 1
    assert basis[1] == DensePolynomial((0, 1), 1)  # x


def test_nodal_basis_rejects_empty():
    with pytest.raises(ValueError):
        wronskian_matrix((), Fraction(0))


def test_poly_derivative():
    p = DensePolynomial((6, -5, 1), 1)
    assert poly_derivative(p) == DensePolynomial((-5, 2), 1)
    assert poly_derivative(DensePolynomial((0, 0, 1), 1), 2) == DensePolynomial((2,), 1)
    assert poly_derivative(DensePolynomial((0, 0, 1), 1), 3) == DensePolynomial((), 1)
    assert poly_derivative(p, 0) == p
    with pytest.raises(ValueError):
        poly_derivative(p, -1)


def test_wronskian_matrix_examples():
    basis = nodal_basis(NodeSet((1, 2, 3)))
    m = wronskian_matrix(basis, Fraction(0))
    assert m == ExactMatrix.from_rows(((6, 3, 2), (-5, -4, -3), (2, 2, 2)))

    single = wronskian_matrix(nodal_basis(NodeSet((4,))), Fraction(17, 5))
    assert single == ExactMatrix.from_rows(((1,),))

    m01 = wronskian_matrix(nodal_basis(NodeSet((0, 1))), Fraction(0))
    assert m01 == ExactMatrix.from_rows(((-1, 0), (1, 1)))


def test_wronskian_point_is_read_by_the_wire_grammar():
    """The point goes through `as_fraction`, as every node does: a float or
    a bool raises TypeError, text that `--at` refuses raises
    RationalParseError, and wire text or an int builds the matrix at the
    same rational."""
    basis = nodal_basis(NodeSet((1, 2)))
    for x0 in (0.1, True):
        with pytest.raises(TypeError, match=type(x0).__name__):
            wronskian_matrix(basis, x0)
    with pytest.raises(RationalParseError):
        wronskian_matrix(basis, " 1.5 ")
    assert wronskian_matrix(basis, "3/2") == wronskian_matrix(basis, Fraction(3, 2))
    assert wronskian_matrix(basis, -2) == wronskian_matrix(basis, Fraction(-2))


def test_wronskian_closed_examples():
    assert wronskian_closed(NodeSet((1, 2, 3))) == -4
    a1, a2 = Fraction(2, 7), Fraction(-5, 3)
    assert wronskian_closed(NodeSet((a1, a2))) == a1 - a2
    assert wronskian_closed(NodeSet((3, 3, 8))) == 0


def test_wronskian_matrix_det_matches_closed_at_zero():
    ns = NodeSet((1, 2, 3))
    assert det_bareiss(wronskian_matrix(nodal_basis(ns), Fraction(0))) == -4


def test_jacobian_examples():
    assert jacobian_matrix is structmat.build_vieta
    m = jacobian_matrix(NodeSet((1, 2, 3)))
    assert m == ExactMatrix.from_rows(((1, 1, 1), (5, 4, 3), (6, 3, 2)))
    x1, x2 = Fraction(3, 4), Fraction(-1, 6)
    assert jacobian_matrix(NodeSet((x1, x2))) == ExactMatrix.from_rows(((1, 1), (x2, x1)))
    assert jacobian_matrix(NodeSet((5,))) == ExactMatrix.from_rows(((1,),))


def test_jacobian_det_examples():
    assert jacobian_det_closed is structmat.vieta_det_closed
    assert jacobian_det_closed(NodeSet((1, 2, 3))) == -2
    assert jacobian_det_closed(NodeSet((7, 7))) == 0
    assert jacobian_det_closed(NodeSet((0, 1))) == -1


def check_proof_grid(n: int) -> None:
    """Every kind's closed form against the oracles on its build, at every
    point of {0, ..., n - 1}^n.  CI runs n = 6 on its own:

        PYTHONPATH=src:tests python -c "from test_calculus import check_proof_grid; check_proof_grid(6)"
    """
    for point in itertools.product(range(n), repeat=n):
        ns = NodeSet(point)
        for kind, (build, closed) in KINDS.items():
            assert _oracles_give(closed(ns), build(ns, 0)), (kind, point)


def test_closed_forms_hold_on_the_proof_grid():
    """A finite proof of every closed form for n <= 5.  det(build(a)) and
    closed(a) have degree at most n - 1 in each node, so agreeing on a
    grid of n values per node, here every point of {0, ..., n - 1}^n,
    proves them equal for every choice of nodes (Alon, "Combinatorial
    Nullstellensatz", Lemma 2.1).  The proof trusts the oracles on integer
    matrices.  Its nodes are integers, so it does not cover the closed
    forms' rational path: the q's and the Q-smooth reduction."""
    for n in range(1, 6):
        check_proof_grid(n)


@example(values=[Fraction(0)])
@example(values=[Fraction(0), Fraction(0), Fraction(5)])
@given(values=pooled_points)
def test_nodal_basis_matches_poly_from_roots(values):
    ns = NodeSet(values)
    basis = nodal_basis(ns)
    assert len(basis) == len(values)
    for j, poly in enumerate(basis):
        assert poly == poly_from_roots(ns[:j] + ns[j + 1:])


@given(values=distinct_nodes)
def test_nodal_basis_vanishing_pattern(values):
    ns = NodeSet(values)
    basis = nodal_basis(ns)
    for j, poly in enumerate(basis):
        for i, node in enumerate(values):
            if i == j:
                expected = Fraction(1)
                for k, other in enumerate(values):
                    if k != j:
                        expected *= node - other
                assert poly(node) == expected
            else:
                assert poly(node) == 0


@settings(max_examples=40)
@given(values=distinct_nodes, probes=st.lists(rationals, min_size=3, max_size=3))
def test_wronskian_probe_independent_and_closed(values, probes):
    assert IDENTITIES["wronskian"].holds((NodeSet(values), probes)) is None


@example(polys=[DensePolynomial((), 1)], x0=Fraction(0))
@example(polys=[DensePolynomial((1, 2, 3, 4, 5), 1), DensePolynomial((), 1)], x0=Fraction(-7, 3))
@example(polys=[DensePolynomial((3,), 1), DensePolynomial((0, 1), 1), DensePolynomial((0, 0, 1), 1)], x0=Fraction(5, 2))
@given(
    polys=st.lists(polynomials, min_size=1, max_size=6),
    x0=st.one_of(st.just(Fraction(0)), rationals),
)
def test_wronskian_matrix_matches_derivatives(polys, x0):
    """Any family, any degree (zero, below n - 1, n and above), at 0 or rational x0."""
    n = len(polys)
    m = wronskian_matrix(polys, x0)
    assert m == ExactMatrix.from_rows([poly_derivative(p, r)(x0) for p in polys] for r in range(n))


@pytest.mark.parametrize(
    "ns",
    [
        bench_node_set(0, 32, 16),
        NodeSet((Fraction(-5, 3), 0, 7, Fraction(-5, 3), Fraction(11, 4), 0, Fraction(-9, 8))),
    ],
    ids=["bench-32", "zero-and-repeated"],
)
def test_kinds_wronskian_matches_the_taylor_route(ns):
    """`KINDS` builds the Wronskian at 0 on the shifted nodes; its rendered
    bytes equal the Taylor-shifted columns' at the point itself."""
    x0 = Fraction(-12345, 6789)
    build, _ = KINDS["wronskian"]
    assert matrix_to_json(build(ns, x0)) == matrix_to_json(wronskian_matrix(nodal_basis(ns), x0))


def test_kinds_wronskian_never_taylor_shifts(monkeypatch):
    """The library's Wronskian reads every column at 0, where the kernel
    runs no shift pass.  A size bound cannot tell the routes apart (the
    shifted nodes carry x0's denominator), so the points are recorded."""
    real = DensePolynomial.derivatives
    points = []

    def recording(self, x0, count):
        points.append(x0)
        return real(self, x0, count)

    monkeypatch.setattr(DensePolynomial, "derivatives", recording)
    KINDS["wronskian"][0](bench_node_set(0, 16, 16), Fraction(-12345, 6789))
    assert len(points) == 16 and all(x0 == 0 for x0 in points)


@example(values=[Fraction(4)])
@example(values=[Fraction(0), Fraction(0)])
# 0 - 4 = -4 holds 2^2 but Q = 2: the smooth split must repeat its gcd.
@example(values=[Fraction(0), Fraction(4), Fraction(1, 2)])
@given(values=st.one_of(pooled_points, shared_denominators, coprime_denominators))
def test_closed_forms_match_naive_product(values):
    """Every closed form equals the product of node differences, and its
    Fraction holds the pair that `Fraction(num, den)` would reduce to:
    the closed forms build it without normalising, and a pair not in
    lowest terms would compare and hash wrong."""
    ns = NodeSet(values)
    n = len(values)
    pairs = list(itertools.combinations(range(n), 2))
    forward = math.prod((values[i] - values[k] for i, k in pairs), start=Fraction(1))
    backward = math.prod((values[k] - values[i] for i, k in pairs), start=Fraction(1))
    assert vieta_det_closed(ns) == forward
    assert vandermonde_det_closed(ns) == backward
    assert wronskian_closed(ns) == math.prod(math.factorial(k) for k in range(n)) * forward

    cross = math.prod(
        values[i].numerator * values[k].denominator - values[k].numerator * values[i].denominator for i, k in pairs
    )
    den = math.prod(v.denominator for v in values) ** (n - 1)
    unreduced = {
        "vieta": cross,
        "jacobian": cross,
        "vandermonde": (-1) ** len(pairs) * cross,
        "wronskian": cross * math.prod(math.factorial(k) for k in range(n)),
    }
    for kind, (_, closed) in KINDS.items():
        value, want = closed(ns), Fraction(unreduced[kind], den)
        assert (value.numerator, value.denominator) == (want.numerator, want.denominator), kind
        assert math.gcd(value.numerator, value.denominator) == 1 and value.denominator > 0, kind


@pytest.mark.parametrize("i, j", [(0, 1), (0, 11), (10, 11)])
def test_repeated_node_anywhere_multiplies_nothing(monkeypatch, i, j):
    """A repeated node, wherever it sits, gives 0 from every closed form
    and the zero extension polynomial before any product is formed: no
    product of cross differences, no k!, no prod (x - a_i), and no
    smooth/coprime split, which takes a gcd of each factor.  Without the
    check a repeat in the last two slots multiplies out every other
    factor first."""

    def refuse(*args):
        raise AssertionError("a product was formed although a node repeats")

    monkeypatch.setattr("vietamat.structmat.prod", refuse)
    monkeypatch.setattr("vietamat.structmat.product_tree", refuse)
    monkeypatch.setattr("vietamat.structmat.gcd", refuse)
    monkeypatch.setattr("vietamat.structmat.poly_from_roots", refuse)
    monkeypatch.setattr(math, "factorial", refuse)
    values = [Fraction(3 * k - 7, k + 2) for k in range(12)]
    values[j] = values[i]
    ns = NodeSet(values)
    for kind, (_, closed) in KINDS.items():
        assert closed(ns) == 0, kind
    assert vieta_extension_poly(ns) == DensePolynomial((), 1)


def test_closed_forms_take_no_gcd_of_the_full_products(monkeypatch):
    """The largest gcd operand in the closed forms on 64 nodes of 16 bits.
    Reducing prod d_ik (times prod k!) against Q^(n-1) with one gcd takes
    both full products, 56 985 bits each; cancelling the Q-smooth part
    one copy of Q at a time never exceeds that part, 10 818 bits (18 605
    with the k!).  The bounds are those readings plus 10 %.  Fraction
    looks up `math.gcd` when called, so a gcd it takes is seen too."""
    real_gcd = math.gcd
    widest = [0]

    def recording_gcd(*args):
        widest[0] = max(widest[0], *(a.bit_length() for a in args))
        return real_gcd(*args)

    monkeypatch.setattr(math, "gcd", recording_gcd)
    monkeypatch.setattr(structmat, "gcd", recording_gcd)
    ns = bench_node_set(0, 64, 16)
    for closed, bound in ((vieta_det_closed, 11_900), (wronskian_closed, 20_500)):
        widest[0] = 0
        closed(ns)
        assert 0 < widest[0] <= bound, (closed.__name__, widest[0])


def test_equality_builds_no_fraction(monkeypatch):
    """`==` on matrices and polynomials cross-multiplies the stored ints:
    the Wronskian's two routes, which scale its columns differently, and
    two scales of one polynomial compare equal with `Fraction` unusable,
    and one changed numerator makes them unequal."""
    ns = NodeSet(Fraction(3 * k - 7, k + 2) for k in range(8))
    x0 = Fraction(-3, 7)
    m = KINDS["wronskian"][0](ns, x0)
    twin = wronskian_matrix(nodal_basis(ns), x0)
    assert m.denominators != twin.denominators
    rows = [list(row) for row in twin.numerators]
    rows[5][2] += 1
    changed = ExactMatrix(rows, twin.denominators)
    p = DensePolynomial([-42, 28, 0, 70], 12)
    q = DensePolynomial((-21, 14, 0, 35), 6)
    assert p.denominator != q.denominator

    def refuse(*args):
        raise AssertionError("equality built a Fraction")

    monkeypatch.setattr(structmat, "Fraction", refuse)
    monkeypatch.setattr(sympoly, "Fraction", refuse)
    assert m == twin and twin == m
    assert m != changed and changed != m
    assert p == q and q == p
    assert p != DensePolynomial([-42, 28, 0, 71], 12)


@settings(max_examples=40)
@given(values=points)
def test_partials_match_symmetric_difference_quotient(values):
    assert IDENTITIES["jacobian"].holds(NodeSet(values)) is None


def _naive_wronskian_entry(rest, r, x0):
    """r-th derivative at x0 of prod (x - a) over `rest`, with the
    coefficients expanded, differentiated and summed in Fractions."""
    coeffs = [Fraction(1)]
    for a in rest:
        padded = [Fraction(0)] + coeffs + [Fraction(0)]
        coeffs = [padded[m] - a * padded[m + 1] for m in range(len(coeffs) + 1)]
    return sum(
        (math.perm(m, r) * c * x0 ** (m - r) for m, c in enumerate(coeffs) if m >= r),
        Fraction(0),
    )


NAIVE_ENTRIES = {
    "vieta": lambda ns, r, j, x0: _esp_bruteforce(ns[:j] + ns[j + 1:], r),
    "jacobian": lambda ns, r, j, x0: _esp_bruteforce(ns[:j] + ns[j + 1:], r),
    "vandermonde": lambda ns, r, j, x0: ns[j] ** r,
    "wronskian": lambda ns, r, j, x0: _naive_wronskian_entry(ns[:j] + ns[j + 1:], r, x0),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
@example(values=[Fraction(5, 3)], x0=Fraction(0))
@example(values=[Fraction(0), Fraction(0), Fraction(-2, 3)], x0=Fraction(2, 3))
@example(values=[Fraction(-3), Fraction(1, 2), Fraction(-3)], x0=Fraction(-7, 4))
@settings(max_examples=40)
@given(values=pooled_points, x0=rationals)
def test_builders_match_naive_fractions(kind, values, x0):
    """Every builder's matrix equals the definition computed in Fractions:
    n = 1, repeated and zero nodes."""
    ns = NodeSet(values)
    n = len(values)
    build, _ = KINDS[kind]
    naive = ExactMatrix.from_rows([NAIVE_ENTRIES[kind](ns, r, j, x0) for j in range(n)] for r in range(n))
    assert build(ns, x0) == naive
