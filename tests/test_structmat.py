import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vietamat.exactdet import det_bareiss, det_laplace
from vietamat.structmat import (
    ExactMatrix,
    build_vandermonde,
    build_vieta,
    vandermonde_det_closed,
    vieta_det_closed,
    vieta_extension_poly,
)
from vietamat.sympoly import DensePolynomial, NodeSet
from vietamat.verify import IDENTITIES

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=50)
node_lists = st.lists(rationals, min_size=1, max_size=8)


def index_pair(data, n):
    """Two different indices below n, in increasing order."""
    i = data.draw(st.integers(min_value=0, max_value=n - 2))
    return i, data.draw(st.integers(min_value=i + 1, max_value=n - 1))


def test_matrix_validation():
    with pytest.raises(ValueError):
        ExactMatrix.from_rows(())
    with pytest.raises(ValueError):
        ExactMatrix.from_rows(((Fraction(1),), (Fraction(1), Fraction(2))))
    m = ExactMatrix.from_rows([[1, 2], [3, 4]])
    assert (m.numerators, m.denominators) == (((1, 2), (3, 4)), (1, 1))


def test_matrix_repr_round_trips():
    """The repr is the int constructor's call, over mixed column scales."""
    m = ExactMatrix(((1, -2), (0, 9)), (3, 4))
    assert repr(m) == "ExactMatrix(((1, -2), (0, 9)), (3, 4))"
    assert eval(repr(m)) == m
    built = build_vieta(NodeSet((Fraction(1, 2), Fraction(-2, 3), 5)))
    assert eval(repr(built)) == built


def test_matrix_rejects_rectangular():
    with pytest.raises(ValueError, match="square"):
        ExactMatrix.from_rows([[1, 2, 3]])
    with pytest.raises(ValueError, match="square"):
        ExactMatrix.from_rows([[1], [2]])
    with pytest.raises(ValueError, match="square"):
        ExactMatrix.from_rows(((),))
    with pytest.raises(ValueError, match="square"):
        ExactMatrix.from_rows([[1, 2], [3, 4, 5]])


@pytest.mark.parametrize(
    "numerators, denominators",
    [
        ((), ()),
        (((1, 2),), (1, 1)),
        (((1,), (2,)), (1,)),
        (((1, 2), (3,)), (1, 1)),
        (((1, Fraction(1, 2)), (3, 4)), (1, 1)),
        (((1, 2.0), (3, 4)), (1, 1)),
        (((1, True), (3, 4)), (1, 1)),
        (((1, 2), (3, 4)), (1, 0)),
        (((1, 2), (3, 4)), (-2, 1)),
        (((1, 2), (3, 4)), (1, Fraction(2))),
        (((1, 2), (3, 4)), (1,)),
        (((1, 2), (3, 4)), (1, 1, 1)),
    ],
)
def test_from_scaled_rejects_bad_forms(numerators, denominators):
    with pytest.raises(ValueError):
        ExactMatrix(numerators, denominators)


def test_matrix_equality_ignores_column_scale():
    m = ExactMatrix(((1, 2), (3, -4)), (3, 5))
    twin = ExactMatrix(((2, 2), (6, -4)), (6, 5))
    assert m.denominators != twin.denominators
    assert m == twin
    with pytest.raises(TypeError):
        hash(m)
    assert m == ExactMatrix.from_rows(((Fraction(1, 3), Fraction(2, 5)), (1, Fraction(-4, 5)))) == twin
    assert m != ExactMatrix(((1, 2), (3, -4)), (3, 7))


def test_entries_view_is_the_stored_ints_over_their_column_scales():
    """`entries`, the Fraction view, reads entry (r, j) as
    numerators[r][j] / denominators[j]."""
    m = build_vieta(NodeSet((Fraction(1, 2), Fraction(-2, 3), 0, Fraction(-2, 3))))
    assert m.entries == tuple(tuple(Fraction(e, d) for e, d in zip(row, m.denominators)) for row in m.numerators)
    assert ExactMatrix(((2, 2), (6, -4)), (6, 5)).entries == ((Fraction(1, 3), Fraction(2, 5)), (1, Fraction(-4, 5)))


def test_rational_rows_clear_each_column_to_its_lcm():
    m = ExactMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), 5]])
    assert m.denominators == (4, 3)
    assert m.numerators == ((2, 1), (1, 15))


def test_bareiss_on_a_non_lcm_column_scale():
    """Column denominators 6, 10, 4 are multiples of the lcms 3, 5, 2."""
    rows = [[Fraction(1, 3), Fraction(2, 5), Fraction(1, 2)], [1, Fraction(-3, 5), 0], [Fraction(2, 3), 1, -1]]
    m = ExactMatrix(((2, 4, 2), (6, -6, 0), (4, 10, -4)), (6, 10, 4))
    assert m == ExactMatrix.from_rows(rows)
    (a, b, c), (d, e, f), (g, h, i) = rows
    canonical = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    assert det_bareiss(m) == det_laplace(m) == canonical == Fraction(13, 10)


@given(
    grid=st.lists(st.integers(-30, 30), min_size=16, max_size=16),
    scales=st.lists(st.tuples(st.integers(1, 12), st.integers(1, 5)), min_size=4, max_size=4),
    n=st.integers(1, 4),
)
def test_bareiss_ignores_how_columns_are_scaled(grid, scales, n):
    """Scaling column j's ints and denominator by the same k_j keeps the
    value, and neither oracle's determinant moves: both start from the
    stored column scale."""
    numerators = [grid[r * 4:r * 4 + n] for r in range(n)]
    dens = [d for d, _ in scales[:n]]
    ks = [k for _, k in scales[:n]]
    m = ExactMatrix(numerators, dens)
    inflated = ExactMatrix(
        [[e * k for e, k in zip(row, ks)] for row in numerators], [d * k for d, k in zip(dens, ks)]
    )
    assert inflated == m
    assert det_bareiss(inflated) == det_bareiss(m) == det_laplace(inflated) == det_laplace(m)


def test_build_vieta_symbolic_two_nodes():
    a1, a2 = Fraction(5, 7), Fraction(-2, 3)
    m = build_vieta(NodeSet((a1, a2)))
    assert m == ExactMatrix.from_rows(((1, 1), (a2, a1)))


def test_build_vieta_examples():
    m = build_vieta(NodeSet((1, 2, 3)))
    assert m == ExactMatrix.from_rows(((1, 1, 1), (5, 4, 3), (6, 3, 2)))
    assert build_vieta(NodeSet((7,))) == ExactMatrix.from_rows(((1,),))


def test_vieta_det_examples():
    assert vieta_det_closed(NodeSet((Fraction(1, 2), Fraction(-1, 3)))) == Fraction(5, 6)
    assert vieta_det_closed(NodeSet((1, 2, 3))) == -2
    assert vieta_det_closed(NodeSet((4, 4, 9))) == 0
    assert vieta_det_closed(NodeSet((11,))) == 1


def test_build_vandermonde_examples():
    m = build_vandermonde(NodeSet((1, 2, 3)))
    assert m == ExactMatrix.from_rows(((1, 1, 1), (1, 2, 3), (1, 4, 9)))
    assert build_vandermonde(NodeSet((Fraction(2, 5),))) == ExactMatrix.from_rows(((1,),))
    assert build_vandermonde(NodeSet((0, 1))) == ExactMatrix.from_rows(((1, 1), (0, 1)))


def test_vandermonde_det_examples():
    assert vandermonde_det_closed(NodeSet((1, 2, 3))) == 2
    assert vandermonde_det_closed(NodeSet((6, 6))) == 0
    assert vandermonde_det_closed(NodeSet((0, 1))) == 1


def test_extension_poly_examples():
    f = vieta_extension_poly(NodeSet((1, 2, 3)))
    assert f == DensePolynomial((-12, 22, -12, 2), 1)
    assert f(Fraction(0)) == -12
    assert vieta_extension_poly(NodeSet((4, 4))) == DensePolynomial((), 1)


def test_extension_poly_constant_term_identity():
    # f(0) = e_n * prod_{i<k}(a_i - a_k), here 6 * (-2)
    ns = NodeSet((1, 2, 3))
    assert vieta_extension_poly(ns)(Fraction(0)) == 6 * vieta_det_closed(ns)


@given(values=node_lists)
def test_sign_bridge(values):
    """Elimination on the power matrix gives (-1)^{n(n-1)/2} times the
    closed form: the sign between the two product orientations."""
    ns = NodeSet(values)
    n = len(values)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    assert vieta_det_closed(ns) == sign * det_bareiss(build_vandermonde(ns))


@given(values=node_lists, c=rationals)
def test_shift_invariance_closed(values, c):
    assert IDENTITIES["corollary1"].holds((NodeSet(values), c)) is None


@given(values=st.lists(rationals, min_size=2, max_size=8), repeat=st.booleans(), data=st.data())
def test_repeated_node_zeroes_closed_form(values, repeat, data):
    """verify's degenerate law: repeating node i at j, or zeroing both,
    gives 0 from the closed form and both oracles."""
    assert IDENTITIES["degenerate"].holds((NodeSet(values), index_pair(data, len(values)), repeat)) is None


def test_repeated_node_skips_the_root_product(monkeypatch):
    """A repeated node returns the zero polynomial before prod (x - a_i) is
    built: the shortcut that keeps large degenerate inputs cheap, which no
    benchmark workload sends to a closed form."""

    def refuse(roots):
        raise AssertionError("poly_from_roots called although a node repeats")

    monkeypatch.setattr("vietamat.structmat.poly_from_roots", refuse)
    ns = NodeSet((3, 1, 3, 5))
    assert vieta_extension_poly(ns) == DensePolynomial((), 1)
    assert vieta_det_closed(ns) == 0


def test_zero_factor_at_rational_nodes_returns_zero():
    """A zero factor shares every prime with Q, so dividing the Q-smooth
    part out of it never ends.  The call runs in a child under a memory
    cap and a timeout, so a regression fails instead of stalling."""
    probe = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))\n"
        "from fractions import Fraction\n"
        "from vietamat.structmat import vieta_det_closed\n"
        "from vietamat.sympoly import NodeSet\n"
        "print(vieta_det_closed(NodeSet([Fraction(1, 2), Fraction(1, 3)]), factors=[0]))\n"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=30)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0\n"


@given(values=st.lists(rationals, min_size=2, max_size=8, unique=True), data=st.data())
def test_swap_negates_closed_form(values, data):
    assert IDENTITIES["antisymmetry"].holds((NodeSet(values), index_pair(data, len(values)))) is None
