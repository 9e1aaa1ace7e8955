import builtins
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vietamat import calculus, exactdet, structmat, verify
from vietamat.matio import serialize_nodes
from vietamat.rational import InputError, render_rational
from vietamat.sympoly import NodeSet
from vietamat.verify import (
    IDENTITIES,
    Identity,
    VerifyConfig,
    random_node_set,
    run_identity,
    run_suite,
    trial_rng,
)


def test_trial_rng_is_deterministic_and_split():
    a = trial_rng(42, "theorem1", 0).random()
    b = trial_rng(42, "theorem1", 0).random()
    assert a == b
    assert trial_rng(42, "theorem1", 1).random() != a
    assert trial_rng(42, "corollary1", 0).random() != a
    assert trial_rng(43, "theorem1", 0).random() != a


def test_config_validation():
    VerifyConfig(n_lo=1, n_hi=10, coeff_bound=1)
    with pytest.raises(ValueError):
        VerifyConfig(n_lo=0, n_hi=5)
    with pytest.raises(ValueError):
        VerifyConfig(n_lo=3, n_hi=2)
    with pytest.raises(ValueError):
        VerifyConfig(n_lo=1, n_hi=11)
    with pytest.raises(ValueError):
        VerifyConfig(coeff_bound=0)


def test_config_is_an_immutable_value():
    cfg = VerifyConfig(2, 4, 5)
    assert cfg == VerifyConfig(n_lo=2, n_hi=4, coeff_bound=5) and hash(cfg) == hash(VerifyConfig(2, 4, 5))
    assert cfg != VerifyConfig() and VerifyConfig() == VerifyConfig(1, 6, 50)
    with pytest.raises(AttributeError):
        cfg.n_hi = 10
    with pytest.raises(AttributeError):
        del cfg.coeff_bound
    assert (cfg.n_lo, cfg.n_hi, cfg.coeff_bound) == (2, 4, 5)


def test_random_node_set_respects_bounds():
    cfg = VerifyConfig(n_lo=2, n_hi=4, coeff_bound=5)
    for trial in range(50):
        ns = random_node_set(trial_rng(7, "gen", trial), cfg)
        assert 2 <= len(ns) <= 4
        for a in ns:
            # canonicalization only shrinks the raw draws
            assert abs(a.numerator) <= 5
            assert 1 <= a.denominator <= 5


def test_random_node_set_min_n_and_cap():
    cfg = VerifyConfig(n_lo=1, n_hi=10, coeff_bound=5)
    for trial in range(30):
        rng = trial_rng(11, "gen", trial)
        assert len(random_node_set(rng, cfg, min_n=2, cap=3)) in (2, 3)


def test_run_identity_report_shape():
    cfg = VerifyConfig(n_lo=1, n_hi=4, coeff_bound=10)
    report = run_identity("theorem1", 25, 42, cfg)
    assert report.identity == "theorem1"
    assert report.trials == 25
    assert report.failures == 0
    assert report.seed == 42
    assert report.first_counterexample is None
    assert report.first_failure is None
    assert report.elapsed_ms >= 0


def test_json_line_is_deterministic_and_excludes_timing():
    cfg = VerifyConfig(n_lo=1, n_hi=4, coeff_bound=10)
    first = run_identity("sign_bridge", 40, 9, cfg)
    second = run_identity("sign_bridge", 40, 9, cfg)
    assert first.json_line() == second.json_line()
    payload = json.loads(first.json_line())
    assert set(payload) == {"identity", "trials", "failures", "seed", "first_counterexample"}


def test_unknown_identity():
    cfg = VerifyConfig()
    with pytest.raises(InputError, match="unknown identity 'nope'"):
        run_identity("nope", 1, 0, cfg)
    with pytest.raises(InputError, match="unknown identity 'nope'"):
        run_suite(["theorem1", "nope"], 1, 0, cfg)


def test_argument_validation():
    cfg = VerifyConfig()
    with pytest.raises(ValueError):
        run_identity("theorem1", 0, 0, cfg)
    with pytest.raises(ValueError):
        run_identity("theorem1", 1, -1, cfg)
    with pytest.raises(ValueError):
        run_identity("theorem1", 1, 2**64, cfg)


def test_failure_accounting(monkeypatch):
    calls = []

    def always_fails(inputs):
        calls.append(1)
        return ("1", "2")

    monkeypatch.setitem(IDENTITIES, "always_fails", Identity(lambda rng, cfg: None, always_fails))
    report = run_identity("always_fails", 7, 0, VerifyConfig())
    assert report.failures == 7
    assert len(calls) == 7
    assert report.first_counterexample == ("1", "2")
    line = json.loads(report.json_line())
    assert line["first_counterexample"] == ["1", "2"]


def _fails_below_3_nodes(ns):
    return serialize_nodes(ns) if len(ns) < 3 else None


def test_first_failing_trial_replays(monkeypatch):
    """`first_failure` t replays: trial t's own draws give the report's
    first counterexample, and every trial before t passes."""
    monkeypatch.setitem(IDENTITIES, "planted", Identity(random_node_set, _fails_below_3_nodes))
    cfg = VerifyConfig()
    report = run_identity("planted", 20, 42, cfg)
    t = report.first_failure
    assert report.failures > 0 and t >= 1
    draw, holds = IDENTITIES["planted"]
    assert holds(draw(trial_rng(42, "planted", t), cfg)) == report.first_counterexample
    assert all(holds(draw(trial_rng(42, "planted", s), cfg)) is None for s in range(t))


def test_every_identity_runs_on_forced_repeats():
    """Coeff bound 1 allows only the nodes -1, 0 and 1, so any set of four
    or more repeats a node; every identity still runs at every size up to
    10 and passes."""
    reports = run_suite(["all"], 5, 0, VerifyConfig(1, 10, 1))
    assert [(r.identity, r.failures) for r in reports] == [(name, 0) for name in IDENTITIES]


@pytest.mark.parametrize("name", list(IDENTITIES))
def test_each_identity_passes_briefly(name):
    cfg = VerifyConfig(n_lo=1, n_hi=5, coeff_bound=20)
    report = run_identity(name, 10, 1234, cfg)
    assert report.failures == 0, report.first_counterexample


def test_sign_bridge_sees_a_wrong_power_matrix(monkeypatch):
    """Reversing the rows multiplies the determinant by the bridge sign
    itself, so every size n = 2, 3 (mod 4) with distinct nodes fails."""

    def reversed_rows(ns, at):
        m = structmat.build_vandermonde(ns)
        return structmat.ExactMatrix(m.numerators[::-1], m.denominators)

    monkeypatch.setitem(calculus.KINDS, "vandermonde", (reversed_rows, structmat.vandermonde_det_closed))
    report = run_identity("sign_bridge", 100, 0, VerifyConfig())
    assert report.failures > 0


def test_permutation_compares_the_root_products_ints(monkeypatch):
    """A root product that also records the first node depends on the
    nodes' order.  Planted only where verify reads it, so the build's
    kernel in `sympoly` is untouched, it makes `permutation` fail."""
    real = verify.scaled_product
    monkeypatch.setattr(verify, "scaled_product", lambda values: real(values) + [values[0]])
    assert run_identity("permutation", 30, 0, VerifyConfig(3, 6, 50)).failures > 0


def test_wronskian_compares_the_kinds_build_with_the_taylor_route(monkeypatch):
    """The table's builder passes.  One that ignores the probe point keeps
    the determinant, which does not depend on the point, so only the route
    equality sees it."""
    assert run_identity("wronskian", 100, 0, VerifyConfig()).failures == 0

    def shift_dropped(ns, at):
        return calculus.wronskian_matrix(calculus.nodal_basis(ns), 0)

    monkeypatch.setitem(calculus.KINDS, "wronskian", (shift_dropped, calculus.wronskian_closed))
    report = run_identity("wronskian", 100, 0, VerifyConfig())
    assert report.failures > 0


def test_degenerate_sends_bareiss_through_elimination(monkeypatch):
    """Each degenerate trial also hands Bareiss the drawn nodes' matrix
    with column j set to twice column i.  No two of its stored columns
    are equal, so the prepass cannot answer it, and Bareiss runs
    elimination steps and still returns 0.  The exception is a trial whose
    node j is 0: the doubled matrix's last row is then zero, which the
    prepass answers."""
    divisions = []
    reached = []
    bareiss = exactdet.det_bareiss

    def count(x, y):
        divisions.append(y)
        return builtins.divmod(x, y)

    def bareiss_reaching(m):
        before = len(divisions)
        value = bareiss(m)
        reached.append(len(divisions) > before)
        return value

    monkeypatch.setattr(exactdet, "divmod", count, raising=False)
    monkeypatch.setitem(exactdet.ORACLES, "bareiss", (bareiss_reaching, None))
    report = run_identity("degenerate", 50, 0, VerifyConfig())
    assert report.failures == 0
    assert sum(reached) >= 0.9 * report.trials


# identities that read a closed form from `calculus.KINDS`, with its kind
CLOSED_FORM_IDENTITIES = [
    ("theorem1", "vieta"),
    ("corollary1", "vieta"),
    ("sign_bridge", "vandermonde"),
    ("antisymmetry", "vieta"),
    ("extension", "vieta"),
    ("degenerate", "vieta"),
    ("wronskian", "wronskian"),
    ("jacobian", "jacobian"),
]


# every identity that consults the oracles
ORACLE_IDENTITIES = [identity for identity, _ in CLOSED_FORM_IDENTITIES] + [
    "oracle_agreement",
    "multilinearity",
]


@pytest.mark.parametrize("identity, kind", CLOSED_FORM_IDENTITIES)
def test_identity_checks_the_tables_closed_form(monkeypatch, identity, kind):
    build, closed = calculus.KINDS[kind]
    monkeypatch.setitem(calculus.KINDS, kind, (build, lambda ns: closed(ns) + 1))
    report = run_identity(identity, 20, 0, VerifyConfig())
    assert report.failures == report.trials == 20


def test_closed_form_identities_run_laplace(monkeypatch):
    """Every identity that consults the oracles runs Laplace at the
    default sizes, all within its reach, so a wrong Laplace fails every
    trial."""
    laplace = exactdet.det_laplace
    monkeypatch.setitem(exactdet.ORACLES, "laplace", (lambda m: laplace(m) + 1, exactdet.LAPLACE_MAX))
    for identity in ORACLE_IDENTITIES:
        report = run_identity(identity, 20, 0, VerifyConfig())
        assert report.failures == report.trials == 20, identity


def test_multilinearity_checks_every_oracle_in_the_table(monkeypatch):
    """The identity runs its checks for each entry of `exactdet.ORACLES`,
    so an oracle that always answers 0 fails det(I) = 1 in every trial."""
    monkeypatch.setitem(exactdet.ORACLES, "zero", (lambda m: Fraction(0), None))
    report = run_identity("multilinearity", 5, 0, VerifyConfig())
    assert report.failures == 5


def _plus_one(det):
    return lambda m: det(m) + 1


def _recording(det, sizes):
    """`det`, recording the size of each matrix it is handed in `sizes`."""

    def recorded(m):
        sizes.append(len(m.numerators))
        return det(m)

    return recorded


@pytest.mark.parametrize("identity", ORACLE_IDENTITIES)
def test_every_identity_reads_its_oracles_from_the_table(monkeypatch, identity):
    """An extra wrong entry in `exactdet.ORACLES`, with no reach limit, is
    run by every identity that consults the oracles, so each trial fails."""
    monkeypatch.setitem(exactdet.ORACLES, "wrong", (_plus_one(exactdet.det_bareiss), None))
    report = run_identity(identity, 20, 0, VerifyConfig())
    assert report.failures == report.trials == 20


def test_laplace_runs_at_exactly_its_reach(monkeypatch):
    """At n = LAPLACE_MAX the reach admits Laplace, so every trial hands
    it the 8x8 build, and a wrong Laplace fails every trial."""
    assert exactdet.ORACLES["laplace"][1] == exactdet.LAPLACE_MAX == 8
    sizes = []
    monkeypatch.setitem(exactdet.ORACLES, "laplace", (_recording(exactdet.det_laplace, sizes), exactdet.LAPLACE_MAX))
    assert run_identity("theorem1", 20, 0, VerifyConfig(8, 8)).failures == 0
    assert sizes.count(8) == 20
    monkeypatch.setitem(exactdet.ORACLES, "laplace", (_plus_one(exactdet.det_laplace), exactdet.LAPLACE_MAX))
    report = run_identity("theorem1", 20, 0, VerifyConfig(8, 8))
    assert report.failures == report.trials == 20


@pytest.mark.parametrize("identity", [identity for identity, _ in CLOSED_FORM_IDENTITIES])
def test_oracles_beyond_their_reach_are_skipped(monkeypatch, identity):
    """Above LAPLACE_MAX the reach keeps Laplace out of every matrix, full
    build or minor: the real Laplace raises SizeGuardError above 8, and
    none escapes.  Bareiss, which has no reach limit, sees a full build of
    size 9 or more in every trial, so each identity draws n from the
    requested range, not below it, and a wrong Bareiss fails every trial."""
    cfg = VerifyConfig(9, 10)
    bareiss_sizes = []
    monkeypatch.setitem(exactdet.ORACLES, "bareiss", (_recording(exactdet.det_bareiss, bareiss_sizes), None))
    draw, holds = IDENTITIES[identity]
    for t in range(20):
        bareiss_sizes.clear()
        assert holds(draw(trial_rng(0, identity, t), cfg)) is None, t
        assert max(bareiss_sizes) >= 9, t
    monkeypatch.setitem(exactdet.ORACLES, "bareiss", (_plus_one(exactdet.det_bareiss), None))
    report = run_identity(identity, 20, 0, cfg)
    assert report.failures == report.trials == 20


# identities whose trials at n = 9 hand the oracles a minor of 8x8 or smaller
MINOR_IDENTITIES = {"theorem1", "sign_bridge", "degenerate"}


@pytest.mark.parametrize("identity", [identity for identity, _ in CLOSED_FORM_IDENTITIES])
def test_minors_within_reach_run_laplace_at_n_9(monkeypatch, identity):
    """The reach is read from the size of the matrix each oracle is
    handed, not from the trial's n: at n = 9 every minor of theorem1 and
    sign_bridge and degenerate's rank-law minor are 8x8 or smaller, so a
    wrong Laplace fails every one of their trials, while the identities
    that hand the oracles only full builds of 9 or more never run it."""
    monkeypatch.setitem(exactdet.ORACLES, "laplace", (_plus_one(exactdet.det_laplace), exactdet.LAPLACE_MAX))
    report = run_identity(identity, 20, 0, VerifyConfig(9, 9))
    assert report.failures == (20 if identity in MINOR_IDENTITIES else 0), report.first_counterexample


@pytest.mark.parametrize("identity", ["theorem1", "sign_bridge"])
def test_leading_minors_run_laplace_at_n_10(monkeypatch, identity):
    """At n = 10 the (n - 1, 0) minor is 9x9, past Laplace's reach, but
    the every-other-column minor is 5x5 and the one on columns 0 and 1
    2x2, so a wrong Laplace still fails every trial."""
    monkeypatch.setitem(exactdet.ORACLES, "laplace", (_plus_one(exactdet.det_laplace), exactdet.LAPLACE_MAX))
    report = run_identity(identity, 20, 0, VerifyConfig(10, 10))
    assert report.failures == report.trials == 20


@pytest.mark.parametrize("identity", ["oracle_agreement", "multilinearity"])
def test_oracle_pairs_follow_the_reach(monkeypatch, identity):
    """The pair that runs every oracle caps n at the smallest reach in
    `exactdet.ORACLES`, read when it runs: at Laplace's reach of 8 it draws
    n = 8, and with that reach lowered to 5 no draw reaches Laplace's
    guard, so nothing fails and no SizeGuardError escapes."""
    laplace = exactdet.det_laplace
    sizes = []
    monkeypatch.setitem(exactdet.ORACLES, "laplace", (_recording(laplace, sizes), exactdet.LAPLACE_MAX))
    assert run_identity(identity, 10, 0, VerifyConfig(8, 8)).failures == 0
    assert set(sizes) == {8}

    monkeypatch.setattr(exactdet, "LAPLACE_MAX", 5)
    monkeypatch.setitem(exactdet.ORACLES, "laplace", (laplace, 5))
    report = run_identity(identity, 30, 0, VerifyConfig(1, 10))
    assert report.failures == 0, report.first_counterexample


def _rotated_columns(ns, at):
    m = structmat.build_vieta(ns)
    return structmat.ExactMatrix((row[1:] + row[:1] for row in m.numerators), m.denominators[1:] + m.denominators[:1])


def _last_row_is_row_0(ns, at):
    m = structmat.build_vieta(ns)
    return structmat.ExactMatrix(m.numerators[:-1] + m.numerators[:1], m.denominators)


def _transposed(ns, at):
    m = structmat.build_vieta(ns)
    scale = math.lcm(*m.denominators)
    cleared = [[e * (scale // d) for e, d in zip(row, m.denominators)] for row in m.numerators]
    return structmat.ExactMatrix(zip(*cleared), [scale] * len(cleared))


def _column_0_into_column_1(build):
    """`build` with column 0 added to column 1, which keeps det."""

    def planted(ns, at):
        m = build(ns)
        d0, d1 = m.denominators[:2]
        return structmat.ExactMatrix(
            (row[:1] + (row[0] * d1 + row[1] * d0,) + row[2:] for row in m.numerators),
            m.denominators[:1] + (d0 * d1,) + m.denominators[2:],
        )

    return planted


def _columns_rescaled(k):
    """The vieta build with column k doubled and column k + 1 halved, for
    n >= k + 2, which keeps det and the (n - 1, 0) minor."""

    def planted(ns, at):
        m = structmat.build_vieta(ns)
        if len(ns) < k + 2:
            return m
        d = m.denominators
        numerators = (row[:k] + (2 * row[k],) + row[k + 1 :] for row in m.numerators)
        return structmat.ExactMatrix(numerators, d[: k + 1] + (2 * d[k + 1],) + d[k + 2 :])

    return planted


def _rows_1_and_2_rescaled(ns, at):
    """The power build with row 1 doubled and row 2 halved, for n >= 4,
    which keeps det and the (n - 1, 0) minor."""
    m = structmat.build_vandermonde(ns)
    if len(ns) < 4:
        return m
    scales = (2, 4, 1) + (2,) * (len(ns) - 3)
    numerators = ([s * e for e in row] for s, row in zip(scales, m.numerators))
    return structmat.ExactMatrix(numerators, [2 * d for d in m.denominators])


def _rotated_basis(ns):
    basis = calculus.nodal_basis(ns)
    return basis[1:] + basis[:1]


def _later_copies_zeroed(ns, at):
    """The vieta build with the column of every later copy of a node zeroed."""
    m = structmat.build_vieta(ns)
    later = [a in ns[:c] for c, a in enumerate(ns)]
    return structmat.ExactMatrix(([0 if z else e for e, z in zip(row, later)] for row in m.numerators), m.denominators)


def _zero_when_nodes_repeat(ns, at):
    """The vieta build, or the zero matrix when a node repeats."""
    n = len(ns)
    return structmat.build_vieta(ns) if len(set(ns)) == n else structmat.ExactMatrix([[0] * n] * n, [1] * n)


@pytest.mark.parametrize("plant", [_later_copies_zeroed, _zero_when_nodes_repeat])
def test_degenerate_checks_the_rank_law(monkeypatch, plant):
    """Both plants keep the build of distinct nodes and give det 0 on
    repeated ones, so only the rank law sees them: the first zeroes a later
    copy's column, which no longer matches its first copy's, and the
    second zeroes the minor on the distinct values' columns, whose closed
    form is not 0."""
    monkeypatch.setitem(calculus.KINDS, "vieta", (plant, structmat.vieta_det_closed))
    assert run_identity("degenerate", 100, 42, VerifyConfig()).failures > 0


def _unsigned(r):
    return render_rational(abs(r))


# identity -> (table or module, name, planted value): each plant breaks
# what its identity checks
PLANTED_FAULTS = {
    "theorem1": (calculus.KINDS, "vieta", (_column_0_into_column_1(structmat.build_vieta), structmat.vieta_det_closed)),
    "sign_bridge": (
        calculus.KINDS,
        "vandermonde",
        (_column_0_into_column_1(structmat.build_vandermonde), structmat.vandermonde_det_closed),
    ),
    "antisymmetry": (calculus.KINDS, "vieta", (_rotated_columns, structmat.vieta_det_closed)),
    "permutation": (calculus.KINDS, "vieta", (_rotated_columns, structmat.vieta_det_closed)),
    "leave_one_out": (calculus.KINDS, "vieta", (_rotated_columns, structmat.vieta_det_closed)),
    "jacobian": (calculus.KINDS, "jacobian", (_transposed, calculus.jacobian_det_closed)),
    "recombination": (verify, "nodal_basis", _rotated_basis),
    "degenerate": (calculus.KINDS, "vieta", (_last_row_is_row_0, structmat.vieta_det_closed)),
    "roundtrip": (verify, "render_rational", _unsigned),
}


@pytest.mark.parametrize("identity", list(PLANTED_FAULTS))
def test_each_law_sees_a_planted_fault(monkeypatch, identity):
    """Rotating the stored columns keeps |det|, and transposing keeps det,
    so only a law that compares the matrix itself sees them.  A last row
    equal to row 0 gives det 0 as the repeated nodes do, so only the
    two-zeros row check of `degenerate` sees it.  Column 0 added to
    column 1 keeps det, so only the minor without column 0 sees it."""
    where, name, value = PLANTED_FAULTS[identity]
    if isinstance(where, dict):
        monkeypatch.setitem(where, name, value)
    else:
        monkeypatch.setattr(where, name, value)
    assert run_identity(identity, 30, 0, VerifyConfig(3, 6, 50)).failures > 0


# (identity, kind, plant, n range): each plant keeps det and the (n - 1, 0)
# minor, so only a smaller leading minor sees it
RESCALED_PLANTS = {
    "columns-1-2": ("theorem1", "vieta", _columns_rescaled(1), VerifyConfig(3, 6)),
    "columns-2-3": ("theorem1", "vieta", _columns_rescaled(2), VerifyConfig(3, 6)),
    "rows-1-2": ("sign_bridge", "vandermonde", _rows_1_and_2_rescaled, VerifyConfig(3, 6)),
    "rows-1-2-at-9": ("sign_bridge", "vandermonde", _rows_1_and_2_rescaled, VerifyConfig(9, 10)),
}


@pytest.mark.parametrize("case", list(RESCALED_PLANTS))
def test_leading_minors_see_a_rescaled_build(monkeypatch, case):
    """The every-other-column minor holds column 2 without column 1, and
    so sees the column 1 and 2 plant (as columns 0 and 1 do); it alone
    sees the column 2 and 3 plant.  The minor on columns 0 and 1 holds row
    1 without row 2 at every n, and alone sees the row plant at n >= 5."""
    identity, kind, plant, cfg = RESCALED_PLANTS[case]
    monkeypatch.setitem(calculus.KINDS, kind, (plant, calculus.KINDS[kind][1]))
    assert run_identity(identity, 30, 0, cfg).failures > 0


# Half the draws come from a small pool, so repeated and zero nodes are common.
pooled_nodes = st.lists(
    st.one_of(st.sampled_from([Fraction(0), Fraction(1), Fraction(-2, 3)]), st.fractions(-50, 50, max_denominator=50)),
    min_size=1,
    max_size=9,
)


@pytest.mark.parametrize("kind", ["vieta", "vandermonde", "jacobian"])
@settings(max_examples=60)
@given(nodes=pooled_nodes, data=st.data())
def test_leading_minors_give_the_closed_form_of_their_columns(kind, nodes, data):
    """The leading-minor law: vieta = T(e) S P, with T(e) the unit lower
    triangular Toeplitz matrix of e_0..e_{n-1}, S = diag((-1)^i) and P the
    power build.  So on rows 0..s-1 and any s columns C, in any order,
    every oracle within reach gives the kind's closed form on the nodes in
    C, repeated nodes included; the jacobian is vieta entry for entry.
    verify checks this law with `_minors_give`: theorem1 and sign_bridge
    on all columns, columns 1..n-1, every other column and columns 0 and
    1, degenerate on its first-appearance columns.  s = 2 sees a fault in
    row 1 alone."""
    ns = NodeSet(nodes)
    order = data.draw(st.permutations(range(len(ns))))[: data.draw(st.integers(1, len(ns)))]
    build, closed = calculus.KINDS[kind]
    minor = verify._reorder_columns(build(ns, Fraction(0)), order)
    expected = closed(NodeSet(ns[c] for c in order))
    for name, (det, reach) in exactdet.ORACLES.items():
        if reach is None or len(order) <= reach:
            assert det(minor) == expected, name


def test_degenerate_draws_both_branches():
    """The last-row plant above is seen only on trials that zero two nodes,
    so those 30 trials must draw both sides of degenerate's coin: repeat
    a node, or zero two."""
    draw = IDENTITIES["degenerate"].draw
    coins = {draw(trial_rng(0, "degenerate", t), VerifyConfig(3, 6, 50))[2] for t in range(30)}
    assert coins == {True, False}


def _no_entries(matrix):
    raise AssertionError("ExactMatrix.entries was read")


@pytest.mark.parametrize("identity", ["jacobian", "multilinearity", "oracle_agreement"])
def test_matrix_laws_read_only_the_stored_ints(monkeypatch, identity):
    """With `ExactMatrix.entries` raising, these identities still pass.
    raising=False: the check still holds once the view is deleted."""
    monkeypatch.setattr(structmat.ExactMatrix, "entries", property(_no_entries), raising=False)
    assert run_identity(identity, 30, 0, VerifyConfig(1, 6, 50)).failures == 0


@pytest.mark.parametrize("identity", ["oracle_agreement", "multilinearity"])
def test_counterexample_is_the_drawn_matrix_in_wire_text(monkeypatch, identity):
    """A wrong oracle fails every trial, and the first counterexample is
    trial 0's drawn matrix, row-major, as `render_rational` writes it."""
    monkeypatch.setitem(exactdet.ORACLES, "wrong", (_plus_one(exactdet.det_bareiss), None))
    report = run_identity(identity, 5, 0, VerifyConfig())
    assert report.failures == 5
    inputs = IDENTITIES[identity].draw(trial_rng(0, identity, 0), VerifyConfig())
    matrix = inputs if identity == "oracle_agreement" else inputs[0]
    expected = (Fraction(e, d) for row in matrix.numerators for e, d in zip(row, matrix.denominators))
    assert report.first_counterexample == tuple(map(render_rational, expected))
    assert any("/" in text for text in report.first_counterexample)
