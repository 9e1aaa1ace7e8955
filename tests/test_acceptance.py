"""Acceptance suite: every shipped guarantee, one test per criterion.

`pytest tests/test_acceptance.py -v` prints one PASSED line each.
Criteria 2-8 run verify's laws (`IDENTITIES[name].holds`, or
`run_identity`) on their own seeded draws.  Every check is exact
equality; the only tolerances are the stated wall-clock budgets.
"""

import subprocess
import sys
import time

from vietamat.exactdet import det_laplace
from vietamat.structmat import build_vieta, vieta_det_closed
from vietamat.sympoly import NodeSet
from vietamat.verify import IDENTITIES, VerifyConfig, random_node_set, random_rational, run_identity, trial_rng


def _cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "vietamat", *argv],
        capture_output=True,
        text=True,
    )


def test_criterion_1_small_cases_literal():
    """n = 2, 3, 4 determinants equal their written-out products."""
    literal = {
        2: lambda a: a[0] - a[1],
        3: lambda a: (a[0] - a[1]) * (a[0] - a[2]) * (a[1] - a[2]),
        4: lambda a: (
            (a[0] - a[1]) * (a[0] - a[2]) * (a[0] - a[3])
            * (a[1] - a[2]) * (a[1] - a[3]) * (a[2] - a[3])
        ),
    }
    start = time.perf_counter()
    for n, product in literal.items():
        for trial in range(25):
            rng = trial_rng(1001, f"small-{n}", trial)
            nodes = tuple(random_rational(rng, 50) for _ in range(n))
            ns = NodeSet(nodes)
            expected = product(nodes)
            assert vieta_det_closed(ns) == expected
            assert det_laplace(build_vieta(ns)) == expected
    assert time.perf_counter() - start < 1.0


def test_criterion_2_closed_form_vs_oracles_at_scale():
    """500 random node sets, n in [1, 8]: closed = bareiss = laplace,
    verify's theorem1 law."""
    start = time.perf_counter()
    cfg = VerifyConfig(n_lo=1, n_hi=8, coeff_bound=50)
    for trial in range(500):
        ns = random_node_set(trial_rng(1002, "scale", trial), cfg)
        assert IDENTITIES["theorem1"].holds(ns) is None
    assert time.perf_counter() - start < 30.0


def test_criterion_3_degenerate_cases():
    """Two zeros zero the last row; any repeat zeroes the determinant:
    verify's degenerate law, 50 cases of each."""
    cfg = VerifyConfig(n_lo=2, n_hi=8, coeff_bound=50)
    for trial in range(50):
        rng = trial_rng(1003, "zeros", trial)
        ns = random_node_set(rng, cfg)
        i = rng.randrange(len(ns))
        # each of these draws has a nonzero node besides node i to zero
        j = rng.choice([k for k, a in enumerate(ns) if a and k != i])
        assert IDENTITIES["degenerate"].holds((ns, (i, j), False)) is None
    for trial in range(50):
        rng = trial_rng(1003, "repeats", trial)
        ns = random_node_set(rng, cfg)
        i = rng.randrange(len(ns))
        j = rng.randrange(len(ns) - 1)
        if j >= i:
            j += 1
        assert IDENTITIES["degenerate"].holds((ns, (i, j), True)) is None


def test_criterion_4_shift_invariance():
    """200 random (nodes, c): determinants invariant under shifting,
    verify's corollary1 law."""
    cfg = VerifyConfig(n_lo=1, n_hi=8, coeff_bound=50)
    for trial in range(200):
        rng = trial_rng(1004, "shift", trial)
        ns = random_node_set(rng, cfg)
        assert IDENTITIES["corollary1"].holds((ns, random_rational(rng, 50))) is None


def test_criterion_5_extension_polynomial():
    """Appending a probe node matches the extension polynomial, 100x3:
    verify's extension law."""
    report = run_identity("extension", 100, 1005, VerifyConfig(n_lo=1, n_hi=6, coeff_bound=50))
    assert report.failures == 0, report.first_counterexample


def test_criterion_6_wronskian():
    """Wronskian oracle determinant is probe-independent and matches the
    factorial-scaled product, 100 node sets x 3 probes: verify's wronskian
    law."""
    start = time.perf_counter()
    report = run_identity("wronskian", 100, 1006, VerifyConfig(n_lo=1, n_hi=6, coeff_bound=50))
    assert report.failures == 0, report.first_counterexample
    assert time.perf_counter() - start < 30.0


def test_criterion_7_jacobian():
    """The Jacobian is the leave-one-out grid: its partials are the exact
    symmetric difference quotients at h = 1/7, and the oracles give the
    closed form, 200 points: verify's jacobian law."""
    cfg = VerifyConfig(n_lo=1, n_hi=8, coeff_bound=50)
    for trial in range(200):
        point = random_node_set(trial_rng(1007, "jacobian", trial), cfg)
        assert IDENTITIES["jacobian"].holds(point) is None


def test_criterion_8_sign_bridge():
    """Every oracle gives the power matrix's closed form, (-1)^{n(n-1)/2}
    times theorem 1's product, 200 node sets: verify's sign_bridge law."""
    cfg = VerifyConfig(n_lo=1, n_hi=8, coeff_bound=50)
    for trial in range(200):
        ns = random_node_set(trial_rng(1008, "bridge", trial), cfg)
        assert IDENTITIES["sign_bridge"].holds(ns) is None


def test_criterion_9_verify_determinism():
    """`verify --seed 42` twice produces byte-identical reports."""
    first = _cli("verify", "--seed", "42")
    second = _cli("verify", "--seed", "42")
    assert first.returncode == 0, first.stderr
    assert second.returncode == 0, second.stderr
    assert first.stdout == second.stdout
    assert first.stdout.count("\n") == len(first.stdout.strip().split("\n"))


def test_criterion_10_benchmark_smoke():
    """Benchmark completes with matching hashes; timings are advisory."""
    result = _cli("bench", "--n", "4,8,16,32", "--methods", "closed,bareiss")
    assert result.returncode == 0, result.stderr
    rows = [line.split(",") for line in result.stdout.strip().split("\n")]
    assert len(rows) == 8
    hashes = {}
    times = {}
    for method, n, _bits, wall, digest in rows:
        hashes.setdefault(n, set()).add(digest)
        times[(method, n)] = int(wall)
    assert all(len(d) == 1 for d in hashes.values())
    closed_32 = times[("closed", "32")]
    bareiss_32 = times[("bareiss", "32")]
    # advisory observation, not a gate
    print(
        f"\n  n=32 wall time: closed {closed_32 / 1e6:.2f} ms, "
        f"bareiss {bareiss_32 / 1e6:.2f} ms, "
        f"closed {'faster' if closed_32 < bareiss_32 else 'slower'}"
    )
