"""Acceptance suite: every shipped guarantee, one test per criterion.

Each test prints a PASS/FAIL line (visible under ``pytest -s``) and runs
at exact equality; the only tolerances are the stated wall-clock budgets.
"""

import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from vietamat.calculus import jacobian_matrix
from vietamat.exactdet import det_bareiss, det_laplace
from vietamat.structmat import (
    build_vandermonde,
    build_vieta,
    shift_nodes,
    vieta_det_closed,
)
from vietamat.sympoly import NodeSet
from vietamat.verify import IDENTITIES, VerifyConfig, random_node_set, random_rational, run_identity, trial_rng


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:2d} PASS  {description} ({elapsed:.2f} s)")


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
    with criterion(1, "closed form matches literal products at n=2,3,4"):
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
    """500 random node sets, n in [1, 8]: closed = bareiss = laplace."""
    with criterion(2, "closed form equals both oracles, 500 trials, n<=8"):
        start = time.perf_counter()
        cfg = VerifyConfig(n_lo=1, n_hi=8, coeff_bound=50)
        for trial in range(500):
            ns = random_node_set(trial_rng(1002, "scale", trial), cfg)
            closed = vieta_det_closed(ns)
            matrix = build_vieta(ns)
            assert det_bareiss(matrix) == closed
            assert det_laplace(matrix) == closed
        assert time.perf_counter() - start < 30.0


def test_criterion_3_degenerate_cases():
    """Two zeros zero the last row; any repeat zeroes the determinant."""
    with criterion(3, "degenerate inputs give zero determinants, 100 cases"):
        cfg = VerifyConfig(n_lo=2, n_hi=8, coeff_bound=50)
        for trial in range(50):
            rng = trial_rng(1003, "zeros", trial)
            ns = random_node_set(rng, cfg)
            nodes = list(ns)
            nodes[rng.randrange(len(nodes))] = Fraction(0)
            spots = [i for i in range(len(nodes)) if nodes[i] != 0]
            if spots:
                nodes[rng.choice(spots)] = Fraction(0)
            two_zeros = NodeSet(nodes)
            matrix = build_vieta(two_zeros)
            assert not any(matrix.numerators[-1])
            assert vieta_det_closed(two_zeros) == 0
            assert det_bareiss(matrix) == 0
        for trial in range(50):
            rng = trial_rng(1003, "repeats", trial)
            ns = random_node_set(rng, cfg)
            nodes = list(ns)
            i = rng.randrange(len(nodes))
            j = rng.randrange(len(nodes) - 1)
            if j >= i:
                j += 1
            nodes[j] = nodes[i]
            repeated = NodeSet(nodes)
            assert vieta_det_closed(repeated) == 0
            assert det_bareiss(build_vieta(repeated)) == 0


def test_criterion_4_shift_invariance():
    """200 random (nodes, c): determinants invariant under shifting."""
    with criterion(4, "shift invariance, closed form and oracle, 200 pairs"):
        cfg = VerifyConfig(n_lo=1, n_hi=8, coeff_bound=50)
        for trial in range(200):
            rng = trial_rng(1004, "shift", trial)
            ns = random_node_set(rng, cfg)
            c = random_rational(rng, 50)
            shifted = shift_nodes(ns, c)
            assert vieta_det_closed(shifted) == vieta_det_closed(ns)
            assert det_bareiss(build_vieta(shifted)) == det_bareiss(build_vieta(ns))


def test_criterion_5_extension_polynomial():
    """Appending a probe node matches the extension polynomial, 100x3:
    verify's extension law."""
    with criterion(5, "extension polynomial matches appended-node oracle"):
        report = run_identity("extension", 100, 1005, VerifyConfig(n_lo=1, n_hi=6, coeff_bound=50))
        assert report.failures == 0, report.first_counterexample


def test_criterion_6_wronskian():
    """Wronskian oracle determinant is probe-independent and matches the
    factorial-scaled product, 100 node sets x 3 probes: verify's wronskian
    law."""
    with criterion(6, "wronskian probe-independence and closed form"):
        start = time.perf_counter()
        report = run_identity("wronskian", 100, 1006, VerifyConfig(n_lo=1, n_hi=6, coeff_bound=50))
        assert report.failures == 0, report.first_counterexample
        assert time.perf_counter() - start < 30.0


def test_criterion_7_jacobian():
    """Jacobian grid identity, and verify's jacobian law: the oracles give
    the closed form, and the partials are the exact symmetric difference
    quotients at h = 1/7, 200 points."""
    with criterion(7, "jacobian matches grid, oracle, and h=1/7 quotients"):
        cfg = VerifyConfig(n_lo=1, n_hi=8, coeff_bound=50)
        for trial in range(200):
            point = random_node_set(trial_rng(1007, "jacobian", trial), cfg)
            assert jacobian_matrix(point) == build_vieta(point)
            assert IDENTITIES["jacobian"].holds(point) is None


def test_criterion_8_sign_bridge():
    """Closed form equals (-1)^{n(n-1)/2} times the power matrix's
    determinant by cofactor expansion."""
    with criterion(8, "orientation sign bridge, 200 node sets"):
        cfg = VerifyConfig(n_lo=1, n_hi=8, coeff_bound=50)
        for trial in range(200):
            ns = random_node_set(trial_rng(1008, "bridge", trial), cfg)
            n = len(ns)
            sign = -1 if (n * (n - 1) // 2) % 2 else 1
            assert vieta_det_closed(ns) == sign * det_laplace(build_vandermonde(ns))


def test_criterion_9_verify_determinism():
    """`verify --seed 42` twice produces byte-identical reports."""
    with criterion(9, "verify output is byte-identical across reruns"):
        first = _cli("verify", "--seed", "42")
        second = _cli("verify", "--seed", "42")
        assert first.returncode == 0, first.stderr
        assert second.returncode == 0, second.stderr
        assert first.stdout == second.stdout
        assert first.stdout.count("\n") == len(first.stdout.strip().split("\n"))


def test_criterion_10_benchmark_smoke():
    """Benchmark completes with matching hashes; timings are advisory."""
    with criterion(10, "bench 4,8,16,32 completes with matching hashes"):
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
