"""Wall-clock comparison of determinant routes on seeded random inputs.

For each size n, one node set is drawn (entry magnitudes controlled by a
bit length) and its e_k matrix built once, outside any timer.  Each
requested method then computes the same determinant; records carry a
digest of the canonical result string, so agreement across methods is a
one-line check downstream.

Timings are raw wall-clock per repeat; statistics stay in downstream
tooling.  The seeded draws (`trial_rng`, `random_rational`) live here and
verify imports them, so `bench` runs without loading verify.
"""

import hashlib
import random
import time
from fractions import Fraction
from typing import NamedTuple

from .calculus import KINDS
from .exactdet import METHODS, ORACLES
from .rational import InputError, render_rational
from .sympoly import NodeSet


class BenchRecord(NamedTuple):
    """One timed determinant evaluation."""

    method: str
    n: int
    entry_bits: int
    wall_time_ns: int
    result_hash: str

    def csv_row(self) -> str:
        return f"{self.method},{self.n},{self.entry_bits},{self.wall_time_ns},{self.result_hash}"


def result_hash(value) -> str:
    """Digest of the canonical rational text of a determinant."""
    return hashlib.sha256(render_rational(value).encode("ascii")).hexdigest()


def trial_rng(seed: int, identity: str, trial: int) -> random.Random:
    """Per-trial RNG from the counter-splitting rule documented in
    `verify`; `bench_node_set` draws from it too, under identity "bench"."""
    digest = hashlib.blake2b(f"{seed}:{identity}:{trial}".encode("ascii"), digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))


def random_rational(rng: random.Random, bound: int) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def bench_node_set(seed: int, n: int, entry_bits: int) -> NodeSet:
    """Deterministic node set for size n with entry_bits-sized parts."""
    rng = trial_rng(seed, "bench", n)
    top = 2**entry_bits - 1
    return NodeSet(random_rational(rng, top) for _ in range(n))


def run_bench(n_values: list[int], methods: list[str], repeats: int, entry_bits: int, seed: int) -> list[BenchRecord]:
    """One record per (n, method, repeat), in that nesting order."""
    if not n_values or not methods:
        raise InputError("benchmark needs at least one size and one method")
    if repeats < 1:
        raise InputError("repeats must be at least 1")
    if entry_bits < 1:
        raise InputError("entry bits must be at least 1")
    for n in n_values:
        if n < 1:
            raise InputError("benchmark sizes must be at least 1")
    for method in methods:
        if method not in METHODS:
            raise InputError(f"unknown method {method!r}; expected one of {', '.join(METHODS)}")
    build, closed = KINDS["vieta"]
    records = []
    for n in n_values:
        ns = bench_node_set(seed, n, entry_bits)
        matrix = build(ns, 0)
        for method in methods:
            det, arg = (closed, ns) if method == "closed" else (ORACLES[method][0], matrix)
            for _ in range(repeats):
                start = time.perf_counter_ns()
                value = det(arg)
                elapsed = time.perf_counter_ns() - start
                records.append(BenchRecord(method, n, entry_bits, elapsed, result_hash(value)))
    return records
