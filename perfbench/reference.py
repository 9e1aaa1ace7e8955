"""Independent expected values for every request the benchmark sends.

Nothing here imports vietamat: determinants come from the product of
node differences computed over integer cross products, and built
matrices are checked by multiplying each column back into the full
polynomial.  A defect in the program's timed code path therefore cannot
also hide in its reference.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

KINDS = ("vieta", "vandermonde", "wronskian", "jacobian")


class WrongAnswer(AssertionError):
    """The program returned a value that disagrees with the reference."""


def parse_nodes(text: str) -> list[Fraction]:
    return [Fraction(piece) for piece in text.split(",")]


def difference_product(nodes: list[Fraction]) -> Fraction:
    """prod_{i<k} (a_i - a_k), multiplied as integers and reduced once."""
    num = 1
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            num *= a.numerator * b.denominator - b.numerator * a.denominator
    den = math.prod(a.denominator for a in nodes) ** (len(nodes) - 1)
    return Fraction(num, den)


def expected_det(kind: str, nodes: list[Fraction]) -> Fraction:
    """Determinant of the `kind` matrix over `nodes`, by each kind's
    sign and scale convention."""
    n = len(nodes)
    value = difference_product(nodes)
    if kind == "vandermonde" and (n * (n - 1) // 2) % 2:
        value = -value
    if kind == "wronskian":
        value *= math.prod(math.factorial(k) for k in range(n))
    return value


def check_det(kind: str, nodes_text: str, output: str) -> None:
    expected = expected_det(kind, parse_nodes(nodes_text))
    if Fraction(output.strip()) != expected:
        raise WrongAnswer(f"det {kind} over {nodes_text!r}: got {output.strip()[:80]}")


def _linear_product(factors: list[tuple[Fraction, Fraction]]) -> list[Fraction]:
    """Ascending coefficients of prod_i (u_i + v_i s)."""
    coeffs = [Fraction(1)]
    for u, v in factors:
        nxt = [u * c for c in coeffs] + [Fraction(0)]
        for k, c in enumerate(coeffs):
            nxt[k + 1] += v * c
        coeffs = nxt
    return coeffs


def _columns_recombine(columns: list[list[Fraction]], factors: list[tuple[Fraction, Fraction]]) -> bool:
    """Column j, read as ascending coefficients, times (u_j + v_j s) must
    equal the product of all the factors.  This fixes every column
    uniquely, so the whole matrix is checked."""
    full = _linear_product(factors)
    for c, (u, v) in zip(columns, factors):
        padded = [Fraction(0)] + c + [Fraction(0)]
        for k, want in enumerate(full):
            if u * padded[k + 1] + v * padded[k] != want:
                return False
    return True


def check_matrix(kind: str, nodes_text: str, at_text: str, rows: list[list[Fraction]]) -> None:
    """Check a built matrix entry for entry, without rebuilding it.

    vieta/jacobian: column j holds e_0..e_{n-1} of the nodes without a_j,
    so column j times (1 + a_j s) is prod_i (1 + a_i s).
    wronskian: column j divided by r! holds the Taylor coefficients of
    prod_{i != j} (x - a_i) at x0, so times (x0 - a_j + s) it is
    prod_i (x0 - a_i + s).
    vandermonde: entry (r, j) is a_j ** r, compared on numerator and
    denominator separately.
    """
    nodes = parse_nodes(nodes_text)
    n = len(nodes)
    if len(rows) != n or any(len(row) != n for row in rows):
        raise WrongAnswer(f"build {kind}: shape is not {n}x{n}")
    columns = [[rows[r][j] for r in range(n)] for j in range(n)]
    if kind in ("vieta", "jacobian"):
        ok = _columns_recombine(columns, [(Fraction(1), a) for a in nodes])
    elif kind == "wronskian":
        x0 = Fraction(at_text)
        scaled = [[c / math.factorial(r) for r, c in enumerate(col)] for col in columns]
        ok = _columns_recombine(scaled, [(x0 - a, Fraction(1)) for a in nodes])
    else:
        ok = all(
            col[r].numerator == a.numerator**r and col[r].denominator == a.denominator**r
            for col, a in zip(columns, nodes)
            for r in range(n)
        )
    if not ok:
        raise WrongAnswer(f"build {kind} over {nodes_text!r} at {at_text}: matrix fails the column identity")


def check_matrix_json(kind: str, nodes_text: str, at_text: str, output: str) -> None:
    rows = [[Fraction(e) for e in row] for row in json.loads(output)]
    check_matrix(kind, nodes_text, at_text, rows)


def check_matrix_csv(kind: str, nodes_text: str, at_text: str, output: str) -> None:
    rows = [[Fraction(e) for e in line.split(",")] for line in output.split("\n") if line]
    check_matrix(kind, nodes_text, at_text, rows)


def bench_hash(seed: int, n: int, entry_bits: int) -> str:
    """Digest `vietamat bench` must print for size n: its node set follows
    the documented blake2b("seed:bench:n") split, and the hash covers the
    canonical text of the vieta determinant."""
    digest = hashlib.blake2b(f"{seed}:bench:{n}".encode("ascii"), digest_size=8).digest()
    rng = random.Random(int.from_bytes(digest, "big"))
    top = 2**entry_bits - 1
    nodes = []
    for _ in range(n):
        num = rng.randint(-top, top)
        nodes.append(Fraction(num, rng.randint(1, top)))
    return hashlib.sha256(str(difference_product(nodes)).encode("ascii")).hexdigest()
