"""Randomized verification of the library's identities.

Every identity is a pair: `draw(rng, cfg)` makes all of a trial's random
draws and returns its inputs, and `holds(inputs)` checks them.  Seeding
is splittable and documented: trial t of identity I under master seed S
derives its own RNG from the 64-bit big-endian value of
blake2b("S:I:t", digest_size=8), drawn by `bench.trial_rng`.  Trials are
therefore order-independent, parallelizable, and bit-exactly
reproducible for a given seed.

Random node sets draw numerators uniformly from [-B, B] and denominators
from [1, B] (B = coeff_bound), then canonicalize.  Nodes may repeat: every
identity holds on repeated nodes, so each set is drawn once.  Sizes span
the config's range, with two caps: leave_one_out's brute-force sums take
2^n terms, so it caps n at 8; oracle_agreement and multilinearity run
every oracle, so they cap n at the smallest finite reach in `ORACLES`
(Laplace's 8 today), read each time they run.  Elsewhere every oracle
checks every matrix within its reach, full build or minor alike.
theorem1 and sign_bridge draw the same way and share one `holds`, bound
to the kinds "vieta" and "vandermonde" of `KINDS`.  Tests feed their
own inputs to `holds`.
"""

import collections
import functools
import itertools
import json
import random
import time
from fractions import Fraction
from math import prod
from typing import Iterator, NamedTuple

from .bench import random_rational, trial_rng
from .calculus import KINDS, nodal_basis, wronskian_matrix
from .exactdet import ORACLES
from .matio import rendered_rows, serialize_nodes
from .rational import InputError, parse_rational, render_rational
from .structmat import ExactMatrix, vieta_extension_poly
from .sympoly import DensePolynomial, NodeSet, poly_from_roots, scaled_product

MAX_SEED = 2**64 - 1


class VerifyConfig(collections.namedtuple("VerifyConfig", "n_lo n_hi coeff_bound")):
    """Shared knobs for random input generation.

    An immutable value: a namedtuple validated on construction, not a
    dataclass.  Importing `dataclasses` takes about as long as importing
    this module, and every cold `vietamat verify` process would pay it.
    """

    __slots__ = ()

    def __new__(cls, n_lo: int = 1, n_hi: int = 6, coeff_bound: int = 50):
        if not (1 <= n_lo <= n_hi <= 10):
            raise InputError(f"n range must satisfy 1 <= lo <= hi <= 10, got {n_lo}..{n_hi}")
        if coeff_bound < 1:
            raise InputError("coeff bound must be at least 1")
        return super().__new__(cls, n_lo, n_hi, coeff_bound)


class VerifyReport(NamedTuple):
    """Outcome of one identity's randomized trials.

    `first_failure` is the index t of the first failing trial, or None:
    `holds(draw(trial_rng(seed, identity, t), cfg))` replays it and returns
    `first_counterexample`.
    """

    identity: str
    trials: int
    failures: int
    seed: int
    first_counterexample: tuple[str, ...] | None
    first_failure: int | None
    elapsed_ms: int

    def json_line(self) -> str:
        """Deterministic JSON projection; the trial index and the timing,
        which the CLI writes to stderr, are excluded, so reruns with the
        same seed match byte for byte."""
        payload = self._asdict()
        del payload["first_failure"], payload["elapsed_ms"]
        return json.dumps(payload)


def _random_size(rng: random.Random, cfg: VerifyConfig, *, min_n: int = 1, cap: int | None = None) -> int:
    """Draw a size within the config's range.

    `min_n` raises the low end for identities that need it (e.g. swaps
    need two nodes); `cap` lowers the high end for expensive oracles.
    `min_n` wins when the two cross.
    """
    hi = cfg.n_hi if cap is None else min(cfg.n_hi, cap)
    lo = max(min_n, min(cfg.n_lo, hi))
    return rng.randint(lo, max(lo, hi))


def random_node_set(rng: random.Random, cfg: VerifyConfig, *, min_n: int = 1, cap: int | None = None) -> NodeSet:
    """Draw a random node set within the config's ranges, once: nodes may
    repeat.  `min_n` and `cap` bound its size as in `_random_size`; only
    leave_one_out passes a cap, 8, as its brute-force sums grow as 2^n."""
    n = _random_size(rng, cfg, min_n=min_n, cap=cap)
    return NodeSet(random_rational(rng, cfg.coeff_bound) for _ in range(n))


def _index_pair(rng: random.Random, n: int) -> tuple[int, int]:
    """Two different indices below n, in increasing order."""
    i = rng.randrange(n)
    j = rng.randrange(n - 1)
    if j >= i:
        j += 1
    return (i, j) if i < j else (j, i)


def _reorder_columns(matrix: ExactMatrix, order) -> ExactMatrix:
    """Column k of the result is column order[k] of `matrix`, denominator
    and all, on rows 0..len(order)-1: a leading square minor."""
    numerators = ([row[c] for c in order] for row in matrix.numerators[: len(order)])
    return ExactMatrix(numerators, [matrix.denominators[c] for c in order])


def _esp_bruteforce(values: tuple[Fraction, ...], k: int) -> Fraction:
    """Sum over all k-subsets of the product of their elements, on ints:
    over the product D of every value's denominator, a subset's product is
    its members' numerators times the other values' denominators, and one
    Fraction is made of the sum over D at the end."""
    pairs = [(v.numerator, v.denominator) for v in values]
    total = 0
    for subset in itertools.combinations(range(len(pairs)), k):
        total += prod(p if i in subset else q for i, (p, q) in enumerate(pairs))
    return Fraction(total, prod(q for _, q in pairs))


# --- identities -----------------------------------------------------------
# A trial is holds(draw(rng, cfg)): `draw` makes every random draw, in a
# fixed order, and returns the inputs; `holds` draws nothing and returns
# None, or the offending input serialized as rational strings.
Identity = collections.namedtuple("Identity", "draw holds")


def _oracles_give(value: Fraction, matrix: ExactMatrix) -> bool:
    """Every oracle whose reach admits the matrix's size equals `value` on
    it; they run in table order, up to the first that differs."""
    n = len(matrix.numerators)
    return all(det(matrix) == value for det, reach in ORACLES.values() if reach is None or n <= reach)


def _kind_gives(kind, nodes, value, at=Fraction(0)):
    """The build of `KINDS[kind]` over `nodes` at `at`, when the kind's
    closed form on `nodes` is `value` and every oracle within its reach
    gives `value` on that build; otherwise None."""
    build, closed = KINDS[kind]
    matrix = build(nodes, at)
    return matrix if closed(nodes) == value and _oracles_give(value, matrix) else None


def _smallest_reach() -> int | None:
    """The smallest finite reach in `ORACLES`, or None when no oracle has
    one: the largest n at which every oracle runs."""
    return min((reach for _, reach in ORACLES.values() if reach is not None), default=None)


def _draw_shift(rng, cfg):
    return random_node_set(rng, cfg), random_rational(rng, cfg.coeff_bound)


def _draw_swap(rng, cfg):
    """At least two nodes and two different indices, i < j."""
    ns = random_node_set(rng, cfg, min_n=2)
    return ns, _index_pair(rng, len(ns))


def _draw_degenerate(rng, cfg):
    """A swap's draws and a coin: True repeats node i at j, False zeros both."""
    return (*_draw_swap(rng, cfg), rng.random() < 0.5)


def _draw_probes(rng, cfg):
    ns = random_node_set(rng, cfg)
    return ns, [random_rational(rng, cfg.coeff_bound) for _ in range(3)]


def _draw_permutation(rng, cfg):
    ns = random_node_set(rng, cfg)
    sigma = list(range(len(ns)))
    rng.shuffle(sigma)
    return ns, sigma


def _draw_matrix(rng, cfg, min_n=1):
    """A random matrix no larger than the smallest reach."""
    n = _random_size(rng, cfg, min_n=min_n, cap=_smallest_reach())
    return ExactMatrix.from_rows([random_rational(rng, cfg.coeff_bound) for _ in range(n)] for _ in range(n))


def _draw_multilinearity(rng, cfg):
    """A matrix of size 2 or more, a scale s, a row r and two rows i < j."""
    matrix = _draw_matrix(rng, cfg, min_n=2)
    n = len(matrix.numerators)
    return matrix, random_rational(rng, cfg.coeff_bound), rng.randrange(n), _index_pair(rng, n)


def _draw_roundtrip(rng, cfg):
    """Four rationals within the bound, then four with numerators of up to
    128 bits and denominators of up to 96."""
    small = [random_rational(rng, cfg.coeff_bound) for _ in range(4)]
    return small + [Fraction(rng.getrandbits(128) * rng.choice((-1, 1)), rng.getrandbits(96) + 1) for _ in range(4)]


def _closed_form(kind, ns):
    """Every oracle within its reach gives the closed form of `KINDS[kind]`
    on its matrix at the default point 0.  For "vieta" this is theorem 1;
    for "vandermonde", (-1)^{n(n-1)/2} times it, the sign between the two
    product orientations.  For n >= 2 every oracle within the minor's
    reach also gives, on the minor without the last row and column 0, the
    closed form on the nodes without node 0; a build fault that keeps
    det, such as column 0 added to column 1, changes that minor."""
    closed = KINDS[kind][1]
    matrix = _kind_gives(kind, ns, closed(ns))
    if matrix is None:
        return serialize_nodes(ns)
    if len(ns) == 1:
        return None
    minor = _reorder_columns(matrix, range(1, len(ns)))
    return None if _oracles_give(closed(NodeSet(ns[1:])), minor) else serialize_nodes(ns)


def _corollary1(inputs):
    """Shifting every node by c leaves the closed form unchanged, and every
    oracle within its reach gives it on the shifted nodes' matrix."""
    ns, c = inputs
    shifted = _kind_gives("vieta", NodeSet(a - c for a in ns), KINDS["vieta"][1](ns))
    return None if shifted is not None else serialize_nodes(ns)


def _antisymmetry(inputs):
    """Swapping nodes i and j swaps two build columns and negates the closed
    form, which every oracle within its reach gives on the swapped build."""
    ns, (i, j) = inputs
    order = list(range(len(ns)))
    order[i], order[j] = j, i
    build, closed = KINDS["vieta"]
    matrix = _kind_gives("vieta", NodeSet(ns[c] for c in order), -closed(ns))
    holds = matrix is not None and matrix == _reorder_columns(build(ns, Fraction(0)), order)
    return None if holds else serialize_nodes(ns)


def _extension(inputs):
    """Appending a probe node x0 gives the degree-n extension polynomial's
    value f(x0) as the closed form and from every oracle within its reach."""
    ns, probes = inputs
    f = vieta_extension_poly(ns)
    holds = all(_kind_gives("vieta", NodeSet(ns + (x0,)), f(x0)) is not None for x0 in probes)
    return None if holds else serialize_nodes(ns)


def _degenerate(inputs):
    """Repeating node i at j, or zeroing both, forces determinant 0 from the
    closed form and every oracle within its reach; two zeros zero the last
    row.  The oracles give 0 on the drawn nodes' matrix with column j set
    to twice column i too; unless the drawn nodes repeat or node j is 0,
    Bareiss must eliminate.

    The rank law, on the build of the degenerate nodes: every later copy
    of a node stores its first copy's column, ints and denominator, and
    with F the first-appearance columns and s = len(F), every oracle
    within the minor's reach gives the closed form of the s distinct
    values on the minor of rows 0..s-1 and columns F."""
    ns, (i, j), repeat = inputs
    nodes = list(ns)
    if repeat:
        nodes[j] = nodes[i]
    else:
        nodes[i] = nodes[j] = Fraction(0)
    degenerate = NodeSet(nodes)
    matrix = _kind_gives("vieta", degenerate, Fraction(0))
    if matrix is None or (nodes.count(Fraction(0)) >= 2 and any(matrix.numerators[-1])):
        return serialize_nodes(degenerate)
    drawn = KINDS["vieta"][0](ns, Fraction(0))
    doubled = ExactMatrix(
        [row[:j] + (2 * row[i],) + row[j + 1:] for row in drawn.numerators],
        drawn.denominators[:j] + drawn.denominators[i:i + 1] + drawn.denominators[j + 1:],
    )
    if not _oracles_give(Fraction(0), doubled):
        return serialize_nodes(ns)
    first = {a: nodes.index(a) for a in nodes}
    columns = list(zip(*matrix.numerators, matrix.denominators))
    ranked = all(column == columns[first[a]] for column, a in zip(columns, nodes)) and _oracles_give(
        KINDS["vieta"][1](NodeSet(first)), _reorder_columns(matrix, first.values())
    )
    return None if ranked else serialize_nodes(degenerate)


def _recombination(ns):
    """Column j times (x - a_j) rebuilds the full root polynomial, on the
    stored ints: for a_j = p / q and column j's ascending numerators c
    over D, (q x - p) / q gives numerators q c[m-1] - p c[m] over D q,
    with c[-1] = c[n] = 0."""
    full = poly_from_roots(ns)
    for poly, a in zip(nodal_basis(ns), ns):
        p, q, c = a.numerator, a.denominator, poly.numerators
        if DensePolynomial([q * hi - p * lo for lo, hi in zip(c + (0,), (0,) + c)], poly.denominator * q) != full:
            return serialize_nodes(ns)
    return None


def _permutation(inputs):
    """Permuting the nodes keeps the root product's ints, so every e_k, and permutes the build's columns."""
    ns, sigma = inputs
    permuted = NodeSet(ns[c] for c in sigma)
    build = KINDS["vieta"][0]
    matrix = _reorder_columns(build(ns, Fraction(0)), sigma)
    holds = scaled_product(permuted) == scaled_product(ns) and build(permuted, Fraction(0)) == matrix
    return None if holds else serialize_nodes(ns)


def _leave_one_out(ns):
    """The `KINDS["vieta"]` build equals brute-force sums over k-subsets."""
    n = len(ns)
    sums = ExactMatrix.from_rows([_esp_bruteforce(ns[:j] + ns[j + 1:], k) for j in range(n)] for k in range(n))
    return None if KINDS["vieta"][0](ns, Fraction(0)) == sums else serialize_nodes(ns)


def _wronskian(inputs):
    """At each probe point the `KINDS` build equals the Taylor route,
    `wronskian_matrix` of the nodal basis, and its determinant is
    probe-independent and matches the factorial-scaled closed form."""
    ns, probes = inputs
    basis = nodal_basis(ns)
    value = KINDS["wronskian"][1](ns)
    # a build that fails its closed form or an oracle is None, which equals no matrix
    holds = all(_kind_gives("wronskian", ns, value, x0) == wronskian_matrix(basis, x0) for x0 in probes)
    return None if holds else serialize_nodes(ns)


def _jacobian(point):
    """Determinant matches the closed form; every partial equals its
    symmetric difference quotient, so the matrix is the e_k grid."""
    matrix = _kind_gives("jacobian", point, KINDS["jacobian"][1](point))
    if matrix is None:
        return serialize_nodes(point)
    h = Fraction(1, 7)
    for c, a in enumerate(point):
        plus = scaled_product(point[:c] + (a + h,) + point[c + 1:])
        minus = scaled_product(point[:c] + (a - h,) + point[c + 1:])
        scale = 2 * plus[0] * minus[0]
        for r, row in enumerate(matrix.numerators, 1):
            # e_r is degree <= 1 in each coordinate, so the symmetric
            # quotient (plus[r]/plus[0] - minus[r]/minus[0]) / 2h is the
            # exact partial N[r][c] / D_c; cross-multiplied, with 1/h = 7
            if 7 * (plus[r] * minus[0] - minus[r] * plus[0]) * matrix.denominators[c] != scale * row[c]:
                return serialize_nodes(point)
    return None


def _oracle_agreement(matrix):
    """Every oracle agrees on the matrix.  Counterexamples serialize the
    entries row-major."""
    if len({det(matrix) for det, _ in ORACLES.values()}) == 1:
        return None
    return tuple(itertools.chain.from_iterable(rendered_rows(matrix)))


def _multilinearity(inputs):
    """Scaling row r by s scales, swapping rows i and j negates, det(I) = 1,
    and copying row i over row j gives 0 — for every oracle.
    Counterexamples serialize row-major."""
    matrix, s, r, (i, j) = inputs
    rows, d = list(matrix.numerators), matrix.denominators
    scaled = ExactMatrix(
        ([e * (s.numerator if p == r else s.denominator) for e in row] for p, row in enumerate(rows)),
        [dq * s.denominator for dq in d],
    )
    rows[i], rows[j] = rows[j], rows[i]
    swapped = ExactMatrix(rows, d)
    rows[i] = rows[j]
    duplicated = ExactMatrix(rows, d)
    eye = ExactMatrix(([dq if p == q else 0 for q, dq in enumerate(d)] for p in range(len(rows))), d)
    for det, _ in ORACLES.values():
        base = det(matrix)
        if det(scaled) != s * base or det(swapped) != -base or det(eye) != 1 or det(duplicated) != 0:
            return tuple(itertools.chain.from_iterable(rendered_rows(matrix)))
    return None


def _roundtrip(values):
    """parse(render(r)) is the identity, at small and huge magnitudes."""
    for r in values:
        if parse_rational(render_rational(r)) != r:
            return (render_rational(r),)
    return None


IDENTITIES = {
    "theorem1": Identity(random_node_set, functools.partial(_closed_form, "vieta")),
    "corollary1": Identity(_draw_shift, _corollary1),
    "sign_bridge": Identity(random_node_set, functools.partial(_closed_form, "vandermonde")),
    "antisymmetry": Identity(_draw_swap, _antisymmetry),
    "extension": Identity(_draw_probes, _extension),
    "degenerate": Identity(_draw_degenerate, _degenerate),
    "recombination": Identity(random_node_set, _recombination),
    "permutation": Identity(_draw_permutation, _permutation),
    "leave_one_out": Identity(functools.partial(random_node_set, cap=8), _leave_one_out),
    "wronskian": Identity(_draw_probes, _wronskian),
    "jacobian": Identity(random_node_set, _jacobian),
    "oracle_agreement": Identity(_draw_matrix, _oracle_agreement),
    "multilinearity": Identity(_draw_multilinearity, _multilinearity),
    "roundtrip": Identity(_draw_roundtrip, _roundtrip),
}


def _identity(name: str, trials: int, seed: int) -> Identity:
    """The identity `name`, once it exists and the trial count and seed are valid."""
    try:
        identity = IDENTITIES[name]
    except KeyError:
        alone = ", or 'all' alone" if name == "all" else ""
        raise InputError(f"unknown identity {name!r}; known: {', '.join(IDENTITIES)}{alone}") from None
    if trials < 1:
        raise InputError("trials must be at least 1")
    if not (0 <= seed <= MAX_SEED):
        raise InputError("seed must be an unsigned 64-bit integer")
    return identity


def run_identity(name: str, trials: int, seed: int, cfg: VerifyConfig) -> VerifyReport:
    """Run one identity's randomized trials and aggregate a report."""
    draw, holds = _identity(name, trials, seed)
    failures = 0
    first_failure = first_counterexample = None
    start = time.perf_counter()
    for trial in range(trials):
        counterexample = holds(draw(trial_rng(seed, name, trial), cfg))
        if counterexample is not None:
            failures += 1
            if first_counterexample is None:
                first_failure, first_counterexample = trial, counterexample
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return VerifyReport(name, trials, failures, seed, first_counterexample, first_failure, elapsed_ms)


def run_suite(names, trials: int, seed: int, cfg: VerifyConfig) -> Iterator[VerifyReport]:
    """Run a list of identity names; ["all"] runs every identity, and
    "all" beside other names is an unknown identity.  Every name, the
    trial count and the seed are checked here, before any identity runs;
    an empty list is an error.  The reports come lazily, each as its
    identity finishes."""
    selected = list(IDENTITIES) if names == ["all"] else list(names)
    if not selected:
        raise InputError("no identities selected")
    for name in selected:
        _identity(name, trials, seed)
    return (run_identity(name, trials, seed, cfg) for name in selected)
