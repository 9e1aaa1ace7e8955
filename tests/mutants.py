"""Mutation gate: every mutant in MUTANTS must be killed by the tests it names.

    python tests/mutants.py

For each entry, `src/` is copied to a temporary directory, the entry's
snippet must occur exactly once in its file (so a refactor that moves the
code fails loudly instead of skipping the mutant), and it is replaced.
A forked child then imports `vietamat` from the copy and runs only the
named pytest IDs with `pytest.main`; a plugin sends the IDs whose call
phase failed back through a pipe.  The mutant is killed when every named
ID fails; a named ID that still passes is a survivor.  Before any mutant
runs, all named IDs must pass on an unmutated copy.  Each mutant's line
gives its seconds beside `killed` or `SURVIVED`.  Exits 1 on any
survivor, missing snippet or broken run.  Needs `os.fork`.

pytest does not collect this file: its name does not match test_*.py.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import NamedTuple, NoReturn

import pytest
from hypothesis import Phase, settings

REPO = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/vietamat
    snippet: str
    replacement: str
    kills: tuple[str, ...]  # pytest IDs, each of which must fail


MUTANTS = (
    Mutant(
        "reach-short",
        "verify.py",
        "n <= reach",
        "n < reach",
        ("tests/test_verify.py::test_laplace_runs_at_exactly_its_reach",),
    ),
    Mutant(
        "reach-off",
        "verify.py",
        "ORACLES.values() if reach is None or n <= reach)",
        "ORACLES.values())",
        ("tests/test_verify.py::test_oracles_beyond_their_reach_are_skipped",),
    ),
    Mutant(
        "pair-cap-6",
        "verify.py",
        "return min((reach for _, reach in ORACLES.values() if reach is not None), default=None)",
        "return 6",
        ("tests/test_verify.py::test_oracle_pairs_follow_the_reach",),
    ),
    Mutant(
        "oracles-any",
        "verify.py",
        "return all(det(matrix) == value",
        "return any(det(matrix) == value",
        (
            "tests/test_verify.py::test_laplace_runs_at_exactly_its_reach",
            "tests/test_verify.py::test_every_identity_reads_its_oracles_from_the_table[theorem1]",
            "tests/test_verify.py::test_closed_form_identities_run_laplace",
        ),
    ),
    Mutant(
        "helper-no-oracles",
        "verify.py",
        "closed(nodes) == value and _oracles_give(value, matrix)",
        "closed(nodes) == value",
        (
            "tests/test_verify.py::test_every_identity_reads_its_oracles_from_the_table[theorem1]",
            "tests/test_verify.py::test_every_identity_reads_its_oracles_from_the_table[extension]",
            "tests/test_verify.py::test_every_identity_reads_its_oracles_from_the_table[wronskian]",
            "tests/test_verify.py::test_closed_form_identities_run_laplace",
        ),
    ),
    Mutant(
        "helper-no-closed-form",
        "verify.py",
        "closed(nodes) == value and _oracles_give",
        "_oracles_give",
        ("tests/test_verify.py::test_identity_checks_the_tables_closed_form[extension-vieta]",),
    ),
    Mutant(
        "minor-at-the-last-column",
        "verify.py",
        "(row[1:] for row in matrix.numerators[:-1]), matrix.denominators[1:])\n"
        "    return None if _oracles_give(closed(NodeSet(ns[1:]))",
        "(row[:-1] for row in matrix.numerators[:-1]), matrix.denominators[:-1])\n"
        "    return None if _oracles_give(closed(NodeSet(ns[:-1]))",
        (
            "tests/test_verify.py::test_each_law_sees_a_planted_fault[theorem1]",
            "tests/test_verify.py::test_each_law_sees_a_planted_fault[sign_bridge]",
        ),
    ),
    Mutant(
        "corollary1-no-check",
        "verify.py",
        'shifted = _kind_gives("vieta", NodeSet(a - c for a in ns), KINDS["vieta"][1](ns))',
        "shifted = ns",
        ("tests/test_verify.py::test_every_identity_reads_its_oracles_from_the_table[corollary1]",),
    ),
    Mutant(
        "antisymmetry-no-check",
        "verify.py",
        'matrix = _kind_gives("vieta", NodeSet(ns[c] for c in order), -closed(ns))',
        "matrix = build(NodeSet(ns[c] for c in order), Fraction(0))",
        ("tests/test_verify.py::test_every_identity_reads_its_oracles_from_the_table[antisymmetry]",),
    ),
    Mutant(
        "reorder-ignores-order",
        "verify.py",
        "return ExactMatrix(([row[c] for c in order] for row in matrix.numerators), [matrix.denominators[c] for c in order])",
        "return matrix",
        (
            "tests/test_verify.py::test_each_identity_passes_briefly[antisymmetry]",
            "tests/test_verify.py::test_each_identity_passes_briefly[permutation]",
            "tests/test_structmat.py::test_swap_negates_closed_form",
            "tests/test_sympoly.py::test_permutation_equivariance",
        ),
    ),
    Mutant(
        "extension-no-check",
        "verify.py",
        '_kind_gives("vieta", NodeSet(ns + (x0,)), f(x0)) is not None for x0 in probes',
        "True for x0 in probes",
        ("tests/test_verify.py::test_every_identity_reads_its_oracles_from_the_table[extension]",),
    ),
    Mutant(
        "probes-capped",
        "verify.py",
        "ns = random_node_set(rng, cfg)\n    return ns, [random_rational",
        "ns = random_node_set(rng, cfg, cap=6)\n    return ns, [random_rational",
        (
            "tests/test_verify.py::test_oracles_beyond_their_reach_are_skipped[extension]",
            "tests/test_verify.py::test_oracles_beyond_their_reach_are_skipped[wronskian]",
        ),
    ),
    Mutant(
        "jacobian-capped",
        "verify.py",
        '"jacobian": Identity(random_node_set, _jacobian)',
        '"jacobian": Identity(functools.partial(random_node_set, cap=8), _jacobian)',
        ("tests/test_verify.py::test_oracles_beyond_their_reach_are_skipped[jacobian]",),
    ),
    Mutant(
        "probes-drawn-first",
        "verify.py",
        "ns = random_node_set(rng, cfg)\n    return ns, [random_rational(rng, cfg.coeff_bound) for _ in range(3)]",
        "probes = [random_rational(rng, cfg.coeff_bound) for _ in range(3)]\n    return random_node_set(rng, cfg), probes",
        ("tests/test_cli.py::test_failing_verify_output_is_pinned",),
    ),
    Mutant(
        "roundtrip-sign-drawn-first",
        "verify.py",
        "rng.getrandbits(128) * rng.choice((-1, 1))",
        "rng.choice((-1, 1)) * rng.getrandbits(128)",
        ("tests/test_cli.py::test_failing_verify_output_is_pinned",),
    ),
    Mutant(
        "degenerate-always-repeats",
        "verify.py",
        "rng.random() < 0.5",
        "True",
        ("tests/test_verify.py::test_degenerate_draws_both_branches",),
    ),
    Mutant(
        "degenerate-no-rank-law",
        "verify.py",
        "return None if ranked else serialize_nodes(degenerate)",
        "return None",
        (
            "tests/test_verify.py::test_degenerate_checks_the_rank_law[_later_copies_zeroed]",
            "tests/test_verify.py::test_degenerate_checks_the_rank_law[_zero_when_nodes_repeat]",
        ),
    ),
    Mutant(
        "degenerate-minor-at-its-own-size",
        "verify.py",
        "minor, len(nodes)",
        "minor",
        ("tests/test_verify.py::test_oracles_beyond_their_reach_are_skipped[degenerate]",),
    ),
    Mutant(
        "recombination-factor-swapped",
        "verify.py",
        "q * hi - p * lo",
        "q * lo - p * hi",
        (
            "tests/test_sympoly.py::test_recombination",
            "tests/test_verify.py::test_each_identity_passes_briefly[recombination]",
        ),
    ),
    Mutant(
        "laplace-max-9",
        "exactdet.py",
        "LAPLACE_MAX = 8",
        "LAPLACE_MAX = 9",
        (
            "tests/test_exactdet.py::test_laplace_size_guard",
            "tests/test_cli.py::test_laplace_guard_exit_code",
            "tests/test_cli.py::test_bench_laplace_guard",
        ),
    ),
    Mutant(
        "laplace-negate-first",
        "exactdet.py",
        "j + n * (t % 2)",
        "j + n * ((t + 1) % 2)",
        (
            "tests/test_exactdet.py::test_laplace_examples",
            "tests/test_exactdet.py::test_laplace_on_signed_scaled_permutation_matrices",
            "tests/test_exactdet.py::test_both_oracles_match_leibniz",
            "tests/test_exactdet.py::test_both_oracles_match_leibniz_on_huge_denominators",
        ),
    ),
    Mutant(
        "laplace-scale-short",
        "exactdet.py",
        "return Fraction(minors[0], prod(m.denominators))",
        "return Fraction(minors[0], prod(m.denominators[1:]))",
        (
            "tests/test_exactdet.py::test_laplace_on_signed_scaled_permutation_matrices",
            "tests/test_exactdet.py::test_both_oracles_match_leibniz",
            "tests/test_exactdet.py::test_laplace_builds_no_fraction",
        ),
    ),
    Mutant(
        "laplace-sub-minor-drops-first-column",
        "exactdet.py",
        "below[cols[:t] + cols[t + 1 :]]",
        "below[cols[1:]]",
        ("tests/test_exactdet.py::test_both_oracles_match_leibniz",),
    ),
    Mutant(
        "bareiss-divisor-h",
        "exactdet.py",
        "divisors[j] = h // g",
        "divisors[j] = h",
        (
            "tests/test_exactdet.py::test_bareiss_rank_deficient_zero_at_the_last_step",
            "tests/test_exactdet.py::test_both_oracles_match_leibniz",
        ),
    ),
    Mutant(
        "bareiss-no-equal-columns",
        "exactdet.py",
        "if len(set(zip(zip(*m.numerators), m.denominators))) < n:",
        "if False:",
        ("tests/test_exactdet.py::test_bareiss_equal_columns_eliminate_nothing",),
    ),
    Mutant(
        "bareiss-h-prev",
        "exactdet.py",
        "h = prev // g\n",
        "h = prev\n",
        (
            "tests/test_exactdet.py::test_bareiss_integer_input_stays_integral",
            "tests/test_exactdet.py::test_both_oracles_match_leibniz",
        ),
    ),
    Mutant(
        "bareiss-swap-keeps-sign",
        "exactdet.py",
        "sign = -sign",
        "sign = sign",
        (
            "tests/test_exactdet.py::test_bareiss_needs_pivot_swap",
            "tests/test_exactdet.py::test_rational_pivot_swaps",
            "tests/test_exactdet.py::test_bareiss_pivot_swaps_track_the_sign",
        ),
    ),
    Mutant(
        "bareiss-no-row-content",
        "exactdet.py",
        "contents = [gcd(*row) for row in m.numerators]",
        "contents = [int(any(row)) for row in m.numerators]",
        (
            "tests/test_exactdet.py::test_bareiss_row_contents_match_leibniz",
            "tests/test_exactdet.py::test_bareiss_24_rational_nodes_match_closed_form_with_small_dividends",
        ),
    ),
    Mutant(
        "taylor-no-v-power",
        "sympoly.py",
        "out[r] = factorial * g[r] * v_pow[r]",
        "out[r] = factorial * g[r]",
        (
            "tests/test_calculus.py::test_wronskian_probe_independent_and_closed",
            "tests/test_calculus.py::test_wronskian_matrix_matches_derivatives",
        ),
    ),
    Mutant(
        "taylor-short-pass",
        "sympoly.py",
        "for i in range(min(count, d)):",
        "for i in range(min(count, d) - 1):",
        (
            "tests/test_calculus.py::test_wronskian_matrix_matches_derivatives",
            "tests/test_calculus.py::test_nodal_basis_vanishing_pattern",
        ),
    ),
    Mutant(
        "shift-dropped",
        "calculus.py",
        "nodal_basis(NodeSet(a - at for a in ns)), 0)",
        "nodal_basis(ns), 0)",
        (
            "tests/test_calculus.py::test_builders_match_naive_fractions[wronskian]",
            "tests/test_cli.py::test_build_output_is_pinned",
            "tests/test_verify.py::test_wronskian_compares_the_kinds_build_with_the_taylor_route",
        ),
    ),
    Mutant(
        "wronskian-no-route-check",
        "verify.py",
        '_kind_gives("wronskian", ns, value, x0) == wronskian_matrix(basis, x0)',
        '_kind_gives("wronskian", ns, value, x0) is not None',
        ("tests/test_verify.py::test_wronskian_compares_the_kinds_build_with_the_taylor_route",),
    ),
    Mutant(
        "nodeset-empty-ok",
        "sympoly.py",
        '        if not self:\n            raise ValueError("a node set needs at least one node")\n',
        "",
        ("tests/test_sympoly.py::test_node_set_rejects_empty",),
    ),
    Mutant(
        "nodeset-no-coerce",
        "sympoly.py",
        "map(as_fraction, nodes)",
        "nodes",
        ("tests/test_sympoly.py::test_node_set_is_an_immutable_value",),
    ),
    Mutant(
        "poly-eq-numerators-only",
        "sympoly.py",
        "x * e == y * d",
        "x == y",
        (
            "tests/test_sympoly.py::test_scaled_polynomial_equals_its_fraction_twin",
            "tests/test_calculus.py::test_equality_builds_no_fraction",
        ),
    ),
    Mutant(
        "matrix-eq-numerators-only",
        "structmat.py",
        "x * ej == y * dj",
        "x == y",
        (
            "tests/test_structmat.py::test_matrix_equality_ignores_column_scale",
            "tests/test_calculus.py::test_equality_builds_no_fraction",
        ),
    ),
    Mutant(
        "closed-repeat-check-late",
        "structmat.py",
        "    if len(set(pairs)) < len(pairs):\n        return Fraction(0)\n    q = product_tree([t for _, t in pairs])\n",
        "    q = product_tree([t for _, t in pairs])\n    if len(set(pairs)) < len(pairs):\n        return Fraction(0)\n",
        ("tests/test_calculus.py::test_repeated_node_anywhere_multiplies_nothing",),
    ),
    Mutant(
        "closed-wrong-past-the-n4-grid",
        "structmat.py",
        "if len(set(pairs)) < len(pairs):",
        "if len(set(pairs)) < len(pairs) or pairs[-2:] == [(3, 1), (4, 1)]:",
        ("tests/test_calculus.py::test_closed_forms_hold_on_the_proof_grid",),
    ),
    Mutant(
        "closed-split-one-pass",
        "structmat.py",
        "while g > 1:",
        "if g > 1:",
        ("tests/test_calculus.py::test_closed_forms_match_naive_product",),
    ),
    Mutant(
        "closed-cancel-keeps-s",
        "structmat.py",
        "        s //= h\n",
        "",
        ("tests/test_calculus.py::test_closed_forms_match_naive_product",),
    ),
    Mutant(
        "closed-cancel-keeps-q",
        "structmat.py",
        "kept.append(q // h)",
        "kept.append(q)",
        ("tests/test_calculus.py::test_closed_forms_match_naive_product",),
    ),
    Mutant(
        "vandermonde-q-powers-forward",
        "structmat.py",
        "zip(p_pow, reversed(q_pow))",
        "zip(p_pow, q_pow)",
        (
            "tests/test_calculus.py::test_builders_match_naive_fractions[vandermonde]",
            "tests/test_structmat.py::test_sign_bridge",
        ),
    ),
    Mutant(
        "parse-ignores-denominator",
        "rational.py",
        "return Fraction(numerator, denominator)",
        "return Fraction(numerator)",
        (
            "tests/test_rational.py::test_parse_canonicalizes",
            "tests/test_rational.py::test_parse_hands_fraction_only_ints",
            "tests/test_rational.py::test_roundtrip",
        ),
    ),
    Mutant(
        "as-fraction-bool",
        "rational.py",
        "if type(value) is int:",
        "if isinstance(value, int):",
        (
            "tests/test_rational.py::test_as_fraction_is_the_wire_grammar",
            "tests/test_rational.py::test_value_constructors_read_rationals_through_as_fraction",
            "tests/test_calculus.py::test_wronskian_point_is_read_by_the_wire_grammar",
        ),
    ),
    Mutant(
        "render-ratio-no-gcd",
        "rational.py",
        "g = gcd(numerator, denominator)",
        "g = 1",
        (
            "tests/test_matio.py::test_matrix_csv_fractions",
            "tests/test_cli.py::test_build_output_is_pinned",
        ),
    ),
    Mutant(
        "render-columns-reversed",
        "matio.py",
        "zip(row, denominators)",
        "zip(row, denominators[::-1])",
        ("tests/test_matio.py::test_cross_format_roundtrip",),
    ),
    Mutant(
        "node-file-numbers-ok",
        "matio.py",
        "if not all(isinstance(v, str) for v in values):",
        "if False:",
        ("tests/test_matio.py::test_load_nodes_file_schema_errors",),
    ),
    Mutant(
        "internal-error-as-input",
        "cli.py",
        "        return 4",
        "        return 2",
        ("tests/test_cli.py::test_internal_error_exit_code",),
    ),
    Mutant(
        "bare-value-error-as-input",
        "cli.py",
        "except (InputError, OSError) as exc:",
        "except (ValueError, OSError) as exc:",
        ("tests/test_cli.py::test_library_value_errors_are_internal_errors",),
    ),
    Mutant(
        "int-option-any-grammar",
        "cli.py",
        'p_verify.add_argument("--trials", type=_int_option',
        'p_verify.add_argument("--trials", type=int',
        ("tests/test_cli.py::test_integer_options_take_ascii_digits_only[verify--trials]",),
    ),
    Mutant(
        "verify-header-no-n",
        "cli.py",
        " --n {lo}..{hi}",
        "",
        ("tests/test_cli.py::test_verify_stderr_names_what_produced_stdout",),
    ),
    Mutant(
        "first-failure-off-by-one",
        "verify.py",
        "first_failure, first_counterexample = trial, counterexample",
        "first_failure, first_counterexample = trial + 1, counterexample",
        (
            "tests/test_verify.py::test_first_failing_trial_replays",
            "tests/test_cli.py::test_verify_failure_exit_code",
        ),
    ),
    Mutant(
        "det-method-ignored",
        "cli.py",
        'if args.method == "closed":',
        "if True:",
        ("tests/test_cli.py::test_laplace_guard_exit_code",),
    ),
    Mutant(
        "multilinearity-scale-every-row",
        "verify.py",
        "s.numerator if p == r else s.denominator",
        "s.numerator",
        (
            "tests/test_verify.py::test_each_identity_passes_briefly[multilinearity]",
            "tests/test_verify.py::test_matrix_laws_read_only_the_stored_ints[multilinearity]",
            "tests/test_exactdet.py::test_row_scaling",
        ),
    ),
    Mutant(
        "multilinearity-no-eye",
        "verify.py",
        " or det(eye) != 1",
        "",
        ("tests/test_exactdet.py::test_identity_det",),
    ),
    Mutant(
        "extension-unsigned",
        "structmat.py",
        "vieta_det_closed(ns, factors=[-1] * (len(ns) % 2))",
        "vieta_det_closed(ns)",
        (
            "tests/test_structmat.py::test_extension_poly_examples",
            "tests/test_structmat.py::test_extension_poly_constant_term_identity",
            "tests/test_acceptance.py::test_criterion_5_extension_polynomial",
        ),
    ),
    Mutant(
        "wronskian-point-fraction",
        "calculus.py",
        "x0 = as_fraction(x0)",
        "x0 = Fraction(x0)",
        ("tests/test_calculus.py::test_wronskian_point_is_read_by_the_wire_grammar",),
    ),
    Mutant(
        "permutation-no-ek",
        "verify.py",
        "holds = scaled_product(permuted) == scaled_product(ns) and ",
        "holds = ",
        ("tests/test_verify.py::test_permutation_compares_the_root_products_ints",),
    ),
    Mutant(
        "esp-bruteforce-start-one",
        "verify.py",
        "    total = 0\n",
        "    total = 1\n",
        (
            "tests/test_sympoly.py::test_elem_sym_matches_bruteforce",
            "tests/test_sympoly.py::test_table_matches_bruteforce",
            "tests/test_calculus.py::test_builders_match_naive_fractions[vieta]",
        ),
    ),
    Mutant(
        "jacobian-quotient-no-h",
        "verify.py",
        "if 7 * (plus[r] * minus[0]",
        "if (plus[r] * minus[0]",
        ("tests/test_calculus.py::test_partials_match_symmetric_difference_quotient",),
    ),
)


class Gate:
    """pytest plugin: Hypothesis neither shrinks nor replays a failure (a
    mutant needs only to fail, and a shrink can take minutes), and each node
    ID whose call phase failed is written to `pipe`."""

    def __init__(self, pipe: int) -> None:
        self.pipe = pipe

    def pytest_configure(self, config) -> None:
        settings.register_profile("mutants", database=None, phases=(Phase.explicit, Phase.generate))
        settings.load_profile("mutants")

    def pytest_runtest_logreport(self, report) -> None:
        if report.when == "call" and report.failed:
            os.write(self.pipe, f"{report.nodeid}\n".encode())


def _pytest(ids, mutant: Mutant | None = None) -> tuple[int, set[str], str]:
    """Run `ids` in a forked child against a copy of `src/` with `mutant`
    applied: the exit code, the failed node IDs, and the output."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        if mutant:
            _mutate(src, mutant)
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:
            _child(src, ids, write)
        os.close(write)
        with os.fdopen(read) as pipe:
            failed = set(pipe.read().splitlines())
        _, status = os.waitpid(pid, 0)
        return os.waitstatus_to_exitcode(status), failed, (Path(tmp) / "pytest.log").read_text()


def _child(src: Path, ids, pipe: int) -> NoReturn:
    """Run `ids` on the copy `src`; the output and Hypothesis's storage go
    beside it, not into the checkout.  Exits with pytest's code, or 3."""
    code = 3
    try:
        with open(src.parent / "pytest.log", "w") as out:
            os.dup2(out.fileno(), 1)
            os.dup2(out.fileno(), 2)
        os.chdir(REPO)
        sys.dont_write_bytecode = True
        os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = str(src.parent / ".hypothesis")
        sys.path.insert(0, str(src))
        import vietamat
        if not vietamat.__file__.startswith(str(src)):
            raise ImportError(f"vietamat imports from {vietamat.__file__!r}, not from the copy {src}")
        # The parent imported Hypothesis before pytest could mark it for
        # assertion rewriting; the warning would head every printed log.
        args = ["-q", "-p", "no:cacheprovider", "-W", "ignore::pytest.PytestAssertRewriteWarning", *ids]
        code = pytest.main(args, plugins=[Gate(pipe)])
    except BaseException:
        traceback.print_exc()
    sys.stdout.flush()
    os._exit(code)


def _mutate(src: Path, mutant: Mutant) -> None:
    path = src / "vietamat" / mutant.path
    text = path.read_text()
    count = text.count(mutant.snippet)
    if count != 1:
        raise SystemExit(f"{mutant.name}: snippet {mutant.snippet!r} occurs {count} times in {mutant.path}")
    path.write_text(text.replace(mutant.snippet, mutant.replacement))


def _baseline() -> None:
    """All named IDs pass on an unmutated copy."""
    code, _, output = _pytest(sorted({test for m in MUTANTS for test in m.kills}))
    if code != 0:
        raise SystemExit(f"baseline: the named tests do not all pass unmutated (exit {code})\n{output}")


def _killed(mutant: Mutant) -> bool:
    """Every named ID fails on a copy with the mutant applied."""
    code, failed, output = _pytest(mutant.kills, mutant)
    survivors = [
        test for test in mutant.kills if not any(f == test or f.startswith(test + "[") for f in failed)
    ]
    if code not in (0, 1):
        print(f"{mutant.name}: pytest exited {code}\n{output}")
        return False
    for test in survivors:
        print(f"{mutant.name}: SURVIVED {test}")
    return not survivors


def main() -> int:
    start = time.perf_counter()
    _baseline()
    survived = 0
    for mutant in MUTANTS:
        began = time.perf_counter()
        killed = _killed(mutant)
        survived += not killed
        seconds = time.perf_counter() - began
        print(f"{mutant.name}: {'killed' if killed else 'SURVIVED'} in {seconds:.1f} s", flush=True)
    print(f"{len(MUTANTS) - survived}/{len(MUTANTS)} killed in {time.perf_counter() - start:.1f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
