import hashlib
import itertools
import json
import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from vietamat import calculus, exactdet, structmat, sympoly, verify
from vietamat.cli import main
from vietamat.rational import render_rational
from vietamat.verify import IDENTITIES, Identity


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_det_closed(capsys):
    code, out, _ = run(capsys, "det", "vieta", "--nodes", "1,2,3", "--method", "closed")
    assert code == 0
    assert out == "-2\n"


def test_det_all_methods_agree(capsys):
    # on integer, rational and repeated nodes; vandermonde carries the n = 3 orientation sign
    expected = {
        "vieta": ("-2\n", "39/14\n"),
        "vandermonde": ("2\n", "-39/14\n"),
        "wronskian": ("-4\n", "39/7\n"),
        "jacobian": ("-2\n", "39/14\n"),
    }
    for kind, (integer, rational) in expected.items():
        for method in ("closed", "laplace", "bareiss"):
            for nodes, out_want in (("1,2,3", integer), ("1/2,-3,5/7", rational), ("4,-1/2,4", "0\n")):
                code, out, _ = run(capsys, "det", kind, f"--nodes={nodes}", "--method", method, "--at=-2/7")
                assert (code, out) == (0, out_want), (kind, method, nodes)


def test_leading_minus_needs_equals_form(capsys):
    code, out, _ = run(capsys, "det", "vieta", "--nodes=-1,2")
    assert (code, out) == (0, "-3\n")
    code, _, _ = run(capsys, "build", "wronskian", "--nodes", "1,2", "--at=-1/2")
    assert code == 0
    # Without "=" argparse reads the value as an option.
    code, _, err = run(capsys, "det", "vieta", "--nodes", "-1,2")
    assert code == 2
    assert "expected one argument" in err


def test_det_repeated_nodes(capsys):
    code, out, _ = run(capsys, "det", "vieta", "--nodes", "4,4,9", "--method", "closed")
    assert code == 0
    assert out == "0\n"


def test_det_vandermonde(capsys):
    code, out, _ = run(capsys, "det", "vandermonde", "--nodes", "1,2,3")
    assert code == 0
    assert out == "2\n"


def test_build_csv(capsys):
    code, out, _ = run(capsys, "build", "vieta", "--nodes", "1,2,3", "--format", "csv")
    assert code == 0
    assert out == "1,1,1\n5,4,3\n6,3,2\n"
    code, out, _ = run(capsys, "build", "vandermonde", "--nodes=1,2,-1/3", "--format", "csv")
    assert (code, out) == (0, "1,1,1\n1,2,-1/3\n1,4,1/9\n")


def test_build_json_single_node(capsys):
    code, out, _ = run(capsys, "build", "vieta", "--nodes", "7")
    assert code == 0
    assert json.loads(out) == [["1"]]


def test_build_wronskian_at_zero(capsys):
    code, out, _ = run(capsys, "build", "wronskian", "--nodes", "1,2,3", "--at", "0", "--format", "csv")
    assert code == 0
    assert out == "6,3,2\n-5,-4,-3\n2,2,2\n"


def test_build_wronskian_at_changes_matrix(capsys):
    _, at_zero, _ = run(capsys, "build", "wronskian", "--nodes", "1,2,3", "--at", "0")
    _, at_one, _ = run(capsys, "build", "wronskian", "--nodes", "1,2,3", "--at", "1")
    assert at_zero != at_one
    code, out, _ = run(capsys, "build", "wronskian", "--nodes=1,-1/2,0", "--at=2/3")
    assert (code, out) == (0, '[["7/9", "-2/9", "-7/18"], ["11/6", "1/3", "5/6"], ["2", "2", "2"]]\n')


def test_wronskian_alias(capsys):
    code, out, _ = run(capsys, "wronskian", "--nodes", "1,2,3", "--method", "closed")
    assert code == 0
    assert out == "-4\n"
    code, bareiss_out, _ = run(capsys, "wronskian", "--nodes", "1,2,3", "--method", "bareiss", "--at", "5")
    assert code == 0
    assert bareiss_out == out  # probe-independent


def test_jacobian_alias(capsys):
    code, out, _ = run(capsys, "jacobian", "--nodes", "1,2,3")
    assert code == 0
    assert out == "-2\n"


def test_nodes_file(capsys, tmp_path):
    path = tmp_path / "nodes.json"
    path.write_text('{"nodes": ["1", "2", "3"]}')
    code, out, _ = run(capsys, "det", "vieta", "--nodes-file", str(path))
    assert code == 0
    assert out == "-2\n"


def test_nodes_and_file_together_is_input_error(capsys, tmp_path):
    path = tmp_path / "nodes.json"
    path.write_text('{"nodes": ["1"]}')
    code, _, _ = run(capsys, "det", "vieta", "--nodes", "1", "--nodes-file", str(path))
    assert code == 2


def test_missing_nodes_is_input_error(capsys):
    code, _, _ = run(capsys, "det", "vieta")
    assert code == 2


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "det", "vieta", "--nodes", "1,x,3")
    assert code == 2
    assert "error" in err


def test_bad_at_is_input_error_for_every_method(capsys):
    # --at is parsed for every kind and method, including ones that ignore it
    for argv in (
        ("det", "wronskian", "--nodes", "1,2", "--at", "x"),
        ("det", "wronskian", "--nodes", "1,2", "--at", "x", "--method", "bareiss"),
        ("build", "vieta", "--nodes", "1,2", "--at", "x"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "invalid rational 'x'" in err


def test_missing_nodes_file_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, "det", "vieta", "--nodes-file", str(tmp_path / "gone.json"))
    assert code == 2
    assert "error" in err


# Eight rational nodes, the guard's size: Laplace gives each kind's closed value.
EIGHT_NODES = "1/2,-3,5/7,2,-1/4,3/5,7,-2"
EIGHT_NODE_DETS = {
    "vieta": "11910048048206451/19208000\n",
    "vandermonde": "11910048048206451/19208000\n",
    "wronskian": "26672409683381768537088/343\n",
    "jacobian": "11910048048206451/19208000\n",
}


def test_laplace_guard_exit_code(capsys, monkeypatch):
    # the guard is fixed at 8x8: VIETA_LAPLACE_MAX, set or not, changes nothing
    nodes = ",".join(str(i) for i in range(1, 10))  # 9 nodes
    for raw in (None, "9", "eight"):
        if raw is None:
            monkeypatch.delenv("VIETA_LAPLACE_MAX", raising=False)
        else:
            monkeypatch.setenv("VIETA_LAPLACE_MAX", raw)
        code, _, err = run(capsys, "det", "vieta", "--nodes", nodes, "--method", "laplace")
        assert code == 3, raw
        assert "8x8" in err
        code, out, _ = run(capsys, "det", "vieta", "--nodes", "1,2,3", "--method", "laplace")
        assert (code, out) == (0, "-2\n"), raw
        for kind, want in EIGHT_NODE_DETS.items():
            for method in ("closed", "laplace"):
                code, out, _ = run(capsys, "det", kind, f"--nodes={EIGHT_NODES}", "--at=-2/3", "--method", method)
                assert (code, out) == (0, want), (raw, kind, method)
            code, out, _ = run(capsys, "det", kind, f"--nodes={EIGHT_NODES},9", "--at=-2/3", "--method", "laplace")
            assert (code, out) == (3, ""), (raw, kind)


def test_input_and_size_errors_keep_their_codes_and_messages(capsys, tmp_path):
    """A node file off-schema and an unknown identity exit 2, Laplace on
    nine nodes exits 3, each with its one stderr line unchanged."""
    path = tmp_path / "nodes.json"
    path.write_text('{"nodes": [1, 2]}')
    known = ", ".join(IDENTITIES)
    for argv, want_code, want_err in (
        (
            ("det", "vieta", "--nodes-file", str(path)),
            2,
            f"error: node file {path}: nodes must be rational strings, not numbers\n",
        ),
        (("verify", "--suite", "nope"), 2, f"error: unknown identity 'nope'; known: {known}\n"),
        (
            ("det", "vieta", "--nodes", "1,2,3,4,5,6,7,8,9", "--method", "laplace"),
            3,
            "error: det_laplace is limited to 8x8, got 9x9; bareiss has no size limit\n",
        ),
    ):
        assert run(capsys, *argv) == (want_code, "", want_err), argv


def test_out_into_missing_directory_is_input_error(capsys, tmp_path):
    target = tmp_path / "missing" / "m.json"
    code, out, err = run(capsys, "build", "vieta", "--nodes", "1,2,3", "--out", str(target))
    assert code == 2
    assert err.startswith("error: ")
    assert out == "" and not target.exists()


def test_unknown_kind_is_input_error(capsys):
    code, _, _ = run(capsys, "det", "hilbert", "--nodes", "1,2")
    assert code == 2


def test_verify_single_suite(capsys):
    code, out, err = run(capsys, "verify", "--suite", "sign_bridge", "--trials", "20", "--seed", "7")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["identity"] == "sign_bridge"
    assert payload["failures"] == 0
    assert payload["trials"] == 20
    assert payload["seed"] == 7
    assert "sign_bridge" in err  # timing goes to stderr


def test_verify_stderr_names_what_produced_stdout(capsys):
    """Passing runs over different n ranges print the same stdout; the
    stderr line before the identities' lines names the seed, the n range,
    the coefficient bound and the trials."""
    argv = ("verify", "--suite", "theorem1,roundtrip", "--trials", "20", "--seed", "42")
    code, out, err = run(capsys, *argv, "--n", "9..10")
    default_code, default_out, default_err = run(capsys, *argv)
    assert code == default_code == 0 and out == default_out
    assert err.splitlines()[0] == "# verify --seed 42 --n 9..10 --coeff-bound 50 --trials 20"
    assert default_err.splitlines()[0] == "# verify --seed 42 --n 1..6 --coeff-bound 50 --trials 20"
    assert [re.fullmatch(r"# (\w+): [0-9]+ ms", line)[1] for line in err.splitlines()[1:]] == ["theorem1", "roundtrip"]


def test_verify_runs_every_identity_at_coeff_bound_1(capsys):
    """Bound 1 draws only -1, 0 and 1, so most node sets repeat a node;
    every identity still runs and passes."""
    code, out, _ = run(capsys, "verify", "--coeff-bound", "1", "--trials", "5")
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert [(r["identity"], r["failures"]) for r in reports] == [(name, 0) for name in IDENTITIES]


def test_verify_above_laplace_reach_passes(capsys):
    """At n = 9..10 every identity that draws a size passes: oracle_agreement
    and multilinearity clamp n to Laplace's reach (8), where both oracles
    run; the others run above it with Bareiss alone, and permutation, which
    runs no oracle, compares the vieta build there."""
    suite = (
        "theorem1,corollary1,sign_bridge,antisymmetry,extension,degenerate,"
        "recombination,permutation,wronskian,jacobian,oracle_agreement,multilinearity"
    )
    code, out, _ = run(capsys, "verify", "--suite", suite, "--n", "9..10", "--trials", "5")
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert [(r["identity"], r["failures"]) for r in reports] == [(name, 0) for name in suite.split(",")]


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nope")
    assert code == 2
    assert "unknown identity" in err
    # every name is checked before any identity runs
    code, out, err = run(capsys, "verify", "--suite", "theorem1,nope")
    assert (code, out) == (2, "")
    assert "unknown identity" in err


@pytest.mark.parametrize("suite", ["all,roundtrip", "roundtrip,all", "all,all"])
def test_verify_all_is_valid_only_alone(capsys, suite):
    """'all' is the whole suite; beside other names it is an unknown identity
    whose message says so, and nothing runs."""
    known = ", ".join(IDENTITIES)
    want = f"error: unknown identity 'all'; known: {known}, or 'all' alone\n"
    assert run(capsys, "verify", "--suite", suite, "--trials", "1") == (2, "", want)


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "--suite", ","),
        ("bench", "--n", ",", "--methods", "closed"),
        ("bench", "--n", "4", "--methods", ","),
        ("bench", "--n", "1,,2", "--methods", "closed"),
        ("bench", "--n", "4,", "--methods", "closed"),
        ("bench", "--n", "4", "--methods", "closed,,bareiss"),
        ("verify", "--suite", "theorem1,,roundtrip"),
    ],
)
def test_empty_lists_are_input_errors(capsys, args):
    code, out, err = run(capsys, *args)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_verify_bad_n_range(capsys):
    assert run(capsys, "verify", "--suite", "roundtrip", "--n", "0..4")[0] == 2
    assert run(capsys, "verify", "--suite", "roundtrip", "--n", "4..2")[0] == 2
    assert run(capsys, "verify", "--suite", "roundtrip", "--n", "huh")[0] == 2


def test_verify_bad_trials(capsys):
    # checked before any identity runs, so no settings line precedes the error
    assert run(capsys, "verify", "--suite", "roundtrip", "--trials", "0") == (2, "", "error: trials must be at least 1\n")


def test_verify_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setitem(IDENTITIES, "always_fails", Identity(lambda rng, cfg: None, lambda inputs: ("1",)))
    code, out, err = run(capsys, "verify", "--suite", "always_fails", "--trials", "3")
    assert code == 1
    payload = json.loads(out.strip())
    assert payload["failures"] == 3
    assert payload["first_counterexample"] == ["1"]
    assert re.fullmatch(r"# always_fails: [0-9]+ ms, first failure at trial 0", err.splitlines()[1]), err


def test_internal_error_exit_code(capsys, monkeypatch):
    """Any other exception is an internal error: exit 4, one stderr line
    naming its type, no traceback."""

    def divide_by_zero(ns, at):
        return 1 // 0

    def failed_division(matrix):
        raise AssertionError("inexact division")

    monkeypatch.setitem(calculus.KINDS, "vieta", (divide_by_zero, calculus.KINDS["vieta"][1]))
    monkeypatch.setitem(exactdet.ORACLES, "bareiss", (failed_division, None))
    for argv, name in (
        (("build", "vieta", "--nodes", "1,2"), "ZeroDivisionError"),
        (("det", "vieta", "--nodes", "1,2", "--method", "bareiss"), "ZeroDivisionError"),
        (("jacobian", "--nodes", "1,2", "--method", "bareiss"), "AssertionError"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, ""), argv
        assert err.startswith(f"internal error: {name}: ") and err.count("\n") == 1, err


def test_library_value_errors_are_internal_errors(capsys, monkeypatch):
    """A ValueError that no input causes is a bug in the library: exit 4,
    never the input error of exit 2."""

    def not_square(ns, at):
        return structmat.ExactMatrix([[1, 2]], [1, 1])

    def raises(inputs):
        raise ValueError("a law that raises")

    monkeypatch.setitem(calculus.KINDS, "vieta", (not_square, calculus.KINDS["vieta"][1]))
    monkeypatch.setitem(IDENTITIES, "raises", Identity(lambda rng, cfg: None, raises))
    verify_settings = "# verify --seed 0 --n 1..6 --coeff-bound 50 --trials 1\n"
    for argv, settings_line in (
        (("build", "vieta", "--nodes", "1,2"), ""),
        (("det", "vieta", "--nodes", "1,2", "--method", "bareiss"), ""),
        (("verify", "--suite", "raises", "--trials", "1"), verify_settings),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, ""), argv
        assert err.startswith(settings_line + "internal error: ValueError: "), err
        assert err.count("\n") == 1 + bool(settings_line), err


def test_verify_streams_reports_before_an_internal_error(capsys, monkeypatch):
    """Each identity's stdout and stderr lines are written as it finishes,
    so a suite whose third identity raises keeps the first two reports."""

    def raises(inputs):
        raise ValueError("a law that raises")

    monkeypatch.setitem(IDENTITIES, "raises", Identity(lambda rng, cfg: None, raises))
    code, out, err = run(capsys, "verify", "--suite", "theorem1,roundtrip,raises", "--trials", "5")
    assert code == 4
    assert [json.loads(line)["identity"] for line in out.splitlines()] == ["theorem1", "roundtrip"]
    lines = err.splitlines()
    assert lines[0] == "# verify --seed 0 --n 1..6 --coeff-bound 50 --trials 5"
    assert [re.fullmatch(r"# (\w+): [0-9]+ ms", line)[1] for line in lines[1:3]] == ["theorem1", "roundtrip"]
    assert lines[3:] == ["internal error: ValueError: a law that raises"]


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int str-digit limit")
def test_numbers_past_the_digit_limit_are_size_guard_errors(capsys):
    """Valid inputs whose numbers pass the interpreter's 4 300-digit int str
    limit exit 3, a limit of this build, not 2, an input error."""
    for argv in (
        ("bench", "--n", "40", "--methods", "closed"),
        ("det", "vieta", "--nodes", ",".join(map(str, range(1, 400)))),
        ("det", "vieta", "--nodes", "7" * 5000),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv[:3]
        assert err.startswith("error: ") and "4300" in err, err


def test_other_scripts_digits_and_overlong_numbers_are_input_errors(capsys, tmp_path):
    """The CLI's integers take ASCII digits only, as its rationals do, and
    a size or a node-file number past the digit limit is an input error."""
    path = tmp_path / "nodes.json"
    path.write_text('{"nodes": [' + "7" * 5000 + "]}")
    for argv, message in (
        (("verify", "--n", "9" * 5000), "error: bad n range"),
        (("verify", "--n", "\u0661..\u0663"), "error: bad n range"),
        (("bench", "--n", "\u0663"), "error: bad size list"),
        (("det", "vieta", "--nodes-file", str(path)), f"error: cannot parse node file {path}"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv[:2]
        assert err.startswith(message), err


# each integer option, after arguments that make a valid value run briefly
INT_OPTIONS = [
    ("verify", "--suite", "roundtrip", "--trials"),
    ("verify", "--suite", "roundtrip", "--trials", "1", "--seed"),
    ("verify", "--suite", "roundtrip", "--trials", "1", "--coeff-bound"),
    ("bench", "--n", "2", "--methods", "closed", "--repeats"),
    ("bench", "--n", "2", "--methods", "closed", "--entry-bits"),
    ("bench", "--n", "2", "--methods", "closed", "--seed"),
]


@pytest.mark.parametrize("argv", INT_OPTIONS, ids=lambda argv: argv[0] + argv[-1])
def test_integer_options_take_ascii_digits_only(capsys, argv):
    """Every integer option takes ASCII digits after an optional '-', as
    `--n` does.  Other scripts' digits, '_' separators and surrounding
    whitespace, which `int` takes, exit 2."""
    for text in ("\u0663", "4_2", " 4"):
        code, out, err = run(capsys, *argv, text)
        assert (code, out) == (2, ""), text
        assert f"argument {argv[-1]}: invalid int value: {text!r}" in err, err
    assert run(capsys, *argv, "3")[0] == 0


def test_bench_takes_a_negative_seed(capsys):
    code, out, _ = run(capsys, "bench", "--n", "2", "--methods", "closed", "--seed=-5")
    assert code == 0 and out.startswith("closed,2,16,")


def test_bench_rows_and_hash_agreement(capsys):
    code, out, _ = run(capsys, "bench", "--n", "2,3", "--methods", "closed,bareiss,laplace", "--repeats", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 12  # 2 sizes x 3 methods x 2 repeats
    by_n = {}
    for line in lines:
        method, n, bits, wall, digest = line.split(",")
        assert method in ("closed", "bareiss", "laplace")
        assert int(wall) >= 0
        assert int(bits) == 16
        by_n.setdefault(n, set()).add(digest)
    assert all(len(digests) == 1 for digests in by_n.values())


def test_bench_single_row(capsys):
    code, out, _ = run(capsys, "bench", "--n", "1", "--methods", "closed")
    assert code == 0
    assert len(out.strip().split("\n")) == 1


def test_bench_bad_method(capsys):
    assert run(capsys, "bench", "--n", "2", "--methods", "qr")[0] == 2


def test_bench_bad_sizes(capsys):
    assert run(capsys, "bench", "--n", "0")[0] == 2
    assert run(capsys, "bench", "--n", "2,x")[0] == 2
    assert run(capsys, "bench", "--n", "2", "--repeats", "0")[0] == 2
    assert run(capsys, "bench", "--n", "2", "--entry-bits", "0")[0] == 2


def test_bench_laplace_guard(capsys):
    code, _, _ = run(capsys, "bench", "--n", "9", "--methods", "laplace")
    assert code == 3


def test_out_writes_file(capsys, tmp_path):
    out_path = tmp_path / "matrix.csv"
    code, out, _ = run(capsys, "build", "vieta", "--nodes", "1,2,3", "--format", "csv", "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert out_path.read_text() == "1,1,1\n5,4,3\n6,3,2\n"


def test_verify_and_bench_outputs_are_pinned(capsys):
    for seed, digest in (
        ("0", "13ced407a08e28f24646f72f34a2a5888b55892dd38e450433ca21ff93003ee1"),
        ("42", "d62e840300c38547bd974708749537a83c04687327c6b39ccd1dfb13790a2ea6"),
    ):
        code, out, _ = run(capsys, "verify", "--seed", seed)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, seed
    code, out, _ = run(capsys, "bench", "--n", "4,8,16,32", "--methods", "closed,bareiss")
    assert code == 0
    rows = "".join(",".join(line.split(",")[i] for i in (0, 1, 4)) + "\n" for line in out.splitlines())
    assert hashlib.sha256(rows.encode()).hexdigest() == (
        "e0f838ecde782dd07a671e4b9f22b6c32c0b746571d3c0fba475fe5c79eefaaf"
    )


def _off_above_1(ns):
    f = structmat.vieta_extension_poly(ns)
    return lambda x: f(x) + (x > 1)


def _shift_dropped(ns, at):
    return calculus.wronskian_matrix(calculus.nodal_basis(ns), 0)


def _laplace_unless_a_row_is_constant(m):
    value = exactdet.det_laplace(m)
    rows = ({Fraction(e, d) for e, d in zip(row, m.denominators)} for row in m.numerators)
    return value if any(len(row) == 1 for row in rows) else value + 1


def test_failing_verify_output_is_pinned(capsys, monkeypatch):
    """A failing run's counts and first counterexamples hang on the draws
    of these identities and their order, which a passing run's stdout
    cannot show.  The plants: an extension polynomial off by 1 at probes
    above 1, a Wronskian build that drops its point, a renderer that drops
    the sign of numerators past 64 bits, and a Laplace off by 1 unless a
    row is constant.  Every vieta build has its row of ones and every
    Wronskian its row of (n - 1)!, so only the random matrices of
    oracle_agreement and multilinearity meet the last."""
    monkeypatch.setattr(verify, "vieta_extension_poly", _off_above_1)
    monkeypatch.setitem(calculus.KINDS, "wronskian", (_shift_dropped, calculus.wronskian_closed))
    monkeypatch.setattr(verify, "render_rational", lambda r: render_rational(abs(r) if abs(r.numerator) >> 64 else r))
    monkeypatch.setitem(exactdet.ORACLES, "laplace", (_laplace_unless_a_row_is_constant, exactdet.LAPLACE_MAX))
    suite = "extension,wronskian,roundtrip,oracle_agreement,multilinearity"
    code, out, _ = run(capsys, "verify", "--suite", suite, "--trials", "10", "--seed", "42")
    assert code == 1
    assert [json.loads(line)["failures"] for line in out.splitlines()] == [5, 9, 10, 7, 10]
    assert hashlib.sha256(out.encode()).hexdigest() == "11400f9eca6f0bb0ec0304900e6c5490e325d3de4717e9038c3b1c5b13c753b5"


# sha256 of `build` stdout on nodes with a negative, a zero and a repeated node.
BUILD_NODES = "--nodes=-3/4,0,5/2,-3/4,7,1/6"
BUILD_PINS = {
    ("vieta", "json", "0"): "8d2a5e05d2a2ffed1e8e963a7e1a7bf351302dac9282fded4b6a4e94dcf65fab",
    ("vieta", "csv", "0"): "fac8870ceaa6938e8f14b07773046476ed4ed88d9187bc4430e7c901ab9ad561",
    ("vandermonde", "json", "0"): "b73bc9ecd0cd4dd5787dc7ee34aebd83125272446d7b9cdf94247bb73a6f6784",
    ("vandermonde", "csv", "0"): "44569843a4c9c2ca7e233ce5e2f3f5938c0f7307b37704828704a77aeb191138",
    ("wronskian", "json", "0"): "6d5e891cc6e5884743ab29b9d9d5beeb4b500b4a572b905ebf299e4974d71113",
    ("wronskian", "csv", "0"): "074c35f5e6da90474e1c45d1627155048f4efb736bef5da38ddaf10fbc12947a",
    ("jacobian", "json", "0"): "8d2a5e05d2a2ffed1e8e963a7e1a7bf351302dac9282fded4b6a4e94dcf65fab",
    ("jacobian", "csv", "0"): "fac8870ceaa6938e8f14b07773046476ed4ed88d9187bc4430e7c901ab9ad561",
    ("wronskian", "json", "2/3"): "b8b21e667ed5565dd782168bd2bcd89ba1ef993f46fa63472651041b34021bcb",
    ("wronskian", "csv", "2/3"): "18826df649be65ab38b73d3349d5efc7758d5d8ba09ae150238bb4eb98d7a6f8",
}


@pytest.mark.parametrize("kind, fmt, at", sorted(BUILD_PINS))
def test_build_output_is_pinned(capsys, kind, fmt, at):
    code, out, _ = run(capsys, "build", kind, BUILD_NODES, "--format", fmt, f"--at={at}")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BUILD_PINS[kind, fmt, at]


# Every command once: build of each kind in both formats, det of each kind
# by each method on five rational nodes and on a repeated node, both
# shorthands, bench and verify.
VIEW_FREE_COMMANDS = [
    *(
        ("build", kind, "--nodes=1/2,-3,5/7,0,-2/9", "--format", fmt, "--at=-2/3")
        for kind in sorted(calculus.KINDS)
        for fmt in ("json", "csv")
    ),
    *(
        ("det", kind, f"--nodes={nodes}", "--method", method, "--at=-2/3")
        for kind in sorted(calculus.KINDS)
        for method in ("closed", "bareiss", "laplace")
        for nodes in ("1/2,-3,5/7,2,-1/4", "4,-1/2,4")
    ),
    ("wronskian", "--nodes=1/2,-3,5/7", "--at=-2/3"),
    ("jacobian", "--nodes=1/2,-3,5/7"),
    ("bench", "--n", "4,8", "--methods", "closed,bareiss,laplace"),
    ("verify", "--suite", "all", "--trials", "3"),
]


def _untimed(argv, out):
    """stdout without bench's wall-time column, the one that varies."""
    if argv[0] != "bench":
        return out
    return "".join(",".join(line.split(",")[i] for i in (0, 1, 2, 4)) + "\n" for line in out.splitlines())


def _no_view(*args):
    raise AssertionError("a Fraction view was read")


def test_no_command_reads_a_fraction_view(capsys, monkeypatch):
    """With `ExactMatrix.entries` and `leave_one_out_table` raising, every
    command exits 0 and prints what it prints with them: the library reads
    only the stored ints."""
    expected = []
    for argv in VIEW_FREE_COMMANDS:
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        expected.append(_untimed(argv, out))
    # raising=False: the guard still holds once a view is deleted
    monkeypatch.setattr(structmat.ExactMatrix, "entries", property(_no_view), raising=False)
    monkeypatch.setattr(sympoly, "leave_one_out_table", _no_view, raising=False)
    for argv, want in zip(VIEW_FREE_COMMANDS, expected):
        code, out, err = run(capsys, *argv)
        assert (code, _untimed(argv, out)) == (0, want), (argv, err)


def test_no_command_is_input_error(capsys):
    assert main([]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


# Node texts: small rationals, integers of up to about 5 000 digits (past
# the 4 300-digit str limit), zero denominators and malformed text.
valid_texts = st.one_of(
    st.fractions(min_value=-99, max_value=99, max_denominator=99).map(str),
    st.builds(lambda sign, digits: sign + "7" * digits, st.sampled_from(["", "-"]), st.integers(1, 5000)),
)
node_texts = st.one_of(
    valid_texts,
    st.integers(-99, 99).map(lambda p: f"{p}/0"),
    st.sampled_from(["", "x", "1.5", "1/", "/2", "1//2", " 1", "+-3", "1e3", "0x10", "\u00bd", "\u0663"]),
)
node_lists = st.one_of(st.lists(valid_texts, min_size=1, max_size=9), st.lists(node_texts, min_size=1, max_size=9))
# Where the nodes come from: inline, a node file (valid schema or not),
# a missing file, or a directory.
node_sources = st.one_of(
    st.tuples(st.just("inline"), node_lists),
    st.tuples(st.just("file"), node_lists.map(lambda texts: json.dumps({"nodes": texts}))),
    st.tuples(
        st.just("file"), st.sampled_from(["", "{", "null", "[]", '{"nodes": []}', '{"nodes": [1]}', "[" * 100_000])
    ),
    st.tuples(st.just("missing"), st.none()),
    st.tuples(st.just("directory"), st.none()),
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command=st.sampled_from(["det", "build", "wronskian", "jacobian"]),
    kind=st.sampled_from(sorted(calculus.KINDS)),
    source=node_sources,
    at=st.one_of(st.none(), node_texts),
    method=st.sampled_from(exactdet.METHODS),
    fmt=st.sampled_from(["json", "csv"]),
)
@example(command="det", kind="vieta", source=("inline", list("123456789")), at=None, method="laplace", fmt="json")
def test_random_argv_exits_with_a_documented_code(capsys, tmp_path, command, kind, source, at, method, fmt):
    """Whatever the input, the CLI exits 0, 2 or 3 and prints no traceback,
    and a determinant that exits 0 is the right one.  Up to nine nodes, so
    Laplace meets its 8x8 guard; the explicit example always does."""
    argv = [command, kind] if command in ("det", "build") else [command]
    argv += ["--format", fmt] if command == "build" else ["--method", method]
    where, payload = source
    if where == "inline":
        argv.append("--nodes=" + ",".join(payload))
    else:
        path = {"file": tmp_path / "nodes.json", "missing": tmp_path / "gone.json", "directory": tmp_path}[where]
        if where == "file":
            path.write_text(payload)
        argv += ["--nodes-file", str(path)]
    if at is not None:
        argv.append(f"--at={at}")
    code, out, err = run(capsys, *argv)
    event(f"exit {code}")
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err
    if code == 0 and command != "build":
        texts = payload if where == "inline" else json.loads(payload)["nodes"]
        assert out == f"{difference_product(kind if command == 'det' else command, texts)}\n", argv


def difference_product(kind, texts):
    """A kind's determinant from Fractions alone: prod_{i<k} (a_i - a_k),
    with the Vandermonde's sign (-1)^(n(n-1)/2) and the Wronskian's
    prod_{k<n} k!."""
    nodes = [Fraction(text) for text in texts]
    n = len(nodes)
    value = math.prod(a - b for a, b in itertools.combinations(nodes, 2))
    if kind == "vandermonde":
        value *= (-1) ** (n * (n - 1) // 2)
    if kind == "wronskian":
        value *= math.prod(map(math.factorial, range(n)))
    return value
