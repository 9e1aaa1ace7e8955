"""Command-line front end.

Commands: build, det (with wronskian/jacobian shorthands), verify, bench.
Exit codes, from the exception's class alone: 0 success or all checks
passed, 1 verification failures, 2 an `InputError` or a path that cannot
be read or written, 3 a `SizeGuardError` (Laplace beyond 8x8, or a number
past the 4 300-digit int str limit), 4 anything else, an internal error:
one stderr line naming its type, no traceback.  `verify` writes each
identity's report as it finishes, so an error keeps the reports before it.

`verify` and `bench` import their modules inside their handlers:
`build`, `det` and its shorthands need neither, and at CLI sizes a
command's wall time is mostly interpreter start and imports.
"""

import argparse
import re
import sys
from pathlib import Path

from .calculus import KINDS
from .exactdet import METHODS, ORACLES
from .matio import load_nodes_file, matrix_to_csv, matrix_to_json, parse_nodes_text
from .rational import InputError, SizeGuardError, parse_rational, render_rational
from .sympoly import NodeSet


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vietamat",
        description="Exact structured-matrix builders, closed-form determinants, and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a matrix and emit it as JSON or CSV")
    p_build.add_argument("kind", choices=KINDS)
    _add_input_arguments(p_build)
    p_build.add_argument("--format", choices=("json", "csv"), default="json")
    p_build.add_argument("--out", help="write to this path instead of stdout")
    p_build.set_defaults(handler=_cmd_build)

    p_det = sub.add_parser("det", help="evaluate a determinant by any method")
    p_det.add_argument("kind", choices=KINDS)
    _add_det_arguments(p_det)

    for alias in ("wronskian", "jacobian"):
        p_alias = sub.add_parser(alias, help=f"shorthand for: det {alias}")
        _add_det_arguments(p_alias)
        p_alias.set_defaults(kind=alias)

    p_verify = sub.add_parser("verify", help="run randomized identity checks, one JSON line each")
    p_verify.add_argument("--suite", default="all", help="comma-separated identity names, or 'all' alone")
    p_verify.add_argument("--trials", type=_int_option, default=100)
    p_verify.add_argument("--seed", type=_int_option, default=0, help="unsigned 64-bit master seed")
    p_verify.add_argument("--n", default="1..6", help="node-count range LO..HI (within 1..10)")
    p_verify.add_argument("--coeff-bound", type=_int_option, default=50, help="numerator/denominator bound")
    p_verify.set_defaults(handler=_cmd_verify)

    p_bench = sub.add_parser("bench", help="time determinant methods, one CSV row per run")
    p_bench.add_argument("--n", required=True, help="comma-separated sizes, e.g. 4,8,16")
    p_bench.add_argument("--methods", default="closed,bareiss", help=f"subset of: {','.join(METHODS)}")
    p_bench.add_argument("--repeats", type=_int_option, default=1)
    p_bench.add_argument("--entry-bits", type=_int_option, default=16, help="bit length of numerators/denominators")
    p_bench.add_argument("--seed", type=_int_option, default=0)
    p_bench.add_argument("--out", help="write CSV to this path instead of stdout")
    p_bench.set_defaults(handler=_cmd_bench)

    return parser


def _add_input_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--nodes",
        help="inline comma-separated rationals, e.g. 1,2,-3/4 (write --nodes=-1,2 if the first is negative)",
    )
    group.add_argument("--nodes-file", help='JSON file with schema {"nodes": ["1", "-3/4"]}')
    parser.add_argument(
        "--at",
        default="0",
        help="evaluation point for wronskian (rational, default 0; write --at=-1/2 if negative)",
    )


def _add_det_arguments(parser: argparse.ArgumentParser) -> None:
    _add_input_arguments(parser)
    parser.add_argument("--method", choices=METHODS, default="closed")
    parser.set_defaults(handler=_cmd_det)


def _resolve_nodes(args) -> NodeSet:
    if args.nodes is not None:
        return parse_nodes_text(args.nodes)
    return load_nodes_file(args.nodes_file)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_build(args) -> int:
    build, _ = KINDS[args.kind]
    matrix = build(_resolve_nodes(args), parse_rational(args.at))
    if args.format == "csv":
        _emit(matrix_to_csv(matrix), args.out)
    else:
        _emit(matrix_to_json(matrix) + "\n", args.out)
    return 0


def _cmd_det(args) -> int:
    ns = _resolve_nodes(args)
    at = parse_rational(args.at)
    build, closed = KINDS[args.kind]
    if args.method == "closed":
        value = closed(ns)
    else:
        value = ORACLES[args.method][0](build(ns, at))
    sys.stdout.write(render_rational(value) + "\n")
    return 0


def _parse_ints(pattern: str, text: str, message: str) -> list[int]:
    """The ASCII integers of `text` (digit runs, each after an optional
    '-'), which must fullmatch `pattern`, as ints; a mismatch or a run past
    int's str-digit limit is an InputError."""
    if re.fullmatch(pattern, text):
        try:
            return [int(digits) for digits in re.findall("-?[0-9]+", text)]
        except ValueError:  # the str-digit limit
            pass
    raise InputError(message)


def _int_option(text: str) -> int:
    """An integer option's value: ASCII digits after an optional '-', the
    grammar of `_parse_ints`.  argparse prints anything else and exits 2."""
    try:
        return _parse_ints("-?[0-9]+", text, f"invalid int value: {text!r}")[0]
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_n_range(text: str) -> tuple[int, int]:
    sizes = _parse_ints(r"[0-9]+(?:\.\.[0-9]+)?", text, f"bad n range {text!r}; expected LO..HI or a single size")
    return sizes[0], sizes[-1]


def _cmd_verify(args) -> int:
    from .verify import VerifyConfig, run_suite

    lo, hi = _parse_n_range(args.n)
    cfg = VerifyConfig(n_lo=lo, n_hi=hi, coeff_bound=args.coeff_bound)
    names = _names(args.suite, "identity")
    reports = run_suite(names, args.trials, args.seed, cfg)
    sys.stderr.write(
        f"# verify --seed {args.seed} --n {lo}..{hi} --coeff-bound {cfg.coeff_bound} --trials {args.trials}\n"
    )
    failed = False
    for report in reports:
        sys.stdout.write(report.json_line() + "\n")
        sys.stdout.flush()
        failure = "" if report.first_failure is None else f", first failure at trial {report.first_failure}"
        sys.stderr.write(f"# {report.identity}: {report.elapsed_ms} ms{failure}\n")
        failed |= report.failures > 0
    return 1 if failed else 0


def _parse_int_list(text: str) -> list[int]:
    return _parse_ints("[0-9]+(?:,[0-9]+)*", text, f"bad size list {text!r}; expected comma-separated integers")


def _names(text: str, what: str) -> list[str]:
    """Comma-separated names; an empty item, so also an empty list, is an InputError."""
    names = text.split(",")
    if "" in names:
        raise InputError(f"bad {what} list {text!r}; expected comma-separated names, none empty")
    return names


def _cmd_bench(args) -> int:
    from .bench import run_bench

    n_values = _parse_int_list(args.n)
    methods = _names(args.methods, "method")
    records = run_bench(n_values, methods, args.repeats, args.entry_bits, args.seed)
    _emit("".join(record.csv_row() + "\n" for record in records), args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad arguments, 0 for --help
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except SizeGuardError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (InputError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 4
