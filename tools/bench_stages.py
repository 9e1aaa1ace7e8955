"""Stage timings of the vietamat library and of three CLI commands, as one JSON file.

    python tools/bench_stages.py --out BENCH_<n>.json

Reads the `vietamat` of this checkout's `src/`, measures, and gates
nothing.  For every kind in `calculus.KINDS` and each size n of
`--sizes`, the nodes are `bench_node_set(0, n, 16)` written as inline
text, the Wronskian's point is -12345/6789 (= -4115/2263), and each
stage is timed in ns, best of up to REPEATS runs (fewer once a stage has
spent BUDGET_NS):

    parse    parse_nodes_text of the inline text
    build    KINDS[kind][0](nodes, at)
    closed   KINDS[kind][1](nodes)
    bareiss  det_bareiss of the build, for n <= BAREISS_MAX
    laplace  det_laplace of the build, for n <= exactdet.LAPLACE_MAX
    json     matrix_to_json of the build
    render   render_rational of the closed value
    hash     bench.result_hash of the closed value

For each kind and n, two counters come from one more, untimed, call
each, with a module's `gcd` wrapped and then restored:

    closed_gcd_max_bits  the largest operand bit length that the closed
                         form passes to `structmat.gcd`
    json_gcd_calls       the number of `rational.gcd` calls made by
                         matrix_to_json of the build

`--closed-only` sizes time the closed forms alone.  The interpreter's
int str-digit limit is left as it is, so a stage that hits it is
recorded as {"failed": "<exception type>"} and is not timed.

Each of `det`, `verify --seed 42` and `bench` then runs `--cli-runs`
times as `python -m vietamat` in a child process, as does
`python -c pass`; each run records its wall time and the child's CPU
time (user + system, from `os.wait4`).
"""

import argparse
import json
import os
import platform
import sys
import time
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from vietamat import rational, structmat  # noqa: E402
from vietamat.bench import bench_node_set, result_hash  # noqa: E402
from vietamat.calculus import KINDS  # noqa: E402
from vietamat.exactdet import LAPLACE_MAX, det_bareiss, det_laplace  # noqa: E402
from vietamat.matio import matrix_to_json, parse_nodes_text  # noqa: E402
from vietamat.rational import render_rational  # noqa: E402

AT = Fraction(-12345, 6789)
REPEATS = 5
BUDGET_NS = 10**9
BAREISS_MAX = 64  # Bareiss on the rational Vandermonde takes about 25 s at n = 64
REACH = {"bareiss": BAREISS_MAX, "laplace": LAPLACE_MAX}  # the largest n each oracle stage runs at
COMMANDS = {
    "det": ["-m", "vietamat", "det", "vieta", "--nodes", "1,2,3"],
    "verify": ["-m", "vietamat", "verify", "--seed", "42"],
    "bench": ["-m", "vietamat", "bench", "--n", "4,8,16,32", "--methods", "closed,bareiss"],
    "python -c pass": ["-c", "pass"],
}


def best_of(fn):
    """fn's value and its timing record: the least ns over up to REPEATS
    runs, stopping early once the runs together pass BUDGET_NS; or, if it
    raises, the exception's type and no value."""
    best, runs, spent = None, 0, 0
    while runs < REPEATS and spent < BUDGET_NS:
        start = time.perf_counter_ns()
        try:
            value = fn()
        except Exception as exc:
            return None, {"failed": type(exc).__name__}
        elapsed = time.perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
        runs += 1
        spent += elapsed
    return value, {"ns": best, "runs": runs}


def gcd_calls(module, fn) -> tuple[int, int]:
    """One untimed fn() with `module.gcd` wrapped, then restored: the number
    of gcd calls it made and the largest bit length among their operands."""
    real = module.gcd
    calls, bits = 0, 0

    def counting(*args):
        nonlocal calls, bits
        calls += 1
        bits = max(bits, *(a.bit_length() for a in args))
        return real(*args)

    module.gcd = counting
    try:
        fn()
    finally:
        module.gcd = real
    return calls, bits


def kind_stages(kind: str, n: int) -> tuple[dict, dict]:
    """The stage timings of one kind at size n, and its two counters."""
    build, closed = KINDS[kind]
    text = ",".join(map(render_rational, bench_node_set(0, n, 16)))
    steps = [
        ("parse", None, lambda _: parse_nodes_text(text)),
        ("build", "parse", lambda ns: build(ns, AT)),
        ("closed", "parse", closed),
        ("bareiss", "build", det_bareiss),
        ("laplace", "build", det_laplace),
        ("json", "build", matrix_to_json),
        ("render", "closed", render_rational),
        ("hash", "closed", result_hash),
    ]
    values, record = {None: None}, {}
    for stage, source, fn in steps:
        if n <= REACH.get(stage, n):
            values[stage], record[stage] = best_of(lambda: fn(values[source]))
    counters = {
        "closed_gcd_max_bits": gcd_calls(structmat, lambda: closed(values["parse"]))[1],
        "json_gcd_calls": gcd_calls(rational, lambda: matrix_to_json(values["build"]))[0],
    }
    return record, counters


def closed_only(kind: str, n: int) -> dict:
    ns = bench_node_set(0, n, 16)
    return {"closed": best_of(lambda: KINDS[kind][1](ns))[1]}


def run_command(argv: list[str], runs: int) -> dict:
    """`runs` child runs of the interpreter with `argv`, output discarded."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    quiet = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]
    walls, cpus, codes = [], [], set()
    for _ in range(runs):
        start = time.perf_counter_ns()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=quiet)
        _, status, usage = os.wait4(pid, 0)
        walls.append(time.perf_counter_ns() - start)
        cpus.append(round((usage.ru_utime + usage.ru_stime) * 1e9))
        codes.add(os.waitstatus_to_exitcode(status))
    return {"argv": argv, "exit": sorted(codes), "wall_ns": sorted(walls), "cpu_ns": sorted(cpus)}


def measure(args) -> dict:
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    stages, counters, closed = {}, {}, {}
    for kind in KINDS:
        stages[kind], counters[kind] = {}, {}
        for n in args.sizes:
            stages[kind][str(n)], counters[kind][str(n)] = kind_stages(kind, n)
        closed[kind] = {str(n): closed_only(kind, n) for n in args.closed_only}
    commands = {name: run_command(argv, args.cli_runs) for name, argv in COMMANDS.items()}
    return {
        "env": {
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "int_max_str_digits": get_limit() if get_limit else None,
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "python_c_pass": commands.pop("python -c pass"),
        },
        "settings": {
            "nodes": "bench_node_set(0, n, 16)",
            "at": str(AT),
            "repeats": REPEATS,
            "budget_s": BUDGET_NS / 1e9,
            "bareiss_max": BAREISS_MAX,
            "laplace_max": LAPLACE_MAX,
        },
        "stages": stages,
        "counters": counters,
        "closed_only": closed,
        "commands": commands,
    }


def _sizes(text: str) -> list[int]:
    return [int(s) for s in text.split(",") if s]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--sizes", type=_sizes, default=[8, 32, 64, 128, 256])
    parser.add_argument("--closed-only", type=_sizes, default=[512])
    parser.add_argument("--cli-runs", type=int, default=5)
    args = parser.parse_args(argv)
    Path(args.out).write_text(json.dumps(measure(args), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
