"""vietamat request benchmark.

    python3 perfbench/run.py --workload large-n --seed 1 --seconds 25 --trace 0

Runs one workload (large-n, oracle, cli-cold) closed-loop
with a single client against this checkout's ``src/vietamat``, checks
every output against an independent reference, and prints a report
followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` replays the run with spans around
every call into vietamat and reports the per-layer metrics instead,
writing the spans to ``perfbench/out/``.  A wrong answer aborts the run
with exit code 1; a missing ``src/vietamat`` exits 1 before any result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
LAPLACE_ENV = "VIETA_LAPLACE_MAX"
SETUP_SAMPLES = 9


def bootstrap() -> bool:
    """Make ``import vietamat`` load this checkout's source and nothing
    else, in this process and its children, with the Laplace guard at its
    default.  Returns whether VIETA_LAPLACE_MAX had to be removed."""
    package = SRC / "vietamat"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no vietamat source at {package}")
    removed = os.environ.pop(LAPLACE_ENV, None) is not None
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    import vietamat

    if Path(vietamat.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported vietamat from {vietamat.__file__}, not {package}")
    return removed


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def environment(args, laplace_removed: bool) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "vietamat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "debug": __debug__,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": args.seed,
        "workload": args.workload,
        LAPLACE_ENV: "unset (removed from the caller's environment)" if laplace_removed else "unset",
    }


def measure_setup(args) -> float:
    """Median wall time from starting a fresh interpreter to it being ready
    for its first timed request (import, inputs, one warm-up request)."""
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT,
            stdout=subprocess.PIPE,
        )
        ready = proc.stdout.readline()
        times.append(time.perf_counter() - start)
        proc.stdout.close()
        if proc.wait() != 0 or ready.strip() != b"ready":
            raise SystemExit("perfbench: setup probe failed")
    return statistics.median(times)


def run(args, workload, env: dict):
    # Imported here: both import vietamat, which needs bootstrap() first.
    import harness
    from tracing import Tracer

    harness.setup(workload)
    if args.setup_probe:
        return None
    setup_s = measure_setup(args)
    untraced = harness.run_loop(workload, args.seconds)
    result = harness.end_to_end(workload, untraced, setup_s)
    if not args.trace:
        return result
    tracer = Tracer()
    plain, traced, requests = harness.trace_loop(workload, tracer)
    workload.probes(tracer, requests)
    tracer.flush_counts()
    layer = harness.per_layer(workload, tracer, untraced, plain, traced)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps({"env": env, "counts": tracer.counts, "spans": tracer.dump()}))
    notes = result.notes + harness.predictions(args.workload, layer, untraced) + [f"spans written to {spans_path}"]
    every = untraced + plain + traced
    return harness.Result(len(every), sum(s.error is not None for s in every), layer, notes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("large-n", "oracle", "cli-cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    laplace_removed = bootstrap()
    from reference import WrongAnswer
    from workloads import WORKLOADS

    env = environment(args, laplace_removed)
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, False, scratch, ROOT)
    try:
        result = run(args, workload, env)
    except WrongAnswer as exc:
        print(f"WRONG ANSWER: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if result is None:
        print("ready", flush=True)
        return 0

    print(f"# vietamat benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"# env {json.dumps(env)}")
    for note in result.notes:
        print(f"# {note}")
    for name, (value, unit) in result.metrics.items():
        print(f"{name:<40} {value:>16.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
