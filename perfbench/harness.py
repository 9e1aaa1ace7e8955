"""Closed-loop, single-client driver and the metrics it reports.

End-to-end metrics come from an untraced loop.  A traced run then replays
the first `trace_cycles` cycles of that loop, each request once untraced
and at once again with spans on; the adjacent pairs give
`trace.overhead_frac` without the machine's drift between the two, and
the replay's work counts repeat exactly for a seed.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass

from tracing import NullTracer, Tracer
from workloads import CLI_COMMANDS, IDENTITIES, CliExit

E2E = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("ops_ok_frac", "frac", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

FUNCTIONS = (
    "matio.parse_nodes_text",
    "rational.parse_rational",
    "rational.render_rational",
    "matio.matrix_to_json",
    "structmat.build_vieta",
    "structmat.build_vandermonde",
    "structmat.vieta_det_closed",
    "structmat.vandermonde_det_closed",
    "calculus.nodal_basis",
    "calculus.wronskian_matrix",
    "calculus.wronskian_closed",
    "calculus.jacobian_matrix",
    "calculus.jacobian_det_closed",
    "exactdet.det_bareiss",
    "exactdet.det_laplace",
    "sympoly.leave_one_out_table",
    "verify.run_identity",
    "bench.run_bench",
    "cli.main",
    "cli.process",
)

# Modules the benchmark calls inside requests.  sympoly, verify and bench
# are only probed outside requests, so their share of request time is 0 by
# design and is not reported.
REQUEST_MODULES = ("rational", "matio", "structmat", "calculus", "exactdet", "cli")

COUNTS = (
    ("rational.render_rational.in_bits", "bits"),
    ("matio.matrix_to_json.bytes", "bytes"),
    ("exactdet.det_bareiss.in_bits", "bits"),
    ("verify.run_identity.trials", "count"),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = [("trace.overhead_frac", "frac", "lower")]
    for fn in FUNCTIONS:
        spec += [(f"{fn}.ms", "ms", "lower"), (f"{fn}.calls", "count", "higher"), (f"{fn}.failed", "count", "lower")]
    for module in REQUEST_MODULES:
        spec += [(f"{module}.ms", "ms", "lower"), (f"{module}.share", "frac", "lower")]
    spec += [(name, unit, "higher") for name, unit in COUNTS]
    spec += [(f"verify.run_identity.{name}.ms", "ms", "lower") for name in IDENTITIES]
    spec += [("cli.startup_ms", "ms", "lower"), ("cli.import_ms", "ms", "lower")]
    spec += [(f"cli.main.{cmd}.ms", "ms", "lower") for cmd in CLI_COMMANDS]
    spec += [
        ("probe.table_share", "frac", "lower"),
        ("op_tail_ms", "ms", "lower"),
        ("ops_failed_frac", "frac", "lower"),
        ("build_per_s", "1/s", "higher"),
        ("det_closed_per_s", "1/s", "higher"),
    ]
    return spec


# Layer -> end-to-end links predicted before measuring.  Each entry: the
# workload, what the traced shares must show, the check, and the links it
# stands for.  A traced run prints each one as holding or contradicted.
PREDICTIONS = (
    (
        "large-n",
        "calculus.share + structmat.share > 0.5",
        lambda m: m["calculus.share"] + m["structmat.share"] > 0.5,
        "calculus.nodal_basis/wronskian_matrix, structmat.build_vieta, calculus.jacobian_matrix "
        "(with the sympoly.leave_one_out_table probe) -> build_per_s, ops_per_s",
    ),
    (
        "large-n",
        "exactdet.share == 0",
        lambda m: m["exactdet.share"] == 0,
        "exactdet.det_bareiss/det_laplace -> no change on large-n",
    ),
    (
        "large-n",
        "rational.render_rational.failed > 0",
        lambda m: m["rational.render_rational.failed"] > 0,
        "structmat.*_det_closed, calculus.wronskian_closed, rational.render_rational "
        "-> det_closed_per_s, ops_ok_frac (4300-digit limit at n >= 48)",
    ),
    (
        "oracle",
        "exactdet.share > 0.5",
        lambda m: m["exactdet.share"] > 0.5,
        "exactdet.det_bareiss/det_laplace -> ops_per_s, op_p50_ms",
    ),
    (
        "oracle",
        "calculus.share + structmat.share < 0.5",
        lambda m: m["calculus.share"] + m["structmat.share"] < 0.5,
        "build-only gains barely move oracle",
    ),
    (
        "cli-cold",
        "cli.startup_ms + cli.import_ms > 0.5 * op_p50_ms",
        lambda m: m["cli.startup_ms"] + m["cli.import_ms"] > 0.5 * m["op_p50_ms"],
        "cli.startup_ms/cli.import_ms -> op_p50_ms on cli-cold only",
    ),
)


@dataclass(frozen=True)
class Sample:
    op: str
    ns: int
    error: str | None
    cycle: int = 0


@dataclass
class Result:
    """A finished run; every output in it matched its reference."""

    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    notes: list[str]


def execute(req, tracer, cycle: int = 0) -> Sample:
    """One closed-loop request: timed until it returns or raises, then
    checked outside the timer."""
    start = time.perf_counter_ns()
    try:
        output = tracer.request(req.op, req.run, tracer)
    except Exception as exc:  # a failed request is counted, not fatal
        elapsed = time.perf_counter_ns() - start
        tracer.flush_counts()
        error = f"exit{exc.code}" if isinstance(exc, CliExit) else type(exc).__name__
        return Sample(req.op, elapsed, error, cycle)
    elapsed = time.perf_counter_ns() - start
    tracer.flush_counts()
    req.check(output)
    return Sample(req.op, elapsed, None, cycle)


def run_loop(workload, seconds: float) -> list[Sample]:
    """Whole cycles, untraced: at least `min_cycles` of them, then more
    until `seconds` of wall time have passed."""
    samples = []
    start = time.perf_counter()
    c = 0
    while c < workload.min_cycles or time.perf_counter() - start < seconds:
        samples += [execute(req, NullTracer(), c) for req in workload.cycle(c)]
        c += 1
    return samples


def trace_loop(workload, tracer):
    """Replay the first `trace_cycles` cycles, running each request
    untraced and then traced, back to back."""
    plain, traced, requests = [], [], []
    for c in range(workload.trace_cycles):
        for req in workload.cycle(c):
            plain.append(execute(req, NullTracer(), c))
            traced.append(execute(req, tracer, c))
            requests.append(req)
    return plain, traced, requests


def setup(workload) -> None:
    """Input generation for the first cycle and one warm-up request."""
    workload.cycle(0)
    execute(workload.warmup(), NullTracer())


def _rate(samples, op_prefix: str) -> float:
    chosen = [s for s in samples if s.op.startswith(op_prefix)]
    busy = sum(s.ns for s in chosen) / 1e9
    return sum(s.error is None for s in chosen) / busy if busy else 0.0


def goodput(samples) -> float:
    """Successful requests per second of request time, taken per cycle and
    reported as the median over cycles, so a slow spell of the machine
    that covers a few cycles does not move it."""
    cycles: dict[int, list[Sample]] = {}
    for s in samples:
        cycles.setdefault(s.cycle, []).append(s)
    return statistics.median(
        sum(s.error is None for s in group) / (sum(s.ns for s in group) / 1e9) for group in cycles.values()
    )


def tail_ms(workload, samples) -> tuple[float, int]:
    """Latency at the workload's tail percentile (nearest rank) and the
    number of samples beyond it."""
    latencies = sorted(s.ns / 1e6 for s in samples)
    rank = math.ceil(workload.tail_pct / 100 * len(latencies))
    return latencies[rank - 1], len(latencies) - rank


def end_to_end(workload, samples, setup_s: float) -> Result:
    ok = sum(s.error is None for s in samples)
    n = len(samples)
    tail, beyond = tail_ms(workload, samples)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (goodput(samples), "1/s"),
        "op_p50_ms": (statistics.median(s.ns / 1e6 for s in samples), "ms"),
        "ops_ok_frac": (ok / n, "frac"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
    }
    errors: dict[str, int] = {}
    for s in samples:
        if s.error is not None:
            errors[s.error] = errors.get(s.error, 0) + 1
    notes = [
        f"op_tail_ms {tail:.6g} ms at p{workload.tail_pct} of {n} samples, {beyond} beyond it",
        f"ops_failed_frac {(n - ok) / n:.6g} frac; failures by type: {errors or 'none'}",
    ]
    if any(s.op == "build" for s in samples):
        notes.append(f"build_per_s {_rate(samples, 'build'):.6g} 1/s")
    if any(s.op == "det.closed" for s in samples):
        notes.append(f"det_closed_per_s {_rate(samples, 'det.closed'):.6g} 1/s")
    return Result(n, n - ok, metrics, notes)


def _median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(workload, tracer: Tracer, untraced, plain, traced) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced replay; the failure share and
    per-op rates come from the untraced loop."""
    spans = tracer.spans
    own = tracer.self_times()
    fn_ms = dict.fromkeys(FUNCTIONS, 0)
    fn_calls = dict.fromkeys(FUNCTIONS, 0)
    fn_failed = dict.fromkeys(FUNCTIONS, 0)
    module_ns = dict.fromkeys(REQUEST_MODULES, 0)
    by_tag: dict[tuple[str, str], list[int]] = {}
    request_ns = 0
    for span, self_ns in zip(spans, own):
        if span.name == "request":
            request_ns += span.duration_ns
            continue
        if span.name in fn_ms:
            fn_ms[span.name] += self_ns
            fn_calls[span.name] += 1
            fn_failed[span.name] += span.failed
        if span.request is not None:
            module_ns[span.name.split(".")[0]] += self_ns
        by_tag.setdefault((span.name, span.tag), []).append(span.duration_ns)

    def tag_median_ms(name, tag):
        return _median_or_zero(by_tag.get((name, tag), [])) / 1e6

    values = {"trace.overhead_frac": statistics.median(t.ns / p.ns for p, t in zip(plain, traced)) - 1}
    for fn in FUNCTIONS:
        values[f"{fn}.ms"] = fn_ms[fn] / 1e6
        values[f"{fn}.calls"] = fn_calls[fn]
        values[f"{fn}.failed"] = fn_failed[fn]
    for module in REQUEST_MODULES:
        values[f"{module}.ms"] = module_ns[module] / 1e6
        values[f"{module}.share"] = module_ns[module] / request_ns
    for name, _ in COUNTS:
        values[name] = tracer.counts.get(name, 0)
    for name in IDENTITIES:
        values[f"verify.run_identity.{name}.ms"] = sum(by_tag.get(("verify.run_identity", name), [])) / 1e6
    startup = tag_median_ms("cli.startup", None)
    values["cli.startup_ms"] = startup
    values["cli.import_ms"] = tag_median_ms("cli.import", None) - startup if startup else 0.0
    for cmd in CLI_COMMANDS:
        values[f"cli.main.{cmd}.ms"] = tag_median_ms("cli.main", cmd)
    builds = fn_ms["structmat.build_vieta"] + fn_ms["calculus.jacobian_matrix"]
    values["probe.table_share"] = fn_ms["sympoly.leave_one_out_table"] / builds if builds else 0.0
    values["op_tail_ms"] = tail_ms(workload, untraced)[0]
    values["ops_failed_frac"] = sum(s.error is not None for s in untraced) / len(untraced)
    values["build_per_s"] = _rate(untraced, "build")
    values["det_closed_per_s"] = _rate(untraced, "det.closed")
    return {name: (values[name], unit) for name, unit, _ in per_layer_spec()}


def predictions(workload_name: str, layer: dict, untraced) -> list[str]:
    checks = {name: value for name, (value, _) in layer.items()}
    checks["op_p50_ms"] = statistics.median(s.ns / 1e6 for s in untraced)
    lines = []
    for name, claim, holds, links in PREDICTIONS:
        if name == workload_name:
            verdict = "holds" if holds(checks) else "CONTRADICTED"
            lines.append(f"prediction {claim}: {verdict} ({links})")
    return lines
