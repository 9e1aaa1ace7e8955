"""Fast self-check of the benchmark harness.

    python3 -m pytest perfbench -q

Runs every workload at tiny sizes, traced and untraced, and makes sure a
planted wrong answer aborts the run while a failing request is only
counted.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import run

run.bootstrap()

import harness  # noqa: E402  (needs the path bootstrap above)
import reference  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402
from vietamat import calculus, exactdet, rational, structmat  # noqa: E402


def tiny(name, tiny=True):
    scratch = run.OUT / f"selfcheck-{name}"
    scratch.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[name](7, tiny, scratch, run.ROOT)


def one_cycle(workload):
    harness.setup(workload)
    return [harness.execute(req, NullTracer()) for req in workload.cycle(0)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_reports_every_metric(name):
    workload = tiny(name)
    untraced = one_cycle(workload)
    result = harness.end_to_end(workload, untraced, setup_s=0.5)
    assert result.failed == 0
    assert [(k, u) for k, (_, u) in result.metrics.items()] == [(k, u) for k, u, _ in harness.E2E]

    tracer = Tracer()
    plain, traced, requests = harness.trace_loop(workload, tracer)
    workload.probes(tracer, requests)
    tracer.flush_counts()
    layer = harness.per_layer(workload, tracer, untraced, plain, traced)
    assert [(k, u) for k, (_, u) in layer.items()] == [(k, u) for k, u, _ in harness.per_layer_spec()]
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v, _ in layer.values())
    assert 0 < sum(v for k, (v, _) in layer.items() if k.endswith(".share")) <= 1.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_full_size_runs_leave_ten_samples_beyond_the_tail(name):
    workload = tiny(name, tiny=False)
    n = workload.min_cycles * len(workload.cycle(0))
    assert n - math.ceil(workload.tail_pct / 100 * n) >= 10


def _plus_one(fn):
    return lambda *args: fn(*args) + 1


@pytest.mark.parametrize(
    "name, module, attr",
    [
        ("large-n", structmat, "vieta_det_closed"),
        ("oracle", exactdet, "det_bareiss"),
    ],
)
def test_planted_wrong_determinant_aborts(monkeypatch, name, module, attr):
    monkeypatch.setattr(module, attr, _plus_one(getattr(module, attr)))
    with pytest.raises(reference.WrongAnswer):
        one_cycle(tiny(name))


def test_planted_wrong_determinant_fails_the_in_process_cli_probes(monkeypatch):
    monkeypatch.setattr(structmat, "vieta_det_closed", _plus_one(structmat.vieta_det_closed))
    with pytest.raises(reference.WrongAnswer):
        tiny("cli-cold").probes(Tracer(), [])


def test_planted_wrong_matrix_entry_aborts(monkeypatch):
    build = calculus.wronskian_matrix

    def off_by_one(basis, x0):
        rows = [list(row) for row in build(basis, x0).entries]
        rows[-1][0] += 1
        return structmat.ExactMatrix.from_rows(rows)

    monkeypatch.setattr(calculus, "wronskian_matrix", off_by_one)
    with pytest.raises(reference.WrongAnswer):
        one_cycle(tiny("large-n"))


def test_render_failure_counts_as_failed_request(monkeypatch):
    def refuse(value):
        raise ValueError("Exceeds the limit for integer string conversion")

    monkeypatch.setattr(rational, "render_rational", refuse)
    samples = one_cycle(tiny("large-n"))
    failed = [s for s in samples if s.error is not None]
    assert {s.op for s in failed} == {"det.closed"}
    assert {s.error for s in failed} == {"ValueError"}
    assert len(failed) == len(samples) // 2


def test_nonzero_cli_exit_counts_as_failed_request():
    workload = tiny("cli-cold")
    bad = workloads.Command(("det", "vieta", "--nodes=1,2/0"), lambda out: None, workload.runner)
    sample = harness.execute(bad, NullTracer())
    assert sample.error == "exit2"


def test_reference_matches_hand_worked_cases():
    assert reference.expected_det("vieta", [Fraction(v) for v in (1, 2, 3)]) == -2
    assert reference.expected_det("vandermonde", [Fraction(v) for v in (1, 2, 3)]) == 2
    assert reference.expected_det("wronskian", [Fraction(v) for v in (1, 2, 3)]) == -4
    reference.check_matrix_csv("vieta", "1,2,3", "0", "1,1,1\n5,4,3\n6,3,2\n")
    reference.check_matrix_csv("wronskian", "1,2,3", "0", "6,3,2\n-5,-4,-3\n2,2,2\n")
    reference.check_matrix_csv("vandermonde", "1,2,-1/3", "0", "1,1,1\n1,2,-1/3\n1,4,1/9\n")
    for kind, text in [("vieta", "1,1,1\n5,4,3\n6,3,3\n"), ("wronskian", "6,3,2\n-5,-4,-3\n2,2,1\n")]:
        with pytest.raises(reference.WrongAnswer):
            reference.check_matrix_csv(kind, "1,2,3", "0", text)
    with pytest.raises(reference.WrongAnswer):
        reference.check_det("vieta", "1,2,3", "2\n")


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(harness.E2E)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == harness.per_layer_spec()


def test_exits_nonzero_without_a_result_when_the_source_is_missing():
    bare = run.OUT / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.BENCH_DIR.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare,
        capture_output=True,
        timeout=60,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == b""
