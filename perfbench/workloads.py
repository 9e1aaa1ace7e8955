"""The benchmark's four request workloads.

Every input is generated here from the benchmark seed as rational wire
strings: numerators in +-(2**16 - 1), denominators in [1, 2**16 - 1].
The program sees only those strings.  A request is one CLI-equivalent
command: ``build <kind>`` (parse -> build -> matrix_to_json) or
``det <kind> --method M`` (parse -> [build ->] determinant ->
render_rational), or one ``python -m vietamat`` process.  Each call into vietamat goes through the tracer by
its qualified name, so the traced run sees every module boundary the
benchmark crosses and a planted replacement of a module attribute is
what actually runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from vietamat import bench, calculus, cli, exactdet, matio, rational, structmat, sympoly, verify

import reference
from reference import KINDS, WrongAnswer

TOP = 2**16 - 1

IDENTITIES = (
    "theorem1", "corollary1", "sign_bridge", "antisymmetry", "extension", "degenerate", "recombination",
    "permutation", "leave_one_out", "wronskian", "jacobian", "oracle_agreement", "multilinearity", "roundtrip",
)
CLI_COMMANDS = ("det", "wronskian", "build", "verify", "bench")

_MODULES = {
    "bench": bench,
    "calculus": calculus,
    "cli": cli,
    "exactdet": exactdet,
    "matio": matio,
    "rational": rational,
    "structmat": structmat,
    "sympoly": sympoly,
    "verify": verify,
}

CLOSED = {
    "vieta": "structmat.vieta_det_closed",
    "vandermonde": "structmat.vandermonde_det_closed",
    "wronskian": "calculus.wronskian_closed",
    "jacobian": "calculus.jacobian_det_closed",
}

BUILDERS = {
    "vieta": "structmat.build_vieta",
    "vandermonde": "structmat.build_vandermonde",
    "jacobian": "calculus.jacobian_matrix",
}


def _call(tracer, name, *args, tag=None):
    module, attr = name.split(".")
    return tracer.call(name, getattr(_MODULES[module], attr), *args, tag=tag)


def seeded(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in ("perfbench",) + parts))


def rational_text(rng: random.Random) -> str:
    return f"{rng.randint(-TOP, TOP)}/{rng.randint(1, TOP)}"


def node_texts(rng: random.Random, n: int, *, integer: bool = False, repeat: bool = False) -> str:
    """n distinct nodes as inline wire text; `repeat` then copies one node
    over another, which makes every determinant 0."""
    texts: list[str] = []
    seen: set[Fraction] = set()
    while len(texts) < n:
        text = str(rng.randint(-TOP, TOP)) if integer else rational_text(rng)
        value = Fraction(text)
        if value not in seen:
            seen.add(value)
            texts.append(text)
    if repeat:
        i, j = rng.sample(range(n), 2)
        texts[j] = texts[i]
    return ",".join(texts)


def _bits(matrix) -> int:
    return sum(e.numerator.bit_length() + e.denominator.bit_length() for row in matrix.entries for e in row)


def _build(tracer, kind, ns, at):
    # The CLI parses --at for every build, whatever the kind.
    x0 = _call(tracer, "rational.parse_rational", at)
    if kind != "wronskian":
        return _call(tracer, BUILDERS[kind], ns)
    basis = _call(tracer, "calculus.nodal_basis", ns)
    return _call(tracer, "calculus.wronskian_matrix", basis, x0)


# --- requests -------------------------------------------------------------
# `run` is timed and may raise (a failed request); `check` runs after the
# timer stops and raises WrongAnswer, which aborts the benchmark.


@dataclass(frozen=True)
class Build:
    kind: str
    nodes: str
    at: str = "0"
    op = "build"

    def run(self, tracer):
        ns = _call(tracer, "matio.parse_nodes_text", self.nodes)
        matrix = _build(tracer, self.kind, ns, self.at)
        text = _call(tracer, "matio.matrix_to_json", matrix)
        tracer.count("matio.matrix_to_json.bytes", lambda: len(text))
        return text

    def check(self, output):
        reference.check_matrix_json(self.kind, self.nodes, self.at, output)


@dataclass(frozen=True)
class Det:
    kind: str
    method: str
    nodes: str
    at: str = "0"

    @property
    def op(self):
        return f"det.{self.method}"

    def run(self, tracer):
        ns = _call(tracer, "matio.parse_nodes_text", self.nodes)
        if self.method == "closed":
            value = _call(tracer, CLOSED[self.kind], ns)
        else:
            matrix = _build(tracer, self.kind, ns, self.at)
            if self.method == "bareiss":
                tracer.count("exactdet.det_bareiss.in_bits", lambda: _bits(matrix))
            value = _call(tracer, f"exactdet.det_{self.method}", matrix)
        tracer.count(
            "rational.render_rational.in_bits",
            lambda: value.numerator.bit_length() + value.denominator.bit_length(),
        )
        return _call(tracer, "rational.render_rational", value)

    def check(self, output):
        reference.check_det(self.kind, self.nodes, output)


@dataclass(frozen=True)
class VerifyBatch:
    identity: str
    trials: int
    seed: int
    cfg: verify.VerifyConfig
    op = "verify"

    def run(self, tracer):
        tracer.count("verify.run_identity.trials", lambda: self.trials)
        return _call(tracer, "verify.run_identity", self.identity, self.trials, self.seed, self.cfg, tag=self.identity)

    def check(self, report):
        got = (report.identity, report.trials, report.seed, report.failures)
        if got != (self.identity, self.trials, self.seed, 0):
            raise WrongAnswer(f"verify {self.identity} seed {self.seed}: report {got}")


class CliExit(Exception):
    """`python -m vietamat` exited with a nonzero code."""

    def __init__(self, code: int, stderr: str):
        super().__init__(f"exit {code}: {stderr.strip()[-200:]}")
        self.code = code


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    expect: Callable[[str], None]
    runner: "CliRunner"
    op = "cli"

    def run(self, tracer):
        return tracer.call("cli.process", self.runner.run, self.argv, tag=self.argv[0])

    def check(self, output):
        self.expect(output)


class CliRunner:
    """Runs ``python -m vietamat`` one process at a time and keeps the
    largest peak RSS any of them reached."""

    def __init__(self, root: Path, scratch: Path):
        self.root = root
        self.scratch = scratch
        self.peak_rss_kb = 0

    def run(self, argv) -> str:
        with open(self.scratch / "stdout", "w+b") as out, open(self.scratch / "stderr", "w+b") as err:
            proc = subprocess.Popen([sys.executable, "-m", "vietamat", *argv], cwd=self.root, stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
            out.seek(0)
            err.seek(0)
            if proc.returncode != 0:
                raise CliExit(proc.returncode, err.read().decode())
            return out.read().decode()

    def bare(self, *args) -> None:
        """One interpreter run that is not a vietamat command."""
        subprocess.run([sys.executable, *args], cwd=self.root, check=True)


# --- workloads ------------------------------------------------------------


def _shuffled(requests: list, *parts) -> list:
    """Seeded order within a cycle, so that a slow spell of the machine
    lands on a mix of request types rather than on one block of them."""
    seeded(*parts, "order").shuffle(requests)
    return requests


class Workload:
    """A fixed cycle of requests, replayed with fresh seeded inputs.

    Runs measure whole cycles, so every run sees the same request mix.
    `min_cycles` guarantees at least ten samples beyond the `tail_pct`
    percentile.  The traced run replays exactly the first `trace_cycles`
    cycles, so its work counts repeat exactly for a seed.
    """

    name: str
    tail_pct: int
    min_cycles: int
    trace_cycles: int

    def __init__(self, seed: int, tiny: bool, scratch: Path, root: Path):
        self.seed = seed
        self.scratch = scratch

    def cycle(self, c: int) -> list:
        raise NotImplementedError

    def warmup(self):
        raise NotImplementedError

    def probes(self, tracer, requests) -> None:
        """Traced-run calls outside any request."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class LargeN(Workload):
    name = "large-n"
    tail_pct = 90
    min_cycles = 2
    trace_cycles = 1

    def __init__(self, seed, tiny, scratch, root):
        super().__init__(seed, tiny, scratch, root)
        self.sizes = (3, 4, 5, 6) if tiny else (16, 32, 48, 64)

    def cycle(self, c):
        # A cycle is two rounds, so that every size builds its Wronskian
        # once at the CLI default 0 and once at a seeded rational point.
        requests = []
        for r in (2 * c, 2 * c + 1):
            for si, n in enumerate(self.sizes):
                for kind in KINDS:
                    rng = seeded(self.name, self.seed, r, n, kind)
                    nodes = node_texts(rng, n)
                    at = rational_text(rng) if kind == "wronskian" and (si + r) % 2 else "0"
                    requests += [Build(kind, nodes, at), Det(kind, "closed", nodes)]
        return _shuffled(requests, self.name, self.seed, c)

    def warmup(self):
        return Build("vieta", node_texts(seeded(self.name, self.seed, "warmup"), self.sizes[0]))

    def probes(self, tracer, requests):
        # leave_one_out_table on the vieta/jacobian build inputs, outside
        # the request: splits build time into table and matrix wrapping.
        for req in requests:
            if isinstance(req, Build) and req.kind in ("vieta", "jacobian"):
                ns = sympoly.NodeSet(tuple(reference.parse_nodes(req.nodes)))
                _call(tracer, "sympoly.leave_one_out_table", ns)


class Oracle(Workload):
    name = "oracle"
    tail_pct = 90
    min_cycles = 7
    trace_cycles = 4

    def __init__(self, seed, tiny, scratch, root):
        super().__init__(seed, tiny, scratch, root)
        sizes = (3, 4, 5, 3) if tiny else (12, 16, 20, 8)
        self.slots = tuple(zip(sizes, ("bareiss", "bareiss", "bareiss", "laplace")))

    def cycle(self, c):
        # Half the node sets are integers (Bareiss's integral-assertion
        # path); one in four repeats a node (determinant 0, pivot search).
        requests = []
        for si, (n, method) in enumerate(self.slots):
            for ki, kind in enumerate(KINDS):
                rng = seeded(self.name, self.seed, c, si, kind)
                nodes = node_texts(rng, n, integer=(ki + si) % 2 == 0, repeat=(2 * ki + si) % 4 == 0)
                requests.append(Det(kind, method, nodes))
        return _shuffled(requests, self.name, self.seed, c)

    def warmup(self):
        n, method = self.slots[-1]
        return Det("vieta", method, node_texts(seeded(self.name, self.seed, "warmup"), n))


class CliCold(Workload):
    name = "cli-cold"
    tail_pct = 75
    min_cycles = 8
    trace_cycles = 4
    PROBE_REPEATS = 3

    def __init__(self, seed, tiny, scratch, root):
        super().__init__(seed, tiny, scratch, root)
        self.runner = CliRunner(root, scratch)
        if tiny:
            self.sizes, self.trials, self.n_range, self.bench_n = (3, 4, 5), 2, "1..3", "2,3"
        else:
            self.sizes, self.trials, self.n_range, self.bench_n = (8, 10, 16), 20, "1..8", "8,16"

    def cycle(self, c):
        rng = seeded(self.name, self.seed, c)
        det_nodes, file_nodes, build_nodes = (node_texts(rng, n) for n in self.sizes)
        nodes_file = self.scratch / f"nodes-{c}.json"
        nodes_file.write_text('{"nodes": ["' + file_nodes.replace(",", '", "') + '"]}')
        out_csv = self.scratch / f"jacobian-{c}.csv"
        verify_seed, bench_seed = rng.getrandbits(64), rng.getrandbits(32)
        suite = ["theorem1", "roundtrip"]
        bench_sizes = [int(n) for n in self.bench_n.split(",")]

        def expect_csv(stdout):
            text = out_csv.read_text()
            out_csv.unlink()
            if stdout:
                raise WrongAnswer("build --out also wrote to stdout")
            reference.check_matrix_csv("jacobian", build_nodes, "0", text)

        def expect_verify(stdout):
            cfg = verify.VerifyConfig(*map(int, self.n_range.split("..")))
            want = [r.json_line() for r in verify.run_suite(suite, self.trials, verify_seed, cfg)]
            if stdout.splitlines() != want or any(json.loads(line)["failures"] for line in want):
                raise WrongAnswer(f"verify seed {verify_seed}: stdout differs from the in-process run")

        def expect_bench(stdout):
            want = [
                (method, str(n), "16", reference.bench_hash(bench_seed, n, 16))
                for n in bench_sizes
                for method in ("closed", "bareiss")
            ]
            got = [tuple(row.split(",")[i] for i in (0, 1, 2, 4)) for row in stdout.splitlines()]
            if got != want:
                raise WrongAnswer(f"bench seed {bench_seed}: rows {got}")

        run = self.runner
        return [
            Command(("det", "vieta", f"--nodes={det_nodes}"), lambda out: reference.check_det("vieta", det_nodes, out), run),
            Command(
                ("wronskian", "--method", "bareiss", "--nodes-file", str(nodes_file)),
                lambda out: reference.check_det("wronskian", file_nodes, out),
                run,
            ),
            Command(
                ("build", "jacobian", f"--nodes={build_nodes}", "--format", "csv", "--out", str(out_csv)),
                expect_csv,
                run,
            ),
            Command(
                ("verify", "--suite", ",".join(suite), "--trials", str(self.trials), "--n", self.n_range,
                 "--seed", str(verify_seed)),
                expect_verify,
                run,
            ),
            Command(
                ("bench", "--n", self.bench_n, "--methods", "closed,bareiss", "--seed", str(bench_seed)),
                expect_bench,
                run,
            ),
        ]

    def warmup(self):
        nodes = node_texts(seeded(self.name, self.seed, "warmup"), self.sizes[0])
        return Command(("det", "vieta", f"--nodes={nodes}"), lambda out: reference.check_det("vieta", nodes, out), self.runner)

    def probes(self, tracer, requests):
        """Interpreter start, `import vietamat.cli`, each command run in
        process through `cli.main` with its output captured, the bench
        command's library call, and one verify batch per identity with the
        verify command's settings."""
        for _ in range(self.PROBE_REPEATS):
            tracer.call("cli.startup", self.runner.bare, "-c", "pass")
            tracer.call("cli.import", self.runner.bare, "-c", "import vietamat.cli")
        commands = self.cycle("probe")
        for cmd in commands:
            for _ in range(self.PROBE_REPEATS):
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
                    code = _call(tracer, "cli.main", list(cmd.argv), tag=cmd.argv[0])
                if code != 0:
                    raise WrongAnswer(f"cli.main {cmd.argv[0]} returned {code}")
                cmd.check(sink.getvalue())
        bench_cmd = commands[-1]
        sizes = [int(n) for n in self.bench_n.split(",")]
        records = _call(tracer, "bench.run_bench", sizes, ["closed", "bareiss"], 1, 16, int(bench_cmd.argv[-1]))
        bench_cmd.check("".join(r.csv_row() + "\n" for r in records))
        cfg = verify.VerifyConfig(*map(int, self.n_range.split("..")))
        for name in IDENTITIES:
            batch = VerifyBatch(name, self.trials, self.seed, cfg)
            batch.check(batch.run(tracer))

    def peak_rss_mb(self):
        return self.runner.peak_rss_kb / 1024


WORKLOADS = {w.name: w for w in (LargeN, Oracle, CliCold)}
