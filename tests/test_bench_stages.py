"""Smoke test of tools/bench_stages.py: one run at n = 4 and 9, keys and counters, no times."""

import json
import subprocess
import sys
from pathlib import Path

from vietamat.calculus import KINDS
from vietamat.exactdet import LAPLACE_MAX

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_stages.py"
STAGES = ["parse", "build", "closed", "bareiss", "laplace", "json", "render", "hash"]


def test_stage_script_writes_every_key(tmp_path):
    out = tmp_path / "bench.json"
    argv = [sys.executable, str(SCRIPT), "--out", str(out), "--sizes", "4,9", "--closed-only", "4", "--cli-runs", "1"]
    subprocess.run(argv, check=True, timeout=120)
    data = json.loads(out.read_text())
    assert set(data) == {"env", "settings", "stages", "counters", "closed_only", "commands"}
    assert {"python", "cpus", "int_max_str_digits", "PYTHONDONTWRITEBYTECODE", "python_c_pass"} <= set(data["env"])
    assert data["settings"]["laplace_max"] == LAPLACE_MAX
    assert list(data["stages"]) == list(data["counters"]) == list(data["closed_only"]) == list(KINDS)
    for kind in KINDS:
        assert list(data["stages"][kind]["4"]) == STAGES, kind
        # Laplace is gated at its reach, as the library's guard is
        assert list(data["stages"][kind]["9"]) == [s for s in STAGES if s != "laplace"], kind
        assert all(set(record) == {"ns", "runs"} for record in data["stages"][kind]["4"].values()), kind
        assert set(data["closed_only"][kind]["4"]["closed"]) == {"ns", "runs"}, kind
        counters = data["counters"][kind]["4"]
        assert set(counters) == {"closed_gcd_max_bits", "json_gcd_calls"}, kind
        # one gcd per entry of the 4 x 4 build; 16-bit nodes give the closed form nonzero operands
        assert counters["json_gcd_calls"] == 16, kind
        assert counters["closed_gcd_max_bits"] > 0, kind
    assert list(data["commands"]) == ["det", "verify", "bench"]
    for record in [*data["commands"].values(), data["env"]["python_c_pass"]]:
        assert record["exit"] == [0], record["argv"]
        assert len(record["wall_ns"]) == len(record["cpu_ns"]) == 1, record["argv"]
