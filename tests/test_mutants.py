"""The mutation gate itself: a survivor or a broken run makes it exit 1."""

import subprocess
import sys
from pathlib import Path

# The gate forks a child that must import its own copy of vietamat, so it
# runs in a fresh interpreter; its table is cut to three entries first.
GATE = f"""
import sys
sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
import mutants

M = mutants.Mutant
CLI = ("tests/test_cli.py::test_internal_error_exit_code",)
mutants.MUTANTS = (
    M("planted-no-op", "cli.py", "        return 4", "        return 4", CLI),
    M("planted-syntax-error", "cli.py", "        return 4", "        return 4 +", CLI),
    *(m for m in mutants.MUTANTS if m.name == "internal-error-as-input"),
)
sys.exit(mutants.main())
"""


def test_gate_exits_1_on_a_survivor_and_on_a_broken_run():
    proc = subprocess.run([sys.executable, "-B", "-c", GATE], capture_output=True, text=True, timeout=120)
    out = proc.stdout
    assert proc.returncode == 1, out + proc.stderr
    assert "planted-no-op: SURVIVED tests/test_cli.py::test_internal_error_exit_code" in out
    assert "planted-syntax-error: pytest exited" in out
    assert "SyntaxError" in out
    assert "PytestAssertRewriteWarning" not in out
    assert "internal-error-as-input: killed" in out
    assert "1/3 killed" in out
