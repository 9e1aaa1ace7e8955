import subprocess
import sys


def test_import_loads_no_submodule():
    """The package root is a plain namespace: importing it pulls in none
    of the submodules."""
    probe = "import sys, vietamat; print(sorted(m for m in sys.modules if m.startswith('vietamat.')))"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
