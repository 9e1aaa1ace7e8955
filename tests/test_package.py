import subprocess
import sys


def test_import_loads_no_submodule():
    """The package root is a plain namespace: importing it pulls in none
    of the submodules."""
    probe = "import sys, vietamat; print(sorted(m for m in sys.modules if m.startswith('vietamat.')))"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_det_and_build_load_neither_verify_nor_bench(tmp_path):
    """`det`, `build` and the shorthands import only what they run: not
    verify or bench, nor the dataclasses and hashlib modules; and `json`
    only for a node file."""
    nodes_file = tmp_path / "nodes.json"
    nodes_file.write_text('{"nodes": ["1", "-3/4", "2/5"]}')
    inline = [
        ["det", "vieta", "--nodes=1,-2,3/4"],
        ["build", "jacobian", "--nodes=1,-2,3/4", "--format", "csv"],
        ["build", "jacobian", "--nodes=1,-2,3/4"],
    ]
    from_file = ["wronskian", "--method", "bareiss", "--nodes-file", str(nodes_file)]
    unwanted = ["vietamat.verify", "vietamat.bench", "dataclasses", "hashlib", "json"]
    probe = (
        "import sys\n"
        "from vietamat.cli import main\n"
        f"for argv in {inline!r}:\n"
        "    assert main(argv) == 0, argv\n"
        f"before = sorted(m for m in {unwanted!r} if m in sys.modules)\n"
        f"assert main({from_file!r}) == 0\n"
        f"print(before, sorted(m for m in {unwanted!r} if m in sys.modules))\n"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[] ['json']"


def test_verify_loads_no_dataclasses():
    """`verify` keeps its cold start: running it imports no dataclasses."""
    probe = (
        "import sys\n"
        "from vietamat.cli import main\n"
        "assert main(['verify', '--suite', 'roundtrip', '--trials', '1']) == 0\n"
        "print('dataclasses' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"


def test_bench_loads_neither_verify_nor_json():
    """`bench` draws its node sets with its own seeded helpers, so it
    loads neither verify nor the json module verify needs."""
    probe = (
        "import sys\n"
        "from vietamat.cli import main\n"
        "assert main(['bench', '--n', '4,8']) == 0\n"
        "print(sorted(m for m in ('vietamat.verify', 'json') if m in sys.modules))\n"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
