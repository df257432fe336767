"""The scripts under scripts/ run end to end at small sizes and exit 0, or
exit 1 with one error line, not a traceback, on settings they cannot run:
before any work, or when the package raises one of its named errors.

They call `picard_solve`, `assemble_solution`, `run_monitors` and
`epsilon_study` directly, outside the CLI, so each is run here as a
subprocess with the package on PYTHONPATH; so is the README's library
example, and `compare_runs.py` on two run directories the CLI writes.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from schrobvp import cli

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("run_benchmark.py", ["--preset", "decoupled", "--n", "128"]),
        ("epsilon_sweep.py", ["--preset", "decoupled", "--n-steps", "64"]),
        ("commutator_ensemble.py", ["--trials", "5", "--grid-n", "256", "--bandwidth", "16"]),
    ],
)
def test_script_runs(script, args, tmp_path):
    assert run_script(script, args, tmp_path).strip()


def test_commutator_table_has_one_row_per_exponent_and_pair(tmp_path):
    # the default --p 4/3,2,4 and --lm 0,1;1,1;0,2, in that order
    out = run_script("commutator_ensemble.py",
                     ["--trials", "3", "--grid-n", "256", "--bandwidth", "16"], tmp_path)
    lines = out.splitlines()[2:]
    keys = [re.match(r"\s*(\S+)\s+\((\d+), (\d+)\)\s", line).groups() for line in lines]
    assert keys == [(p, l, m) for p in ("1.33", "2", "4") for l, m in (("0", "1"), ("1", "1"), ("0", "2"))]


def test_commutator_table_rejects_a_bandwidth_that_cannot_double(tmp_path):
    # B = 48 fits n = 256 (3B < n), 2B = 96 does not: the script stops before
    # the base ensemble instead of failing after it
    done = launch_script("commutator_ensemble.py", ["--grid-n", "256", "--bandwidth", "48"], tmp_path)
    assert done.returncode == 1
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1
    assert "--bandwidth 48" in done.stderr and "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "script, args, needle",
    [
        ("run_benchmark.py", ["--preset", "decoupled", "--n", "7"], "power of two"),
        ("run_benchmark.py", ["--preset", "benchmark", "--n", "256", "--T", "3"], "no contraction"),
        ("epsilon_sweep.py", ["--preset", "decoupled", "--epsilons", "1e-3,1e-4"], "at least 3 entries"),
        ("commutator_ensemble.py", ["--trials", "0", "--grid-n", "256", "--bandwidth", "16"], "at least one trial"),
    ],
)
def test_package_error_is_one_line(script, args, needle, tmp_path):
    # a ValueError (bad grid), a DivergenceError (horizon too long, after the
    # override's warning) and ConfigErrors
    done = launch_script(script, args, tmp_path)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    last = done.stderr.splitlines()[-1]
    assert last.startswith("error: ") and needle in last, done.stderr
    assert done.stderr.count("error: ") == 1


def test_readme_library_example_runs(tmp_path):
    # the README's one python example, as a reader would paste it: it calls
    # the public API, so a changed signature fails here
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.S | re.M)
    assert len(blocks) == 1
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", blocks[0]], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    factors = [float(x) for x in re.match(r"\[(.*?)\]", done.stdout).group(1).split(",")]
    assert factors and all(0.0 < rho < 0.5 for rho in factors), done.stdout


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    """Two run directories of one small `decoupled` scenario."""
    tmp = tmp_path_factory.mktemp("runs")
    scenario = tmp / "scenario.json"
    scenario.write_text(json.dumps({"preset": "decoupled", "grid": {"n": 128}, "stepper": {"n_steps": 32}}))
    for name in "ab":
        assert cli.main(["picard", "--scenario", str(scenario), "--out-dir", str(tmp / name)]) == 0
    return tmp / "a", tmp / "b"


def test_compare_runs_pairs_every_file_but_the_timings(two_runs, tmp_path):
    a, b = two_runs
    lines = run_script("compare_runs.py", [str(a), str(b)], tmp_path).splitlines()
    files = sorted(p.relative_to(a).as_posix() for p in a.rglob("*") if p.is_file())
    assert "timings.json" in files and "fields/vplus_0000.spf" in files
    assert lines == [f"{name}: identical" for name in files if name != "timings.json"]


def test_compare_runs_reports_a_perturbed_number(two_runs, tmp_path):
    a, b = two_runs
    c = tmp_path / "c"
    shutil.copytree(b, c)
    rows = (c / "norms.csv").read_text().splitlines()
    cells = rows[3].split(",")
    value = float(cells[1])
    cells[1] = f"{value * (1 + 1e-9):.17g}"
    rows[3] = ",".join(cells)
    (c / "norms.csv").write_text("\n".join(rows) + "\n")
    lines = run_script("compare_runs.py", [str(a), str(c)], tmp_path).splitlines()
    changed = [line for line in lines if not line.endswith(": identical")]
    assert len(changed) == 1
    abs_diff, rel_diff = re.match(r"norms\.csv: max abs diff (\S+), max rel diff (\S+) over", changed[0]).groups()
    assert float(abs_diff) == pytest.approx(1e-9 * value, rel=1e-2)
    assert float(rel_diff) == pytest.approx(1e-9, rel=1e-2)


def test_compare_runs_names_a_missing_file(two_runs, tmp_path):
    a, b = two_runs
    c = tmp_path / "c"
    shutil.copytree(b, c)
    (c / "fields" / "vminus_0007.spf").unlink()
    done = launch_script("compare_runs.py", [str(a), str(c)], tmp_path)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == f"error: fields/vminus_0007.spf is in {a} only\n"


def run_script(script, args, cwd):
    """The script's standard output, after asserting that it exited 0."""
    done = launch_script(script, args, cwd)
    assert done.returncode == 0, done.stderr
    return done.stdout


def launch_script(script, args, cwd):
    """The finished run of ``scripts/<script>`` with the package on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
