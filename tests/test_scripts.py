"""The scripts under scripts/ run end to end at small sizes and exit 0, or
exit 1 with one error line, not a traceback, on settings they cannot run:
before any work, or when the package raises one of its named errors.

They call `picard_solve`, `assemble_solution`, `run_monitors` and
`epsilon_study` directly, outside the CLI, so each is run here as a
subprocess with the package on PYTHONPATH.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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
