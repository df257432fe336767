"""The scripts under scripts/ run end to end at small sizes and exit 0.

They call `picard_solve`, `assemble_solution`, `run_monitors` and
`epsilon_study` directly, outside the CLI, so each is run here as a
subprocess with the package on PYTHONPATH.
"""

import os
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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
