"""Self-test of the benchmark harness on smoke-size inputs (about a minute).

    python3 perfbench/selftest.py

Checks that
  * every end-to-end and per-layer metric is reported, with its unit, for
    every workload, and that the smoke runs pass their correctness checks;
  * a deliberately unmeetable bound is counted as a failed run;
  * the exact counts repeat between two traced passes;
  * BENCHMARK.json names the same workloads and metrics, with the same units;
  * in a directory holding only BENCHMARK.json and the benchmark's files,
    run.py exits non-zero without printing a result.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import run
import workloads

EXACT_COUNTS = (
    "spectral.fft_calls",
    "spectral.fft_rows",
    "coefficients.eval_calls",
    "coefficients.norm_bundle_nodes",
    "stepper.solve_linear_calls",
    "picard.sweeps",
    "fieldio.files_written",
)


def _require(cond: bool, what: str, problems: list[str]) -> None:
    if not cond:
        problems.append(what)


def _check_line(summary: dict, units: dict, problems: list[str]) -> None:
    line = run.result_line(summary)
    tag = f"{summary['workload']} trace {int(summary['trace'])}"
    _require(set(line) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys", problems)
    _require(line["correct"] and line["failed"] == 0, f"{tag}: smoke run failed {summary['misses']}", problems)
    for name, unit in units.items():
        entry = line["metrics"].get(name)
        _require(entry is not None and entry["unit"] == unit, f"{tag}: {name} missing or mis-unit", problems)
        if entry is not None:
            _require(math.isfinite(entry["value"]), f"{tag}: {name} not finite", problems)


def _stripped_dir_fails(problems: list[str]) -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        out = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "decoupled-oracle",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    _require(out.returncode != 0, "bare directory: run.py exited 0", problems)
    _require("{" not in out.stdout, "bare directory: run.py printed a result", problems)


def _manifest_matches(problems: list[str]) -> None:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    _require([w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS),
             "BENCHMARK.json workloads", problems)
    for key, table in (("end_to_end", workloads.END_TO_END), ("per_layer", workloads.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in manifest[key]}
        _require(listed == table, f"BENCHMARK.json {key} names or units", problems)


def main() -> int:
    problems: list[str] = []
    _manifest_matches(problems)
    for workload in sorted(workloads.WORKLOADS):
        plain = run.run_workload(workload, 1, 0, trace=False, smoke=True)
        _check_line(plain, workloads.END_TO_END, problems)
        traced = [run.run_workload(workload, 0, 0, trace=True, smoke=True) for _ in range(2)]
        for summary in traced:
            _check_line(summary, workloads.PER_LAYER, problems)
        for name in EXACT_COUNTS:
            a, b = (s["metrics"][name]["median"] for s in traced)
            _require(a == b, f"{workload}: {name} differs between traced passes ({a} vs {b})", problems)
        print(f"{workload}: fft_calls {traced[0]['metrics']['spectral.fft_calls']['median']:.0f}, "
              f"setup {plain['metrics']['setup_s']['median']:.3f} s", flush=True)

    impossible = dict(workloads.BOUNDS, max_rho=-1.0, commutator_shift=-1.0)
    for workload in sorted(workloads.WORKLOADS):
        summary = run.run_workload(workload, 0, 0, trace=False, smoke=True, bounds=impossible)
        _require(summary["failed"] == summary["attempted"] >= 1,
                 f"{workload}: unmeetable bound not counted as failed", problems)

    _stripped_dir_fails(problems)
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
