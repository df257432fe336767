"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every repetition is a fresh child
process (perfbench/child.py) that imports the package from ``src``, so set-up
time and peak memory belong to that repetition alone.  Repetitions of the
same seeded input continue until ``--seconds`` have passed (at least one),
and the reported figures are medians over them.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs traced repetitions for the per-layer
metrics and one untraced repetition to measure the tracing overhead.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Scratch files
live under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

HARD_LIMIT_S = 165.0      # a run must end within 180 s
CHECK_RESERVE_S = 20.0    # left for the bandwidth cross-check after the repetitions
MIN_SETUPS = 7            # set-up samples per run, topped up with set-up-only children

# --- one child process ------------------------------------------------------

def _reap(proc: subprocess.Popen, deadline: float):
    """Wait for the child, killing it at the deadline; returns (status, rusage, timed_out)."""
    timed_out = False
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            timed_out = True
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return status, usage, timed_out


def _spawn(script: str, args: list[str], tmp: Path, deadline: float):
    """Run one child script to its result file; returns (result, rusage, spawn time, end time)."""
    result_path = tmp / f"{Path(script).stem}.json"
    cmd = [sys.executable, str(HERE / script), *args, "--result", str(result_path)]
    env = dict(os.environ, TMPDIR=str(tmp))
    log_path = tmp / f"{Path(script).stem}.log"
    with open(log_path, "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        try:
            _, usage, timed_out = _reap(proc, deadline)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    t_end = time.monotonic()
    if result_path.exists() and proc.returncode == 0:
        with open(result_path, encoding="utf-8") as fh:
            res = json.load(fh)
    else:
        tail = log_path.read_text(errors="replace").strip().splitlines()[-3:]
        why = "timed out" if timed_out else f"{script} exited {proc.returncode}"
        res = {"error": f"{why}: {' | '.join(tail)}"}
    return res, usage, t_spawn, t_end


def run_child(workload: str, seed: int, mode: str, trace: bool, smoke: bool,
              deadline: float) -> dict:
    """One repetition (or one set-up only) in a fresh process.

    A decoupled-oracle repetition is then checked against the closed form
    in a second process, before its artifacts are removed.
    """
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK / "tmp"))
    common = ["--workload", workload, "--seed", str(seed), "--smoke", str(int(smoke)),
              "--out-dir", str(tmp / "out")]
    try:
        res, usage, t_spawn, t_end = _spawn(
            "child.py", [*common, "--mode", mode, "--trace", str(int(trace))], tmp, deadline)
        if mode == "run" and workload == "decoupled-oracle" and not res.get("error"):
            found, *_ = _spawn("checks.py", ["oracle", *common], tmp, deadline)
            if found.get("error"):
                res["error"] = f"oracle check: {found['error']}"
            else:
                res["accuracy"]["oracle_rel_err"] = found["oracle_rel_err"]
                res["solve_free_s"] = found["solve_free_s"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if "t_built" in res:
        res["setup_s"] = res["t_built"] - t_spawn
    res["peak_rss_mb"] = usage.ru_maxrss / 1024.0    # Linux reports KiB
    res["wall_s"] = t_end - t_spawn
    return res


def band_check(smoke: bool, deadline: float) -> dict:
    """Criterion 07's bandwidth cross-check at its pinned seed, in its own process."""
    tmp = Path(tempfile.mkdtemp(prefix="band-", dir=WORK / "tmp"))
    try:
        res, *_ = _spawn("checks.py", ["band", "--smoke", str(int(smoke))], tmp, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return res


def _add_check_figures(rep: dict, band: dict | None) -> None:
    """Fold the separate checks' figures into a repetition's accuracy and layers."""
    acc = rep.get("accuracy")
    if band is not None and acc is not None:
        if band.get("error"):
            rep["error"] = f"band check: {band['error']}"
        else:
            acc["band_shift"] = band["band_shift"]
    layers = rep.get("layers")
    if layers is not None:
        acc = acc or {}
        layers["free_bvp.solve_free_s"] = rep.get("solve_free_s", 0.0)
        layers["free_bvp.oracle_rel_err"] = acc.get("oracle_rel_err", 0.0)
        layers["commutators.worst_shift"] = max(acc.get("grid_shift", 0.0), acc.get("band_shift", 0.0))


# --- one benchmark run ------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else math.nan


def summarize(samples: dict[str, list[float]]) -> dict[str, dict]:
    """Median, sample count, and the highest of p90/p99 with ten samples beyond it."""
    out = {}
    for name, vals in samples.items():
        entry = {"median": _median(vals), "n": len(vals)}
        for q in (0.99, 0.9):
            if len(vals) * (1 - q) >= 10:
                entry[f"p{round(q * 100)}"] = statistics.quantiles(vals, n=100)[round(q * 100) - 1]
                break
        out[name] = entry
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, bounds: dict = workloads.BOUNDS) -> dict:
    """All repetitions of one benchmark run, checked and summarized."""
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    hard = start + HARD_LIMIT_S
    env = {"nproc": len(os.sched_getaffinity(0)), "loadavg_1m": os.getloadavg()[0]}
    reps: list[dict] = []
    while True:
        rep = run_child(workload, seed, "run", trace, smoke, hard)
        reps.append(rep)
        elapsed = time.monotonic() - start
        if elapsed >= seconds or elapsed + 1.5 * rep["wall_s"] > HARD_LIMIT_S - CHECK_RESERVE_S:
            break

    untraced = []
    if trace and time.monotonic() - start + 1.5 * reps[-1]["wall_s"] < HARD_LIMIT_S - CHECK_RESERVE_S:
        untraced.append(run_child(workload, seed, "run", False, smoke, hard))

    band = band_check(smoke, hard) if workload == "commutator-ensemble" else None
    for rep in reps + untraced:
        _add_check_figures(rep, band)
        rep["misses"] = workloads.check(workload, rep, bounds)
    ok = [r for r in reps if not r["misses"]]
    failed = len(reps) - len(ok)
    untraced = [r for r in untraced if not r["misses"]]

    setups = [r["setup_s"] for r in ok]
    while not trace and len(setups) < MIN_SETUPS and time.monotonic() < hard - 10:
        extra = run_child(workload, seed, "setup", False, smoke, hard)
        if "setup_s" in extra and not extra.get("error"):
            setups.append(extra["setup_s"])

    samples: dict[str, list[float]] = {}
    if trace:
        for r in ok:
            for name, value in r["layers"].items():
                samples.setdefault(name, []).append(float(value))
        overhead = 0.0   # stays 0 when no time was left for the untraced repetition
        if untraced:
            overhead = _median([r["run_s"] for r in ok]) - untraced[0]["run_s"]
        samples["trace.overhead_s"] = [overhead]
    else:
        samples["setup_s"] = setups
        for name in ("run_s", "solve_s", "peak_rss_mb"):
            samples[name] = [r[name] for r in ok]
    accuracy: dict[str, list[float]] = {}
    for r in ok:
        for name, value in r.get("accuracy", {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                accuracy.setdefault(name, []).append(float(value))
    env.update(next((r["env"] for r in reps if "env" in r), {}))
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "attempted": len(reps),
        "failed": failed,
        "misses": [r["misses"] for r in reps if r["misses"]],
        "metrics": summarize(samples),
        "accuracy": summarize(accuracy),
        "env": env,
        "spans": [r.get("spans", []) for r in ok] if trace else [],
        "elapsed_s": time.monotonic() - start,
    }


def result_line(summary: dict) -> dict:
    """The contract's final JSON object."""
    units = workloads.PER_LAYER if summary["trace"] else workloads.END_TO_END
    metrics = {
        name: {"value": summary["metrics"].get(name, {}).get("median", math.nan), "unit": unit}
        for name, unit in units.items()
    }
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }


def print_report(summary: dict) -> None:
    print(f"workload {summary['workload']} seed {summary['seed']} trace {int(summary['trace'])} "
          f"({summary['elapsed_s']:.1f} s)")
    print("env " + json.dumps(summary["env"], sort_keys=True))
    frac = summary["failed"] / summary["attempted"]
    print(f"  failed_frac {frac:.4g} ({summary['failed']} of {summary['attempted']})")
    for misses in summary["misses"]:
        print("  FAILED: " + "; ".join(misses))
    units = workloads.PER_LAYER if summary["trace"] else workloads.END_TO_END
    for title, block in (("metric", summary["metrics"]), ("accuracy", summary["accuracy"])):
        for name, entry in block.items():
            extra = "".join(f" {k} {v:.6g}" for k, v in entry.items() if k.startswith("p"))
            print(f"  {title} {name} {entry['median']:.6g} {units.get(name, '')} "
                  f"(median of {entry['n']}){extra}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "schrobvp" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'schrobvp'}; run from a full checkout",
              file=sys.stderr)
        return 2
    summary = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(summary)
    line = result_line(summary)
    values = [m["value"] for m in line["metrics"].values()]
    if summary["failed"] == summary["attempted"] or any(not math.isfinite(v) for v in values):
        print("error: no repetition produced every metric", file=sys.stderr)
        return 1
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(WORK / f"result-{name}.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
