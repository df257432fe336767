"""One benchmark repetition in a fresh process; started by run.py.

The process imports the package from the checkout's ``src``, builds the
workload's inputs (this is set-up), optionally installs the tracing
wrappers, runs the user path once, reads back the figures the checks need
from the run's small JSON artifacts, and writes one JSON result file.  Peak
memory is read by the parent from this process's rusage; the checks that
need the package (oracle, bandwidth cross-check) run in checks.py, in a
process of their own.  The per-layer figures those checks give
(``free_bvp.*``, ``commutators.worst_shift``) are added by the parent.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PICARD_WORKLOADS = ("coupled-benchmark", "decoupled-oracle")


def _parse() -> argparse.Namespace:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--result", required=True)
    return ap.parse_args()


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _picard_results(out: Path) -> dict:
    """Accuracy, monitor verdicts and ratios, solve time and horizon from the run's artifacts."""
    report = _read_json(out / "report.json")
    pic = report["picard"]
    delta = pic["delta"]
    rhos = pic["contraction_factors"]
    accuracy = {
        "converged": pic["converged"],
        "sweeps": pic["iterations"],
        "max_rho": max(rhos) if rhos else 0.0,
        "residual_sup": pic["residual_sup"],
        "boundary_residual_rel": max(pic["boundary_residual_low"], pic["boundary_residual_high"]) / delta,
        "leakage_rel": pic["final_leakage"] / delta,
        "delta": delta,
    }
    return {
        "accuracy": accuracy,
        "verdicts": {e["name"]: e["verdict"] for e in report["estimates"]},
        "ratios": {e["name"]: e["ratio"] for e in report["estimates"]},
        "solve_s": _read_json(out / "timings.json")["solve_s"],
        "horizon": report["horizon"]["horizon"],
    }


def _commutator_accuracy(out: Path) -> dict:
    """Criterion 07 from the run's summary: finite ratios, no skipped trials, grid shift.

    The bandwidth cross-check runs in its own process (checks.py band).
    """
    import math

    summary = _read_json(out / "bench-summary.json")["estimates"]
    return {
        "all_finite": all(math.isfinite(e["max_ratio"]) and e["max_ratio"] > 0 for e in summary),
        "skipped": sum(e["skipped"] for e in summary),
        "grid_shift": max(abs(e["stability_factor"] - 1.0) for e in summary),
        "ensembles": len(summary),
    }


def _artifact_totals(out: Path) -> tuple[int, int]:
    files = [p for p in out.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def _layer_metrics(tracer, res: dict, sc, settings) -> dict:
    """Per-layer numbers of one traced run, from spans, counters and artifacts."""
    dur = tracer.durations()
    self_s = tracer.self_times()
    calls = tracer.span_counts()
    cnt = tracer.counts
    acc = res["accuracy"]
    ratios = res.get("ratios", {})
    n_lin = calls.get("stepper.solve_linear", 0)
    lin_s = dur.get("stepper.solve_linear", 0.0)
    fft_calls = cnt.get("spectral.fft_calls", 0)
    est_s = dur.get("commutators.estimate_constant", 0.0)
    stack_mb = 0.0
    if sc is not None:
        steps = sc.stepper.resolve_steps(res["horizon"])
        stack_mb = (steps + 1) * sc.grid.n * 16 / 2**20
    trials = 0
    if settings is not None:
        n_lm = len(settings["lm"].split(";"))
        trials = 2 * settings["trials"] * n_lm * len(settings["p"])   # doubled-grid reruns
    return {
        "cli.import_s": res["import_s"],
        "cli.build_scenario_s": res["build_s"],
        "coefficients.eval_calls": cnt.get("coefficients.eval_calls", 0),
        "coefficients.eval_s": cnt.get("coefficients.eval_s", 0.0),
        "coefficients.norm_bundle_s": dur.get("coefficients.norm_bundle", 0.0),
        "coefficients.norm_bundle_nodes": cnt.get("coefficients.norm_bundle_nodes", 0),
        "stepper.solve_linear_calls": n_lin,
        "stepper.solve_linear_s": lin_s,
        "stepper.march_s": lin_s / n_lin if n_lin else 0.0,
        "stepper.steps_per_s": cnt.get("stepper.steps", 0) / lin_s if lin_s else 0.0,
        "picard.sweeps": acc.get("sweeps", 0),
        "picard.self_s": self_s.get("picard.picard_solve", 0.0),
        "picard.pde_residual_s": dur.get("picard.pde_residual", 0.0),
        "picard.assemble_s": dur.get("picard.assemble", 0.0),
        "picard.stack_mb": stack_mb,
        "picard.leakage_rel": acc.get("leakage_rel", 0.0),
        "picard.max_rho": acc.get("max_rho", 0.0),
        "picard.residual_sup": acc.get("residual_sup", 0.0),
        "picard.boundary_residual_rel": acc.get("boundary_residual_rel", 0.0),
        "spectral.fft_calls": fft_calls,
        "spectral.fft_rows": cnt.get("spectral.fft_rows", 0),
        "spectral.fft_rows_per_call": cnt.get("spectral.fft_rows", 0) / fft_calls if fft_calls else 0.0,
        "spectral.fft_s": cnt.get("spectral.fft_s", 0.0),
        "spectral.fft_gflop": cnt.get("spectral.fft_flop", 0.0) / 1e9,
        "spectral.fft_bytes": cnt.get("spectral.fft_bytes", 0.0),
        "estimates.monitors_s": dur.get("estimates.monitors", 0.0),
        "estimates.energy_s": dur.get("estimates.energy", 0.0),
        "estimates.smoothing_s": dur.get("estimates.smoothing", 0.0),
        "estimates.bootstrap_s": dur.get("estimates.bootstrap", 0.0),
        "estimates.energy_minus_ratio": ratios.get("energy[-]", 0.0),
        "estimates.energy_plus_ratio": ratios.get("energy[+]", 0.0),
        "estimates.smoothing_c": ratios.get("weighted-smoothing", 0.0),
        "estimates.bootstrap_ratio": ratios.get("bootstrap", 0.0),
        "fieldio.write_s": dur.get("fieldio.write", 0.0),
        "fieldio.files_written": res["files_written"],
        "fieldio.bytes_written": res["bytes_written"],
        "commutators.estimate_constant_s": est_s,
        "commutators.trials_per_s": trials / est_s if est_s else 0.0,
        "trace.run_s": res["run_s"],
    }


def main() -> int:
    args = _parse()
    out = Path(args.out_dir)
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import schrobvp.cli as cli

    import_s = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported schrobvp from {cli.__file__}, not from the checkout")

    import workloads

    t1 = time.perf_counter()
    sc = settings = None
    if args.workload in PICARD_WORKLOADS:
        raw = workloads.scenario(args.workload, args.seed, bool(args.smoke))
        sc = cli.build_scenario(raw)
    else:
        settings = workloads.commutator_settings(bool(args.smoke))
    t_built = time.monotonic()
    res = {
        "t_built": t_built,
        "import_s": import_s,
        "build_s": time.perf_counter() - t1,
    }
    if args.mode == "setup":
        return _write(args.result, res)

    import numpy as np

    res["env"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "sympy": _version("sympy"),
        "fft_backend": np.fft.fft.__module__,
    }
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    if sc is not None:
        def user_path():
            return cli.run_picard_scenario(raw, str(out))
    else:
        argv = [
            "commutator-bench", "--out-dir", str(out), "--seed", str(args.seed),
            "--operator", settings["operator"], "--lm", settings["lm"], "--p", settings["p_arg"],
            "--trials", str(settings["trials"]), "--grid-n", str(settings["n"]),
            "--grid-L", repr(settings["L"]), "--bandwidth", str(settings["bandwidth"]),
        ]

        def user_path():
            return cli.main(argv)

    if tracer is not None:
        user_path = tracer.span("cli.run", user_path)
    t_run = time.perf_counter()
    try:
        res["exit_code"] = user_path()
    except Exception as exc:  # a raising run is a failed run, reported to the parent
        res["run_s"] = time.perf_counter() - t_run
        res["error"] = f"{type(exc).__name__}: {exc}"
        return _write(args.result, res)
    res["run_s"] = time.perf_counter() - t_run
    if tracer is not None:
        tracer.uninstall()
    res["files_written"], res["bytes_written"] = _artifact_totals(out)

    try:
        if sc is not None:
            res.update(_picard_results(out))
        else:
            res["solve_s"] = _read_json(out / "timings.json")["total_s"]
            res["accuracy"] = _commutator_accuracy(out)
    except (OSError, KeyError, ValueError) as exc:  # missing or malformed artifacts fail the run
        res["error"] = f"artifact check: {type(exc).__name__}: {exc}"
        return _write(args.result, res)

    if tracer is not None:
        res["layers"] = _layer_metrics(tracer, res, sc, settings)
        res["spans"] = tracer.dump()
    return _write(args.result, res)


def _version(name: str) -> str:
    from importlib import metadata

    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return "absent"


def _write(path: str, res: dict) -> int:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(res, fh)
    os.replace(tmp, path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
