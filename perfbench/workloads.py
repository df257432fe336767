"""Workload inputs and correctness checks.

Standard library only: the parent process imports this module without
importing the package, and the child imports it only after its own import
of the package has been timed.

A workload's inputs come from its seed alone.  Seed 0 is the bundled preset
exactly, so its numbers match the acceptance tests.  Any other seed draws
the Gaussian centre and width of both endpoint data from fixed ranges
around the preset values (the commutator ensemble feeds the seed to
``estimate_constant`` instead).
"""

from __future__ import annotations

import math
import random

# Why each workload exists; the same text is in BENCHMARK.json.
WORKLOADS = {
    "coupled-benchmark": (
        "schro picard on the benchmark preset (n=2048, 1024 steps, horizon auto-selected, "
        "all monitors, artifacts): the headline solve, every solver layer busy"
    ),
    "decoupled-oracle": (
        "constant-coefficient decoupled preset (n=512, 512 steps, explicit horizon) checked "
        "against the closed-form free_bvp oracle; small grid, so per-call overhead dominates"
    ),
    "commutator-ensemble": (
        "schro commutator-bench defaults: 100-trial seeded ensembles with doubled-grid reruns; "
        "many single-slice FFTs and no stacks, the only commutators workload"
    ),
}

# (centre range, width range) of the Gaussian data for seeds other than 0.
# Preset values: f = gaussian:0,1.5 and g = gaussian:1,2.  The benchmark
# preset's fifth sweep lands at 10^-8.02 delta against tol 1e-8, so a g
# centred right of x = 1 or wider than 2 needs a sixth sweep and 20% more
# solve time; these ranges keep every draw at the preset's 5 sweeps, so the
# seed varies the data and not the amount of work.
_DATA_RANGES = {
    "f": ((-0.5, 0.5), (1.3, 1.7)),
    "g": ((0.25, 0.9), (1.6, 1.95)),
}

# Commutator ensemble settings: the schro commutator-bench defaults.
COMMUTATOR = {
    "operator": "+",
    "lm": "0,1;1,1;0,2",
    "p": (4 / 3, 2.0, 4.0),
    "p_arg": "4/3,2,4",
    "trials": 100,
    "n": 2048,
    "L": 8 * math.pi,
    "bandwidth": 64,
    "wide_bandwidth": 128,
}

# Smoke sizes, used by the self-test only: the same code paths on tiny grids.
_SMOKE_PICARD = {"grid": {"n": 128}, "stepper": {"n_steps": 32}}
_SMOKE_COMMUTATOR = {"trials": 20, "n": 512, "bandwidth": 32, "wide_bandwidth": 64}

# Metric name -> unit.  End-to-end metrics come from untraced runs, per-layer
# metrics from traced runs; a layer a workload does not run reports 0.
END_TO_END = {
    "setup_s": "s",          # process start to a built scenario, median of >= 7
    "run_s": "s",            # the whole user path: solve, monitors, artifacts
    "solve_s": "s",          # picard_solve, or the estimate_constant ensembles
    "peak_rss_mb": "MiB",    # peak resident memory of the repetition's process
}
PER_LAYER = {
    "cli.import_s": "s",
    "cli.build_scenario_s": "s",
    "coefficients.eval_calls": "count",
    "coefficients.eval_s": "s",
    "coefficients.norm_bundle_s": "s",
    "coefficients.norm_bundle_nodes": "count",
    "stepper.solve_linear_calls": "count",
    "stepper.solve_linear_s": "s",
    "stepper.march_s": "s",
    "stepper.steps_per_s": "1/s",
    "picard.sweeps": "count",
    "picard.self_s": "s",
    "picard.pde_residual_s": "s",
    "picard.assemble_s": "s",
    "picard.stack_mb": "MiB",
    "picard.leakage_rel": "ratio",
    "picard.max_rho": "ratio",
    "picard.residual_sup": "norm",
    "picard.boundary_residual_rel": "ratio",
    "spectral.fft_calls": "count",
    "spectral.fft_rows": "count",
    "spectral.fft_rows_per_call": "rows/call",
    "spectral.fft_s": "s",
    "spectral.fft_gflop": "GFLOP",
    "spectral.fft_bytes": "B",
    "estimates.monitors_s": "s",
    "estimates.energy_s": "s",
    "estimates.smoothing_s": "s",
    "estimates.bootstrap_s": "s",
    "estimates.energy_minus_ratio": "ratio",
    "estimates.energy_plus_ratio": "ratio",
    "estimates.smoothing_c": "ratio",
    "estimates.bootstrap_ratio": "ratio",
    "fieldio.write_s": "s",
    "fieldio.files_written": "count",
    "fieldio.bytes_written": "B",
    "free_bvp.solve_free_s": "s",
    "free_bvp.oracle_rel_err": "ratio",
    "commutators.estimate_constant_s": "s",
    "commutators.trials_per_s": "1/s",
    "commutators.worst_shift": "ratio",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}

# Acceptance bounds (criteria 03, 04 and 07 of the acceptance suite).  The
# commutator shift bounds the run's own grid shift and the bandwidth shift
# of the cross-check at seed 3 (checks.py band).
BOUNDS = {
    "max_rho": 0.5,
    "residual_sup": 1e-6,
    "boundary_rel": 1e-8,
    "leakage_rel": 1e-6,
    "oracle_rel": 1e-6,
    "commutator_shift": 0.10,
}


def _gaussian_spec(rng: random.Random, side: str) -> str:
    (c_lo, c_hi), (w_lo, w_hi) = _DATA_RANGES[side]
    centre = rng.uniform(c_lo, c_hi)
    width = rng.uniform(w_lo, w_hi)
    return f"gaussian:{centre:.6f},{width:.6f}"


def scenario(workload: str, seed: int, smoke: bool = False) -> dict:
    """The scenario dict one picard workload hands to the package."""
    preset = {"coupled-benchmark": "benchmark", "decoupled-oracle": "decoupled"}[workload]
    raw: dict = {"preset": preset}
    if seed != 0:
        rng = random.Random(seed)
        raw["data"] = {"f": _gaussian_spec(rng, "f"), "g": _gaussian_spec(rng, "g")}
    if smoke:
        raw.update(_SMOKE_PICARD)
    return raw


def commutator_settings(smoke: bool = False) -> dict:
    settings = dict(COMMUTATOR)
    if smoke:
        settings.update(_SMOKE_COMMUTATOR)
    return settings


def check(workload: str, result: dict, bounds: dict = BOUNDS) -> list[str]:
    """Every missed bound of one run, as readable strings; empty when it passed."""
    misses = []
    if result.get("error"):
        return [f"raised: {result['error']}"]
    if result.get("exit_code") != 0:
        misses.append(f"exit code {result.get('exit_code')}")
    for name, verdict in result.get("verdicts", {}).items():
        if verdict not in ("pass", "not-applicable"):
            misses.append(f"monitor {name} verdict {verdict}")

    def need(label: str, value: float, limit: float) -> None:
        if not (value <= limit):  # also catches NaN
            misses.append(f"{label} {value:.3g} > {limit:.3g}")

    acc = result.get("accuracy", {})
    if workload == "commutator-ensemble":
        if not acc.get("all_finite"):
            misses.append("non-finite commutator ratio")
        if acc.get("skipped", 1) != 0:
            misses.append(f"{acc.get('skipped')} skipped trials")
        need("grid shift", acc.get("grid_shift", math.inf), bounds["commutator_shift"])
        need("band shift", acc.get("band_shift", math.inf), bounds["commutator_shift"])
        return misses

    if not acc.get("converged"):
        misses.append("picard did not converge")
    need("max rho", acc.get("max_rho", math.inf), bounds["max_rho"])
    if workload == "decoupled-oracle":
        need("oracle rel err", acc.get("oracle_rel_err", math.inf), bounds["oracle_rel"])
    else:
        need("residual sup", acc.get("residual_sup", math.inf), bounds["residual_sup"])
        need("boundary rel", acc.get("boundary_residual_rel", math.inf), bounds["boundary_rel"])
        need("leakage rel", acc.get("leakage_rel", math.inf), bounds["leakage_rel"])
    return misses
