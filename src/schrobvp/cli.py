"""Scenario runner: config parsing, solver orchestration, artifact emission.

Subcommands
  free-bvp           closed-form two-endpoint solve, constant coefficients
  linear             one viscous sub-problem
  picard             the coupled two-endpoint solver on a scenario file
  verify-estimates   re-run the bound monitors on a stored picard run
  commutator-bench   seeded ensembles for the commutator bound constants
  mizohata           drift-integrability index of a first-order coefficient

Artifacts are JSON for configs and reports, CSV for time series, and the
field dump formats for slices; every file is written atomically (temp file
plus rename), so a failed run never leaves a partial artifact, and only
after the run's inputs are checked and its compute is done, so the run
directory appears with its first file and a rejected or failed run leaves
none (``_finish``).  Reports are
deterministic given the same scenario and seed: wall-clock numbers go to a
separate timings.json that the determinism guarantee excludes.

Exit codes: 0 on success, 2 when an estimate monitor reports a failed
bound, 1 on any error (bad config, divergence, I/O).
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .coefficients import (
    CoefficientField,
    NormBundle,
    drift_samples,
    mizohata_index,
    norm_bundle,
    select_horizon,
)
from .commutators import estimate_constant
from .errors import ConfigError, ConvergenceError, ValidationError, require_horizon, typed
from .estimates import (
    EstimateReport,
    bootstrap_diagnostics,
    energy_monitor,
    weighted_smoothing_monitor,
)
from .fieldio import (
    atomic_write_text,
    dump_field_binary,
    dump_field_csv,
    field_binary_bytes,
    load_field,
    publish_directory,
    write_norms_csv,
)
from .free_bvp import FreeBvpData, solve_free, verify_free_estimate
from .picard import BvpProblem, assemble_solution, coupling_norms, picard_solve
from .presets import build_datum, load_preset, preset_names, resolve_scenario
from .spectral import Grid1D, SpaceTimeField, SpectralField, row_blocks
from .stepper import LinearProblem, OperatorTable, StepperConfig, solve_linear
from .weights import WeightProfile, build_weight

_SECTION_KEYS = {
    "grid": {"n", "L"},
    "weight": {"beta", "mode"},
    "coefficients": {"a", "W", "lambda"},
    "data": {"f", "g"},
    "stepper": {"epsilon", "n_steps"},
    "estimates": {"bootstrap"},
}
_TOP_KEYS = {*_SECTION_KEYS, "horizon", "tol", "m_max", "times", "out_dir", "seed"}
# a setting a scenario leaves out takes the library's own default, written there once
_DEFAULTS = {key: inspect.signature(call).parameters[name].default for key, call, name in (
    ("weight.mode", build_weight, "mode"), ("coefficients.lambda", CoefficientField, "ellipticity"),
    ("stepper.epsilon", StepperConfig, "epsilon"),
    ("tol", picard_solve, "tol"), ("m_max", picard_solve, "m_max"),
)}

# carrier slices kept for verify-estimates, uniformly spaced: steps / 128 + 1
# as a rule, never fewer than 17 when a finer stride allows it, never more than 513
_STORED_SLICE_CAP = 128
_STORED_SLICE_FLOOR = 16
_STORED_SLICE_CEILING = 512
_HORIZON_PROBE = (0.25, 10001)   # window and resolution for automatic selection
# probe nodes per norm_bundle call: the smallest block past which the probe's time is flat (README)
_PROBE_BLOCK = 64


def _check_keys(d: dict, allowed: set[str], where: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object, got {d!r}")
    for key in d:
        if key not in allowed:
            raise ConfigError(f"unknown config key {key!r} in {where}")


def _number_list(value: object, key: str) -> list[float]:
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a JSON list of numbers, got {value!r}")
    return [typed(v, float, key) for v in value]


def _optional(value: object, kind: type, key: str):
    return None if value is None else typed(value, kind, key)


# --- scenario construction --------------------------------------------------

@dataclass
class ScenarioConfig:
    """Validated scenario: constructed objects plus the resolved dict echo."""

    raw: dict
    grid: Grid1D
    weight: WeightProfile
    coeffs: CoefficientField
    f: SpectralField
    g: SpectralField
    stepper: StepperConfig
    bootstrap: bool
    horizon: float | None
    tol: float
    m_max: int
    times: list[float] = field(default_factory=list)
    out_dir: str | None = None
    seed: int = 0

    @property
    def beta(self) -> float:
        """``weight.beta``, for readers outside the package (``perfbench/checks.py``)."""
        return self.weight.beta


def load_scenario_source(source: str) -> dict:
    """A scenario dict from a JSON file path or a bundled preset name."""
    if os.path.exists(source):
        with open(source, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ConfigError(f"{source}: scenario file must hold a JSON object")
        return raw
    if source in preset_names():
        return {"preset": source}
    raise ConfigError(
        f"scenario {source!r} is neither a file nor a bundled preset "
        f"({', '.join(preset_names())})"
    )


def build_scenario(raw: dict) -> ScenarioConfig:
    """Validate every key and construct the solver objects.

    All grid, weight, and coefficient constraints are checked here, before
    any compute; an unknown key anywhere is an error naming that key.
    """
    resolved = resolve_scenario(raw)
    _check_keys(resolved, _TOP_KEYS, "scenario")

    grid_spec = resolved.get("grid")
    if not isinstance(grid_spec, dict):
        raise ConfigError("scenario needs a grid section {n, L}")
    _check_keys(grid_spec, _SECTION_KEYS["grid"], "grid")
    if "n" not in grid_spec or "L" not in grid_spec:
        raise ConfigError("grid section needs both n and L")
    grid = Grid1D(typed(grid_spec["n"], int, "grid.n"), typed(grid_spec["L"], float, "grid.L"))

    weight_spec = resolved.get("weight")
    if not isinstance(weight_spec, dict) or "beta" not in weight_spec:
        raise ConfigError("scenario needs a weight section {beta, mode}")
    _check_keys(weight_spec, _SECTION_KEYS["weight"], "weight")
    weight = build_weight(
        typed(weight_spec["beta"], float, "weight.beta"),
        grid,
        mode=typed(weight_spec.get("mode", _DEFAULTS["weight.mode"]), str, "weight.mode"),
    )

    coeff_spec = resolved.get("coefficients")
    if not isinstance(coeff_spec, dict):
        raise ConfigError("scenario needs a coefficients section {a, W, lambda}")
    _check_keys(coeff_spec, _SECTION_KEYS["coefficients"], "coefficients")
    if "a" not in coeff_spec or "W" not in coeff_spec:
        raise ConfigError("coefficients section needs both a and W")
    lam = typed(coeff_spec.get("lambda", _DEFAULTS["coefficients.lambda"]), float, "coefficients.lambda")

    horizon = _optional(resolved.get("horizon"), float, "horizon")
    if horizon is not None:
        require_horizon(horizon)
    coeffs = CoefficientField(coeff_spec["a"], coeff_spec["W"], ellipticity=lam)

    data_spec = resolved.get("data")
    if not isinstance(data_spec, dict):
        raise ConfigError("scenario needs a data section {f, g}")
    _check_keys(data_spec, _SECTION_KEYS["data"], "data")
    if "f" not in data_spec or "g" not in data_spec:
        raise ConfigError("data section needs both f and g")
    seed = typed(resolved.get("seed", 0), int, "seed")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    f = build_datum(typed(data_spec["f"], str, "data.f"), grid, "-", seed=seed)
    g = build_datum(typed(data_spec["g"], str, "data.g"), grid, "+", seed=seed + 1)

    stepper_spec = resolved.get("stepper", {})
    _check_keys(stepper_spec, _SECTION_KEYS["stepper"], "stepper")
    stepper = StepperConfig(
        epsilon=typed(stepper_spec.get("epsilon", _DEFAULTS["stepper.epsilon"]), float, "stepper.epsilon"),
        n_steps=stepper_spec.get("n_steps"),
    )

    est_spec = resolved.get("estimates", {})
    _check_keys(est_spec, _SECTION_KEYS["estimates"], "estimates")
    bootstrap = typed(est_spec.get("bootstrap", lam > 0), bool, "estimates.bootstrap")

    tol = typed(resolved.get("tol", _DEFAULTS["tol"]), float, "tol")
    if not tol > 0:
        raise ConfigError(f"tol must be positive, got {tol:g}")
    m_max = typed(resolved.get("m_max", _DEFAULTS["m_max"]), int, "m_max")
    if m_max < 1:
        raise ConfigError(f"m_max must be at least 1, got {m_max}")
    times = _number_list(resolved.get("times", []), "times")
    return ScenarioConfig(
        raw=resolved,
        grid=grid,
        weight=weight,
        coeffs=coeffs,
        f=f,
        g=g,
        stepper=stepper,
        bootstrap=bootstrap,
        horizon=horizon,
        tol=tol,
        m_max=m_max,
        times=times,
        out_dir=_optional(resolved.get("out_dir"), str, "out_dir"),
        seed=seed,
    )


def resolve_horizon(sc: ScenarioConfig, flag_T: float | None) -> tuple[float, bool, dict]:
    """Final horizon, override flag, and the selection trace for the report.

    Only ``--T`` (``flag_T``) overrides the admissibility check; a scenario's
    explicit ``horizon`` must pass it.

    Without an explicit horizon, the largest admissible node of the
    ``_HORIZON_PROBE`` grid is selected.  The budget integrals are running
    integrals of non-negative rates, so the admissible nodes form a prefix
    of the probe: it is evaluated one block of ``_PROBE_BLOCK`` nodes at a
    time (neighbouring blocks share a node) and stops at the first block
    that holds an inadmissible node.  The rates are per-node samples and the
    integrals are taken over the whole stitched prefix, so the selection is
    the whole probe's, bit for bit.  The blocks share one sample buffer.
    The coefficients are validated only on the nodes evaluated, the
    selected horizon and at most one block beyond it; ``picard_solve``
    validates them again on its grid over [0, T].
    """
    if flag_T is not None:
        require_horizon(flag_T)
        return float(flag_T), True, {"source": "override-flag", "horizon": float(flag_T)}
    if sc.horizon is not None:
        return sc.horizon, False, {"source": "explicit", "horizon": sc.horizon}
    window, nodes = _HORIZON_PROBE
    probe = np.linspace(0.0, window, nodes)
    step = _PROBE_BLOCK - 1
    K, c = np.empty((2, nodes))
    work = np.empty((_PROBE_BLOCK, sc.grid.n))   # every block's samples (see norm_bundle)
    for lo in range(0, nodes - 1, step):
        hi = min(lo + step + 1, nodes)
        block = norm_bundle(sc.coeffs, sc.weight.sup_logderiv, probe[lo:hi], sc.grid, work=work)
        K[lo:hi], c[lo:hi] = block.coupling_rate, block.energy_rate
        sel = select_horizon(NormBundle.from_rates(probe[:hi], K[:hi], c[:hi]))
        if sel.index < hi - 1:
            break
    trace = {"source": "selected", **asdict(sel)}
    return sel.horizon, False, trace


# --- artifact helpers -------------------------------------------------------

def _out_dir(flag: str | None, scenario_value: str | None = None) -> Path:
    """The run directory's path; nothing is created here (see ``_finish``)."""
    chosen = flag or scenario_value or os.environ.get("SCHRO_OUT_DIR")
    if not chosen:
        raise ConfigError("no output directory: give --out-dir or set SCHRO_OUT_DIR")
    return Path(chosen)


def _finish(out: Path, files: dict, timings: dict | None = None, report: str = "report.json") -> None:
    """Write the rest of a run into ``out``, once its inputs are checked and its compute is done.

    Nothing makes ``out`` before a run's first file (fieldio's writers create
    the parent), so a rejected or failed run leaves no directory.  ``files``
    maps names to text or to JSON values; ``report`` comes after the others,
    with the package versions and, for ``report.json`` with timings, a
    pointer to ``timings.json``, which is written last.
    """
    extra = {"versions": {"schrobvp": __version__, "numpy": np.__version__,
                          "python": platform.python_version()}}
    if timings is not None and report == "report.json":
        extra["timing"] = {"file": "timings.json"}
    ordered = sorted(files.items(), key=lambda item: item[0] == report)   # the report last
    if timings is not None:
        ordered.append(("timings.json", timings))
    for name, body in ordered:
        if name == report:
            body = {**body, **extra}
        text = body if isinstance(body, str) else json.dumps(body, sort_keys=True, indent=2) + "\n"
        atomic_write_text(out / name, text)


def _dump_field(f: SpectralField, path_base: Path, fmt: str) -> str:
    if fmt == "csv":
        dump_field_csv(f, path_base.with_suffix(".csv"))
        return path_base.with_suffix(".csv").name
    dump_field_binary(f, path_base.with_suffix(".spf"))
    return path_base.with_suffix(".spf").name


def _storage_stride(n_slices: int) -> int:
    """Stride of the stored carrier slices: a divisor of the step count, so they are uniform.

    The smallest divisor >= steps / 128, which keeps steps / stride + 1 <= 129
    slices (129 on ``decoupled``, 65 on ``benchmark``).  When that leaves
    fewer than 17 (a step count with no divisor in [steps / 128, steps), a
    prime such as 131 or 257), the largest divisor below steps / 128
    instead, which may keep up to 513; a step count that needs more (1031)
    is a ConfigError naming n_steps, raised before the solve.
    """
    steps = n_slices - 1
    low = max(1, math.ceil(steps / _STORED_SLICE_CAP))
    stride = next(s for s in range(low, steps + 1) if steps % s == 0)
    if steps // stride < _STORED_SLICE_FLOOR and low > 1:
        stride = next(s for s in range(low - 1, 0, -1) if steps % s == 0)
        if steps // stride > _STORED_SLICE_CEILING:
            raise ConfigError(
                f"n_steps = {steps} has no divisor that keeps between {_STORED_SLICE_FLOOR + 1} and "
                f"{_STORED_SLICE_CEILING + 1} uniformly spaced slices for verify-estimates; choose a "
                f"step count with a divisor near n_steps / {_STORED_SLICE_CAP}"
            )
    return stride


def _store_carriers(run_dir: Path, vp: SpaceTimeField, vm: SpaceTimeField) -> dict:
    """Decimated carrier slices for later re-verification; returns the index.

    The slices are transformed a row block at a time, and every slice file
    and ``times.csv`` are published as one fresh ``fields/`` directory.
    """
    stride = _storage_stride(len(vp.times))
    times = vp.times[::stride]
    rows = ["index,t"] + [f"{j},{t:.17g}" for j, t in enumerate(times)]

    def entries():
        for block in row_blocks(len(times), vp.grid.n):
            stored = slice(block.start * stride, block.stop * stride, stride)
            for name, carrier in (("vplus", vp), ("vminus", vm)):
                for j, values in zip(range(block.start, block.stop), carrier.block(stored)):
                    yield f"{name}_{j:04d}.spf", field_binary_bytes(carrier.grid, values)
        yield "times.csv", ("\n".join(rows) + "\n").encode("utf-8")

    publish_directory(run_dir / "fields", entries())
    return {"stride": stride, "count": len(times)}


def _load_carriers(run_dir: Path, grid: Grid1D) -> tuple[SpaceTimeField, SpaceTimeField]:
    fields_dir = run_dir / "fields"
    table = fields_dir / "times.csv"
    if not table.exists():
        raise ConfigError(f"{run_dir} has no stored carrier slices (fields/times.csv missing)")
    raw = np.genfromtxt(table, delimiter=",", skip_header=1, dtype=np.float64, ndmin=2)
    times = raw[:, 1]
    stacks = {"vplus": [], "vminus": []}
    for name, stack in stacks.items():
        for j in range(len(times)):
            f = load_field(fields_dir / f"{name}_{j:04d}.spf")
            if f.grid != grid:
                raise ValidationError(f"stored slice {name}_{j:04d} grid disagrees with the scenario")
            stack.append(f.values)
    vp = SpaceTimeField(grid, times, np.array(stacks["vplus"]))
    vm = SpaceTimeField(grid, times, np.array(stacks["vminus"]))
    return vp, vm


def _require_dump_times(times: list[float], horizon: float) -> None:
    """Raise ConfigError for a requested dump time outside [0, horizon], before any solve."""
    for t in times:
        if not -1e-12 <= t <= horizon + 1e-12:   # NaN fails too
            raise ConfigError(f"requested dump time {t:g} outside [0, {horizon:g}]")


def _dump_requested_times(
    run_dir: Path, sc: ScenarioConfig, asm, fmt: str
) -> list[dict]:
    """Assembled-field dumps nearest to each requested time (checked by
    ``_require_dump_times`` before the solve)."""
    if not sc.times:
        return []
    dumps_dir = run_dir / "dumps"
    entries = []
    times = asm.w.times
    for j, t in enumerate(sc.times):
        i = int(np.argmin(np.abs(times - t)))
        names = {
            "v": _dump_field(asm.v_slice(i), dumps_dir / f"v_{j:04d}", fmt),
            "u": _dump_field(asm.u_slice(i), dumps_dir / f"u_{j:04d}", fmt),
            "w": _dump_field(asm.w.slice(i), dumps_dir / f"w_{j:04d}", fmt),
        }
        entries.append({"requested_t": t, "stored_t": float(times[i]), "files": names})
    return entries


# --- estimate orchestration -------------------------------------------------

def run_monitors(
    sc: ScenarioConfig,
    vp: SpaceTimeField,
    vm: SpaceTimeField,
    w_stack: SpaceTimeField,
    table: OperatorTable,
    bundle: NormBundle,
) -> list[EstimateReport]:
    """The estimate monitors on one converged pair of carriers, reading the
    operator table (which carries the coefficients and weight) and rate bundle
    on their times (a solve's report holds both):
    the two energy monitors and weighted smoothing always, the bootstrap
    diagnostics when the scenario's ``estimates.bootstrap`` is on.

    The energy monitors read the coupling sources' norm series only, one
    block at a time: no source stack is built."""
    lam_p, lam_m = coupling_norms(vp, vm, table)
    reports = [
        energy_monitor(vm, lam_m, "-", table, bundle),
        energy_monitor(vp, lam_p, "+", table, bundle),
        weighted_smoothing_monitor(w_stack, table),
    ]
    if sc.bootstrap:
        reports.append(bootstrap_diagnostics(w_stack, table, bundle))
    return reports


def _estimates_exit(reports: list[EstimateReport]) -> int:
    return 2 if any(r.verdict == "fail" for r in reports) else 0


def _estimate_files(reports: list[EstimateReport]) -> dict:
    rows = ["name,lhs,rhs,ratio,verdict"]
    for r in reports:
        rows.append(f"{r.name},{r.lhs:.17g},{r.rhs:.17g},{r.ratio:.17g},{r.verdict}")
    return {"estimates.json": [r.to_dict() for r in reports], "estimates.csv": "\n".join(rows) + "\n"}


# --- subcommands ------------------------------------------------------------

def _parse_times_arg(text: str | None, horizon: float) -> np.ndarray:
    if text is None:
        return np.linspace(0.0, horizon, 65)
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise ConfigError(f"--times expects a count or a comma list of times, got {text!r}")
    kind = int if len(tokens) == 1 and tokens[0].isdigit() else float
    vals = []
    for token in tokens:
        try:
            vals.append(kind(token))
        except ValueError:
            raise ConfigError(f"--times expects a count or a comma list of times, got {token!r}") from None
    if kind is float:
        return np.array(vals)
    if vals[0] < 2:
        raise ConfigError("need at least 2 output times")
    return np.linspace(0.0, horizon, vals[0])


def cmd_free_bvp(args: argparse.Namespace) -> int:
    require_horizon(args.T)   # before the output times are spread over it
    out = _out_dir(args.out_dir)
    grid = Grid1D(args.grid_n, args.grid_L)
    f = build_datum(args.datum_f, grid, "-")
    g = build_datum(args.datum_g, grid, "+")
    times = _parse_times_arg(args.times, args.T)
    if np.any(np.diff(times) <= 0):
        raise ConfigError(f"--times must be increasing, got {args.times!r}")
    data = FreeBvpData(f=f, g=g, beta=args.beta, horizon=args.T, times=times)
    t0 = time.perf_counter()
    # the closed form at each requested time on its own, so the times need not be uniform
    slices = [solve_free(replace(data, times=data.times[j : j + 1])) for j in range(len(times))]
    est = verify_free_estimate(slices, data)
    elapsed = time.perf_counter() - t0

    norms = np.concatenate([v.norm_series() for v in slices])
    write_norms_csv(out / "norms.csv", data.times, {"norm_v": norms})
    for j, v in enumerate(slices):
        _dump_field(v.slice(0), out / "dumps" / f"v_{j:04d}", args.field_format)
    report = {
        "config": {
            "beta": args.beta, "T": args.T,
            "grid": {"n": grid.n, "L": grid.half_length},
            "datum_f": args.datum_f, "datum_g": args.datum_g,
        },
        "estimate": asdict(est),
        "times": [float(t) for t in data.times],
    }
    _finish(out, {"report.json": report}, {"total_s": elapsed})
    ok = est.ratio <= 1.0 + 1e-10
    print(f"free-bvp: sup ratio {est.ratio:.12f} ({'pass' if ok else 'FAIL'}); artifacts in {out}")
    return 0 if ok else 2


def cmd_linear(args: argparse.Namespace) -> int:
    sc = build_scenario(load_scenario_source(args.scenario))
    out = _out_dir(args.out_dir, sc.out_dir)
    horizon, _, trace = resolve_horizon(sc, args.T)
    datum = sc.f if args.direction == "forward" else sc.g
    t0 = time.perf_counter()
    # the march's and the monitor's operator
    table = OperatorTable(sc.coeffs, sc.weight, sc.stepper.time_grid(horizon))
    # sampled before the march: it checks a >= lambda and finiteness at every time
    bundle = norm_bundle(sc.coeffs, sc.weight.sup_logderiv, table.times, sc.grid)
    problem = LinearProblem(direction=args.direction, table=table, source=None, datum=datum)
    sol = solve_linear(problem, sc.stepper)
    sign = "-" if args.direction == "forward" else "+"
    reports = [energy_monitor(sol, None, sign, table, bundle)]
    elapsed = time.perf_counter() - t0

    norms = sol.norm_series()   # measured once: the sup norm is read from it
    write_norms_csv(out / "norms.csv", sol.times, {"norm_v": norms})
    report = {
        "scenario": sc.raw,
        "direction": args.direction,
        "horizon": trace,
        "sup_norm": float(np.max(norms)),
        "datum_norm": datum.norm_l2(),
        "estimates": [r.to_dict() for r in reports],
    }
    _finish(out, {**_estimate_files(reports), "report.json": report}, {"total_s": elapsed})
    code = _estimates_exit(reports)
    print(f"linear: sup norm {report['sup_norm']:.6g}, exit {code}; artifacts in {out}")
    return code


def run_picard_scenario(raw: dict, out_dir: str | None, flag_T: float | None = None,
                        field_format: str = "binary") -> int:
    """One full scenario run: solve, monitor, and write the run directory.

    A run whose sweeps reach ``m_max`` raises ConvergenceError and, like every
    rejected or failed run, writes nothing.
    """
    sc = build_scenario(raw)
    out = _out_dir(out_dir, sc.out_dir)
    horizon, override, trace = resolve_horizon(sc, flag_T)
    _require_dump_times(sc.times, horizon)
    _storage_stride(len(sc.stepper.time_grid(horizon)))   # a step count it cannot store fails here
    problem = BvpProblem(
        f=sc.f, g=sc.g, coeffs=sc.coeffs, weight=sc.weight,
        horizon=horizon, stepper_cfg=sc.stepper, override_horizon=override,
    )
    t0 = time.perf_counter()
    vp, vm, report = picard_solve(problem, tol=sc.tol, m_max=sc.m_max)
    solve_s = time.perf_counter() - t0
    if not report.converged:
        raise ConvergenceError(
            f"no convergence in {sc.m_max} sweeps (last update {report.diff_norms[-1]:.3g})"
        )
    asm = assemble_solution(vp, vm, sc.weight)
    t1 = time.perf_counter()
    monitors = run_monitors(sc, vp, vm, asm.w, report.table, report.bundle)
    estimate_s = time.perf_counter() - t1

    write_norms_csv(
        out / "norms.csv",
        vp.times,
        {
            "norm_vplus": report.carrier_norms[0],
            "norm_vminus": report.carrier_norms[1],
            "norm_w": asm.w_norms,
        },
    )
    storage = _store_carriers(out, vp, vm)
    dumps = _dump_requested_times(out, sc, asm, field_format)
    run_report = {
        "scenario": sc.raw,
        "horizon": trace,
        "picard": report.to_dict(),
        "estimates": [r.to_dict() for r in monitors],
        "storage": storage,
        "dumps": dumps,
    }
    _finish(
        out, {**_estimate_files(monitors), "scenario.json": sc.raw, "report.json": run_report},
        {"solve_s": solve_s, "estimates_s": estimate_s},
    )
    code = _estimates_exit(monitors)
    print(
        f"picard: converged in {report.iterations} sweeps at T={horizon:.6g}, "
        f"residual {report.residual_sup:.3g}, exit {code}; artifacts in {out}"
    )
    return code


def cmd_picard(args: argparse.Namespace) -> int:
    raw = load_scenario_source(args.scenario)
    return run_picard_scenario(raw, args.out_dir, args.T, args.field_format)


def cmd_verify_estimates(args: argparse.Namespace) -> int:
    run_dir = Path(args.run_dir)
    scenario_file = run_dir / "scenario.json"
    if not scenario_file.exists():
        raise ConfigError(f"{run_dir} is not a stored run (scenario.json missing)")
    with open(scenario_file, encoding="utf-8") as fh:
        sc = build_scenario(json.load(fh))
    out = _out_dir(args.out_dir or str(run_dir))
    vp, vm = _load_carriers(run_dir, sc.grid)
    asm = assemble_solution(vp, vm, sc.weight)
    # no solve here: the table a run builds and its bundle, over the stored times
    table = OperatorTable(sc.coeffs, sc.weight, vp.times)
    bundle = norm_bundle(sc.coeffs, sc.weight.sup_logderiv, vp.times, sc.grid)
    reports = run_monitors(sc, vp, vm, asm.w, table, bundle)
    _finish(out, _estimate_files(reports))
    code = _estimates_exit(reports)
    for r in reports:
        print(f"{r.name}: ratio {r.ratio:.6g} [{r.verdict}]")
    return code


def _parse_lm(text: str) -> list[tuple[int, int]]:
    pairs = []
    for token in text.split(";"):
        token = token.strip()
        if not token:
            continue
        try:
            l, m = (int(bit) for bit in token.split(","))
        except ValueError:
            raise ConfigError(
                f"--lm expects integer 'l,m' pairs separated by ';', got {token!r}"
            ) from None
        pairs.append((l, m))
    if not pairs:
        raise ConfigError("--lm gave no (l, m) pairs")
    return pairs


def _parse_p_list(text: str) -> list[float]:
    vals = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        num, slash, den = token.partition("/")
        try:
            num, den = float(num), (float(den) if slash else 1.0)
        except ValueError:
            raise ConfigError(f"--p expects numbers or fractions 'a/b', got {token!r}") from None
        if den == 0.0:
            raise ConfigError(f"--p has a zero denominator in {token!r}")
        vals.append(num / den)
    if not vals:
        raise ConfigError("--p gave no exponents")
    return vals


def cmd_commutator_bench(args: argparse.Namespace) -> int:
    out = _out_dir(args.out_dir)
    grid = Grid1D(args.grid_n, args.grid_L)
    lm_pairs = _parse_lm(args.lm)
    p_list = _parse_p_list(args.p)
    rows = ["operator,l,m,p,trial,ratio"]
    summary = []
    t0 = time.perf_counter()
    table = estimate_constant(
        args.operator,
        lm_pairs,
        grid,
        p=p_list,
        n_trials=args.trials,
        bandwidth=args.bandwidth,
        seed=args.seed,
        check_stability=not args.no_stability,
    )
    for p in p_list:
        for l, m in sorted(set(lm_pairs)):
            est = table[(l, m, p)]
            for trial, ratio in enumerate(est.ratios):
                rows.append(f"{args.operator},{l},{m},{p:.17g},{trial},{ratio:.17g}")
            summary.append(est.to_dict())
    elapsed = time.perf_counter() - t0
    report = {"operator": args.operator, "trials": args.trials, "seed": args.seed, "estimates": summary}
    _finish(out, {"bench.csv": "\n".join(rows) + "\n", "bench-summary.json": report},
            {"total_s": elapsed}, report="bench-summary.json")
    worst = max(e["max_ratio"] for e in summary)
    print(f"commutator-bench: {len(summary)} ensembles, worst ratio {worst:.6g}; artifacts in {out}")
    return 0


def _mizohata_field(args: argparse.Namespace, grid: Grid1D) -> tuple[np.ndarray, str]:
    if args.preset is not None and args.b is not None:
        raise ConfigError("give either --preset or --b, not both")
    if args.preset is not None:
        if args.preset != "benchmark-drift":
            raise ConfigError(f"unknown mizohata preset {args.preset!r}; use benchmark-drift")
        bench = build_scenario(load_preset("benchmark"))
        weight = build_weight(bench.weight.beta, grid, mode="truncated")
        a0 = bench.coeffs.a_values(grid.x, 0.0)
        return -2j * a0 * weight.logderiv, "-2i a(x,0) logderiv(x)"
    if args.b is None:
        raise ConfigError("mizohata needs --b EXPR or --preset NAME")
    return drift_samples(args.b, grid.x), args.b


def cmd_mizohata(args: argparse.Namespace) -> int:
    out = _out_dir(args.out_dir)
    grid = Grid1D(args.grid_n, args.grid_L)
    vals, label = _mizohata_field(args, grid)
    R = args.R if args.R is not None else 0.5 * grid.half_length
    rep = mizohata_index(vals, grid, R)
    write_norms_csv(out / "running.csv", rep.radii, {"running_sup": rep.running_sup})
    report = {
        "b": label,
        "R": R,
        "grid": {"n": grid.n, "L": grid.half_length},
        "sup_value": rep.sup_value,
        "growth_slope": rep.growth_slope,
        "verdict": rep.verdict,
    }
    _finish(out, {"report.json": report})
    print(f"mizohata: verdict {rep.verdict}, sup {rep.sup_value:.6g}, slope {rep.growth_slope:.6g}")
    return 0


# --- argument parsing -------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schro",
        description="Two-endpoint solver and estimate monitors for weighted 1-D Schrodinger evolutions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_free = sub.add_parser("free-bvp", help="closed-form constant-coefficient endpoint solve")
    p_free.add_argument("--beta", type=float, default=1.0)
    p_free.add_argument("--T", type=float, default=0.5)
    p_free.add_argument("--grid-n", type=int, default=2048)
    p_free.add_argument("--grid-L", type=float, default=40.0)
    p_free.add_argument("--datum-f", default="gaussian:0,1.5")
    p_free.add_argument("--datum-g", default="gaussian:1,2")
    p_free.add_argument("--times", default=None, help="comma list of times, or a count")
    p_free.add_argument("--field-format", choices=("binary", "csv"), default="binary")
    p_free.add_argument("--out-dir", default=None)
    p_free.set_defaults(func=cmd_free_bvp)

    p_lin = sub.add_parser("linear", help="one viscous sub-problem from a scenario")
    p_lin.add_argument("--scenario", required=True, help="scenario JSON file or preset name")
    p_lin.add_argument("--direction", choices=("forward", "backward"), default="forward")
    p_lin.add_argument("--T", type=float, default=None, help="horizon override")
    p_lin.add_argument("--out-dir", default=None)
    p_lin.set_defaults(func=cmd_linear)

    p_pic = sub.add_parser("picard", help="coupled two-endpoint solve")
    p_pic.add_argument("--scenario", required=True, help="scenario JSON file or preset name")
    p_pic.add_argument("--T", type=float, default=None,
                       help="horizon override (bypasses the admissibility check, with a warning)")
    p_pic.add_argument("--field-format", choices=("binary", "csv"), default="binary")
    p_pic.add_argument("--out-dir", default=None)
    p_pic.set_defaults(func=cmd_picard)

    p_ver = sub.add_parser("verify-estimates", help="re-run bound monitors on a stored run")
    p_ver.add_argument("--run-dir", required=True)
    p_ver.add_argument("--out-dir", default=None, help="defaults to the run directory")
    p_ver.set_defaults(func=cmd_verify_estimates)

    p_bench = sub.add_parser("commutator-bench", help="seeded commutator-constant ensembles")
    p_bench.add_argument("--operator", choices=("+", "-", "H"), default="+")
    p_bench.add_argument("--lm", default="0,1;1,1;0,2", help="l,m pairs separated by ';'")
    p_bench.add_argument("--p", default="4/3,2,4", help="comma list of Lebesgue exponents")
    p_bench.add_argument("--trials", type=int, default=100)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--grid-n", type=int, default=2048)
    p_bench.add_argument("--grid-L", type=float, default=8 * math.pi)
    p_bench.add_argument("--bandwidth", type=int, default=64)
    p_bench.add_argument("--no-stability", action="store_true",
                         help="skip the doubled-grid stability rerun")
    p_bench.add_argument("--out-dir", default=None)
    p_bench.set_defaults(func=cmd_commutator_bench)

    p_miz = sub.add_parser("mizohata", help="drift-integrability index")
    p_miz.add_argument("--b", default=None, help="expression in x (I for the imaginary unit)")
    p_miz.add_argument("--preset", default=None,
                       help="benchmark-drift (the benchmark's weighted drift -2i a q)")
    p_miz.add_argument("--R", type=float, default=None, help="max ray radius (default L/2)")
    p_miz.add_argument("--grid-n", type=int, default=2048)
    p_miz.add_argument("--grid-L", type=float, default=64.0)
    p_miz.add_argument("--out-dir", default=None)
    p_miz.set_defaults(func=cmd_mizohata)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
