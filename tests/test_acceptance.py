"""Acceptance suite: the eleven headline properties, one test each, and the
benchmark's spatial resolution.

Each test prints a single summary line (visible in verbose/captured output)
and asserts the stated tolerances.  The expensive coupled runs are shared
through module fixtures, so the whole file stays within a few minutes.
"""

import time

import numpy as np
import pytest

from schrobvp import picard
from schrobvp.coefficients import mizohata_index, norm_bundle
from schrobvp.commutators import (
    CommutatorTrial,
    commutator_apply,
    decomposition_audit,
    derivative_identity_residual,
    estimate_constant,
    fractional_commutator,
    trial_coefficient,
    trial_field,
)
from schrobvp.estimates import (
    bootstrap_diagnostics,
    energy_monitor,
    weighted_smoothing_monitor,
)
from schrobvp.cli import build_scenario, resolve_horizon
from schrobvp.free_bvp import FreeBvpData, forward_growth_demo, solve_free, verify_free_estimate
from schrobvp.picard import BvpProblem, assemble_solution, picard_solve
from schrobvp.presets import load_preset, merge_scenario
from schrobvp.spectral import (
    Grid1D,
    SpaceTimeField,
    SpectralField,
    derivative_multiplier,
    fractional_multiplier,
    gaussian_field,
    hilbert_multiplier,
    mode_field,
    project,
    projection_multiplier,
)
from schrobvp.stepper import (
    LinearProblem,
    OperatorTable,
    StepperConfig,
    epsilon_study,
    heat_quartic,
    solve_linear,
)
from schrobvp.weights import build_weight


def _line(num: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}", flush=True)


def _run_benchmark(grid_n: int, horizon: float | None):
    raw = load_preset("benchmark")
    raw = merge_scenario(raw, {"grid": {"n": grid_n}})
    if horizon is not None:
        raw["horizon"] = horizon
    sc = build_scenario(raw)
    horizon, _, _ = resolve_horizon(sc, None)
    problem = BvpProblem(
        f=sc.f, g=sc.g, coeffs=sc.coeffs, weight=sc.weight,
        horizon=horizon, stepper_cfg=sc.stepper,
    )
    t0 = time.perf_counter()
    vp, vm, report = picard_solve(problem)
    elapsed = time.perf_counter() - t0
    asm = assemble_solution(vp, vm, sc.weight)
    return {
        "sc": sc, "horizon": horizon, "vp": vp, "vm": vm,
        "report": report, "asm": asm, "seconds": elapsed,
    }


@pytest.fixture(scope="module")
def bench():
    return _run_benchmark(2048, None)


@pytest.fixture(scope="module")
def bench_fine(bench):
    return _run_benchmark(4096, bench["horizon"])


def test_criterion_01_free_endpoint_fidelity():
    grid = Grid1D(2048, 40.0)
    rng = np.random.default_rng(11)
    worst_boundary = 0.0
    worst_ratio = 0.0
    t0 = time.perf_counter()
    for beta in (0.5, 1.0, 2.0):
        for horizon in (0.5, 1.0):
            f = project(gaussian_field(
                grid, center=rng.uniform(-2, 2), width=rng.uniform(0.8, 2.5),
                amplitude=rng.uniform(0.5, 2.0)), "-")
            g = project(gaussian_field(
                grid, center=rng.uniform(-2, 2), width=rng.uniform(0.8, 2.5),
                amplitude=rng.uniform(0.5, 2.0)), "+")
            data = FreeBvpData(f=f, g=g, beta=beta, horizon=horizon)
            sol = solve_free(data)
            res_low = (project(sol.slice(0), "-") - f).norm_l2() / f.norm_l2()
            res_high = (project(sol.slice(-1), "+") - g).norm_l2() / g.norm_l2()
            worst_boundary = max(worst_boundary, res_low, res_high)
            worst_ratio = max(worst_ratio, verify_free_estimate(sol, data).ratio)
    elapsed = time.perf_counter() - t0
    ok = worst_boundary <= 1e-10 and worst_ratio <= 1 + 1e-10 and elapsed < 5.0
    _line(1, "free-endpoint-fidelity", ok,
          f"boundary {worst_boundary:.2e}, sup ratio {worst_ratio:.12f}, {elapsed:.2f}s")
    assert worst_boundary <= 1e-10
    assert worst_ratio <= 1 + 1e-10
    assert elapsed < 5.0


def test_criterion_02_forward_growth():
    grid = Grid1D(512, 8 * np.pi)
    u0 = mode_field(grid, 40)          # xi = 40 / 8 = 5
    t0 = time.perf_counter()
    rep = forward_growth_demo(u0, beta=1.0, t=0.1)
    elapsed = time.perf_counter() - t0
    predicted = np.e
    rel = abs(rep.max_magnification - predicted) / predicted
    ok = rel <= 0.01 and elapsed < 1.0
    _line(2, "forward-growth-exhibit", ok,
          f"magnification {rep.max_magnification:.6f} vs e, rel {rel:.2e}")
    assert rel <= 0.01
    assert elapsed < 1.0


def test_criterion_03_decoupled_oracle():
    sc = build_scenario(load_preset("decoupled"))
    problem = BvpProblem(
        f=sc.f, g=sc.g, coeffs=sc.coeffs, weight=sc.weight,
        horizon=sc.horizon, stepper_cfg=sc.stepper,
    )
    t0 = time.perf_counter()
    vp, vm, report = picard_solve(problem)
    elapsed = time.perf_counter() - t0
    free = solve_free(
        FreeBvpData(f=sc.f, g=sc.g, beta=sc.weight.beta, horizon=sc.horizon, times=vp.times)
    )
    delta = report.delta
    diff = SpaceTimeField(sc.grid, vp.times, vp.values + vm.values - free.values)
    rel = diff.sup_norm() / delta
    rho_ok = report.converged and all(r <= 0.5 for r in report.contraction_factors)
    ok = rho_ok and rel <= 1e-6 and elapsed < 60.0
    _line(3, "decoupled-oracle-match", ok,
          f"{report.iterations} sweeps, worst rho "
          f"{max(report.contraction_factors):.3f}, oracle rel {rel:.2e}, {elapsed:.1f}s")
    assert report.converged
    assert all(r <= 0.5 for r in report.contraction_factors)
    assert rel <= 1e-6
    assert elapsed < 60.0


def test_criterion_04_benchmark_contraction(bench):
    report = bench["report"]
    delta = report.delta
    rho_ok = report.converged and all(r <= 0.5 for r in report.contraction_factors)
    residual_ok = report.residual_sup <= 1e-6
    boundary_ok = (report.boundary_residual_low <= 1e-8 * delta
                   and report.boundary_residual_high <= 1e-8 * delta)
    leak_ok = report.final_leakage <= 1e-6 * delta
    time_ok = bench["seconds"] < 120.0
    ok = rho_ok and residual_ok and boundary_ok and leak_ok and time_ok
    _line(4, "benchmark-contraction-and-residual", ok,
          f"T {bench['horizon']:.6g}, worst rho {max(report.contraction_factors):.3f}, "
          f"residual {report.residual_sup:.2e}, boundary "
          f"{max(report.boundary_residual_low, report.boundary_residual_high) / delta:.2e} rel, "
          f"leakage {report.final_leakage / delta:.2e} rel, {bench['seconds']:.1f}s")
    assert rho_ok
    assert residual_ok
    assert boundary_ok
    assert leak_ok
    assert time_ok


def test_benchmark_is_resolved_to_round_off(bench):
    # the weight's periodic log-derivative leaves no seam, so the top fifth
    # of the band holds only round-off and the sweeps meet the endpoint data
    # to well below tol
    report = bench["report"]
    assert report.band_tail < 1e-15
    assert max(report.boundary_residual_low, report.boundary_residual_high) < 1e-11


def test_criterion_05_energy_bounds_per_subsolve(bench, monkeypatch):
    sc = bench["sc"]
    horizon = bench["horizon"]
    worst = 0.0
    count = 0
    # 1024 steps: at the preset's 64, eps = 1e-2 exceeds the stiffness cap.  Every
    # sub-solve runs on the solve's time grid, so one bundle and one table serve them all
    times = np.linspace(0.0, horizon, 1024 + 1)
    bundle = norm_bundle(sc.coeffs, sc.weight.sup_logderiv, times, sc.grid)
    table = OperatorTable(sc.coeffs, sc.weight, times)
    for eps in (1e-2, 1e-3, 1e-4):
        reports = []
        cfg = StepperConfig(epsilon=eps, n_steps=1024)

        def observed(*args, reports=reports, **kwargs):
            # every sub-solve of a sweep: its problem and its returned carrier
            pair = solve_linear(*args, **kwargs)
            for sign, problem, solution in zip("-+", (args[0], kwargs["partner"]), pair):
                source = None if problem.source is None else problem.source.norm_series()
                reports.append(
                    energy_monitor(solution, source, sign, table, bundle)
                )
            return pair

        monkeypatch.setattr(picard, "solve_linear", observed)
        problem = BvpProblem(
            f=sc.f, g=sc.g, coeffs=sc.coeffs, weight=sc.weight,
            horizon=horizon, stepper_cfg=cfg,
        )
        picard_solve(problem)
        assert reports, "the solve_linear seam observed no sub-solves"
        count += len(reports)
        worst = max(worst, max(r.ratio for r in reports))
        assert all(r.verdict == "pass" for r in reports), (
            f"energy monitor failed at eps {eps:g}"
        )
    ok = worst <= 1.05
    _line(5, "energy-bound-every-subsolve", ok,
          f"{count} sub-solves over eps 1e-2..1e-4, worst ratio {worst:.4f}")
    assert ok


def test_criterion_06_viscosity_machinery(bench):
    grid = Grid1D(1024, 8 * np.pi)
    impulse = SpectralField.from_hat(grid, np.ones(grid.n, dtype=np.complex128))
    s = 1e-4
    smoothed = heat_quartic(impulse, s)
    worst_rel = 0.0
    for j in (1, 2, 3):
        measured = float(np.max(np.abs(grid.xi) ** j * np.abs(smoothed.hat)))
        predicted = (j / (4 * np.e)) ** (j / 4) * s ** (-j / 4)
        worst_rel = max(worst_rel, abs(measured - predicted) / predicted)

    sc = bench["sc"]
    # 1024 steps: at the preset's 64, eps = 1e-2 exceeds the stiffness cap
    cfg = StepperConfig(n_steps=1024)
    table = OperatorTable(sc.coeffs, sc.weight, cfg.time_grid(bench["horizon"]))
    problem = LinearProblem(direction="forward", table=table, source=None, datum=sc.f)
    study = epsilon_study(problem, cfg, (1e-2, 1e-3, 1e-4))
    orders_ok = all(0.8 <= o <= 1.2 for o in study.order_estimates)
    ok = worst_rel <= 0.01 and study.cauchy and orders_ok
    _line(6, "viscosity-machinery", ok,
          f"symbol max rel err {worst_rel:.2e}, cauchy {study.cauchy}, "
          f"orders {[f'{o:.2f}' for o in study.order_estimates]}")
    assert worst_rel <= 0.01
    assert study.cauchy
    assert orders_ok


def test_criterion_07_commutator_constant_ensembles():
    grid = Grid1D(2048, 8 * np.pi)
    lm_pairs = [(0, 1), (1, 1), (0, 2)]
    t0 = time.perf_counter()
    worst_grid_shift = 0.0
    worst_band_shift = 0.0
    exponents = (4 / 3, 2.0, 4.0)
    base = estimate_constant("+", lm_pairs, grid, p=exponents, n_trials=100,
                             bandwidth=64, seed=3, check_stability=True)
    wide = estimate_constant("+", lm_pairs, grid, p=exponents, n_trials=100,
                             bandwidth=128, seed=3, check_stability=False)
    assert len(base) == len(wide) == len(lm_pairs) * len(exponents)
    for key, b in base.items():
        assert np.isfinite(b.max_ratio) and b.skipped == 0
        worst_grid_shift = max(worst_grid_shift, abs(b.stability_factor - 1.0))
        band_shift = abs(wide[key].max_ratio / b.max_ratio - 1.0)
        worst_band_shift = max(worst_band_shift, band_shift)
    const_a = np.ones(grid.n)
    f = trial_field(grid, 64, seed=9)
    vanish = commutator_apply(CommutatorTrial("+", const_a, f, l=0, m=1)).norm_l2()
    elapsed = time.perf_counter() - t0
    ok = (worst_grid_shift < 0.10 and worst_band_shift < 0.10
          and vanish <= 1e-12 and elapsed < 60.0)
    _line(7, "commutator-constant-ensembles", ok,
          f"grid shift {worst_grid_shift:.3f}, bandwidth shift {worst_band_shift:.3f}, "
          f"constant-coeff norm {vanish:.1e}, {elapsed:.1f}s")
    assert worst_grid_shift < 0.10
    assert worst_band_shift < 0.10
    assert vanish <= 1e-12
    assert elapsed < 60.0


def test_criterion_08_frequency_splitting_structure():
    grid = Grid1D(1024, 8 * np.pi)
    a = trial_coefficient(grid, 48, seed=21)
    rng_hat = np.zeros(grid.n, dtype=np.complex128)
    rng = np.random.default_rng(22)
    idx = np.r_[1:49, grid.n - 48:grid.n]
    rng_hat[idx] = rng.standard_normal(96) + 1j * rng.standard_normal(96)
    f = SpectralField.from_hat(grid, rng_hat)

    audit = decomposition_audit(SpectralField(grid, a.astype(complex)), f)
    scale = audit.scale
    audit_ok = (
        audit.residual_low_part <= 1e-12 * scale
        and audit.residual_inner_support <= 1e-10 * scale
        and audit.residual_diagonal_support <= 1e-10 * scale
        and audit.residual_reconstruction <= 1e-10 * scale
    )
    ident = derivative_identity_residual(a, f)

    # sign convention: with hat(H) = i sgn(xi) on the paired modes, the
    # transform equals i (P+ - P-) and D^{1/2} H D^{1/2} = d/dx exactly;
    # the opposite sign would flip the factorization identity instead.
    h_sym = hilbert_multiplier(grid)
    split_sym = 1j * (projection_multiplier(grid, "+") - projection_multiplier(grid, "-"))
    h_err = float(np.max(np.abs(h_sym - split_sym)))
    half = fractional_multiplier(grid, 0.5, kind="D")
    fact = half * hilbert_multiplier(grid) * half
    dx_sym = derivative_multiplier(grid, 1)
    dx_sym[grid.n // 2] = 0.0        # unpaired mode carries no direction
    fact_err = float(np.max(np.abs(fact - dx_sym))) / max(1.0, float(np.max(np.abs(dx_sym))))

    ok = audit_ok and ident <= 1e-10 and h_err <= 1e-12 and fact_err <= 1e-12
    _line(8, "frequency-splitting-structure", ok,
          f"audit max rel {max(audit.residual_inner_support, audit.residual_diagonal_support, audit.residual_reconstruction) / scale:.1e}, "
          f"low-part {audit.residual_low_part / scale:.1e}, identity {ident:.1e}, "
          f"transform {h_err:.1e}, factorization {fact_err:.1e}")
    assert audit_ok
    assert ident <= 1e-10
    assert h_err <= 1e-12
    assert fact_err <= 1e-12


def test_criterion_09_fractional_reduction_ensembles():
    pairs = ((0.0, 0.5), (0.5, 0.25), (0.5, 0.5))
    worst_shift = 0.0
    worst_resid = 0.0
    for alpha, beta_exp in pairs:
        maxima = {}
        for n in (1024, 2048):
            grid = Grid1D(n, 8 * np.pi)
            ratios = []
            for seed in range(50):
                a = trial_coefficient(grid, 48, seed=500 + seed)
                f = trial_field(grid, 48, seed=seed)
                res = fractional_commutator(a, f, alpha, beta_exp, q=2.0, delta=0.6)
                ratios.append(res.ratio)
                worst_resid = max(worst_resid, res.reduction_residual)
            maxima[n] = max(ratios)
        worst_shift = max(worst_shift, abs(maxima[2048] / maxima[1024] - 1.0))
    ok = worst_shift < 0.10 and worst_resid <= 1e-10
    _line(9, "fractional-reduction-ensembles", ok,
          f"refinement shift {worst_shift:.3f}, reduction residual {worst_resid:.1e}")
    assert worst_shift < 0.10
    assert worst_resid <= 1e-10


def test_criterion_10_drift_discrimination():
    grid = Grid1D(2048, 64.0)
    real_rep = mizohata_index(1.0 / np.cosh(grid.x) + 0j, grid, R_max=32.0)
    const = 2.0
    imag_rep = mizohata_index(np.full(grid.n, 1j * const), grid, R_max=32.0)
    slope_rel = abs(imag_rep.growth_slope - const) / const

    bench_sc = build_scenario(load_preset("benchmark"))
    weight = build_weight(bench_sc.weight.beta, grid, mode="truncated")
    drift = -2j * bench_sc.coeffs.a_values(grid.x, 0.0) * weight.logderiv
    drift_rep = mizohata_index(drift, grid, R_max=32.0)

    ok = (real_rep.verdict == "bounded" and real_rep.sup_value == 0.0
          and imag_rep.verdict == "diverging" and slope_rel <= 0.01
          and drift_rep.verdict == "diverging")
    _line(10, "drift-discrimination", ok,
          f"real sup {real_rep.sup_value:g}, imag slope {imag_rep.growth_slope:.4f} "
          f"(rel {slope_rel:.2e}), weighted drift {drift_rep.verdict}")
    assert real_rep.verdict == "bounded" and real_rep.sup_value == 0.0
    assert imag_rep.verdict == "diverging"
    assert slope_rel <= 0.01
    assert drift_rep.verdict == "diverging"


def test_criterion_11_decay_persistence_and_smoothing(bench, bench_fine):
    asm = bench["asm"]
    jumps = np.abs(np.diff(asm.w_norms)) / asm.w_norms[:-1]
    decay_ok = bool(np.all(np.isfinite(asm.w_norms)) and np.max(jumps) <= 0.05)

    def implied_c(run):
        rep = weighted_smoothing_monitor(run["asm"].w, run["report"].table)
        assert rep.verdict == "pass"
        return rep.ratio

    c_base = implied_c(bench)
    c_fine = implied_c(bench_fine)
    c_shift = abs(c_fine / c_base - 1.0)

    boot = bootstrap_diagnostics(asm.w, bench["report"].table, bench["report"].bundle)
    boot_ok = boot.verdict == "pass" and boot.constants["hypothesis_ok"]

    ok = decay_ok and c_shift <= 0.10 and boot_ok
    _line(11, "decay-persistence-and-smoothing", ok,
          f"max slice jump {np.max(jumps):.4f}, implied c {c_base:.5f} -> {c_fine:.5f} "
          f"(shift {c_shift:.3f}), half-derivative level ratio {boot.ratio:.3f}")
    assert decay_ok
    assert c_shift <= 0.10
    assert boot_ok
