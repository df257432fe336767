"""Coupled-solver tests: coupling algebra, contraction, oracles, residuals."""

import tracemalloc

import numpy as np
import pytest

from schrobvp import picard, spectral, stepper
from schrobvp.coefficients import CoefficientField, norm_bundle, select_horizon
from schrobvp.cli import build_scenario, run_picard_scenario
from schrobvp.errors import (
    ConfigError,
    DivergenceError,
    GridMismatchError,
    HorizonError,
    ValidationError,
)
from schrobvp.free_bvp import FreeBvpData, solve_free
from schrobvp.picard import (
    BvpProblem,
    assemble_solution,
    band_tail,
    coupling_norms,
    coupling_stacks,
    pde_residual,
    picard_solve,
)
from schrobvp.presets import load_preset, merge_scenario
from schrobvp.spectral import (
    Grid1D,
    SpaceTimeField,
    SpectralField,
    dealias_hat,
    gaussian_field,
    hat_norm,
    project,
    projection_multiplier,
    random_band_field,
)
from schrobvp.stepper import LinearProblem, OperatorTable, StepperConfig, solve_linear
from schrobvp.weights import build_weight, unit_weight

CONST = CoefficientField("1", "0")
BENCH = CoefficientField("1 + 0.1*exp(-t)*sech(x)", "0.05*sech(x)")


def split_data(grid, seed=29, band=20):
    f = project(random_band_field(grid, band, seed), "-")
    g = project(random_band_field(grid, band, seed + 1), "+")
    return f, g


def admissible_horizon(coeffs, weight, grid, probe=0.1):
    times = np.linspace(0.0, probe, 4001)
    sel = select_horizon(norm_bundle(coeffs, weight.sup_logderiv, times, grid))
    return sel.horizon


def lambda_at(vp, vm, coeffs, weight, t):
    """Both coupling-source slices at time ``t``: the first slice of
    ``coupling_stacks`` on a two-slice stack over an explicit table."""
    times = np.array([t, t + 1e-3])
    table = OperatorTable(coeffs, weight, times)
    lp, lm, *_ = coupling_stacks(
        *(SpaceTimeField(f.grid, times, hats=np.stack([f.hat, f.hat])) for f in (vp, vm)), table
    )
    return lp.slice(0), lm.slice(0)


class TestCouplingLambda:
    def test_zero_inputs_give_zero(self):
        grid = Grid1D(256, 8 * np.pi)
        w = build_weight(1.0, grid, mode="truncated", margin=5.0)
        zero = SpectralField(grid, np.zeros(grid.n, dtype=complex))
        lp, lm = lambda_at(zero, zero, BENCH, w, 0.0)
        assert lp.norm_l2() == 0.0
        assert lm.norm_l2() == 0.0

    def test_constant_coefficients_are_diagonal(self):
        # a = 1, W = 0, constant log-derivative beta: the commutators vanish
        # and each component reduces to i beta^2 times its own carrier.
        grid = Grid1D(512, 8 * np.pi)
        beta = 1.0
        w = build_weight(beta, grid, mode="pure_exponential")
        vp = project(random_band_field(grid, 40, 3), "+")
        vm = project(random_band_field(grid, 40, 4), "-")
        lp, lm = lambda_at(vp, vm, CONST, w, 0.0)
        scale = vp.norm_l2() + vm.norm_l2()
        assert np.max(np.abs(lp.values - 1j * beta**2 * vp.values)) < 1e-8 * scale
        assert np.max(np.abs(lm.values - 1j * beta**2 * vm.values)) < 1e-8 * scale

    def test_linearity(self):
        grid = Grid1D(256, 8 * np.pi)
        w = build_weight(0.5, grid, mode="truncated", margin=5.0)
        vp = project(random_band_field(grid, 30, 5), "+")
        vm = project(random_band_field(grid, 30, 6), "-")
        lp1, _ = lambda_at(vp, vm, BENCH, w, 0.1)
        lp2, _ = lambda_at(2.0 * vp, 2.0 * vm, BENCH, w, 0.1)
        assert np.max(np.abs(lp2.values - 2.0 * lp1.values)) < 1e-12 * np.max(np.abs(lp2.values))

    def test_bounded_by_coupling_rate(self):
        # |Lambda|_2 <= ratio * K(t) (|v+|_2 + |v-|_2) with a modest ratio
        grid = Grid1D(1024, 8 * np.pi)
        w = build_weight(1.0, grid, mode="truncated", margin=6.0)
        bundle = norm_bundle(BENCH, w.sup_logderiv, np.array([0.0, 1e-3]), grid)
        K0 = bundle.coupling_rate[0]
        vp = project(random_band_field(grid, 32, 11), "+")
        vm = project(random_band_field(grid, 32, 12), "-")
        lp, lm = lambda_at(vp, vm, BENCH, w, 0.0)
        denom = K0 * (vp.norm_l2() + vm.norm_l2())
        ratio = max(lp.norm_l2(), lm.norm_l2()) / denom
        assert 0.01 < ratio < 1.5

    def test_order_zero_under_bandwidth_doubling(self):
        grid = Grid1D(1024, 8 * np.pi)
        w = build_weight(1.0, grid, mode="truncated", margin=6.0)
        ratios = []
        for band in (32, 64, 128):
            vp = project(random_band_field(grid, band, 17), "+")
            vm = project(random_band_field(grid, band, 18), "-")
            lp, lm = lambda_at(vp, vm, BENCH, w, 0.0)
            ratios.append(max(lp.norm_l2(), lm.norm_l2()) / (vp.norm_l2() + vm.norm_l2()))
        assert ratios[1] < 1.10 * ratios[0]
        assert ratios[2] < 1.10 * ratios[1]


def coeff_product(grid, masked_coeff, field_values):
    """(already-masked coefficient) * field, returned as masked hats."""
    hat = np.fft.fft(masked_coeff * field_values, axis=-1)
    return np.where(grid.dealias_mask, hat, 0.0)


def two_sided_lambda(vp, vm, coeffs, weight):
    """Both coupling stacks by the explicit formula, each sign with its own
    projection and commutators (the oracle for the P+ + P- identity)."""
    grid = vp.grid
    am, aqm, zwm = OperatorTable(coeffs, weight, vp.times).rows(0, len(vp.times))
    ixi = 1j * grid.xi
    v_hat = dealias_hat(grid, np.fft.fft(vp.values + vm.values, axis=-1))
    hv_hat = ixi * v_hat
    hv = np.fft.ifft(hv_hat, axis=-1)
    zw_v = coeff_product(grid, zwm, np.fft.ifft(v_hat, axis=-1))
    a_hv = coeff_product(grid, am, hv)
    q_hv = coeff_product(grid, aqm, hv)
    out = {}
    for sign in ("+", "-"):
        sym = projection_multiplier(grid, sign)
        proj_hv = np.fft.ifft(sym * hv_hat, axis=-1)
        comm_a = sym * a_hv - coeff_product(grid, am, proj_hv)
        comm_q = sym * q_hv - coeff_product(grid, aqm, proj_hv)
        lam = sym * zw_v + 1j * ixi * comm_a - 2j * comm_q
        lam[:, 0] = 0.0
        out[sign] = np.fft.ifft(lam, axis=-1)
    return out["+"], out["-"]


class TestCouplingIdentity:
    # coupling_stacks evaluates the P+ branch only and takes lambda- from
    # P+ + P- = I on the paired-mode class
    def test_minus_branch_matches_the_two_sided_formula(self):
        grid = Grid1D(512, 20.0)
        w = build_weight(1.0, grid, mode="truncated")
        times = np.linspace(0.0, 0.5, 5)
        ramp = (1.0 + times)[:, None]
        vp = SpaceTimeField(grid, times, ramp * project(random_band_field(grid, 60, 21), "+").values)
        vm = SpaceTimeField(grid, times, ramp[::-1] * project(random_band_field(grid, 60, 22), "-").values)
        lam_p, lam_m, *_ = coupling_stacks(vp, vm, OperatorTable(BENCH, w, times))
        ref_p, ref_m = two_sided_lambda(vp, vm, BENCH, w)
        for got, ref in ((lam_p, ref_p), (lam_m, ref_m)):
            assert np.max(np.abs(got.values - ref)) <= 1e-12 * np.max(np.abs(ref))
            err = np.sqrt(np.sum(np.abs(got.values - ref) ** 2, axis=1))
            assert np.all(err <= 1e-12 * np.sqrt(np.sum(np.abs(ref) ** 2, axis=1)))

    def test_sweeps_see_both_carriers_and_the_physical_sources(self):
        grid = Grid1D(256, 20.0)
        w = build_weight(1.0, grid, mode="truncated")
        f, g = split_data(grid, seed=41, band=24)
        p = BvpProblem(
            f=f, g=g, coeffs=BENCH, weight=w, horizon=admissible_horizon(BENCH, w, grid),
            stepper_cfg=StepperConfig(epsilon=1e-5, n_steps=32),
        )
        calls = []

        def hook(sign, problem, solution):
            # the next sweep overwrites the solution's buffer: keep a copy
            calls.append((sign, problem, SpaceTimeField(grid, solution.times, hats=solution.hats.copy())))

        _, _, report = picard_solve(p, solve_hook=hook)
        assert report.iterations >= 3
        assert [sign for sign, _, _ in calls] == ["-", "+"] * report.iterations
        assert calls[0][1].source is None and calls[1][1].source is None
        # sweep m freezes the source on sweep m - 1's carriers
        for m in range(1, report.iterations):
            (_, prob_m, _), (_, prob_p, _) = calls[2 * m], calls[2 * m + 1]
            vm, vp = calls[2 * m - 2][2], calls[2 * m - 1][2]
            ref_p, ref_m = two_sided_lambda(vp, vm, BENCH, w)
            for source, ref in ((prob_p.source, ref_p), (prob_m.source, ref_m)):
                assert np.max(np.abs(source.values - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_update_is_the_norm_of_the_copied_carriers_difference(self):
        # the march measures each slot against what it overwrites; the
        # recorded update equals the sup-norm difference of successive copies
        grid = Grid1D(256, 20.0)
        w = build_weight(1.0, grid, mode="truncated")
        f, g = split_data(grid, seed=43, band=24)
        p = BvpProblem(
            f=f, g=g, coeffs=BENCH, weight=w, horizon=admissible_horizon(BENCH, w, grid),
            stepper_cfg=StepperConfig(epsilon=1e-5, n_steps=32),
        )
        copies = {sign: [np.zeros((33, grid.n), dtype=complex)] for sign in "+-"}   # the zero start
        _, _, report = picard_solve(p, solve_hook=lambda sign, _, v: copies[sign].append(v.hats.copy()))
        assert report.iterations >= 3
        for m, diff in enumerate(report.diff_norms, start=1):
            plus, minus = (
                float(np.max(hat_norm(grid, copies[sign][m] - copies[sign][m - 1]))) for sign in "+-"
            )
            assert diff == plus + minus


class TestUniformTable:
    # decoupled coefficients (a = 1, W = 0, pure-exponential weight) give a
    # table of x-constant rows, which the operator kernel applies as symbols;
    # the second coefficient pair gives x-constant rows that change with t
    FLAT = [CONST, CoefficientField("1 + 0.5*t + 0.2*sin(40*t)", "0.3 + t")]

    def _carriers(self, grid, times):
        ramp = (1.0 + times)[:, None]
        vp = SpaceTimeField(grid, times, ramp * project(random_band_field(grid, 60, 21), "+").values)
        vm = SpaceTimeField(grid, times, ramp[::-1] * project(random_band_field(grid, 60, 22), "-").values)
        return vp, vm

    @pytest.mark.parametrize("coeffs", FLAT, ids=["decoupled", "time-dependent"])
    def test_coupling_matches_the_two_sided_formula(self, coeffs):
        grid = Grid1D(512, 8 * np.pi)
        w = build_weight(1.0, grid, mode="pure_exponential")
        times = np.linspace(0.0, 0.5, 5)
        vp, vm = self._carriers(grid, times)
        table = OperatorTable(coeffs, w, times)
        assert table.uniform
        lam_p, lam_m, *_ = coupling_stacks(vp, vm, table)
        ref_p, ref_m = two_sided_lambda(vp, vm, coeffs, w)
        for got, ref in ((lam_p, ref_p), (lam_m, ref_m)):
            assert np.max(np.abs(got.values - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("coeffs", FLAT, ids=["decoupled", "time-dependent"])
    def test_residual_matches_the_fft_path(self, coeffs):
        grid = Grid1D(256, 8 * np.pi)
        w = build_weight(1.0, grid, mode="pure_exponential")
        times = np.linspace(0.0, 0.02, 17)
        vp, vm = self._carriers(grid, times)
        total = SpaceTimeField(grid, times, hats=vp.hats + vm.hats)
        symbols, ffts = (OperatorTable(coeffs, w, times) for _ in range(2))
        assert symbols.uniform
        ffts.uniform = False
        got, ref = pde_residual(total, symbols).norms, pde_residual(total, ffts).norms
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(ref)

    def test_diagonal_coupling_matches_the_fft_path(self):
        # a uniform constant table takes the source as two symbols of the summed
        # hats; both paths hand back their stacks' norm series bit for bit
        grid = Grid1D(512, 8 * np.pi)
        w = build_weight(1.0, grid, mode="pure_exponential")
        times = np.linspace(0.0, 0.5, 5)
        vp, vm = self._carriers(grid, times)
        symbols, ffts = (OperatorTable(CONST, w, times) for _ in range(2))
        assert symbols.uniform and symbols.constant
        ffts.uniform = False
        got, ref = coupling_stacks(vp, vm, symbols), coupling_stacks(vp, vm, ffts)
        for g, r in zip(got[:2], ref[:2]):
            assert np.max(np.abs(g.hats - r.hats)) <= 1e-13 * np.max(np.abs(r.hats))
        for lam_p, lam_m, norms, peaks in (got, ref):
            for lam, series, peak in zip((lam_p, lam_m), norms, peaks):
                assert np.array_equal(series, lam.norm_series())
                assert peak == np.max(np.abs(lam.hats))

    @staticmethod
    def _calls_inside(monkeypatch, p, targets):
        """Calls of each (module, name) in ``targets`` made inside each of the
        solve's three operator kernels."""
        inside, calls = [], {}
        for module, name in targets:
            def counted(*args, _f=getattr(module, name), **kwargs):
                for kernel in set(inside):
                    calls[kernel] += 1
                return _f(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        for name in ("solve_linear", "coupling_stacks", "pde_residual"):
            calls[name] = 0
            def entered(*args, _name=name, _kernel=getattr(picard, name), **kwargs):
                inside.append(_name)
                try:
                    return _kernel(*args, **kwargs)
                finally:
                    inside.pop()
            monkeypatch.setattr(picard, name, entered)
        _, _, report = picard_solve(p)
        assert report.iterations >= 2   # every kernel ran
        return calls

    FFTS = [(np.fft, "fft"), (np.fft, "ifft")]

    @staticmethod
    def _decoupled():
        grid = Grid1D(128, 8 * np.pi)
        w = build_weight(1.0, grid, mode="pure_exponential")
        f = project(gaussian_field(grid, width=1.5), "-")
        g = project(gaussian_field(grid, center=1.0, width=2.0), "+")
        return BvpProblem(
            f=f, g=g, coeffs=CONST, weight=w, horizon=0.035,
            stepper_cfg=StepperConfig(epsilon=1e-6, n_steps=16),
        )

    @staticmethod
    def _benchmark():
        grid = Grid1D(128, 20.0)
        w = build_weight(1.0, grid, mode="truncated")
        f, g = split_data(grid, seed=41, band=24)
        return BvpProblem(
            f=f, g=g, coeffs=BENCH, weight=w, horizon=admissible_horizon(BENCH, w, grid),
            stepper_cfg=StepperConfig(epsilon=1e-5, n_steps=16),
        )

    def test_decoupled_solve_makes_no_fft_in_its_kernels(self, monkeypatch):
        calls = self._calls_inside(monkeypatch, self._decoupled(), self.FFTS)
        assert calls == {"solve_linear": 0, "coupling_stacks": 0, "pde_residual": 0}

    def test_benchmark_solve_still_transforms_in_every_kernel(self, monkeypatch):
        calls = self._calls_inside(monkeypatch, self._benchmark(), self.FFTS)
        assert all(count > 0 for count in calls.values()), calls

    @pytest.mark.parametrize("problem", ["_decoupled", "_benchmark"], ids=["decoupled", "benchmark"])
    def test_every_kernel_applies_s_through_the_one_function(self, monkeypatch, problem):
        # the march, the coupling source and the residual all reach S
        # through stepper.apply_s, on the symbol path and on the FFT path
        targets = [(stepper, "apply_s"), (picard, "apply_s")]
        calls = self._calls_inside(monkeypatch, getattr(self, problem)(), targets)
        assert all(count > 0 for count in calls.values()), calls


class TestProblemValidation:
    def test_two_sided_datum_rejected(self):
        grid = Grid1D(256, 8 * np.pi)
        w = build_weight(1.0, grid, mode="truncated", margin=5.0)
        mixed = random_band_field(grid, 20, 8)
        g = project(random_band_field(grid, 20, 9), "+")
        with pytest.raises(ValidationError, match="frequency side"):
            BvpProblem(
                f=mixed, g=g, coeffs=CONST, weight=w, horizon=0.01,
                stepper_cfg=StepperConfig(n_steps=32),
            )

    def test_nonzero_mean_rejected(self):
        grid = Grid1D(256, 8 * np.pi)
        w = build_weight(1.0, grid, mode="truncated", margin=5.0)
        f = project(random_band_field(grid, 20, 8), "-")
        drifted = SpectralField(grid, f.values + 0.1)
        g = project(random_band_field(grid, 20, 9), "+")
        with pytest.raises(ValidationError, match="zero mean"):
            BvpProblem(
                f=drifted, g=g, coeffs=CONST, weight=w, horizon=0.01,
                stepper_cfg=StepperConfig(n_steps=32),
            )

    def test_inadmissible_horizon_raises(self):
        grid = Grid1D(256, 8 * np.pi)
        w = build_weight(1.0, grid, mode="pure_exponential")
        f, g = split_data(grid)
        p = BvpProblem(
            f=f, g=g, coeffs=CONST, weight=w, horizon=0.5,
            stepper_cfg=StepperConfig(n_steps=64),
        )
        with pytest.raises(HorizonError, match="admissible"):
            picard_solve(p)

    def test_override_warns_and_runs(self):
        grid = Grid1D(256, 8 * np.pi)
        w = build_weight(0.5, grid, mode="pure_exponential")
        f, g = split_data(grid)
        p = BvpProblem(
            f=f, g=g, coeffs=CONST, weight=w, horizon=0.1,
            stepper_cfg=StepperConfig(epsilon=1e-6, n_steps=128),
            override_horizon=True,
        )
        with pytest.warns(UserWarning, match="override"):
            vp, vm, report = picard_solve(p)
        assert report.converged


class TestPicardSolve:
    def test_zero_data_converges_immediately(self):
        grid = Grid1D(256, 8 * np.pi)
        w = build_weight(1.0, grid, mode="truncated", margin=5.0)
        zero = SpectralField(grid, np.zeros(grid.n, dtype=complex))
        p = BvpProblem(
            f=zero, g=zero, coeffs=BENCH, weight=w, horizon=0.01,
            stepper_cfg=StepperConfig(epsilon=1e-5, n_steps=64),
        )
        vp, vm, report = picard_solve(p)
        assert report.converged
        assert report.iterations == 1
        assert vp.sup_norm() == 0.0
        assert vm.sup_norm() == 0.0
        assert report.residual_sup == 0.0

    def test_decoupled_matches_free_closed_form(self):
        # a = 1, W = 0, constant log-derivative: the coupling is exactly the
        # zeroth-order phase term, and the converged pair must reproduce the
        # closed-form endpoint propagators.
        grid = Grid1D(512, 8 * np.pi)
        beta = 1.0
        T = 0.035
        w = build_weight(beta, grid, mode="pure_exponential")
        f = project(gaussian_field(grid, width=1.5), "-")
        g = project(gaussian_field(grid, center=1.0, width=2.0), "+")
        p = BvpProblem(
            f=f, g=g, coeffs=CONST, weight=w, horizon=T,
            stepper_cfg=StepperConfig(epsilon=1e-6, n_steps=512),
        )
        vp, vm, report = picard_solve(p)
        assert report.converged
        free = solve_free(
            FreeBvpData(f=f, g=g, beta=beta, horizon=T, times=vp.times)
        )
        delta = p.data_norm()
        diff = vp.values + vm.values - free.values
        worst = np.max(np.sqrt(grid.dx * np.sum(np.abs(diff) ** 2, axis=1)))
        assert worst < 1e-6 * delta

    def test_benchmark_contraction_and_fixed_point(self):
        grid = Grid1D(512, 20.0)
        w = build_weight(1.0, grid, mode="truncated")
        T = admissible_horizon(BENCH, w, grid)
        f, g = split_data(grid, seed=41, band=24)
        p = BvpProblem(
            f=f, g=g, coeffs=BENCH, weight=w, horizon=T,
            stepper_cfg=StepperConfig(epsilon=1e-5, n_steps=256),
        )
        vp, vm, report = picard_solve(p)
        delta = p.data_norm()
        assert report.converged
        assert report.confinement_ok
        assert all(r <= 0.5 for r in report.contraction_factors)
        assert report.final_leakage <= 1e-6 * delta
        assert report.boundary_residual_low <= 1e-6 * delta
        assert report.boundary_residual_high <= 1e-6 * delta
        assert all(r >= 0.0 for r in report.contraction_factors)
        assert len(report.lambda_ratios) == report.iterations - 1
        assert max(report.lambda_ratios) < 1.5

    def test_divergence_error_past_the_horizon(self):
        # far past the admissible horizon, a strong variable potential feeds
        # each carrier from the other side and the sweep loop amplifies
        # geometrically instead of contracting
        grid = Grid1D(256, 8 * np.pi)
        w = build_weight(2.0, grid, mode="pure_exponential")
        f, g = split_data(grid, seed=55)
        p = BvpProblem(
            f=f, g=g,
            coeffs=CoefficientField("1", "5*sech(x)"),
            weight=w, horizon=1.5,
            stepper_cfg=StepperConfig(epsilon=1e-6, n_steps=256),
            override_horizon=True,
        )
        with pytest.warns(UserWarning):
            with pytest.raises(DivergenceError, match="horizon"):
                picard_solve(p)


class TestAssembleAndResidual:
    def test_assembly_identities(self):
        grid = Grid1D(512, 20.0)
        w = build_weight(1.0, grid, mode="truncated")
        T = admissible_horizon(BENCH, w, grid)
        f, g = split_data(grid, seed=61, band=16)
        p = BvpProblem(
            f=f, g=g, coeffs=BENCH, weight=w, horizon=T,
            stepper_cfg=StepperConfig(epsilon=1e-5, n_steps=128),
        )
        vp, vm, _ = picard_solve(p)
        asm = assemble_solution(vp, vm, w)
        left = grid.x < -1.0
        inside = asm.window
        w_values = asm.w.values
        for i in range(len(vp.times)):
            v, u = asm.v_slice(i), asm.u_slice(i)
            assert np.array_equal(v.hat, vp.hats[i] + vm.hats[i])
            # u recovers v where the weight is 1 (left half of the domain)
            assert np.allclose(u.values[left], v.values[left])
            # w = e^{beta x} u on the window, zero outside
            assert np.allclose(w_values[i, inside], u.values[inside] * np.exp(w.beta * grid.x[inside]))
        # zero outside the window, up to the round trip through the hats
        scale = np.max(np.abs(asm.w.values))
        assert np.max(np.abs(asm.w.values[:, ~inside])) <= 1e-14 * scale
        # decay-certified norms are finite and continuous in t
        assert np.all(np.isfinite(asm.w_norms))
        jumps = np.abs(np.diff(asm.w_norms))
        assert np.max(jumps) < 0.05 * (np.max(asm.w_norms) + 1e-30)

    def test_residual_zero_field(self):
        grid = Grid1D(128, 8.0)
        w = build_weight(0.5, grid, mode="truncated", margin=2.0)
        times = np.linspace(0.0, 0.1, 17)
        v = SpaceTimeField(grid, times, np.zeros((17, grid.n), dtype=complex))
        prof = pde_residual(v, OperatorTable(BENCH, w, times))
        assert prof.sup == 0.0

    def test_residual_fourth_order_in_dt(self):
        # feed the exact constant-coefficient solution: the only residual is
        # the five-point difference's truncation, which scales like dt^4
        grid = Grid1D(256, 8 * np.pi)
        beta = 1.0
        T = 0.2
        w = build_weight(beta, grid, mode="pure_exponential")
        f = project(gaussian_field(grid, width=1.5), "-")
        g = project(gaussian_field(grid, width=2.0), "+")
        sups = []
        for m in (64, 128):
            times = np.linspace(0.0, T, m + 1)
            sol = solve_free(FreeBvpData(f=f, g=g, beta=beta, horizon=T, times=times))
            prof = pde_residual(sol, OperatorTable(CONST, w, times))
            sups.append(prof.sup)
        ratio = sups[0] / sups[1]
        assert 2**3.7 < ratio < 2**4.3
        assert sups[1] < 1e-2

    @pytest.mark.parametrize("slices", [5, 6, 515, 600])
    def test_time_difference_is_exact_on_quartics(self, slices):
        # every stencil, one-sided or centered, is exact for quartics in t;
        # with a = 1, W = 0 and no weight, L v = i v_xx, so each slice's
        # residual is known in closed form (515 slices leave a one-row block)
        grid = Grid1D(256, 8 * np.pi)
        phi = project(random_band_field(grid, 40, 71), "+").hat
        times = np.linspace(0.0, 0.05, slices)
        poly = np.polynomial.Polynomial([1.0, 2.0 - 1.0j, -3.0, 1.0, 0.5j])
        hats = poly(times)[:, None] * phi
        table = OperatorTable(CONST, unit_weight(grid), times)
        prof = pde_residual(SpaceTimeField(grid, times, hats=hats), table)
        t = times[1:-1, None]
        exact = (poly.deriv()(t) + 1j * grid.xi**2 * poly(t)) * phi * grid.dealias_mask
        exact[:, 0] = 0.0
        exact = hat_norm(grid, exact / (1.0 + grid.xi**2))
        np.testing.assert_allclose(prof.norms, exact, rtol=1e-9)

    def test_residual_needs_five_slices(self):
        grid = Grid1D(128, 8.0)
        w = build_weight(0.5, grid, mode="truncated", margin=2.0)
        times = np.linspace(0.0, 0.1, 4)
        v = SpaceTimeField(grid, times, np.zeros((4, grid.n), dtype=complex))
        with pytest.raises(ConfigError, match="at least 5 time slices"):
            pde_residual(v, OperatorTable(BENCH, w, times))

    def test_too_few_steps_fail_before_the_first_sweep(self, monkeypatch):
        grid = Grid1D(256, 8 * np.pi)
        w = build_weight(1.0, grid, mode="truncated", margin=5.0)
        f, g = split_data(grid)
        p = BvpProblem(
            f=f, g=g, coeffs=BENCH, weight=w, horizon=0.01,
            stepper_cfg=StepperConfig(epsilon=1e-5, n_steps=3),
        )
        monkeypatch.setattr(picard, "solve_linear", None)   # no sweep may start
        with pytest.raises(ConfigError, match="at least 5 time slices"):
            picard_solve(p)

    def test_report_to_dict_roundtrip(self):
        grid = Grid1D(256, 8 * np.pi)
        w = build_weight(1.0, grid, mode="truncated", margin=5.0)
        zero = SpectralField(grid, np.zeros(grid.n, dtype=complex))
        p = BvpProblem(
            f=zero, g=zero, coeffs=BENCH, weight=w, horizon=0.01,
            stepper_cfg=StepperConfig(epsilon=1e-5, n_steps=32),
        )
        _, _, report = picard_solve(p)
        d = report.to_dict()
        assert d["converged"] is True
        assert isinstance(d["residual_profile"], list)
        import json

        json.dumps(d)


def benchmark_512(n_steps):
    """The benchmark scenario at n = 512, solved to tol 1e-13 over the
    benchmark's horizon T = 1/64 with ``n_steps`` steps."""
    sc = build_scenario(merge_scenario(load_preset("benchmark"), {"grid": {"n": 512}}))
    p = BvpProblem(
        f=sc.f, g=sc.g, coeffs=sc.coeffs, weight=sc.weight, horizon=0.015625,
        stepper_cfg=StepperConfig(epsilon=sc.stepper.epsilon, n_steps=n_steps),
        override_horizon=True,
    )
    vp, vm, report = picard_solve(p, tol=1e-13)
    return sc, vp.hats + vm.hats, report


class TestSweepPlan:
    # every sweep of a solve marches through the one MarchPlan picard_solve builds
    @staticmethod
    def _benchmark(n, m_max):
        sc = build_scenario(merge_scenario(load_preset("benchmark"), {"grid": {"n": n}}))
        p = BvpProblem(
            f=sc.f, g=sc.g, coeffs=sc.coeffs, weight=sc.weight, horizon=0.015625,
            stepper_cfg=sc.stepper, override_horizon=True,
        )
        return lambda: picard_solve(p, tol=0.0, m_max=m_max)

    def test_plan_changes_no_bit_of_a_solve(self, monkeypatch):
        # five sweeps through one plan against five marches that each build their own
        solve = self._benchmark(512, 5)
        vp, vm, report = solve()
        plans = []

        def fresh_plan(*args, plan, **kwargs):
            plans.append(plan)
            return solve_linear(*args, **kwargs)

        monkeypatch.setattr(picard, "solve_linear", fresh_plan)
        ref_p, ref_m, ref = solve()
        assert report.iterations == ref.iterations == 5 and len(set(map(id, plans))) == 1
        assert np.array_equal(vp.hats, ref_p.hats) and np.array_equal(vm.hats, ref_m.hats)
        assert report.to_dict() == ref.to_dict()

    def test_a_sweep_allocates_less_than_a_block(self, monkeypatch):
        # with its plan, a march reuses every work array: the second sweep's
        # (the first with sources) traced peak stays within one block of what
        # was live when it started, on the benchmark grid and coefficients
        solve, peaks = self._benchmark(2048, 2), []

        def traced(*args, **kwargs):
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = solve_linear(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1] - live)
            return result

        monkeypatch.setattr(picard, "solve_linear", traced)
        tracemalloc.start()
        try:
            solve()
        finally:
            tracemalloc.stop()
        assert len(peaks) == 2
        assert peaks[1] < spectral.CHUNK_BYTES


class TestTimeAccuracy:
    def test_coupled_solve_is_fourth_order_in_dt(self):
        # the coupling source is time-dependent, so this fails (order 2)
        # unless the stepper reads its RK midpoints to fourth order; the
        # 1024-step reference also keeps the per-step march cost in the suite
        _, ref, _ = benchmark_512(1024)
        errs = []
        for n in (8, 16):
            sc, total, _ = benchmark_512(n)
            errs.append(np.max(hat_norm(sc.grid, total - ref[:: 1024 // n])))
        assert np.log2(errs[0] / errs[1]) >= 3.7

    def test_residual_floor_is_the_viscosity_tail(self):
        # at the benchmark's 64 steps the time error is far below the
        # artificial-viscosity term eps xi^4 v that the monitor leaves in,
        # so every slice of the profile is that term's H^-2 norm
        sc, total, report = benchmark_512(64)
        xi = sc.grid.xi
        tail = sc.stepper.epsilon * hat_norm(sc.grid, xi**4 / (1 + xi**2) * total[1:-1])
        np.testing.assert_allclose(report.residual_profile, tail, rtol=1e-4)


def refinement_study():
    """Benchmark coefficients at T = 1/64, 64 steps, eps = 0, tol 1e-13 on
    n = 512, 1024, 2048 against n = 4096, per weight mode: the error
    max |v_n - v_ref| / max |v_ref| on the common nodes over all slices,
    and the band_tail of each n."""
    study = {}
    for mode in ("truncated", "pure_exponential"):
        runs = {}
        for n in (4096, 512, 1024, 2048):
            sc = build_scenario(merge_scenario(
                load_preset("benchmark"), {"grid": {"n": n}, "weight": {"mode": mode}},
            ))
            p = BvpProblem(
                f=sc.f, g=sc.g, coeffs=sc.coeffs, weight=sc.weight, horizon=0.015625,
                stepper_cfg=StepperConfig(epsilon=0.0, n_steps=64), override_horizon=True,
            )
            vp, vm, report = picard_solve(p, tol=1e-13)
            runs[n] = (np.fft.ifft(vp.hats + vm.hats, axis=-1), report.band_tail)
        ref = runs.pop(4096)[0]
        errs = [np.max(np.abs(v - ref[:, :: 4096 // n])) / np.max(np.abs(ref)) for n, (v, _) in runs.items()]
        study[mode] = (errs, [tail for _, tail in runs.values()])
    return study


class TestResolution:
    # the residual cannot see spatial error; band_tail must.  The truncated
    # weight's seam keeps the error algebraic in n, the pure-exponential
    # weight's is spectral
    @pytest.fixture(scope="class")
    def study(self):
        return refinement_study()

    def test_pure_exponential_weight_resolves_to_round_off(self, study):
        errs, _ = study["pure_exponential"]
        assert max(errs[1:]) < 1e-12   # n = 1024 and 2048

    @pytest.mark.parametrize("mode", ["truncated", "pure_exponential"])
    def test_band_tail_falls_where_the_error_does(self, study, mode):
        errs, tails = study[mode]
        for i in range(len(errs) - 1):
            if errs[i + 1] < errs[i]:
                assert tails[i + 1] < tails[i], (i, errs, tails)

    def test_band_tail_separates_the_weights(self, study):
        assert study["truncated"][1][2] >= 1e6 * study["pure_exponential"][1][2]   # n = 2048

    def test_band_tail_reads_the_top_fifth_of_the_band(self):
        grid = Grid1D(16, 10.0)   # kept band |k| <= 5, top fifth 4 < |k| <= 5
        hats = np.zeros((3, 16), dtype=complex)
        hats[0, [3, -5]] = 1.0, 2.0
        hats[1, [3, 4, 5, 6]] = 1.0           # |k| = 6 is outside the band
        v = SpaceTimeField(grid, np.linspace(0.0, 0.1, 3), hats=hats)
        assert band_tail(v) == pytest.approx(np.sqrt(4.0 / 5.0), rel=1e-15)
        assert band_tail(SpaceTimeField(grid, v.times[:2], hats=hats[1:])) == pytest.approx(np.sqrt(1.0 / 3.0))
        assert band_tail(SpaceTimeField(grid, v.times[:2], hats=np.zeros((2, 16), dtype=complex))) == 0.0


class TestHatCarriers:
    # the carriers stay Fourier coefficients from the march to the residual
    def test_solve_returns_hat_backed_carriers(self, monkeypatch):
        grid = Grid1D(256, 20.0)
        w = build_weight(1.0, grid, mode="truncated")
        f, g = split_data(grid, seed=43, band=24)
        p = BvpProblem(
            f=f, g=g, coeffs=BENCH, weight=w, horizon=admissible_horizon(BENCH, w, grid),
            stepper_cfg=StepperConfig(epsilon=1e-5, n_steps=32),
        )
        # no full physical stack is built by the solve or the assembly
        monkeypatch.setattr(SpaceTimeField, "values", property(lambda self: pytest.fail()))
        vp, vm, report = picard_solve(p)
        assert report.converged
        hats = vp.hats, vm.hats
        asm = assemble_solution(vp, vm, w)
        assert vp.hats is hats[0] and vm.hats is hats[1]
        assert all(np.array_equal(asm.v_slice(i).hat, vp.hats[i] + vm.hats[i]) for i in range(len(vp.times)))

    def test_residual_of_hats_matches_residual_of_values(self):
        grid = Grid1D(256, 20.0)
        w = build_weight(1.0, grid, mode="truncated")
        times = np.linspace(0.0, 0.05, 601)   # more slices than one block
        phase = np.exp(-1j * times)[:, None]
        plus = project(random_band_field(grid, 30, 51), "+").values
        minus = project(random_band_field(grid, 30, 52), "-").values
        values = phase * plus + np.conj(phase) * minus
        hats = np.fft.fft(values, axis=1)
        table = OperatorTable(BENCH, w, times)
        by_hats = pde_residual(SpaceTimeField(grid, times, hats=hats), table)
        by_values = pde_residual(SpaceTimeField(grid, times, values), table)
        assert by_values.sup > 0
        assert np.max(np.abs(by_hats.norms - by_values.norms)) <= 1e-12 * by_values.sup


class TestInputGrids:
    # mismatched carriers or tables raise instead of giving a meaningless number
    def _pair(self, grid, times, seed=61):
        def carrier(sign, seed):
            row = project(random_band_field(grid, 20, seed), sign).values
            return SpaceTimeField(grid, times, np.tile(row, (len(times), 1)))

        return carrier("+", seed), carrier("-", seed + 1)

    def test_coupling_rejects_carriers_on_other_time_grids(self):
        grid = Grid1D(128, 20.0)
        w = build_weight(1.0, grid, mode="truncated")
        vp, _ = self._pair(grid, np.linspace(0.0, 0.1, 5))
        _, vm = self._pair(grid, np.linspace(0.0, 0.2, 9))
        with pytest.raises(GridMismatchError):
            coupling_stacks(vp, vm, OperatorTable(BENCH, w, vp.times))

    def test_coupling_rejects_carriers_on_other_grids(self):
        times = np.linspace(0.0, 0.1, 5)
        grid = Grid1D(128, 20.0)
        w = build_weight(1.0, grid, mode="truncated")
        vp, _ = self._pair(grid, times)
        _, vm = self._pair(Grid1D(128, 30.0), times)
        with pytest.raises(GridMismatchError):
            coupling_stacks(vp, vm, OperatorTable(BENCH, w, times))

    def test_coupling_rejects_a_weight_on_another_grid(self):
        times = np.linspace(0.0, 0.1, 5)
        vp, vm = self._pair(Grid1D(128, 20.0), times)
        w = build_weight(1.0, Grid1D(128, 30.0), mode="truncated")
        with pytest.raises(GridMismatchError):
            coupling_stacks(vp, vm, OperatorTable(BENCH, w, times))

    def test_residual_rejects_a_weight_on_another_grid(self):
        times = np.linspace(0.0, 0.1, 5)
        vp, _ = self._pair(Grid1D(128, 20.0), times)
        w = build_weight(1.0, Grid1D(128, 30.0), mode="truncated")
        with pytest.raises(GridMismatchError):
            pde_residual(vp, OperatorTable(BENCH, w, times))


def blocked_outputs():
    """Every blocked kernel's output on a time-dependent problem, as arrays."""
    grid = Grid1D(256, 20.0)
    w = build_weight(1.0, grid, mode="truncated")
    times = np.linspace(0.0, 0.02, 41)
    phase = np.exp(-40j * times)[:, None]
    vp = SpaceTimeField(grid, times, phase * project(random_band_field(grid, 30, 71), "+").values)
    vm = SpaceTimeField(grid, times, np.conj(phase) * project(random_band_field(grid, 30, 72), "-").values)
    total = SpaceTimeField(grid, times, hats=vp.hats + vm.hats)
    bundle = norm_bundle(BENCH, w.sup_logderiv, times, grid)
    table = OperatorTable(BENCH, w, times, half_steps=True)
    # a pair marched into a buffer holding the carriers, with the update measured
    fwd, bwd = (
        LinearProblem(direction=d, coeffs=BENCH, weight=w, source=v, horizon=times[-1],
                      datum=SpectralField.from_hat(grid, v.hats[i]), zero_mean=True)
        for d, v, i in (("forward", vm, 0), ("backward", vp, -1))
    )
    lp, lm, norms, peaks = coupling_stacks(vp, vm, table)
    buffer, update, measure = np.stack([vm.hats, vp.hats[::-1]]), np.empty(2), np.empty((2, 2, 41))
    side = np.stack([projection_multiplier(grid, sign).real for sign in "+-"])
    solve_linear(
        fwd, StepperConfig(epsilon=1e-5, n_steps=40), table, partner=bwd, out=buffer, update=update,
        measure=measure, side=side,
    )
    return {
        "from values": [vp.hats, vm.hats],
        "coupling_stacks": [lp.hats, lm.hats, norms, peaks],
        "coupling_norms": list(coupling_norms(vp, vm, table)),
        "march update": [buffer, update, measure],
        "pde_residual": [pde_residual(total, table).norms],
        "band_tail": [band_tail(total)],
        "norm_series": [total.norm_series(), total.norm_series(projection_multiplier(grid, "-"))],
        "assemble_solution": [assemble_solution(vp, vm, w).w.hats],
        "norm_bundle": [bundle.coupling_rate, bundle.energy_rate],
        "OperatorTable": [table.abar, table.a, table.aq, table.zeroth],
    }


def test_block_budget_changes_no_result(monkeypatch):
    # CHUNK_BYTES sets speed and peak memory only: blocks of 2 rows and one
    # block of every row give the same bits
    results = []
    for budget in (1 << 13, 1 << 24):
        monkeypatch.setattr(spectral, "CHUNK_BYTES", budget)
        results.append(blocked_outputs())
    assert spectral.chunk_rows(256) > 81   # the half-step table's row count
    small, large = results
    for kernel, arrays in small.items():
        assert all(np.array_equal(a, b) for a, b in zip(arrays, large[kernel], strict=True)), kernel


class TestPeakMemory:
    # decoupled: its stack is 16 block budgets, so one stack kept alive past
    # its last read crosses the bound; benchmark: its time-dependent
    # coefficients make the half-step table about three stacks; decoupled
    # with a = 1 + t/2: a uniform table that depends on time, whose march
    # must not build per-block step maps beside the stacks
    @pytest.mark.parametrize(
        "raw",
        [
            {"preset": "decoupled"},
            {"preset": "benchmark"},
            {"preset": "decoupled", "coefficients": {"a": "1 + 0.5*t"}},
        ],
        ids=["decoupled", "benchmark", "time-dependent-uniform"],
    )
    def test_traced_run_stays_within_the_four_stack_model(self, tmp_path, raw):
        sc = build_scenario(raw)
        n, n_steps = sc.grid.n, sc.stepper.n_steps
        stack = 16 * n * (n_steps + 1)
        assert stack >= 4 * spectral.CHUNK_BYTES
        if "coefficients" in raw:
            probe = OperatorTable(sc.coeffs, sc.weight, np.linspace(0.0, 0.035, 3), half_steps=True)
            assert probe.uniform and not probe.constant
        tracemalloc.start()
        try:
            run_picard_scenario(raw, str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 4 * stack < peak <= picard._peak_bytes(n, n_steps, sc.coeffs.time_dependent)

    def test_residual_runs_beside_the_final_pair_only(self, monkeypatch):
        # by the time the residual runs, the last sweep's sources are released
        grid = Grid1D(512, 8 * np.pi)
        w = build_weight(1.0, grid, mode="pure_exponential")
        f, g = split_data(grid)
        p = BvpProblem(
            f=f, g=g, coeffs=CONST, weight=w, horizon=0.02,
            stepper_cfg=StepperConfig(epsilon=1e-6, n_steps=64),
        )
        residual, live = picard.pde_residual, []

        def traced(*args):
            live.append(tracemalloc.get_traced_memory()[0])
            return residual(*args)

        monkeypatch.setattr(picard, "pde_residual", traced)
        tracemalloc.start()
        try:
            _, _, report = picard_solve(p)
        finally:
            tracemalloc.stop()
        assert report.iterations > 1
        # the pair and their sum; the sources would add two stacks more
        assert live[0] < 3.5 * 16 * grid.n * 65

    def test_assembly_stores_only_w(self):
        grid = Grid1D(256, 20.0)
        w = build_weight(1.0, grid, mode="truncated")
        times = np.linspace(0.0, 0.02, 257)
        rng = np.random.default_rng(5)
        vp, vm = (
            SpaceTimeField(grid, times, hats=rng.standard_normal((257, grid.n)) + 0j) for _ in range(2)
        )
        tracemalloc.start()
        try:
            asm = assemble_solution(vp, vm, w)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 1.1 * asm.w.hats.nbytes
        # a slice read is the slice of the whole stack, bit for bit
        u_hats = np.fft.fft((vp.values + vm.values) / w.values, axis=-1)
        for i in (0, 100, 256):
            assert np.array_equal(asm.v_slice(i).hat, vp.hats[i] + vm.hats[i])
            assert np.array_equal(asm.u_slice(i).hat, u_hats[i])

    def test_memory_cap_is_a_config_error_before_any_stack(self, monkeypatch):
        grid = Grid1D(256, 8 * np.pi)
        w = build_weight(1.0, grid, mode="truncated", margin=5.0)
        f, g = split_data(grid)
        p = BvpProblem(
            f=f, g=g, coeffs=BENCH, weight=w, horizon=0.01,
            stepper_cfg=StepperConfig(epsilon=1e-5, dt=0.01 / 64),
        )
        estimate = picard._peak_bytes(grid.n, 64, time_dependent=True)
        monkeypatch.setattr(picard, "_PEAK_BYTES_CAP", estimate - 1)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError) as err:
                picard_solve(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * grid.n * 65   # less than one stack
        message = str(err.value)
        assert "n = 256" in message and "64 steps" in message
        assert f"{estimate / 2**20:.0f} MiB" in message
        monkeypatch.setattr(picard, "_PEAK_BYTES_CAP", estimate)
        picard_solve(p)

