"""Linear stepper tests: exact oracles, invariants, and failure modes."""

import dataclasses

import numpy as np
import pytest

from schrobvp import spectral, stepper
from schrobvp.cli import build_scenario
from schrobvp.coefficients import CoefficientField, norm_bundle
from schrobvp.errors import ConfigError, GridMismatchError, StabilityError
from schrobvp.free_bvp import FreeBvpData, solve_free
from schrobvp.spectral import (
    Grid1D,
    SpaceTimeField,
    SpectralField,
    fractional,
    gaussian_field,
    hat_norm,
    project,
    projection_multiplier,
    random_band_field,
)
from schrobvp.stepper import (
    _MID_FIRST,
    _MID_INTERIOR,
    _MID_LAST,
    EpsilonStudyReport,
    LinearProblem,
    MarchPlan,
    OperatorTable,
    StepperConfig,
    apply_s,
    epsilon_study,
    _midpoints,
    _require_stable_step,
    heat_quartic,
    solve_linear,
)
from schrobvp.presets import load_preset, merge_scenario, preset_names
from schrobvp.weights import build_weight, unit_weight

CONST = CoefficientField("1", "0")


def table_for(cfg, coeffs, weight, horizon):
    """The operator table a march of ``cfg``'s steps over [0, horizon] runs on."""
    return OperatorTable(coeffs, weight, cfg.time_grid(horizon))


def impulse(grid):
    return SpectralField.from_hat(grid, np.ones(grid.n, dtype=np.complex128))


class TestHeatQuartic:
    def test_zero_time_is_identity(self):
        grid = Grid1D(128, 8.0)
        f = random_band_field(grid, 20, 7)
        g = heat_quartic(f, 0.0)
        assert np.allclose(g.values, f.values, atol=1e-15)

    def test_negative_time_rejected(self):
        grid = Grid1D(64, 8.0)
        with pytest.raises(ConfigError):
            heat_quartic(gaussian_field(grid), -1e-6)

    def test_norm_decreasing_in_time(self):
        grid = Grid1D(256, 8.0)
        f = random_band_field(grid, 40, 3)
        norms = [heat_quartic(f, s).norm_l2() for s in (0.0, 0.01, 0.05, 0.2)]
        assert all(b < a for a, b in zip(norms, norms[1:]))

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_derivative_suppression_oracle(self, j):
        # max over xi of |xi|^j e^(-s xi^4) = (j/(4e))^(j/4) s^(-j/4);
        # the maximizer (j/(4s))^(1/4) is around 7-9 here, well resolved
        # by the mode spacing 0.125.
        grid = Grid1D(2048, 8 * np.pi)
        s = 1e-4
        g = heat_quartic(impulse(grid), s)
        measured = np.max(np.abs(fractional(g, float(j)).hat))
        exact = (j / (4.0 * np.e)) ** (j / 4.0) * s ** (-j / 4.0)
        assert abs(measured - exact) < 0.01 * exact


class TestConfigValidation:
    def test_negative_epsilon_rejected(self):
        with pytest.raises(ConfigError):
            StepperConfig(epsilon=-1e-3)

    def test_default_step_count(self):
        assert StepperConfig().resolve_steps(0.5) == 2048

    @pytest.mark.parametrize(
        "kwargs, field",
        [({"n_steps": "64"}, "n_steps"), ({"n_steps": 64.5}, "n_steps"),
         ({"n_steps": True}, "n_steps")],
        ids=["str-steps", "fractional-steps", "bool-steps"],
    )
    def test_step_settings_are_type_checked(self, kwargs, field):
        with pytest.raises(ConfigError, match=field):
            StepperConfig(**kwargs)

    def test_time_grid_is_the_resolved_steps(self):
        assert np.array_equal(StepperConfig(n_steps=8).time_grid(0.5), np.linspace(0.0, 0.5, 9))
        assert len(StepperConfig().time_grid(0.5)) == 2049

    def test_stiffness_cap(self):
        grid = Grid1D(512, 8 * np.pi)
        cfg = StepperConfig(epsilon=1.0, n_steps=128)
        p = LinearProblem(
            direction="forward",
            table=table_for(cfg, CONST, unit_weight(grid), 0.0128),
            source=None,
            datum=gaussian_field(grid),
        )
        with pytest.raises(ConfigError, match="cap"):
            solve_linear(p, cfg)

    @pytest.mark.parametrize("n_steps", [64, 72, 112])
    def test_rk4_region_on_the_fine_benchmark_grid(self, n_steps):
        # benchmark at n = 16384 and T = 1/64: 72 steps blow up in the march
        # and 112 converge; the check reads the table alone
        sc = build_scenario(merge_scenario(load_preset("benchmark"), {"grid": {"n": 16384}}))
        times = np.linspace(0.0, 1 / 64, n_steps + 1)
        table = OperatorTable(sc.coeffs, sc.weight, times)
        if n_steps == 112:
            _require_stable_step(table, n_steps, sc.stepper.epsilon)
            return
        with pytest.raises(ConfigError, match=f"n_steps = {n_steps} .*RK4.*use n_steps >= 98$"):
            _require_stable_step(table, n_steps, sc.stepper.epsilon)

    def test_rk4_region_is_checked_before_the_march(self, monkeypatch):
        grid = Grid1D(256, 8.0)
        coeffs = CoefficientField("1 + 0.9*sech(x)", "0")

        def solve(n_steps):
            cfg = StepperConfig(epsilon=0.0, n_steps=n_steps)
            table = table_for(cfg, coeffs, unit_weight(grid), 0.05)
            return solve_linear(LinearProblem("forward", table, None, gaussian_field(grid)), cfg)

        def no_march(*args):
            pytest.fail("the march ran")

        monkeypatch.setattr(stepper, "_march", no_march)
        with pytest.raises(ConfigError, match=r"n_steps = 4 .*use n_steps >= \d+$") as err:
            solve(4)
        least = int(str(err.value).rsplit(" ", 1)[1])
        with pytest.raises(ConfigError, match=f"n_steps = {least - 1} "):
            solve(least - 1)
        monkeypatch.undo()
        assert np.all(np.isfinite(solve(least).hats))

    def test_bad_direction(self):
        grid = Grid1D(64, 8.0)
        with pytest.raises(ConfigError):
            LinearProblem(
                direction="sideways",
                table=OperatorTable(CONST, unit_weight(grid), np.linspace(0.0, 0.1, 3)),
                source=None,
                datum=gaussian_field(grid),
            )

    def test_grid_mismatch(self):
        g1, g2 = Grid1D(64, 8.0), Grid1D(128, 8.0)
        with pytest.raises(GridMismatchError):
            LinearProblem(
                direction="forward",
                table=OperatorTable(CONST, unit_weight(g1), np.linspace(0.0, 0.1, 3)),
                source=None,
                datum=gaussian_field(g2),
            )

    def test_source_must_cover_horizon(self):
        # the march's time-grid rule is the one check of a source's times
        grid = Grid1D(64, 8.0)
        times = np.linspace(0.0, 0.05, 9)
        src = SpaceTimeField(grid, times, np.zeros((9, grid.n), dtype=complex))
        cfg = StepperConfig(n_steps=8)
        p = LinearProblem(
            direction="forward",
            table=table_for(cfg, CONST, unit_weight(grid), 0.1),
            source=src,
            datum=gaussian_field(grid),
        )
        with pytest.raises(ConfigError, match=r"on \[0, 0.05\] is not the march grid of 9 times on \[0, 0.1\]"):
            solve_linear(p, cfg)


class TestConstantCoefficientExactness:
    def test_unweighted_unitary_evolution(self):
        # a = 1, no weight, eps = 0: the integrating factor carries the whole
        # flow, so the discrete solution is exp(-i xi^2 t) exactly.
        grid = Grid1D(256, 8 * np.pi)
        f = random_band_field(grid, 40, 11)
        T = 0.1
        cfg = StepperConfig(epsilon=0.0, n_steps=256)
        p = LinearProblem(
            direction="forward",
            table=table_for(cfg, CONST, unit_weight(grid), T),
            source=None,
            datum=f,
        )
        sol = solve_linear(p, cfg)
        exact = np.fft.ifft(np.exp(-1j * grid.xi**2 * T) * f.hat)
        err = np.max(np.abs(sol.values[-1] - exact))
        assert err < 1e-12 * np.max(np.abs(f.values))
        drift = np.abs(sol.norm_series() - f.norm_l2())
        assert np.max(drift) < 1e-8 * f.norm_l2()

    def test_forward_matches_free_closed_form(self):
        # a = 1, log-derivative = beta: the sub-problem evolution differs
        # from the closed-form endpoint propagator only by the scalar phase
        # exp(i beta^2 t) (the zeroth-order term belongs to the coupling
        # source, not to this sub-problem) and by the small viscosity.
        grid = Grid1D(512, 8 * np.pi)
        beta = 1.0
        T = 0.5
        f = project(gaussian_field(grid, width=1.5), "-")
        times = np.linspace(0.0, T, 9)
        free = solve_free(FreeBvpData(f=f, g=0.0 * f, beta=beta, horizon=T, times=times))
        cfg = StepperConfig(epsilon=1e-6, n_steps=1024)
        p = LinearProblem(
            direction="forward",
            table=table_for(cfg, CONST, build_weight(beta, grid, mode="pure_exponential"), T),
            source=None,
            datum=f,
        )
        sol = solve_linear(p, cfg)
        i_mid = len(sol.times) // 2
        t_mid = sol.times[i_mid]
        assert abs(t_mid - T / 2) < 1e-12
        stepped = sol.values[i_mid] * np.exp(1j * beta**2 * t_mid)
        target = free.values[4]
        rel = np.sqrt(np.sum(np.abs(stepped - target) ** 2) / np.sum(np.abs(target) ** 2))
        assert rel < 1e-6

    def test_time_reversal_round_trip(self):
        # eps = 0, constant coefficients: the backward solve inverts the
        # forward one, recovering the datum.
        grid = Grid1D(512, 8 * np.pi)
        beta = 0.5
        T = 0.25
        f = project(gaussian_field(grid, width=1.5), "-")
        cfg = StepperConfig(epsilon=0.0, n_steps=512)
        table = table_for(cfg, CONST, build_weight(beta, grid, mode="pure_exponential"), T)
        fwd = solve_linear(LinearProblem(direction="forward", table=table, source=None, datum=f), cfg)
        back = solve_linear(
            LinearProblem(direction="backward", table=table, source=None, datum=fwd.slice(-1)), cfg
        )
        rel = np.sqrt(
            np.sum(np.abs(back.values[0] - fwd.values[0]) ** 2)
            / np.sum(np.abs(fwd.values[0]) ** 2)
        )
        assert rel < 1e-6


class TestManufacturedSource:
    # v(x,t) = (1+t) exp(i k x - i k^2 t) solves dv/dt = i v_xx + F with
    # F = exp(i k x - i k^2 t); checks the midpoint source reads and both
    # direction conventions at once.
    def _exact(self, grid, t, k):
        return (1.0 + t) * np.exp(1j * k * grid.x - 1j * k**2 * t)

    def _setup(self, grid, T, k, n_src):
        times = np.linspace(0.0, T, n_src + 1)
        src_vals = np.exp(1j * k * grid.x[None, :] - 1j * k**2 * times[:, None])
        return SpaceTimeField(grid, times, src_vals)

    def test_forward_with_source(self):
        grid = Grid1D(64, np.pi)
        k, T = 2.0, 0.25
        src = self._setup(grid, T, k, 512)
        cfg = StepperConfig(epsilon=0.0, n_steps=512)
        p = LinearProblem(
            direction="forward",
            table=table_for(cfg, CONST, unit_weight(grid), T),
            source=src,
            datum=SpectralField(grid, self._exact(grid, 0.0, k)),
        )
        sol = solve_linear(p, cfg)
        err = np.max(np.abs(sol.values[-1] - self._exact(grid, T, k)))
        assert err < 1e-6

    def test_backward_with_source(self):
        grid = Grid1D(64, np.pi)
        k, T = 2.0, 0.25
        src = self._setup(grid, T, k, 512)
        cfg = StepperConfig(epsilon=0.0, n_steps=512)
        p = LinearProblem(
            direction="backward",
            table=table_for(cfg, CONST, unit_weight(grid), T),
            source=src,
            datum=SpectralField(grid, self._exact(grid, T, k)),
        )
        sol = solve_linear(p, cfg)
        err = np.max(np.abs(sol.values[0] - self._exact(grid, 0.0, k)))
        assert err < 1e-6

    def _error(self, direction, n_steps, diagonal):
        """Max error at the far end of one solve with the source on the march grid,
        by the affine map (``diagonal``) or, with it cleared, the FFT stages."""
        grid = Grid1D(64, np.pi)
        k, T = 2.0, 0.25
        start, end = (0.0, T) if direction == "forward" else (T, 0.0)
        cfg = StepperConfig(epsilon=0.0, n_steps=n_steps)
        table = table_for(cfg, CONST, unit_weight(grid), T)
        assert table.diagonal
        table.diagonal = diagonal
        p = LinearProblem(
            direction=direction,
            table=table,
            source=self._setup(grid, T, k, n_steps),
            datum=SpectralField(grid, self._exact(grid, start, k)),
        )
        sol = solve_linear(p, cfg)
        far = -1 if direction == "forward" else 0
        return np.max(np.abs(sol.values[far] - self._exact(grid, end, k)))

    @pytest.mark.parametrize("diagonal", [True, False], ids=["affine", "fft"])
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_fourth_order_in_dt(self, direction, diagonal):
        # the integrating factor carries exp(-i k^2 t) exactly, so all the
        # error is in the midpoint source reads: order 2 for a two-point
        # average, order 4 for the cubic interpolant; the FFT stages read
        # each step's source at its start, midpoint and end themselves
        errs = [self._error(direction, n, diagonal) for n in (32, 64)]
        order = np.log2(errs[0] / errs[1])
        assert errs[1] > 1e-12
        assert order >= 3.7

    def test_too_few_steps_for_the_source_raise(self):
        grid = Grid1D(64, np.pi)
        cfg = StepperConfig(epsilon=0.0, n_steps=2)
        p = LinearProblem(
            direction="forward",
            table=table_for(cfg, CONST, unit_weight(grid), 0.25),
            source=self._setup(grid, 0.25, 2.0, 2),
            datum=SpectralField(grid, self._exact(grid, 0.0, 2.0)),
        )
        with pytest.raises(ConfigError, match="at least 3 steps"):
            solve_linear(p, cfg)


class TestInvariants:
    def test_viscosity_decay_is_monotone(self):
        grid = Grid1D(256, 8 * np.pi)
        f = random_band_field(grid, 60, 5)
        cfg = StepperConfig(epsilon=1e-2, n_steps=256)
        p = LinearProblem(
            direction="forward",
            table=table_for(cfg, CONST, unit_weight(grid), 0.05),
            source=None,
            datum=f,
        )
        sol = solve_linear(p, cfg)
        norms = sol.norm_series()
        assert np.all(np.diff(norms) < 0)

    def test_backward_datum_lands_at_final_slice(self):
        grid = Grid1D(256, 8 * np.pi)
        g = project(gaussian_field(grid, width=2.0), "+")
        cfg = StepperConfig(epsilon=1e-4, n_steps=128)
        coeffs, w = CoefficientField("1 + 0.1*sech(x)", "0"), build_weight(1.0, grid, mode="pure_exponential")
        p = LinearProblem(direction="backward", table=table_for(cfg, coeffs, w, 0.05), source=None, datum=g)
        sol = solve_linear(p, cfg)
        assert np.allclose(sol.values[-1], g.values, atol=1e-12 * np.max(np.abs(g.values)))
        # positive frequencies under this drift decay toward earlier times
        assert sol.norm_series()[0] < sol.norm_series()[-1]

    def test_differential_energy_inequality(self):
        # d/dt ||v||^2 <= 4 c(t) ||v||^2 + 2 ||F|| ||v||, with c built from
        # the measured coefficient norms at the measured weight-rate sup.
        grid = Grid1D(512, 20.0)
        coeffs = CoefficientField("1 + 0.1*sech(x)", "0")
        w = build_weight(1.0, grid, mode="truncated")
        T = 0.05
        n_steps = 256
        cfg = StepperConfig(epsilon=1e-3, n_steps=n_steps)
        table = table_for(cfg, coeffs, w, T)
        times = table.times
        f_amp = 0.05
        src_slice = f_amp * np.exp(-(grid.x**2) / 8.0)
        src = SpaceTimeField(
            grid, times, np.repeat(src_slice[None, :], n_steps + 1, axis=0).astype(complex)
        )
        datum = project(gaussian_field(grid, width=1.5), "-")
        p = LinearProblem(direction="forward", table=table, source=src, datum=datum)
        sol = solve_linear(p, cfg)
        bundle = norm_bundle(coeffs, w.sup_logderiv, times, grid)
        norms = sol.norm_series()
        e = norms**2
        dt = sol.dt
        de = (e[2:] - e[:-2]) / (2.0 * dt)
        f_norm = float(np.sqrt(grid.dx * np.sum(src_slice**2)))
        rhs = 4.0 * bundle.energy_rate[1:-1] * e[1:-1] + 2.0 * f_norm * norms[1:-1]
        assert np.all(de <= rhs + 1e-10 * np.max(rhs))

    def test_forward_blowup_raises_with_step_index(self):
        # strong drift on positive frequencies integrated forward is the
        # ill-posed direction; without viscosity the state blows past the
        # amplitude cap and the solver reports the step.  The datum must
        # carry high modes, where the growth rate 2*beta*xi is largest.
        grid = Grid1D(256, 8 * np.pi)
        f = project(random_band_field(grid, 80, 13, band_lo=40), "+")
        cfg = StepperConfig(epsilon=0.0, n_steps=512)
        p = LinearProblem(
            direction="forward",
            table=table_for(cfg, CONST, build_weight(4.0, grid, mode="pure_exponential"), 0.5),
            source=None,
            datum=f,
        )
        with pytest.raises(StabilityError, match="step"):
            solve_linear(p, cfg)

    def test_blowup_inside_a_block_names_the_same_step_on_both_paths(self):
        # the blow-up scan runs once per block of steps and must still name
        # the first bad step: the affine path and the FFT path agree on it
        grid = Grid1D(256, 8 * np.pi)
        w = build_weight(4.0, grid, mode="pure_exponential")
        datum = project(random_band_field(grid, 80, 13, band_lo=40), "+")
        cfg = StepperConfig(epsilon=0.0, n_steps=512)
        messages = []
        for diagonal in (True, False):
            table = table_for(cfg, CONST, w, 0.5)
            assert table.diagonal
            table.diagonal = diagonal
            with pytest.raises(StabilityError, match="step") as err:
                solve_linear(LinearProblem("forward", table, None, datum), cfg)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        step = int(messages[0].rsplit(" ", 1)[1])
        assert (step - 1) % spectral.chunk_rows(grid.n) not in (0, spectral.chunk_rows(grid.n) - 1)


class TestEpsilonStudy:
    def test_first_order_in_viscosity(self):
        grid = Grid1D(256, 8 * np.pi)
        f = random_band_field(grid, 15, 21, band_lo=5)
        cfg = StepperConfig(n_steps=256)
        table = table_for(cfg, CONST, unit_weight(grid), 0.1)
        p = LinearProblem(direction="forward", table=table, source=None, datum=f)
        report = epsilon_study(p, cfg, (1e-2, 1e-3, 1e-4))
        assert isinstance(report, EpsilonStudyReport)
        assert report.cauchy
        assert len(report.differences) == 2
        assert report.differences[1] < 0.5 * report.differences[0]
        for order in report.order_estimates:
            assert 0.8 <= order <= 1.2

    def test_zero_datum_gives_zero_differences(self):
        grid = Grid1D(128, 8.0)
        zero = SpectralField(grid, np.zeros(grid.n, dtype=complex))
        cfg = StepperConfig(n_steps=64)
        table = table_for(cfg, CONST, unit_weight(grid), 0.1)
        p = LinearProblem(direction="forward", table=table, source=None, datum=zero)
        report = epsilon_study(p, cfg, (1e-2, 1e-3, 1e-4))
        assert all(d == 0.0 for d in report.differences)
        assert report.cauchy

    def test_schedule_validation(self):
        grid = Grid1D(64, 8.0)
        cfg = StepperConfig(n_steps=32)
        table = table_for(cfg, CONST, unit_weight(grid), 0.1)
        p = LinearProblem(direction="forward", table=table, source=None, datum=gaussian_field(grid))
        with pytest.raises(ConfigError):
            epsilon_study(p, cfg, (1e-2, 1e-3))
        with pytest.raises(ConfigError):
            epsilon_study(p, cfg, (1e-4, 1e-3, 1e-2))


class TestTemporalOrder:
    # Lawson RK4 is fourth order only when every stage splits off the same
    # abar as the exponential; a split taken at the stage times instead
    # integrates the spatial mean of a by the midpoint rule (order 2).  The
    # fast, oscillating mean of a makes that error dominate.
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_refinement_order_with_time_dependent_mean(self, direction):
        grid = Grid1D(512, 40.0)
        coeffs = CoefficientField(
            "1 + 0.1*exp(-30*t)*sech(x) + 0.2*sin(40*t)", "0.05*sech(x)"
        )
        sign = "-" if direction == "forward" else "+"
        w = build_weight(1.0, grid, mode="truncated")
        datum = project(gaussian_field(grid, width=1.5), sign)

        def solve(n_steps):
            cfg = StepperConfig(epsilon=1e-7, n_steps=n_steps)
            table = table_for(cfg, coeffs, w, 0.015625)
            return solve_linear(LinearProblem(direction, table, None, datum), cfg)

        ref = solve(1024)
        errs = []
        for n in (8, 16):
            sol = solve(n)
            delta = sol.values - ref.values[:: 1024 // n]
            errs.append(np.max(np.sqrt(grid.dx * np.sum(np.abs(delta) ** 2, axis=1))))
        assert np.log2(errs[0] / errs[1]) >= 3.7


class TestOperatorTable:
    @pytest.mark.parametrize("n_table", [64, 16], ids=["finer", "coarser"])
    def test_stepper_must_take_the_tables_steps(self, n_table):
        # the march's time grid is the table's, and so is the horizon
        grid = Grid1D(64, 8.0)
        table = OperatorTable(CONST, unit_weight(grid), np.linspace(0.0, 0.1, n_table + 1))
        p = LinearProblem(direction="forward", table=table, source=None, datum=gaussian_field(grid))
        assert p.horizon == 0.1
        assert np.array_equal(solve_linear(p, StepperConfig(n_steps=n_table)).times, table.times)
        for cfg in (StepperConfig(n_steps=32), StepperConfig()):
            with pytest.raises(ConfigError, match=f"the operator table has {n_table}$"):
                solve_linear(p, cfg)

    def test_problem_table_must_step_equally_from_zero(self):
        # a march runs on [0, horizon]; a table on [0.1, 0.2] would be marched with dt = 0.2 / N
        grid = Grid1D(64, 8.0)
        for times in (np.linspace(0.1, 0.2, 33), np.linspace(0.0, 0.2, 33) ** 2 / 0.2):
            table = OperatorTable(CONST, unit_weight(grid), times)
            with pytest.raises(ConfigError, match="time grid"):
                LinearProblem(direction="forward", table=table, source=None, datum=gaussian_field(grid))

    def test_time_independent_coefficients_collapse_to_one_row(self):
        grid = Grid1D(64, 8 * np.pi)
        w = build_weight(0.5, grid, mode="truncated")
        times = np.linspace(0.0, 0.1, 33)
        steady = OperatorTable(CoefficientField("1 + 0.1*sech(x)", "0.05*sech(x)"), w, times)
        assert steady.a.shape == steady.zeroth.shape == (1, grid.n)
        moving = OperatorTable(CoefficientField("1 + 0.1*exp(-t)*sech(x)", "0"), w, times)
        assert moving.a.shape == (65, grid.n) and moving.zeroth.shape == (33, grid.n)
        a, aq, zeroth = moving.rows(3, 7)
        assert np.array_equal(a, moving.a[6:13:2]) and np.array_equal(zeroth, moving.zeroth[3:7])

    @pytest.mark.parametrize("a", ["1 + 0.1*sech(x)", "1 + 0.1*exp(-t)*sech(x)"])
    def test_planned_bytes_are_the_built_table_bytes(self, a):
        # the peak-memory cap of the coupled solve prices the table before building it
        grid = Grid1D(64, 8 * np.pi)
        w = build_weight(0.5, grid, mode="truncated")
        coeffs = CoefficientField(a, "0.05*sech(x)")
        table = OperatorTable(coeffs, w, np.linspace(0.0, 0.1, 33))
        built = sum(rows.nbytes for rows in (table.abar, table.a, table.aq, table.zeroth))
        planned = OperatorTable.planned_bytes(grid.n, 32, not coeffs.time_dependent)
        assert planned == built


    @pytest.mark.parametrize(
        "raw, diagonal",
        [
            ({"preset": "decoupled"}, True),
            ({"preset": "benchmark"}, False),
            ({"preset": "free"}, False),
            ({"preset": "decoupled", "coefficients": {"a": "1 + 0.5*t", "W": "0.3 + t"}}, False),
        ],
        ids=["decoupled", "benchmark", "free", "x-constant-in-time"],
    )
    def test_diagonal_only_when_constant_in_x_and_t(self, raw, diagonal):
        # free: a is constant in x, but the truncated weight's q is not; rows
        # constant in x that change with t take the FFT stages like any other
        sc = build_scenario(raw)
        table = OperatorTable(sc.coeffs, sc.weight, np.linspace(0.0, 0.01, 9))
        assert table.diagonal is diagonal

    @pytest.mark.parametrize("preset", preset_names())
    def test_every_preset_table_is_diagonal_or_varies_in_x(self, preset):
        # a table constant in x that depends on t has no symbol path of its
        # own; a preset that builds one is a reason to give it one again
        sc = build_scenario(load_preset(preset))
        table = OperatorTable(sc.coeffs, sc.weight, np.linspace(0.0, 0.01, 9))
        varies = any(np.any(np.ptp(rows, axis=1) != 0) for rows in (table.a, table.aq, table.zeroth))
        assert table.diagonal or varies

    @pytest.mark.parametrize("a", ["1 + 0.1*exp(-t)*sech(x)", "1 + 0.1*sech(x)"], ids=["benchmark", "constant"])
    def test_rows_are_the_row_by_row_masked_samples(self, a):
        # the build runs its round trips in place, a row block at a time
        sc = build_scenario(load_preset("benchmark"))
        coeffs = CoefficientField(a, sc.coeffs.w_expr)
        grid, q, dq = sc.grid, sc.weight.logderiv, sc.weight.logderiv_x
        table = OperatorTable(coeffs, sc.weight, np.linspace(0.0, 0.02, 17))
        assert len(table.a) == (1 if table.constant else 33)
        for k, t in enumerate(table.nodes[: len(table.a)]):
            a_row = coeffs.a_values(grid.x, t)
            assert table.abar[k] == np.mean(a_row)
            assert np.array_equal(table.a[k], spectral.masked_samples(grid, a_row).real)
            assert np.array_equal(table.aq[k], spectral.masked_samples(grid, a_row * q).real)
            if k % 2 == 0:   # Z sits at the integer nodes only
                lump = 1j * ((q**2 - dq) * a_row - q * coeffs.a_x(grid.x, t)) + 1j * coeffs.w_values(grid.x, t)
                assert np.array_equal(table.zeroth[k // 2], spectral.masked_samples(grid, lump))



class TestApplyS:
    # the one kernel of S: on a diagonal table the symbol branch and the
    # ifft/fft branch apply the same operator
    def test_symbol_branch_matches_the_fft_branch(self):
        grid = Grid1D(128, 8 * np.pi)
        w = build_weight(1.0, grid, mode="pure_exponential")
        table = OperatorTable(CONST, w, np.linspace(0.0, 0.5, 9))
        assert table.diagonal
        rng = np.random.default_rng(9)
        u = (rng.standard_normal((9, grid.n)) + 1j * rng.standard_normal((9, grid.n))) * grid.dealias_mask
        a, aq, _ = table.rows(0, 9)
        got, ref = (apply_s(grid, u, a, aq, diagonal) for diagonal in (True, False))
        assert got.shape == ref.shape == u.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestDiagonalTable:
    # On a diagonal table the march steps by the affine map; with
    # ``diagonal`` cleared the same table takes the FFT stages, so the two
    # paths are compared.
    @pytest.mark.parametrize("with_source", [False, True], ids=["no-source", "source"])
    def test_symbol_march_matches_the_fft_march(self, with_source):
        grid = Grid1D(128, 8 * np.pi)
        w = build_weight(1.0, grid, mode="pure_exponential")
        horizon = 0.02
        times = np.linspace(0.0, horizon, 33)
        sources = (None, None)
        if with_source:
            ramp = (1.0 + 20.0 * times)[:, None]
            sources = tuple(
                SpaceTimeField(grid, times, ramp * project(random_band_field(grid, 20, seed), sign).values)
                for seed, sign in ((5, "-"), (6, "+"))
            )
        cfg = StepperConfig(epsilon=1e-4, n_steps=32)
        symbols = OperatorTable(CONST, w, times)
        ffts = OperatorTable(CONST, w, times)
        assert symbols.diagonal
        ffts.diagonal = False

        def pair(table):
            fwd, bwd = (
                LinearProblem(
                    direction=d, table=table, source=src, zero_mean=True,
                    datum=project(random_band_field(grid, 20, seed), sign),
                )
                for d, src, seed, sign in (("forward", sources[0], 7, "-"), ("backward", sources[1], 8, "+"))
            )
            return solve_linear(fwd, cfg, partner=bwd)

        got, ref = pair(symbols), pair(ffts)
        for g, r in zip(got, ref):
            assert np.max(np.abs(g.hats - r.hats)) <= 1e-13 * np.max(np.abs(r.hats))

    @pytest.mark.parametrize("diagonal", [True, False], ids=["affine", "fft"])
    def test_update_measures_every_slot_it_overwrites(self, monkeypatch, diagonal):
        # into a prefilled plan buffer, update is each row's max over slots
        # 0..N of hat_norm(new - old); the datum slot 0 differs the most.
        # Blocks of 4 steps, so the march flushes 8 of them
        monkeypatch.setattr(spectral, "CHUNK_BYTES", 1 << 13)
        grid = Grid1D(128, 8 * np.pi)
        w = build_weight(1.0, grid, mode="pure_exponential")
        horizon = 0.02
        times = np.linspace(0.0, horizon, 33)
        src = SpaceTimeField(grid, times, (1.0 + 20.0 * times)[:, None] * random_band_field(grid, 20, 5).values)
        table = OperatorTable(CONST, w, times)
        table.diagonal = diagonal
        fwd, bwd = (
            LinearProblem(
                direction=d, table=table, source=source, zero_mean=True,
                datum=project(random_band_field(grid, 20, seed), sign),
            )
            for d, source, seed, sign in (("forward", src, 7, "-"), ("backward", None, 8, "+"))
        )
        rng = np.random.default_rng(4)
        cfg = StepperConfig(epsilon=1e-4, n_steps=32)
        plan = MarchPlan(table, cfg, ("forward", "backward"), (True, True))
        buffer, update = plan.out, plan.update
        buffer[:] = 1e-3 * (rng.standard_normal((2, 33, 128)) + 1j * rng.standard_normal((2, 33, 128)))
        buffer[:, 0] *= 1e4
        old = buffer.copy()
        pair = solve_linear(fwd, cfg, partner=bwd, plan=plan)
        for r in range(2):
            assert update[r] == np.max(hat_norm(grid, buffer[r] - old[r]))
        assert np.all(update == hat_norm(grid, buffer[:, 0] - old[:, 0]))
        # the unsourced backward row reads zero forcing, not the stale slots
        for got, problem in zip(pair, (fwd, bwd)):
            alone = solve_linear(problem, cfg)
            assert np.max(np.abs(got.hats - alone.hats)) <= 1e-12 * np.max(np.abs(alone.hats))


class TestSourceMidpoint:
    # the block midpoint reader makes four scaled adds per stencil; each
    # step's weight product is the reference
    @pytest.mark.parametrize("j", [0, 1, 5, 7])
    @pytest.mark.parametrize("reversed_view", [False, True])
    def test_scaled_adds_match_the_weight_product(self, j, reversed_view):
        rng = np.random.default_rng(j)
        stack = rng.standard_normal((9, 256)) + 1j * rng.standard_normal((9, 256))
        # a backward row reads its source, stored on ascending times, as a reversed view
        hats = stack[::-1] if reversed_view else stack
        # the block of steps j..j+2 (cut at the last step 7) crosses from the
        # first-step stencil into the interior one, or from it into the last
        hi = min(j + 3, 8)
        out = np.empty((hi - j, 256), dtype=np.complex128)
        _midpoints(hats, j, hi, out)
        for s in range(j, hi):
            weights, lo = {0: (_MID_FIRST, 0), 7: (_MID_LAST, 5)}.get(s, (_MID_INTERIOR, s - 1))
            expected = weights @ hats[lo : lo + 4]
            assert np.max(np.abs(out[s - j] - expected)) <= 1e-14 * np.max(np.abs(expected))


class TestBatchedMarch:
    # A partner sub-problem rides in the same (2, n) state; each row must
    # equal its own one-row solve up to round-off.
    def _pair(self, coeffs, zero_mean_partner, mode="truncated"):
        grid = Grid1D(128, 8 * np.pi)
        w = build_weight(1.0, grid, mode=mode)
        horizon = 0.02
        times = np.linspace(0.0, horizon, 33)
        ramp = 1.0 + 20.0 * times[:, None]
        src_m = SpaceTimeField(grid, times, ramp * random_band_field(grid, 20, 5).values)
        wave = np.cos(50.0 * times)[:, None]
        src_p = SpaceTimeField(grid, times, wave * random_band_field(grid, 20, 6).values)
        table = OperatorTable(coeffs, w, times)
        fwd = LinearProblem(
            direction="forward", table=table, source=src_m, zero_mean=True,
            datum=project(random_band_field(grid, 20, 7), "-"),
        )
        bwd = LinearProblem(
            direction="backward", table=table, source=src_p, zero_mean=zero_mean_partner,
            datum=project(random_band_field(grid, 20, 8), "+"),
        )
        cfg = StepperConfig(epsilon=1e-4, n_steps=32)
        return fwd, bwd, cfg, table

    @pytest.mark.parametrize(
        "coeffs, constant",
        [
            (CoefficientField("1 + 0.1*exp(-t)*sech(x) + 0.2*sin(40*t)", "0.05*sech(x)"), False),
            (CoefficientField("1 + 0.1*sech(x)", "0.05*sech(x)"), True),
        ],
        ids=["time-dependent", "constant-table"],
    )
    @pytest.mark.parametrize("partner_zero_mean", [True, False])
    def test_pair_matches_one_row_solves(self, monkeypatch, coeffs, constant, partner_zero_mean):
        # blocks of 4 steps into a prefilled plan buffer: a row that read
        # stale slots as its forcing (the unsourced row of a one-sourced
        # pair) would leave its own solve
        monkeypatch.setattr(spectral, "CHUNK_BYTES", 1 << 13)
        fwd, bwd, cfg, table = self._pair(coeffs, partner_zero_mean)
        assert table.constant is constant
        unsourced = dataclasses.replace(bwd, source=None)
        rng = np.random.default_rng(2)
        for first, second in ((fwd, bwd), (bwd, fwd), (fwd, unsourced), (unsourced, fwd)):
            plan = MarchPlan(table, cfg, *zip(*((q.direction, q.zero_mean) for q in (first, second))))
            plan.out[:] = rng.standard_normal((2, 33, 128)) + 1j * rng.standard_normal((2, 33, 128))
            pair = solve_linear(first, cfg, partner=second, plan=plan)
            for got, problem in zip(pair, (first, second)):
                alone = solve_linear(problem, cfg)
                assert got.times.shape == alone.times.shape
                scale = np.max(np.abs(alone.values))
                assert np.max(np.abs(got.values - alone.values)) <= 1e-12 * scale

    def test_march_into_a_buffer_measures_what_it_overwrites(self):
        # the steps land in the plan's buffer bit for bit, and the update
        # is each row's sup over slots of hat_norm(new - old)
        coeffs = CoefficientField("1 + 0.1*exp(-t)*sech(x)", "0.05*sech(x)")
        fwd, bwd, cfg, table = self._pair(coeffs, True)
        fresh_m, fresh_p = solve_linear(fwd, cfg, partner=bwd)
        rng = np.random.default_rng(3)
        plan = MarchPlan(table, cfg, ("forward", "backward"), (True, True))
        buffer, update = plan.out, plan.update
        buffer[:] = rng.standard_normal((2, 33, 128)) + 1j * rng.standard_normal((2, 33, 128))
        old = buffer.copy()
        got_m, got_p = solve_linear(fwd, cfg, partner=bwd, plan=plan)
        assert got_m.hats.base is buffer and got_p.hats.base is buffer
        assert np.array_equal(got_m.hats, fresh_m.hats)
        assert np.array_equal(got_p.hats, fresh_p.hats)
        grid = fwd.grid
        for r in range(2):
            assert update[r] == np.max(hat_norm(grid, buffer[r] - old[r]))

    @pytest.mark.parametrize(
        "coeffs, mode",
        [
            (CoefficientField("1 + 0.1*exp(-t)*sech(x)", "0.05*sech(x)"), "truncated"),
            (CONST, "pure_exponential"),
        ],
        ids=["fft", "affine"],
    )
    @pytest.mark.parametrize("unsourced", [False, True], ids=["sourced", "one-unsourced"])
    def test_measure_is_the_norm_series_bit_for_bit(self, monkeypatch, coeffs, mode, unsourced):
        # the block's one np.abs gives every slot's norm and its norm on the
        # wrong side (P+ on the forward row, P- on the backward), as the
        # fields' norm_series read them; blocks of 4 steps, into a fresh plan
        # and into a prefilled one
        monkeypatch.setattr(spectral, "CHUNK_BYTES", 1 << 13)
        fwd, bwd, cfg, table = self._pair(coeffs, True, mode)
        assert table.diagonal is table.constant is (mode == "pure_exponential")
        if unsourced:
            bwd = dataclasses.replace(bwd, source=None)
        wrong = [projection_multiplier(fwd.grid, sign) for sign in "+-"]
        rng = np.random.default_rng(5)
        for prefill in (False, True):
            plan = MarchPlan(table, cfg, ("forward", "backward"), (True, True))
            if prefill:
                plan.out[:] = rng.standard_normal((2, 33, 128)) + 1j * rng.standard_normal((2, 33, 128))
            pair = solve_linear(fwd, cfg, partner=bwd, plan=plan)
            for row, field, sym in zip(plan.measure, pair, wrong):
                ascending = row if field is pair[0] else row[:, ::-1]
                assert np.array_equal(ascending[0], field.norm_series())
                assert np.array_equal(ascending[1], field.norm_series(sym))
            for norms, field in zip(plan.norms(), plan.fields()):
                assert np.array_equal(norms, field.norm_series())
        # the wrong side follows each row's direction, not its place
        swapped = MarchPlan(table, cfg, ("backward", "forward"), (True, True))
        assert np.array_equal(swapped.side[::-1], np.stack([sym.real for sym in wrong]))

    def test_backward_row_reads_mirrored_coefficients(self):
        # unweighted, real a: the conjugate of a backward solve, read in
        # reversed time, solves the forward problem with a(x, T - t)
        grid = Grid1D(128, 8 * np.pi)
        T = 0.02
        a = "1 + 0.1*exp(-30*{t})*sech(x) + 0.2*sin(40*{t})"
        coeffs = CoefficientField(a.format(t="t"), "0")
        reversed_coeffs = CoefficientField(a.format(t=f"({T} - t)"), "0")
        g = project(random_band_field(grid, 20, 8), "+")
        cfg = StepperConfig(epsilon=1e-4, n_steps=32)
        table = table_for(cfg, coeffs, unit_weight(grid), T)
        bwd = LinearProblem(direction="backward", table=table, source=None, datum=g)
        partner = LinearProblem(direction="forward", table=table, source=None, datum=g)
        fwd = LinearProblem(
            direction="forward", table=table_for(cfg, reversed_coeffs, unit_weight(grid), T), source=None,
            datum=SpectralField(grid, np.conj(g.values)),
        )
        back, _ = solve_linear(bwd, cfg, partner=partner)
        ref = solve_linear(fwd, cfg)
        diff = np.conj(back.values[::-1]) - ref.values
        assert np.max(np.abs(diff)) <= 1e-12 * np.max(np.abs(ref.values))

    @pytest.mark.parametrize("stretch", [1.0, 2.0], ids=["equal-table", "longer-horizon"])
    def test_partner_must_share_the_operator(self, stretch):
        # one table, by identity: a table built again on the same inputs is another
        fwd, bwd, cfg, table = self._pair(CONST, True)
        other = OperatorTable(CONST, table.weight, stretch * table.times)
        partner = dataclasses.replace(bwd, table=other, source=None)
        with pytest.raises(ConfigError, match="partner sub-problem must march on the same operator table"):
            solve_linear(fwd, cfg, partner=partner)

    @pytest.mark.parametrize("n_src", [4, 64], ids=["coarser", "half-step"])
    def test_source_off_the_march_grid_is_rejected(self, n_src):
        # sources are read at the march's integer nodes only; a source on
        # any other uniform grid over [0, T] is a configuration error
        grid = Grid1D(64, np.pi)
        ts = np.linspace(0.0, 0.25, n_src + 1)
        src = SpaceTimeField(grid, ts, np.ones((n_src + 1, grid.n), dtype=complex))
        cfg = StepperConfig(epsilon=0.0, n_steps=32)
        p = LinearProblem(
            direction="forward", table=table_for(cfg, CONST, unit_weight(grid), 0.25), source=src,
            datum=SpectralField(grid, np.zeros(grid.n, dtype=complex)),
        )
        with pytest.raises(ConfigError, match=f"{n_src + 1} times .* march grid of 33 times"):
            solve_linear(p, cfg)

    @pytest.mark.parametrize("shift, same", [(3e-12, False), (5e-13, True)])
    def test_march_and_table_share_one_time_grid_rule(self, shift, same):
        # node 4 of nine moved: the march's source check and the table's agree
        times = np.linspace(0.0, 0.05, 9)
        moved = times.copy()
        moved[4] += shift
        table = OperatorTable(CONST, unit_weight(Grid1D(16, np.pi)), times)
        for check in (lambda: stepper._require_march_grid(moved, times), lambda: table.require(moved)):
            if same:
                check()
            else:
                with pytest.raises(ConfigError, match="grid"):
                    check()


class TestMarchPlan:
    # One plan serves every sweep of a coupled solve; it must reproduce the
    # coefficients each march used to derive, and refuse any other march.
    COEFFS = CoefficientField("1 + 0.1*exp(-t)*sech(x) + 0.2*sin(40*t)", "0.05*sech(x)")

    def _pair(self, grid=None, horizon=0.02, coeffs=None):
        grid = grid or Grid1D(128, 8 * np.pi)
        coeffs = coeffs or self.COEFFS
        w = build_weight(1.0, grid, mode="truncated")
        table = OperatorTable(coeffs, w, np.linspace(0.0, horizon, 33))
        fwd, bwd = (
            LinearProblem(
                direction=d, table=table, source=None, zero_mean=True,
                datum=project(random_band_field(grid, 20, seed), sign),
            )
            for d, seed, sign in (("forward", 7, "-"), ("backward", 8, "+"))
        )
        return fwd, bwd, table

    def test_epsilon_study_on_one_table_equals_fresh_solves(self):
        # the study shares one table across viscosities; a plan cached
        # without epsilon in its key would march every one with the first
        fwd, _, _ = self._pair()
        cfg = StepperConfig(n_steps=32)
        schedule = (1e-2, 5e-3, 2.5e-3)
        report = epsilon_study(fwd, cfg, schedule)
        fresh = [solve_linear(fwd, dataclasses.replace(cfg, epsilon=eps)) for eps in schedule]
        diffs = tuple(float(np.max(hat_norm(fwd.grid, a.hats - b.hats))) for a, b in zip(fresh, fresh[1:]))
        assert report.differences == diffs

    @pytest.mark.parametrize("other", ["grid", "dt", "epsilon", "directions", "zero-mean"])
    def test_plan_for_another_march_is_a_config_error(self, other):
        fwd, bwd, table = self._pair()
        cfg = StepperConfig(epsilon=1e-4, n_steps=32)
        plan = MarchPlan(table, cfg, ("forward", "backward"), (True, True))
        solve_linear(fwd, cfg, partner=bwd, plan=plan)   # its own march is accepted
        if other == "grid":
            fwd, bwd, _ = self._pair(grid=Grid1D(64, 8 * np.pi))
            match = "another operator table$"
        elif other == "dt":
            fwd, bwd, _ = self._pair(horizon=0.01)
            match = "another operator table$"
        elif other == "epsilon":
            cfg = StepperConfig(epsilon=2e-4, n_steps=32)
            match = "another viscosity"
        elif other == "directions":
            fwd, bwd = bwd, fwd
            match = "another rows"
        else:
            bwd = dataclasses.replace(bwd, zero_mean=False)
            match = "another rows"
        with pytest.raises(ConfigError, match=match):
            solve_linear(fwd, cfg, partner=bwd, plan=plan)

    def test_backward_exponential_is_the_conjugate_of_the_mirrored_forward_step(self):
        # E is stored once per step for a forward row; the backward row's E,
        # conjugated from the mirrored step, is bit for bit the exponential
        # of its own midpoint mean with the orientation flipped
        fwd, bwd, table = self._pair()
        cfg = StepperConfig(epsilon=1e-4, n_steps=32)
        plan = MarchPlan(table, cfg, ("forward", "backward"), (True, True))
        grid, dt = fwd.grid, fwd.horizon / 32
        kmax = int(np.max(grid.k_index[grid.dealias_mask]))
        assert plan.kmax == kmax and plan.exponentials.shape == (32, kmax + 1)
        mirror = np.minimum(np.abs(grid.k_index), kmax + 1)
        xi2, visc = grid.xi[: kmax + 1] ** 2, -cfg.epsilon * grid.xi[: kmax + 1] ** 4
        orientation = np.array([[1.0], [-1.0]])
        for step in range(32):
            plan.load(step)
            abar = table.abar[[2 * step + 1, 2 * (32 - step) - 1]]
            band = np.zeros((2, kmax + 2), dtype=np.complex128)
            band[:, : kmax + 1] = np.exp(0.5 * dt * (visc - orientation * 1j * abar[:, None] * xi2))
            assert np.array_equal(plan.E, np.take(band, mirror, axis=-1))
            assert np.array_equal(plan.E[1, : kmax + 1], np.conj(plan.exponentials[31 - step]))

    @pytest.mark.parametrize("constant", [False, True], ids=["time-dependent", "constant"])
    def test_planned_bytes_are_the_exponentials_bytes(self, constant):
        # the peak-memory cap of the coupled solve prices the plan before
        # building it: about a third of a stack on the benchmark grid
        coeffs = CoefficientField("1 + 0.1*sech(x)", "0") if constant else self.COEFFS
        fwd, _, table = self._pair(coeffs=coeffs)
        plan = MarchPlan(table, StepperConfig(n_steps=32), ("forward",), (True,))
        assert MarchPlan.planned_bytes(fwd.grid, 32, constant) == plan.exponentials.nbytes
        stack = 16 * 2048 * 65
        assert MarchPlan.planned_bytes(Grid1D(2048, 20.0), 64, constant=False) <= stack / 3
