"""Monitor tests: closed-form oracles, trivial zeros, ensemble stability."""

import json
import tracemalloc

import numpy as np
import pytest

from schrobvp.cli import build_scenario, resolve_horizon
from schrobvp.coefficients import CoefficientField, NormBundle, norm_bundle, select_horizon
from schrobvp.errors import ConfigError, ValidationError
from schrobvp.estimates import (
    _weighted_halfderiv_integral,
    bootstrap_diagnostics,
    energy_monitor,
    weighted_smoothing_monitor,
)
from schrobvp.free_bvp import FreeBvpData, solve_free
from schrobvp.picard import BvpProblem, assemble_solution, picard_solve
from schrobvp.presets import load_preset, merge_scenario
from schrobvp.spectral import (
    Grid1D,
    SpaceTimeField,
    SpectralField,
    chunk_rows,
    fractional_multiplier,
    gaussian_field,
    project,
    projection_multiplier,
    random_band_field,
    row_blocks,
)
from schrobvp.stepper import LinearProblem, OperatorTable, StepperConfig, solve_linear
from schrobvp.weights import build_weight

CONST = CoefficientField("1", "0")
BENCH = CoefficientField("1 + 0.1*exp(-t)*sech(x)", "0.05*sech(x)")


def packet(grid, freq, center=0.0, width=1.5, sign="-"):
    base = gaussian_field(grid, center=center, width=width)
    vals = base.values * np.exp(1j * freq * grid.x)
    return project(SpectralField(grid, vals), sign)


def zero_field(grid):
    return SpectralField(grid, np.zeros(grid.n, dtype=complex))


def zero_stf(grid, times):
    return SpaceTimeField(grid, times, np.zeros((len(times), grid.n), dtype=complex))


def rates(coeffs, weight, v):
    """The energy monitor's rate bundle on the field's own times."""
    return norm_bundle(coeffs, weight.sup_logderiv, v.times, v.grid)


def table_on(coeffs, v, weight=None):
    """The operator table on the field's own times, as a run hands it to the monitors;
    the weight, whose q and beta they read, is the pure exponential with beta = 1 by default."""
    return OperatorTable(coeffs, weight or build_weight(1.0, v.grid, mode="pure_exponential"), v.times)


def bundle_on(coeffs, v):
    """The rate bundle on the field's own times, as a run hands it to the bootstrap
    (which reads its hypothesis series only), sampled without ``coeffs``'s floor so
    that the bootstrap's own floor check is the one a dip meets."""
    return norm_bundle(with_floor(coeffs, 0.0), 1.0, v.times, v.grid)


def with_floor(coeffs, lam):
    """``coeffs`` with the ellipticity floor ``lam`` the bootstrap assumes."""
    return CoefficientField(coeffs.a_expr, coeffs.w_expr, ellipticity=lam)


def point_sampled_integral(v, coeffs, factor=1.0, side=1.0):
    """The smoothing integral with a(x, t) sampled at the grid points: the
    reference the table-read ``_weighted_halfderiv_integral`` is held to."""
    grid = v.grid
    mult = side * fractional_multiplier(grid, 0.5).real
    per_slice = np.empty(len(v.times))
    for rows in row_blocks(len(v.times), grid.n):
        half = np.fft.ifft(mult * v.hats[rows], axis=-1)
        aval = coeffs.a_values(grid.x, v.times[rows, None])
        per_slice[rows] = grid.dx * np.sum(aval * factor * np.abs(half) ** 2, axis=1)
    return float(np.trapezoid(per_slice, v.times))


# a dips to -0.5 (energy) or 0.5 (bootstrap floor) at times[1] of 17 times on [0, 0.1] alone
DIP_TIMES = np.linspace(0.0, 0.1, 17)
DIP = "exp(-((t - 0.00625)/0.0005)^2)"


def constant_packet(grid, times):
    """A one-sided packet held fixed on ``times``."""
    hats = np.fft.fft(packet(grid, -3.0, sign="-").values)
    return SpaceTimeField(grid, times, hats=np.tile(hats, (len(times), 1)))


@pytest.fixture(scope="module")
def localized_run():
    grid = Grid1D(512, 20.0)
    w = build_weight(1.0, grid, mode="truncated")
    probe = np.linspace(0.0, 0.1, 4001)
    coeffs = with_floor(BENCH, 0.9)   # the floor the bootstrap reads from the run's table
    sel = select_horizon(norm_bundle(coeffs, w.sup_logderiv, probe, grid))
    f = packet(grid, -3.0, width=1.5, sign="-")
    g = packet(grid, 3.0, center=1.0, width=2.0, sign="+")
    p = BvpProblem(
        f=f, g=g, coeffs=coeffs, weight=w, horizon=sel.horizon,
        stepper_cfg=StepperConfig(epsilon=1e-5, n_steps=192),
    )
    vp, vm, report = picard_solve(p)
    return grid, w, f, g, vp, vm, report


class TestEnergyMonitor:
    def test_zero_field_passes(self):
        grid = Grid1D(128, 8 * np.pi)
        w = build_weight(0.5, grid, mode="truncated")
        times = np.linspace(0.0, 0.1, 9)
        v = zero_stf(grid, times)
        rep = energy_monitor(v, None, "-", table_on(BENCH, v, w), rates(BENCH, w, v))
        assert rep.lhs == 0.0
        assert rep.verdict == "pass"

    def test_constant_coefficient_symbol_oracle(self):
        # one-sided decay evolution: every term of the monitor has a
        # closed form in the frequency variable
        grid = Grid1D(512, 8 * np.pi)
        beta = 1.0
        T = 0.3
        w = build_weight(beta, grid, mode="pure_exponential")
        f = project(random_band_field(grid, 40, 7), "-")
        times = np.linspace(0.0, T, 601)
        sol = solve_free(FreeBvpData(f=f, g=zero_field(grid), beta=beta,
                                     horizon=T, times=times))
        rep = energy_monitor(sol, None, "-", table_on(CONST, sol, w), rates(CONST, w, sol))

        f_hat = np.fft.fft(f.values)
        weights_hat = grid.dx / grid.n
        xi = np.abs(grid.xi)
        smoothing_exact = float(
            weights_hat * np.sum(np.abs(f_hat) ** 2 * (1.0 - np.exp(-4 * beta * xi * T))) / 4.0
        )
        lhs_exact = f.norm_l2() + 2.0 * np.sqrt(smoothing_exact)
        rhs_exact = 3.0 * f.norm_l2() * np.exp(4.0 * T)

        assert abs(rep.lhs - lhs_exact) < 1e-3 * lhs_exact
        assert abs(rep.rhs - rhs_exact) < 1e-9 * rhs_exact
        assert rep.ratio <= 1.0
        assert rep.verdict == "pass"

    def test_variable_coefficient_solve_satisfies_bound(self):
        grid = Grid1D(512, 20.0)
        w = build_weight(1.0, grid, mode="truncated")
        f = packet(grid, -3.0, sign="-")
        cfg = StepperConfig(epsilon=1e-5, n_steps=128)
        table = OperatorTable(BENCH, w, cfg.time_grid(0.02))
        prob = LinearProblem(direction="forward", table=table, source=None, datum=f, zero_mean=True)
        sol = solve_linear(prob, cfg)
        rep = energy_monitor(sol, None, "-", table, rates(BENCH, w, sol))
        assert rep.ratio <= 1.0
        assert rep.verdict == "pass"

    def test_negative_integrand_rejected(self):
        grid = Grid1D(256, 8 * np.pi)
        w = build_weight(1.0, grid, mode="truncated")
        dipping = CoefficientField("1 - 2*sech(x)", "0")
        times = np.linspace(0.0, 0.05, 5)
        v = SpaceTimeField(
            grid, times, np.ones((5, grid.n), dtype=complex)
        )
        # a dips below the ellipticity floor, so norm_bundle would refuse it
        flat = NormBundle.from_rates(times, np.zeros(5), np.zeros(5))
        with pytest.raises(ValidationError, match="nonneg"):
            energy_monitor(v, None, "-", table_on(dipping, v, w), flat)

    def test_dip_between_sampled_times_rejected(self):
        # every table row is checked, not a stride of the times: a is -0.5 at times[1] only
        grid = Grid1D(256, 8 * np.pi)
        w = build_weight(1.0, grid, mode="truncated")
        dipping = CoefficientField(f"1 - 1.5*{DIP}", "0")
        v = constant_packet(grid, DIP_TIMES)
        assert np.min(dipping.a_values(grid.x, DIP_TIMES[::2, None])) > 0.99
        flat = NormBundle.from_rates(DIP_TIMES, np.zeros(17), np.zeros(17))
        with pytest.raises(ValidationError, match="nonneg"):
            energy_monitor(v, None, "-", table_on(dipping, v, w), flat)

    @pytest.mark.parametrize("other", [np.linspace(0.0, 0.1, 9), np.linspace(0.0, 0.2, 17)])
    def test_table_on_another_time_grid_rejected(self, other):
        grid = Grid1D(128, 8 * np.pi)
        w = build_weight(0.5, grid, mode="truncated")
        v = zero_stf(grid, np.linspace(0.0, 0.1, 17))
        table = OperatorTable(BENCH, w, other)
        with pytest.raises(ConfigError, match="time grid"):
            energy_monitor(v, None, "-", table, rates(BENCH, w, v))
        with pytest.raises(ConfigError, match="time grid"):
            weighted_smoothing_monitor(v, table)
        with pytest.raises(ConfigError, match="time grid"):
            bootstrap_diagnostics(constant_packet(grid, v.times), table, bundle_on(BENCH, v))

    # the last grid is the field's stretched by a relative 5e-6: another grid, though np.allclose takes it
    @pytest.mark.parametrize("other", [np.linspace(0.0, 0.1, 9), np.linspace(0.0, 0.2, 17),
                                       np.linspace(0.0, 0.1, 17) * (1 + 5e-6)])
    def test_bundle_on_another_time_grid_rejected(self, other):
        grid = Grid1D(128, 8 * np.pi)
        w = build_weight(0.5, grid, mode="truncated")
        v = zero_stf(grid, np.linspace(0.0, 0.1, 17))
        bundle = norm_bundle(BENCH, w.sup_logderiv, other, grid)
        with pytest.raises(ValidationError, match="time grid"):
            energy_monitor(v, None, "-", table_on(BENCH, v, w), bundle)
        with pytest.raises(ValidationError, match="time grid"):
            bootstrap_diagnostics(v, table_on(with_floor(BENCH, 0.9), v, w), bundle)

    def test_source_norms_enter_by_the_trapezoid_on_the_field_times(self):
        grid = Grid1D(128, 8 * np.pi)
        w = build_weight(0.5, grid, mode="truncated")
        v = zero_stf(grid, np.linspace(0.0, 0.1, 17))
        bundle, table = rates(BENCH, w, v), table_on(BENCH, v, w)
        norms = 1.0 + v.times**2
        rep = energy_monitor(v, norms, "-", table, bundle)
        assert rep.constants["source_integral"] == float(np.trapezoid(norms, v.times))
        with pytest.raises(ValidationError, match="17 times"):
            energy_monitor(v, norms[:9], "-", table, bundle)


class TestWeightedSmoothingMonitor:
    def test_zero_fields(self):
        grid = Grid1D(128, 8.0)
        times = np.linspace(0.0, 0.1, 9)
        v = zero_stf(grid, times)
        rep = weighted_smoothing_monitor(v, table_on(CONST, v))
        assert rep.lhs == 0.0
        assert rep.verdict == "pass"

    def test_symbol_oracle_and_horizon_saturation(self):
        # modulated packets put the spectral mass at |xi| ~ 4, so the
        # smoothing integral saturates once 4 beta |xi| T >> 1 and the
        # implied constant becomes horizon-independent
        grid = Grid1D(512, 8 * np.pi)
        beta = 1.0
        f = packet(grid, -4.0, width=1.5, sign="-")
        g = packet(grid, 4.0, width=1.5, sign="+")
        implied = []
        for T in (1.0, 2.0):
            times = np.linspace(0.0, T, 1201)
            w_minus = solve_free(FreeBvpData(f=f, g=zero_field(grid), beta=beta,
                                             horizon=T, times=times))
            w_plus = solve_free(FreeBvpData(f=zero_field(grid), g=g, beta=beta,
                                            horizon=T, times=times))
            # one-sided data: the P+ and P- parts of the sum are the two solves
            w = SpaceTimeField(grid, times, hats=w_plus.hats + w_minus.hats)
            weight = build_weight(beta, grid, mode="pure_exponential")
            rep = weighted_smoothing_monitor(w, table_on(CONST, w, weight))
            data_form = g.norm_l2() ** 2 + f.norm_l2() ** 2

            xi = np.abs(grid.xi)
            wq = grid.dx / grid.n
            lhs_exact = float(
                wq * np.sum(np.abs(np.fft.fft(f.values)) ** 2
                            * (1.0 - np.exp(-4 * beta * xi * T))) / 4.0
                + wq * np.sum(np.abs(np.fft.fft(g.values)) ** 2
                              * (1.0 - np.exp(-4 * beta * xi * T))) / 4.0
            )
            assert abs(rep.lhs - lhs_exact) < 2e-3 * lhs_exact
            assert abs(rep.rhs - data_form) < 1e-12 * data_form
            implied.append(rep.constants["implied_c"])
        assert implied[0] < 0.26
        assert abs(implied[1] - implied[0]) < 0.01 * implied[0]

    def test_implied_c_converges_under_refinement_on_benchmark(self):
        # the periodic weight and the smooth window keep w spectrally
        # resolved, so criterion 11's constant settles to round-off
        horizon = None
        implied = []
        for n in (1024, 2048, 4096):
            raw = merge_scenario(load_preset("benchmark"), {"grid": {"n": n}, "horizon": horizon})
            sc = build_scenario(raw)
            horizon, _, _ = resolve_horizon(sc, None)
            vp, vm, report = picard_solve(BvpProblem(
                f=sc.f, g=sc.g, coeffs=sc.coeffs, weight=sc.weight, horizon=horizon, stepper_cfg=sc.stepper,
            ))
            w = assemble_solution(vp, vm, sc.weight).w
            implied.append(weighted_smoothing_monitor(w, report.table).constants["implied_c"])
        for coarse, fine in zip(implied, implied[1:]):
            assert abs(fine / coarse - 1.0) < 1e-10, implied

    def test_support_window_violation(self):
        grid = Grid1D(256, 8 * np.pi)
        edge = gaussian_field(grid, center=0.95 * grid.half_length, width=0.5)
        times = np.array([0.0, 0.1])
        stacked = SpaceTimeField(
            grid, times, np.stack([edge.values, edge.values]).astype(complex)
        )
        with pytest.raises(ValidationError, match="support"):
            weighted_smoothing_monitor(stacked, table_on(CONST, stacked))

    def test_support_check_reads_w_not_w_minus_its_mean(self):
        # a w with a large mean and no mass near the seam passes; the old
        # reading, the outer share of (P+ + P-) w = w - mean(w), rejects it.
        # The same w plus a zero-mean bump centred at 0.95 L fails
        grid = Grid1D(256, 8 * np.pi)
        outer = np.abs(grid.x) > 0.9 * grid.half_length
        w0 = gaussian_field(grid, width=0.15 * grid.half_length).values
        assert np.sum(np.abs(w0[outer]) ** 2) < 1e-12 * np.sum(np.abs(w0) ** 2)
        centred = np.abs(w0 - np.mean(w0)) ** 2
        assert np.sum(centred[outer]) > 2e-2 * np.sum(centred)
        times = np.array([0.0, 0.1])
        stacked = SpaceTimeField(grid, times, np.stack([w0, w0]))
        assert weighted_smoothing_monitor(stacked, table_on(CONST, stacked)).verdict == "pass"
        bump = 0.5 * packet(grid, 3.0, center=0.95 * grid.half_length, width=0.5, sign="+").values
        assert abs(np.mean(bump)) < 1e-15
        stacked = SpaceTimeField(grid, times, np.stack([w0 + bump, w0 + bump]))
        with pytest.raises(ValidationError, match="support"):
            weighted_smoothing_monitor(stacked, table_on(CONST, stacked))

    @pytest.mark.parametrize("edge, over", [(0.1, False), (0.2, True)])
    def test_support_cap_counts_both_sides(self, edge, over):
        # outer-decade packets at both ends, all on the P- side, beside a
        # central field mostly on the P+ side: the check raises exactly when
        # the outer share of |P+ w + P- w|^2 passes 1% (either part alone
        # would read about 0% or 7-22%)
        grid = Grid1D(256, 8 * np.pi)
        edge_at = 0.95 * grid.half_length
        w0 = (
            packet(grid, 2.0, sign="+") + 0.3 * packet(grid, -2.0, sign="-")
            + edge * packet(grid, -3.0, center=edge_at, width=0.5, sign="-")
            + edge * packet(grid, -3.0, center=-edge_at, width=0.5, sign="-")
        )
        mass = np.abs(w0.values) ** 2
        share = np.sum(mass[np.abs(grid.x) > 0.9 * grid.half_length]) / np.sum(mass)
        assert bool(share > 1e-2) == over and 5e-3 < share < 3e-2
        stacked = SpaceTimeField(grid, np.array([0.0, 0.1]), np.stack([w0.values, w0.values]))
        if over:
            with pytest.raises(ValidationError, match="support"):
                weighted_smoothing_monitor(stacked, table_on(CONST, stacked))
        else:
            assert weighted_smoothing_monitor(stacked, table_on(CONST, stacked)).verdict == "pass"


class TestBootstrapDiagnostics:
    def test_lambda_zero_not_applicable(self):
        grid = Grid1D(128, 8.0)
        times = np.linspace(0.0, 0.1, 9)
        w = zero_stf(grid, times)
        rep = bootstrap_diagnostics(w, table_on(CONST, w), bundle_on(CONST, w))
        assert rep.verdict == "not-applicable"

    def test_lambda_zero_still_checks_both_time_grids(self):
        # lam = 0 skips the diagnostics, not the checks the other monitors make:
        # a table, then a bundle, on another time grid is rejected
        grid = Grid1D(128, 8 * np.pi)
        w = build_weight(0.5, grid, mode="truncated")
        v = constant_packet(grid, np.linspace(0.0, 0.1, 17))
        other = np.linspace(0.0, 0.1, 9)
        assert BENCH.ellipticity == 0.0
        with pytest.raises(ConfigError, match="time grid"):
            bootstrap_diagnostics(v, OperatorTable(BENCH, w, other), bundle_on(BENCH, v))
        with pytest.raises(ValidationError, match="time grid"):
            bootstrap_diagnostics(v, table_on(BENCH, v, w), norm_bundle(BENCH, w.sup_logderiv, other, grid))

    def test_constant_coefficient_pairings_vanish(self):
        grid = Grid1D(256, 8 * np.pi)
        T = 0.2
        times = np.linspace(0.0, T, 65)
        f = packet(grid, -4.0, sign="-")
        sol = solve_free(FreeBvpData(f=f, g=zero_field(grid), beta=1.0,
                                     horizon=T, times=times))
        rep = bootstrap_diagnostics(sol, table_on(with_floor(CONST, 0.95), sol), bundle_on(CONST, sol))
        assert rep.verdict == "pass"
        assert rep.constants["pairing_ratio_low"] == 0.0
        assert rep.constants["pairing_ratio_high"] == 0.0
        assert rep.constants["factorization_error"] <= 1e-12
        assert rep.ratio <= 0.95 + 1e-9

    def test_benchmark_run_passes(self, localized_run):
        grid, w, f, g, vp, vm, report = localized_run
        asm = assemble_solution(vp, vm, w)
        rep = bootstrap_diagnostics(asm.w, report.table, report.bundle)
        assert rep.verdict == "pass"
        assert rep.ratio <= 0.95
        assert rep.constants["hypothesis_ok"]
        assert rep.constants["pairing_identity_error"] <= 1e-8
        assert rep.constants["interior_norm_low"] > 0.0
        assert np.isfinite(rep.constants["implied_data_constant"])

    def test_floor_violation_rejected(self, localized_run):
        grid, w, f, g, vp, vm, report = localized_run
        asm = assemble_solution(vp, vm, w)
        with pytest.raises(ValidationError, match="floor"):
            bootstrap_diagnostics(asm.w, table_on(with_floor(BENCH, 1.5), asm.w, w), report.bundle)

    def test_floor_dip_between_sampled_times_rejected(self):
        # a is 0.5 < 0.9 at times[1] only, a time the old strided sampling skipped
        grid = Grid1D(256, 8 * np.pi)
        dipping = with_floor(CoefficientField(f"1 - 0.5*{DIP}", "0"), 0.9)
        w = constant_packet(grid, DIP_TIMES)
        assert np.min(dipping.a_values(grid.x, DIP_TIMES[::2, None])) > 0.99
        with pytest.raises(ValidationError, match="floor"):
            bootstrap_diagnostics(w, table_on(dipping, w), bundle_on(dipping, w))

    def test_hypothesis_need_reads_every_time_of_the_bundle(self, monkeypatch):
        # a_x and a_xx spike at times[1] only, a time the old strided sampling skipped
        grid = Grid1D(256, 8 * np.pi)
        spiking = with_floor(CoefficientField(f"1 + 0.05*sech(x) + 5*sech(x)*{DIP}", "0"), 0.9)
        w = constant_packet(grid, DIP_TIMES)
        table, bundle = table_on(spiking, w), bundle_on(spiking, w)
        pairing = []   # the bootstrap evaluates a_x at its three pairing slices and nothing else

        def a_x(x, t, out=None):
            pairing.append(len(t))
            return CoefficientField.a_x(spiking, x, t, out)

        monkeypatch.setattr(spiking, "a_x", a_x)
        for name in ("a_values", "a_xx", "w_values"):
            monkeypatch.setattr(spiking, name, None)
        rep = bootstrap_diagnostics(w, table, bundle)
        assert pairing == [3]
        assert rep.constants["hypothesis_need"] == pytest.approx(8.68, abs=5e-3)
        assert rep.constants["hypothesis_margin"] < 0.0 and rep.constants["hypothesis_ok"] is False


class TestTableReadIntegral:
    """The smoothing integral reads a from the operator table's 2/3-masked rows,
    which differ from point samples only by a's band tail."""

    def test_benchmark_coefficients_agree_with_point_samples(self, localized_run):
        grid, w, f, g, vp, vm, report = localized_run
        v = assemble_solution(vp, vm, w).w
        sym_p = projection_multiplier(grid, "+")
        cases = [(v, {}, {}), (v, {"side": sym_p}, {"side": sym_p}),
                 (v, {"factor": w.logderiv}, {"factor": w.logderiv})]
        keep = slice(20, 150)   # an interior interval, as the bootstrap reads
        inner = SpaceTimeField(grid, v.times[keep], hats=v.hats[keep])
        cases.append((inner, {"first": 20}, {}))
        for field, table_kw, point_kw in cases:
            got = _weighted_halfderiv_integral(field, report.table, **table_kw)
            want = point_sampled_integral(field, BENCH, **point_kw)
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_constant_coefficient_is_exact(self):
        grid = Grid1D(256, 8 * np.pi)
        const = CoefficientField("0.75", "0")
        v = constant_packet(grid, np.linspace(0.0, 0.1, 33))
        w = build_weight(1.0, grid, mode="truncated")
        table = table_on(const, v, w)
        assert _weighted_halfderiv_integral(v, table) == point_sampled_integral(v, const)
        assert (_weighted_halfderiv_integral(v, table, factor=w.logderiv)
                == point_sampled_integral(v, const, factor=w.logderiv))


def _same_report(got, want, rel=1e-12):
    """Equal sides, ratio and constants to ``rel``; round-off-level error measures excluded."""
    for key in ("lhs", "rhs", "ratio"):
        assert getattr(got, key) == pytest.approx(getattr(want, key), rel=rel, abs=0.0)
    for key, val in want.constants.items():
        if key.endswith("_error"):
            continue
        assert got.constants[key] == pytest.approx(val, rel=rel, abs=0.0), key


class TestStorageForms:
    def test_value_and_hat_backed_stacks_agree(self, localized_run):
        grid, w, f, g, vp, vm, report = localized_run
        w_asm = assemble_solution(vp, vm, w).w
        values = w_asm.values
        norms = w_asm.norm_series()
        # distinct slice norms, so the interior-witness argmin has no ties
        assert np.min(np.diff(np.sort(norms))) > 1e-9 * np.max(norms)
        by_values = SpaceTimeField(grid, w_asm.times, values)
        by_hats = SpaceTimeField(grid, w_asm.times, hats=np.fft.fft(values, axis=1))

        boot = [bootstrap_diagnostics(s, report.table, report.bundle)
                for s in (by_hats, by_values)]
        _same_report(*boot)
        assert boot[0].constants["interior_index_low"] == boot[1].constants["interior_index_low"]
        assert boot[0].constants["interior_index_high"] == boot[1].constants["interior_index_high"]
        smooth = [weighted_smoothing_monitor(s, report.table) for s in (by_hats, by_values)]
        _same_report(*smooth)

    def test_nyquist_content_counts_on_the_negative_side(self):
        # P- drops the Nyquist mode; the bootstrap's negative side must keep it,
        # or a field living there would give a zero right-hand side
        grid = Grid1D(128, 8.0)
        times = np.linspace(0.0, 0.1, 17)
        hats = np.zeros((len(times), grid.n), dtype=complex)
        hats[:, grid.n // 2] = grid.n * (1.0 + times)
        w = SpaceTimeField(grid, times, hats=hats)
        rep = bootstrap_diagnostics(w, table_on(with_floor(CONST, 0.9), w), bundle_on(CONST, w))
        assert rep.verdict == "pass"
        assert rep.ratio == pytest.approx(0.9, rel=1e-12, abs=0.0)

    def test_smoothing_monitor_reads_one_block_at_a_time(self):
        grid = Grid1D(2048, 40.0)
        times = np.linspace(0.0, 0.1, 16 * chunk_rows(grid.n) + 1)
        bump = gaussian_field(grid, width=2.0).values * np.exp(2j * grid.x)
        hats = np.fft.fft(bump)[None, :] * (1.0 + times)[:, None]
        w = SpaceTimeField(grid, times, hats=hats)
        table = table_on(BENCH, w)
        tracemalloc.start()
        try:
            rep = weighted_smoothing_monitor(w, table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.verdict == "pass"
        assert peak < 0.5 * hats.nbytes


class TestReportSerialization:
    def test_to_dict_json_safe(self):
        grid = Grid1D(128, 8.0)
        times = np.linspace(0.0, 0.1, 17)
        hats = np.zeros((len(times), grid.n), dtype=complex)
        hats[:, 3] = grid.n * (1.0 + times)
        w = SpaceTimeField(grid, times, hats=hats)
        rep = bootstrap_diagnostics(w, table_on(with_floor(CONST, 0.9), w), bundle_on(CONST, w))
        payload = rep.to_dict()
        json.dumps(payload)
        assert payload["name"] == "bootstrap"
        assert isinstance(payload["constants"]["interior_index_low"], float)
        assert payload["constants"]["hypothesis_ok"] is True
