"""Closed-form two-endpoint solve: endpoint recovery, damping, estimate, blow-up demo."""

import numpy as np
import pytest

from schrobvp.errors import ConfigError, ValidationError
from schrobvp.free_bvp import (
    FreeBvpData,
    forward_growth_demo,
    solve_free,
    verify_free_estimate,
)
from schrobvp.spectral import (
    Grid1D,
    SpectralField,
    gaussian_field,
    mode_field,
    project,
    random_band_field,
    remove_pi0,
)


def grid(n=512, L=8 * np.pi):
    return Grid1D(n, L)


def split_data(g, seed=0, band=40):
    base = random_band_field(g, band, seed)
    return project(base, "-"), project(random_band_field(g, band, seed + 1), "+")


class TestEndpointRecovery:
    def test_data_recovered_at_endpoints(self):
        g = grid()
        f, gdat = split_data(g)
        data = FreeBvpData(f=f, g=gdat, beta=1.0, horizon=1.0)
        sol = solve_free(data)
        v0 = project(sol.slice(0), "-")
        vT = project(sol.slice(-1), "+")
        assert (v0 - f).norm_l2() < 1e-12 * f.norm_l2()
        assert (vT - gdat).norm_l2() < 1e-12 * gdat.norm_l2()

    def test_frequency_non_interaction(self):
        g = grid()
        f, _ = split_data(g, seed=3)
        zero = SpectralField(g, np.zeros(g.n))
        sol = solve_free(FreeBvpData(f=f, g=zero, beta=0.5, horizon=1.0))
        for i in range(len(sol.times)):
            assert project(sol.slice(i), "+").norm_l2() < 1e-12 * f.norm_l2()

    def test_rejects_contaminated_datum(self):
        g = grid()
        full = random_band_field(g, 30, 5)  # both frequency signs present
        zero = SpectralField(g, np.zeros(g.n))
        with pytest.raises(ValidationError):
            FreeBvpData(f=full, g=zero, beta=1.0, horizon=1.0)

    @pytest.mark.parametrize("beta, L", [(float("inf"), 8.0), (1e155, 1e-150)])
    def test_rejects_an_infinite_rate_or_one_whose_square_overflows(self, beta, L):
        # beta * L is tiny here, but the phase i beta^2 is not finite
        zero = SpectralField(grid(64, L), np.zeros(64))
        with pytest.raises(ConfigError, match="beta"):
            FreeBvpData(f=zero, g=zero, beta=beta, horizon=1.0)

    def test_rejects_mean(self):
        g = grid()
        f = project(random_band_field(g, 30, 7), "-")
        bad = SpectralField(g, f.values + 0.5)
        with pytest.raises(ValidationError):
            FreeBvpData(f=bad, g=SpectralField(g, np.zeros(g.n)), beta=1.0, horizon=1.0)


class TestDamping:
    def test_norm_matches_symbol_oracle_and_decays(self):
        g = grid()
        f = project(gaussian_field(g, width=1.5), "-")
        zero = SpectralField(g, np.zeros(g.n))
        beta = 1.0
        data = FreeBvpData(f=f, g=zero, beta=beta, horizon=1.0)
        sol = solve_free(data)
        w = g.dx / g.n
        for i, t in enumerate(sol.times):
            oracle = np.sqrt(w * np.sum(np.exp(-4 * beta * np.abs(g.xi) * t) * np.abs(f.hat) ** 2))
            assert sol.norm_series()[i] == pytest.approx(oracle, rel=1e-10)
        assert np.all(np.diff(sol.norm_series()) <= 1e-14)

    def test_single_mode_uniform_modulus(self):
        g = Grid1D(512, 16 * np.pi)
        k = -80  # xi = -5
        f = mode_field(g, k)
        zero = SpectralField(g, np.zeros(g.n))
        beta = 0.7
        sol = solve_free(FreeBvpData(f=f, g=zero, beta=beta, horizon=0.5))
        for i, t in enumerate(sol.times):
            expected = np.exp(-2 * beta * 5.0 * t)
            mods = np.abs(sol.values[i])
            assert np.max(np.abs(mods - expected)) < 1e-12 * max(expected, 1e-300) + 1e-13

    def test_interior_smoothing_bound(self):
        g = grid()
        f, gdat = split_data(g, seed=11)
        beta, T = 1.0, 1.0
        sol = solve_free(FreeBvpData(f=f, g=gdat, beta=beta, horizon=T))
        bound_scale = np.abs(f.hat) + np.abs(gdat.hat)
        for i, t in enumerate(sol.times):
            hat = np.fft.fft(sol.values[i])
            bound = np.exp(-2 * beta * np.abs(g.xi) * min(t, T - t)) * bound_scale
            assert np.all(np.abs(hat) <= bound * (1 + 1e-10) + 1e-12)


class TestFreeEstimate:
    def test_ratio_never_exceeds_one(self):
        g = grid()
        for beta in (0.5, 1.0, 2.0):
            for T in (0.5, 1.0):
                f, gdat = split_data(g, seed=int(10 * beta + T))
                data = FreeBvpData(f=f, g=gdat, beta=beta, horizon=T)
                rep = verify_free_estimate(solve_free(data), data)
                assert rep.ratio <= 1 + 1e-10

    def test_ratio_attained_at_datum_endpoint(self):
        g = grid()
        f, _ = split_data(g, seed=21)
        zero = SpectralField(g, np.zeros(g.n))
        data = FreeBvpData(f=f, g=zero, beta=1.0, horizon=1.0)
        rep = verify_free_estimate(solve_free(data), data)
        assert rep.ratio == pytest.approx(1.0, rel=1e-12)
        assert rep.attained_at == 0.0

    def test_zero_data(self):
        g = grid()
        zero = SpectralField(g, np.zeros(g.n))
        data = FreeBvpData(f=zero, g=zero, beta=1.0, horizon=1.0)
        rep = verify_free_estimate(solve_free(data), data)
        assert rep.ratio == 0.0


class TestGrowthDemo:
    def test_growing_mode(self):
        g = Grid1D(512, 16 * np.pi)
        u0 = mode_field(g, 80)  # xi = +5
        beta, t = 1.0, 0.8
        rep = forward_growth_demo(u0, beta, t)
        assert rep.max_magnification == pytest.approx(np.exp(2 * beta * 5 * t), rel=1e-6)
        assert not rep.saturated

    def test_damped_mode(self):
        g = Grid1D(512, 16 * np.pi)
        u0 = mode_field(g, -80)
        rep = forward_growth_demo(u0, 1.0, 0.8)
        assert rep.max_magnification == pytest.approx(np.exp(-8.0), rel=1e-6)

    def test_no_drift_is_unitary(self):
        g = grid()
        u0 = remove_pi0(random_band_field(g, 30, 23, zero_mean=False))
        rep = forward_growth_demo(u0, 0.0, 1.0)
        assert np.max(np.abs(rep.magnification - 1.0)) < 1e-12

    def test_cap_and_saturation_flag(self):
        g = Grid1D(512, 16 * np.pi)
        u0 = mode_field(g, 80)
        rep = forward_growth_demo(u0, 1.0, 3.0)  # e^30 >> 1e12
        assert rep.saturated
        assert rep.max_magnification == 1e12

    def test_overflow_guard(self):
        g = grid()
        u0 = mode_field(g, 10)
        with pytest.raises(ConfigError):
            forward_growth_demo(u0, 1.0, 1e4)
