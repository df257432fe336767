"""Weight construction: flat/exponential pieces, smooth switch, log-derivative data."""

import numpy as np
import pytest

from schrobvp.errors import ConfigError
from schrobvp.spectral import Grid1D, SpectralField, gaussian_field
from schrobvp.weights import build_weight


def grid(n=1024, L=8 * np.pi):
    return Grid1D(n, L)


class TestTruncatedMode:
    def test_flat_left_piece(self):
        w = build_weight(1.0, grid())
        left = w.grid.x <= 0
        assert np.max(np.abs(w.values[left] - 1.0)) < 1e-12
        assert np.max(np.abs(w.logderiv[left])) == 0.0

    def test_exponential_right_piece(self):
        beta = 0.5
        w = build_weight(beta, grid())
        right = w.grid.x >= 10 * beta
        expected = np.exp(beta * w.grid.x[right])
        assert np.max(np.abs(w.values[right] / expected - 1.0)) < 1e-12
        assert np.max(np.abs(w.logderiv[right] - beta)) < 1e-15

    def test_sample_point_value(self):
        # beta = 0.5: the transition ends at x = 5, so at x = 6 the weight is e^3
        g = Grid1D(1024, 8.0)
        w = build_weight(0.5, g)
        j = int(np.argmin(np.abs(g.x - 6.0)))
        assert g.x[j] == pytest.approx(6.0)
        assert w.values[j] == pytest.approx(np.exp(3.0), rel=1e-12)

    def test_strictly_increasing_on_transition(self):
        w = build_weight(1.0, grid())
        inside = (w.grid.x >= 0) & (w.grid.x <= 10.0)
        assert np.all(np.diff(w.values[inside]) > 0)

    def test_logderiv_overshoot_within_budget(self):
        # the C^4 switch peaks near 1.79 beta; the 2 beta budget must hold
        for beta in (0.25, 0.5, 1.0):
            w = build_weight(beta, grid())
            assert beta < w.sup_logderiv <= 2.0 * beta
            assert w.sup_logderiv == pytest.approx(1.7908636 * beta, rel=1e-4)
            assert np.max(w.logderiv) <= w.sup_logderiv + 1e-12

    def test_logderiv_times_weight_is_weight_derivative(self):
        # 6th-order centered differences of the weight on the transition interior
        g = Grid1D(2048, 8 * np.pi)
        w = build_weight(1.0, g)
        stencil = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
        interior = np.where((g.x > 1.0) & (g.x < 9.0))[0]
        fd = np.zeros(len(interior))
        for s, c in zip(range(-3, 4), stencil):
            fd += c * w.values[interior + s]
        fd /= g.dx
        exact = (w.logderiv * w.values)[interior]
        assert np.max(np.abs(fd - exact)) / np.max(np.abs(exact)) < 1e-8

    def test_transition_must_fit(self):
        with pytest.raises(ConfigError):
            build_weight(2.0, Grid1D(256, 16.0))  # transition [0, 20] vs L = 16

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ConfigError):
            build_weight(0.0, grid())
        with pytest.raises(ConfigError):
            build_weight(-1.0, grid())

    def test_rejects_overflowing_weight(self):
        with pytest.raises(ConfigError):
            build_weight(10.0, Grid1D(1024, 200.0))


class TestLogderivDerivatives:
    def test_first_derivative_compact_support(self):
        w = build_weight(1.0, grid())
        d1 = w.logderiv_x
        outside = (w.grid.x <= 0) | (w.grid.x >= 10.0)
        assert np.max(np.abs(d1[outside])) == 0.0
        assert np.max(np.abs(d1)) > 0

    def test_derivatives_by_finite_differences(self):
        g = Grid1D(4096, 8 * np.pi)
        w = build_weight(1.0, g)
        interior = np.where((g.x > 0.5) & (g.x < 9.5))[0]
        fd = (w.logderiv[interior + 1] - w.logderiv[interior - 1]) / (2 * g.dx)
        target = w.logderiv_x[interior]
        assert np.max(np.abs(fd - target)) < 5e-4 * np.max(np.abs(target))


class TestPureExponentialMode:
    def test_constant_logderiv(self):
        beta = 1.0
        w = build_weight(beta, grid(), mode="pure_exponential")
        assert np.all(w.logderiv == beta)
        assert np.max(np.abs(w.values - np.exp(beta * w.grid.x))) == 0.0

    def test_commutation_with_derivative(self):
        # [weight, d/dx]f = -beta * weight * f; checked on the data-support
        # half-domain, where the weight does not amplify transform roundoff
        # past the comparison scale
        g = grid()
        beta = 0.3
        w = build_weight(beta, g, mode="pure_exponential")
        f = gaussian_field(g, center=1.0, width=1.5)
        from schrobvp.spectral import derivative

        lhs = derivative(f).values * w.values - derivative(SpectralField(g, f.values * w.values)).values
        rhs = -beta * w.values * f.values
        window = np.abs(g.x) <= g.half_length / 2
        assert np.max(np.abs(lhs - rhs)[window]) < 1e-9 * np.max(np.abs(rhs))

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            build_weight(1.0, grid(), mode="smoothstep")
