"""Weight construction: e^phi from the log-derivative q, its closed forms and its checks."""

import numpy as np
import pytest

from schrobvp.errors import ConfigError
from schrobvp.spectral import Grid1D, SpectralField, gaussian_field
from schrobvp.weights import build_weight, unit_weight


def grid(n=1024, L=8 * np.pi):
    return Grid1D(n, L)


class TestTruncatedMode:
    def test_flat_left_piece(self):
        # 20 ramp widths left of the rise at 5 beta, q and q' are below round-off
        w = build_weight(1.0, grid())
        left = w.grid.x <= -5.0
        assert np.max(np.abs(w.values[left] / w.values[0] - 1.0)) < 1e-14
        assert np.max(np.abs(w.logderiv[left])) == 0.0
        assert np.max(np.abs(w.logderiv_x[left])) == 0.0

    def test_exponential_right_piece(self):
        # on the plateau between the ramps the weight is a constant times e^(beta x)
        beta = 0.5
        g = Grid1D(1024, 40.0)
        w = build_weight(beta, g)
        plateau = (g.x >= 5 * beta + 10) & (g.x <= g.half_length - 20)
        ratio = w.values[plateau] / np.exp(beta * g.x[plateau])
        assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-12
        assert np.max(np.abs(w.logderiv[plateau] - beta)) < 1e-15

    @pytest.mark.parametrize("beta, L", [(1.0, 40.0), (0.5, 8 * np.pi), (2.0, 30.0)])
    def test_phi_is_the_closed_form_log_cosh_integral(self, beta, L):
        g = Grid1D(1024, L)
        w = build_weight(beta, g)

        def primitive(x):
            rise, fall = 5.0 * beta, L - 10.0
            return 0.25 * beta * (np.log(np.cosh((x - rise) / 0.5)) - np.log(np.cosh((x - fall) / 0.5)))

        phi = primitive(g.x) - primitive(0.0)
        assert np.max(np.abs(np.log(w.values) - phi)) < 1e-13

    def test_strictly_increasing_on_transition(self):
        w = build_weight(1.0, grid())
        inside = (w.grid.x >= 0) & (w.grid.x <= 10.0)
        assert np.all(np.diff(w.values[inside]) > 0)

    def test_logderiv_overshoot_within_budget(self):
        # q = beta on the plateau and nowhere above it: the rate bound is beta itself
        for beta in (0.25, 0.5, 1.0):
            w = build_weight(beta, grid())
            assert w.sup_logderiv == np.max(w.logderiv)
            assert (1.0 - 1e-8) * beta < w.sup_logderiv <= beta

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
        # the rise at 5 beta and the fall at L - 10 must be 10 ramp widths apart
        with pytest.raises(ConfigError, match=r"beta = 2 needs L >= 25, got L = 16"):
            build_weight(2.0, Grid1D(256, 16.0))
        with pytest.raises(ConfigError, match=r"beta = 1 needs L >= 20, got L = 19\.9"):
            build_weight(1.0, Grid1D(256, 19.9))
        assert build_weight(1.0, Grid1D(256, 20.0)).sup_logderiv > 0.99

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ConfigError):
            build_weight(0.0, grid())
        with pytest.raises(ConfigError):
            build_weight(-1.0, grid())

    def test_rejects_overflowing_weight(self):
        with pytest.raises(ConfigError):
            build_weight(10.0, Grid1D(1024, 200.0))


class TestLogderivDerivatives:
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

    @pytest.mark.parametrize("n", [64, 1024])
    @pytest.mark.parametrize("beta", [0.1, 1.0 / 3.0, 0.7, 2.5])
    def test_constant_logderiv_gives_the_exact_exponential(self, n, beta):
        # bit for bit: the operator table's constant-row test and the affine
        # march rely on exact zeros in q'
        g = Grid1D(n, 24.0)
        w = build_weight(beta, g, mode="pure_exponential")
        assert np.array_equal(w.values, np.exp(beta * g.x))
        assert np.array_equal(w.logderiv_x, np.zeros(n))
        assert w.sup_logderiv == beta
        one = unit_weight(g)
        assert np.array_equal(one.values, np.ones(n)) and not np.any(one.logderiv_x)

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
