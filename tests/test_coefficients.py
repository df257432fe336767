"""Coefficient parsing, rate bundles, horizon selection, drift index."""

import numpy as np
import pytest

from schrobvp import coefficients
from schrobvp.coefficients import (
    CoefficientField,
    NormBundle,
    mizohata_index,
    norm_bundle,
    select_horizon,
)
from schrobvp.errors import ConfigError, HorizonError, ValidationError
from schrobvp.spectral import Grid1D, SpectralField, derivative
from schrobvp.weights import build_weight

# calculus oracles for a(x) = sech(x):
#   max |sech'| = 1/2           (at sinh x = +-1)
#   max |<x> sech'| = 0.719379  (numerical maximization, frozen)
#   max |<x> sech''| = 1.0      (attained at x = 0 where sech'' = -1)
SECHP_MAX = 0.5
XSECHP_MAX = 0.719379
XSECHPP_MAX = 1.0


def grid(n=2048, L=8 * np.pi):
    return Grid1D(n, L)


def scaled(b, factor):
    """The bundle with every rate and integral multiplied by ``factor``."""
    return NormBundle(
        times=b.times,
        coupling_rate=factor * b.coupling_rate,
        energy_rate=factor * b.energy_rate,
        coupling_integral=factor * b.coupling_integral,
        energy_integral=factor * b.energy_integral,
    )


class TestParsing:
    def test_benchmark_expressions(self):
        c = CoefficientField("1 + 0.1*exp(-t)*sech(x)", "0.05*sech(x)", ellipticity=0.9)
        a0 = c.a_values(np.array([0.0]), 0.0)
        assert a0[0] == pytest.approx(1.1)
        assert c.w_values(np.array([0.0]), 0.0)[0] == pytest.approx(0.05)

    def test_caret_power(self):
        c = CoefficientField("1 + x^2", "0")
        assert c.a_values(np.array([3.0]), 0.0)[0] == pytest.approx(10.0)

    def test_unknown_symbol_rejected(self):
        with pytest.raises(ConfigError):
            CoefficientField("1 + y", "0")

    def test_unknown_function_rejected(self):
        with pytest.raises(ConfigError):
            CoefficientField("gamma(x)", "0")

    def test_unparsable_rejected(self):
        with pytest.raises(ConfigError):
            CoefficientField("1 +* 2", "0")

    def test_complex_dispersive_coefficient_rejected(self):
        with pytest.raises(ValidationError):
            CoefficientField("I*sech(x)", "0")

    @pytest.mark.parametrize("a", ["(-1)^0.5*sech(x)", "1 + (-2)^1.5*0"])
    def test_complex_literal_power_in_a_rejected(self, a):
        # Python powers of negative literals are complex, with or without I
        with pytest.raises(ValidationError, match="must be real-valued"):
            CoefficientField(a, "0")

    @pytest.mark.parametrize("W, dtype", [("0.05*sech(x)", np.float64), ("0", np.float64),
                                          ("0.05*I*sech(x)", np.complex128)])
    def test_potential_is_complex_only_when_its_tree_is(self, W, dtype):
        c = CoefficientField("1", W)
        assert c.w_values(np.linspace(-1.0, 1.0, 5), np.array([[0.0], [1.0]])).dtype == dtype

    @pytest.mark.parametrize("a", [
        "1 + 0.1*exp(-t)*sech(x)",                               # benchmark
        "(1 + t*x^2)^0.5 - 2/(3 + sin(x*t))",                    # sqrt shortcut; a full divisor
        "x^2*t + (x*t)^3 - (t + x)^-1 + 2^(x*t)*0.1",             # square, power, reciprocal
        "-tanh(x - t)^2 + cos(t)*sech(x*t) + (0.5 + t)^x",        # x in an exponent: log in a_x
        "exp(-t) + sech(x) + (x*t)^1 + (x*t)^0 + +(x - t)",
    ])
    def test_samples_computed_in_a_buffer_are_the_fresh_samples_bit_for_bit(self, a):
        c = CoefficientField(a, f"0.05*({a})*t")
        x, ts = np.linspace(-4.0, 4.0, 255), np.linspace(0.11, 0.97, 7)[:, None]
        for f in (c.a_values, c.a_x, c.a_xx, c.w_values):
            fresh = np.array(f(x, ts))
            out = np.full(fresh.shape, np.nan)
            assert f(x, ts, out=out) is out and out.tobytes() == fresh.tobytes()

    def test_a_buffer_is_left_alone_where_it_cannot_hold_the_samples(self):
        c = CoefficientField("1 + t", "I*sech(x)*t")   # no x in a; complex W
        x, ts = np.linspace(-4.0, 4.0, 9), np.array([[0.5], [1.0]])
        out = np.zeros((2, 9))
        assert np.array_equal(c.a_values(x, ts, out=out), c.a_values(x, ts))
        assert np.array_equal(c.w_values(x, ts, out=out), c.w_values(x, ts))
        assert not np.any(out)

    def test_analytic_x_derivatives(self):
        c = CoefficientField("sech(x)", "0")
        x = np.linspace(-3, 3, 101)
        d = (c.a_values(x + 1e-6, 0.0) - c.a_values(x - 1e-6, 0.0)) / 2e-6
        assert np.max(np.abs(d - c.a_x(x, 0.0))) < 1e-7


def _sech(z):
    return 1.0 / np.cosh(z)


X = np.linspace(-4.0, 4.0, 801)
U, U1, U2 = X**2 / 4 - X / 3, X / 2 - 1 / 3, 0.5  # inner function u(x) and its derivatives
W_, W1, W2 = np.tanh(X) ** 2, 2 * np.tanh(X) * _sech(X) ** 2, 2 * _sech(X) ** 4 - 4 * np.tanh(X) ** 2 * _sech(X) ** 2
S, C, Q = np.sin(X), np.cos(X), 1 + X**2

# expression -> closed-form (a_x, a_xx) on X: f(u)' = f'(u) u', f(u)'' = f''(u) u'^2 + f'(u) u''
CLOSED_FORMS = {
    "exp(x^2/4 - x/3)": (np.exp(U) * U1, np.exp(U) * (U1**2 + U2)),
    "sin(x^2/4 - x/3)": (np.cos(U) * U1, -np.sin(U) * U1**2 + np.cos(U) * U2),
    "cos(x^2/4 - x/3)": (-np.sin(U) * U1, -np.cos(U) * U1**2 - np.sin(U) * U2),
    "sech(x^2/4 - x/3)": (
        -_sech(U) * np.tanh(U) * U1,
        (_sech(U) * np.tanh(U) ** 2 - _sech(U) ** 3) * U1**2 - _sech(U) * np.tanh(U) * U2,
    ),
    "tanh(x^2/4 - x/3)": (
        _sech(U) ** 2 * U1,
        -2 * _sech(U) ** 2 * np.tanh(U) * U1**2 + _sech(U) ** 2 * U2,
    ),
    "sin(x)/(2 + cos(x))": ((2 * C + 1) / (2 + C) ** 2, 2 * S * (C - 1) / (2 + C) ** 3),
    "(1 + x^2)^-1.5": (-3 * X * Q**-2.5, -3 * Q**-2.5 + 15 * X**2 * Q**-3.5),
    "x**3": (3 * X**2, 6 * X),
    "2^x": (np.log(2) * 2**X, np.log(2) ** 2 * 2**X),
    # x in base and exponent: f = q^x, f' = f L, f'' = f (L^2 + L'), L = log q + 2x^2/q
    "(1 + x^2)^x": (
        Q**X * (np.log(Q) + 2 * X**2 / Q),
        Q**X * ((np.log(Q) + 2 * X**2 / Q) ** 2 + 6 * X / Q - 4 * X**3 / Q**2),
    ),
    "-exp(-x^2)": (2 * X * np.exp(-(X**2)), (2 - 4 * X**2) * np.exp(-(X**2))),
    "sech(tanh(x)^2)": (
        -_sech(W_) * np.tanh(W_) * W1,
        (_sech(W_) * np.tanh(W_) ** 2 - _sech(W_) ** 3) * W1**2 - _sech(W_) * np.tanh(W_) * W2,
    ),
}


class TestDerivatives:
    @pytest.mark.parametrize("expr", sorted(CLOSED_FORMS))
    def test_chain_rule_matches_closed_form(self, expr):
        c = CoefficientField(expr, "0")
        for got, want in zip((c.a_x(X, 0.0), c.a_xx(X, 0.0)), CLOSED_FORMS[expr]):
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize(
        "expr",
        ["1 + 0.1*exp(-t)*sech(x)", "1 + 0.1*exp(-30*t)*sech(x) + 0.2*sin(40*t)", "1 + 0.5*sech(x)", "sech(x)"],
    )
    def test_matches_spectral_derivative(self, expr):
        g = Grid1D(2048, 40.0)
        c = CoefficientField(expr, "0")
        for t in (0.0, 0.7):
            a = SpectralField(g, c.a_values(g.x, t))
            assert np.max(np.abs(derivative(a, 1).values - c.a_x(g.x, t))) < 1e-10
            assert np.max(np.abs(derivative(a, 2).values - c.a_xx(g.x, t))) < 1e-10

    def test_x_free_coefficient_has_exactly_zero_derivatives(self):
        c = CoefficientField("1 + 0.1*exp(-t) + t^2", "sech(x)")
        ts = np.array([[0.0], [0.5]])
        for d in (c.a_x(X, ts), c.a_xx(X, ts)):
            assert d.shape == (2, len(X)) and np.array_equal(d, np.zeros_like(d))

    @pytest.mark.parametrize(
        "a, W, expected",
        [
            ("1 + 0.1*sech(x)", "0.05*sech(x)", False),
            ("1", "I*x", False),
            ("1 + 0.1*exp(-t)*sech(x)", "0", True),
            ("1", "t*sech(x)", True),
            ("1 + t - t", "0", True),  # t appears, even though it cancels
        ],
    )
    def test_time_dependent_exactly_when_t_appears(self, a, W, expected):
        assert CoefficientField(a, W).time_dependent is expected


class TestNormBundle:
    def test_constant_coefficient_oracle(self):
        # a = 1, W = 0, beta = 1: K = beta^2 + 1 = 2, c = 1
        c = CoefficientField("1", "0")
        times = np.linspace(0.0, 1.0, 101)
        b = norm_bundle(c, 1.0, times, grid(256))
        assert np.allclose(b.coupling_rate, 2.0)
        assert np.allclose(b.energy_rate, 1.0)
        assert b.coupling_integral[-1] == pytest.approx(2.0, rel=1e-12)
        assert b.energy_integral[-1] == pytest.approx(1.0, rel=1e-12)

    def test_zero_coefficients(self):
        c = CoefficientField("0", "0")
        b = norm_bundle(c, 1.0, np.linspace(0, 1, 11), grid(256))
        assert np.all(b.coupling_rate == 0)
        assert np.all(b.energy_rate == 0)

    def test_benchmark_derivative_norms(self):
        c = CoefficientField("1 + 0.1*exp(-t)*sech(x)", "0", ellipticity=0.9)
        g = grid()
        times = np.linspace(0.0, 0.5, 6)
        beta = 1.0
        b = norm_bundle(c, beta, times, g)
        for i, t in enumerate(times):
            decay = 0.1 * np.exp(-t)
            a_sup = 1.0 + decay
            a1 = decay * SECHP_MAX
            a2 = decay * 1.0  # max |sech''| = 1 at x = 0
            K_expected = (a2 + beta * a1 + beta**2 * a_sup) + a_sup + 0.0
            c_expected = a_sup + (1 + beta) * decay * XSECHP_MAX + beta * decay * XSECHPP_MAX
            assert b.coupling_rate[i] == pytest.approx(K_expected, rel=2e-3)
            assert b.energy_rate[i] == pytest.approx(c_expected, rel=2e-3)

    def test_monotone_in_coefficients(self):
        g = grid(512)
        times = np.linspace(0, 1, 21)
        small = norm_bundle(CoefficientField("1 + 0.5*sech(x)", "0.1*sech(x)"), 1.0, times, g)
        large = norm_bundle(CoefficientField("2 + sech(x)", "0.2*sech(x)"), 1.0, times, g)
        assert np.all(large.coupling_rate >= small.coupling_rate)
        assert np.all(large.energy_rate >= small.energy_rate)

    def test_running_integrals_monotone(self):
        c = CoefficientField("1 + 0.1*sech(x)*exp(-t)", "0.05*sech(x)")
        b = norm_bundle(c, 1.0, np.linspace(0, 1, 51), grid(512))
        assert np.all(np.diff(b.coupling_integral) >= 0)
        assert np.all(np.diff(b.energy_integral) >= 0)

    def test_nonfinite_sample_rejected(self):
        c = CoefficientField("1", "exp(x*x)")  # overflows at the domain edge
        with pytest.raises(ValidationError):
            norm_bundle(c, 1.0, np.linspace(0, 1, 5), Grid1D(256, 64.0))

    def test_ellipticity_floor_enforced(self):
        c = CoefficientField("sech(x)", "0", ellipticity=0.9)
        with pytest.raises(ValidationError):
            norm_bundle(c, 1.0, np.linspace(0, 1, 5), grid(512))

    def test_block_size_changes_no_bit(self, monkeypatch):
        c = CoefficientField("1 + 0.1*sech(x)*exp(-t)", "0.05*I*sech(x)*cos(t)")
        times, g = np.linspace(0, 1, 51), grid(512)
        whole = norm_bundle(c, 1.0, times, g)
        for rows in (1, 3, 64):
            handed = norm_bundle(c, 1.0, times, g, work=np.empty((rows, g.n)))
            monkeypatch.setattr(coefficients, "_SAMPLE_BYTES", rows * 8 * g.n)
            for blocked in (handed, norm_bundle(c, 1.0, times, g)):
                assert np.array_equal(blocked.coupling_rate, whole.coupling_rate)
                assert np.array_equal(blocked.energy_rate, whole.energy_rate)

    @pytest.mark.parametrize("a, W, moving", [("1 + 0.1*sech(x)", "0.05*sech(x)", 0),
                                              ("1 + 0.1*sech(x)", "0.05*sech(x)*exp(-t)", 1),
                                              ("1 + 0.1*exp(-t)*sech(x)", "0.05*sech(x)", 3)])
    def test_coefficients_without_t_are_sampled_once(self, a, W, moving, monkeypatch):
        rows = []
        for name in ("a_values", "a_x", "a_xx", "w_values"):
            def counted(self, x, t, out=None, _method=getattr(CoefficientField, name)):
                rows.append(len(t))
                return _method(self, x, t, out)

            monkeypatch.setattr(CoefficientField, name, counted)
        g = grid(256)
        monkeypatch.setattr(coefficients, "_SAMPLE_BYTES", 8 * 8 * g.n)
        # blocks of 8, 8 and 4 rows for each evaluator with t, one row for each without
        norm_bundle(CoefficientField(a, W), 1.0, np.linspace(0, 1, 20), g)
        assert sorted(rows) == sorted([1] * (4 - moving) + [8, 8, 4] * moving)

    def test_rejection_names_the_earliest_failing_time(self):
        # a dips below the floor at t = 0.25; W overflows from t = 0.75 on
        c = CoefficientField("1 - 2*t", "1e-300*exp(exp(40*(t - 0.5)))", ellipticity=0.6)
        with pytest.raises(ValidationError, match=r"below the floor 0.6 at t=0.25$"):
            norm_bundle(c, 1.0, np.linspace(0, 1, 5), grid(64))

    def test_bad_time_grid(self):
        c = CoefficientField("1", "0")
        with pytest.raises(ConfigError):
            norm_bundle(c, 1.0, np.array([0.0, 0.0, 1.0]), grid(256))


class _StubField:
    """a = 1, a_x = a_xx = 0, W = 0, but for one non-finite sample of ``bad`` at t = 0.75."""

    ellipticity = 0.0
    a_time_dependent = w_time_dependent = True   # so a t = 0.75 sample exists for each

    def __init__(self, bad, value):
        self.bad, self.value = bad, value

    def _rows(self, name, x, t, dtype=np.float64):
        out = np.full(np.broadcast_shapes(x.shape, t.shape), 1.0 if name == "a" else 0.0, dtype=dtype)
        if name == self.bad:
            out[t[:, 0] == 0.75, 7] = self.value
        return out

    def a_values(self, x, t, out=None):
        return self._rows("a", x, t)

    def a_x(self, x, t, out=None):
        return self._rows("a_x", x, t)

    def a_xx(self, x, t, out=None):
        return self._rows("a_xx", x, t)

    def w_values(self, x, t, out=None):
        return self._rows("W", x, t, np.complex128)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["a", "a_x", "a_xx", "W"])
def test_one_non_finite_sample_names_its_coefficient_and_time(name, value):
    with pytest.raises(ValidationError, match=rf"^{name} is not finite at t=0\.75$"):
        norm_bundle(_StubField(name, value), 1.0, np.linspace(0.0, 1.0, 5), grid(64))


class TestHorizon:
    def test_constant_coefficient_root(self):
        # K = 2, c = 1: the contraction budget 12 T e^{4T} <= 1/2 binds first;
        # its root is T = 0.03606874, well inside the integral cap T <= 1/16
        c = CoefficientField("1", "0")
        times = np.linspace(0.0, 0.1, 20001)
        b = norm_bundle(c, 1.0, times, grid(64))
        sel = select_horizon(b)
        assert sel.horizon == pytest.approx(0.0360687, abs=6e-6)
        assert sel.horizon <= 0.0625
        assert sel.contraction_product <= 0.5
        assert sel.coupling_integral <= 0.125

    def test_zero_coefficients_full_window(self):
        c = CoefficientField("0", "0")
        times = np.linspace(0.0, 3.0, 31)
        b = norm_bundle(c, 1.0, times, grid(64))
        sel = select_horizon(b)
        assert sel.horizon == pytest.approx(3.0)
        assert sel.index == 30

    def test_no_admissible_horizon(self):
        c = CoefficientField("100", "0")
        b = norm_bundle(c, 1.0, np.linspace(0.0, 1.0, 11), grid(64))
        with pytest.raises(HorizonError):
            select_horizon(b)

    def test_antitone_in_rates(self):
        c = CoefficientField("1", "0")
        times = np.linspace(0.0, 0.1, 10001)
        b = norm_bundle(c, 1.0, times, grid(64))
        sel = select_horizon(b)
        sel2 = select_horizon(scaled(b, 2.0))
        assert sel2.horizon <= sel.horizon

    def test_requires_zero_anchored_times(self):
        c = CoefficientField("1", "0")
        b = norm_bundle(c, 1.0, np.linspace(0.5, 1.0, 11), grid(64))
        with pytest.raises(ConfigError):
            select_horizon(b)


class TestMizohataIndex:
    def test_real_drift_bounded(self):
        g = grid(512)
        b = SpectralField(g, (1.0 / np.cosh(g.x)).astype(complex))
        rep = mizohata_index(b, g, g.half_length)
        assert rep.sup_value < 1e-14
        assert rep.verdict == "bounded"

    def test_constant_imaginary_drift_diverges_linearly(self):
        g = grid(512)
        c0 = 0.4
        b = SpectralField(g, np.full(g.n, 1j * c0))
        rep = mizohata_index(b, g, g.half_length)
        assert rep.sup_value == pytest.approx(c0 * g.half_length, rel=1e-9)
        assert rep.verdict == "diverging"
        assert rep.growth_slope == pytest.approx(c0, rel=1e-9)

    def test_integrable_imaginary_drift_bounded(self):
        # int sech = pi; the domain must be long enough for the running sup
        # to flatten inside the last fitting decade
        g = Grid1D(2048, 16 * np.pi)
        b = SpectralField(g, 1j / np.cosh(g.x))
        rep = mizohata_index(b, g, g.half_length)
        assert rep.sup_value == pytest.approx(np.pi, abs=1e-3)
        assert rep.verdict == "bounded"

    def test_weighted_drift_diverges(self):
        # the drift -2i a (log weight)' has negative imaginary part beyond the
        # transition, so its ray integrals grow linearly: the forward weighted
        # problem is ill-posed and a two-endpoint formulation is required
        g = grid()
        w = build_weight(1.0, g)
        c = CoefficientField("1 + 0.1*exp(-t)*sech(x)", "0.05*sech(x)", ellipticity=0.9)
        drift = SpectralField(g, -2j * c.a_values(g.x, 0.0) * w.logderiv)
        rep = mizohata_index(drift, g, g.half_length)
        assert rep.verdict == "diverging"
        assert rep.sup_value > 1.0

    def test_radius_cap(self):
        g = grid(256)
        b = SpectralField(g, np.zeros(g.n))
        with pytest.raises(ValueError):
            mizohata_index(b, g, 2 * g.half_length)
