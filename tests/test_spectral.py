"""Grid conventions, multiplier identities, dyadic partition, dealiasing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schrobvp.errors import GridMismatchError, ResolvableRangeError, SingularOperatorError
from schrobvp.spectral import (
    Grid1D,
    SpaceTimeField,
    SpectralField,
    block_symbol,
    chunk_rows,
    dealias_hat,
    dealiased_product,
    derivative,
    derivative_multiplier,
    fractional,
    fractional_multiplier,
    gaussian_field,
    hilbert,
    hilbert_multiplier,
    lp_block,
    lp_block_multiplier,
    lp_norm,
    mode_field,
    pi0,
    project,
    projection_multiplier,
    random_band_field,
    random_band_hat,
    remove_pi0,
)


def grid256():
    return Grid1D(256, 8 * np.pi)


class TestGrid:
    def test_node_layout(self):
        g = Grid1D(16, 2.0)
        assert g.dx == pytest.approx(0.25)
        assert g.x[0] == pytest.approx(-2.0)
        assert g.x[-1] == pytest.approx(2.0 - 0.25)

    def test_frequency_layout(self):
        g = Grid1D(16, np.pi)
        # xi_k = k on the 2 pi-periodic grid; FFT layout with Nyquist at -8
        assert np.array_equal(g.k_index[:3], [0, 1, 2])
        assert g.k_index[8] == -8
        assert g.xi[1] == pytest.approx(1.0)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            Grid1D(100, 1.0)
        with pytest.raises(ValueError):
            Grid1D(8, 1.0)
        with pytest.raises(ValueError):
            Grid1D(64, -1.0)

    def test_dealias_mask_two_thirds(self):
        g = Grid1D(256, 1.0)
        kept = np.abs(g.k_index[g.dealias_mask])
        assert kept.max() == 85  # largest integer < 256/3
        assert not g.dealias_mask[86]

    def test_band_top_is_the_largest_kept_mode(self):
        # the one 2/3 band edge: the march's band, its RK4 check and band_tail read it
        for m in range(4, 18):
            g = Grid1D(2**m, 1.0)
            assert g.band_top == np.max(np.abs(g.k_index[g.dealias_mask]))


class TestFieldNorms:
    def test_parseval(self):
        f = random_band_field(grid256(), 40, 7)
        w = f.grid.dx / f.grid.n
        assert f.norm_l2() == pytest.approx(np.sqrt(w * np.sum(np.abs(f.hat) ** 2)), rel=1e-12)

    def test_constant_norms(self):
        g = grid256()
        f = SpectralField(g, np.full(g.n, 2.0 + 0j))
        assert f.norm_l2() == pytest.approx(2.0 * np.sqrt(2 * g.half_length), rel=1e-12)
        assert lp_norm(f, np.inf) == pytest.approx(2.0)

    def test_grid_mismatch(self):
        f = gaussian_field(grid256())
        h = gaussian_field(Grid1D(128, 8 * np.pi))
        with pytest.raises(GridMismatchError):
            _ = f + h


class TestDerivative:
    def test_sine(self):
        g = grid256()
        f = SpectralField(g, np.sin(g.x).astype(complex))
        df = derivative(f)
        assert np.max(np.abs(df.values - np.cos(g.x))) < 1e-12

    def test_second_derivative_symbol(self):
        g = grid256()
        m = derivative_multiplier(g, 2)
        assert np.allclose(m, -g.xi**2)


def test_symbol_builders_return_complex128_arrays():
    # the dtype every product with a hat was computed in when the symbols were wrapped
    g = grid256()
    symbols = [derivative_multiplier(g, 0), projection_multiplier(g, "-"), hilbert_multiplier(g),
               fractional_multiplier(g, 0.5), fractional_multiplier(g, 0.7, "J"), lp_block_multiplier(g, 1)]
    assert all(s.dtype == np.complex128 and s.shape == (g.n,) for s in symbols)


class TestProjections:
    def test_resolution_of_identity(self):
        f = random_band_field(grid256(), 60, 3, zero_mean=False)
        resum = project(f, "+") + project(f, "-") + pi0(f)
        assert np.max(np.abs(resum.values - f.values)) < 1e-12

    def test_idempotent_and_orthogonal(self):
        g = grid256()
        pp = projection_multiplier(g, "+")
        pm = projection_multiplier(g, "-")
        assert np.array_equal(pp * pp, pp)
        assert np.array_equal(pm * pm, pm)
        assert np.array_equal(pp * pm, np.zeros(g.n))

    def test_neither_owns_zero_or_nyquist(self):
        g = grid256()
        pp = projection_multiplier(g, "+")
        pm = projection_multiplier(g, "-")
        assert pp[0] == 0 and pm[0] == 0
        assert pp[g.n // 2] == 0 and pm[g.n // 2] == 0

    def test_single_mode_ownership(self):
        g = grid256()
        up = mode_field(g, 5)
        um = mode_field(g, -5)
        assert (project(up, "+") - up).norm_l2() < 1e-12
        assert project(up, "-").norm_l2() < 1e-12
        assert (project(um, "-") - um).norm_l2() < 1e-12
        assert project(um, "+").norm_l2() < 1e-12


class TestSignMultiplier:
    def test_equals_i_times_projection_difference(self):
        g = grid256()
        expected = 1j * (projection_multiplier(g, "+") - projection_multiplier(g, "-"))
        assert np.array_equal(hilbert_multiplier(g), expected)

    def test_square_is_minus_identity_off_pi0(self):
        f = random_band_field(grid256(), 70, 11, zero_mean=False)
        hhf = hilbert(hilbert(f))
        target = remove_pi0(f)
        assert np.max(np.abs(hhf.values + target.values)) < 1e-12

    def test_factors_derivative(self):
        # d/dx = |D|^(1/2) H |D|^(1/2) mode by mode away from zero/Nyquist
        f = random_band_field(grid256(), 80, 5)
        lhs = derivative(f)
        rhs = fractional(hilbert(fractional(f, 0.5)), 0.5)
        assert np.max(np.abs(lhs.values - rhs.values)) < 1e-11


class TestFractional:
    def test_inverse_pair_on_zero_mean(self):
        f = random_band_field(grid256(), 50, 13)
        back = fractional(fractional(f, 0.5), -0.5)
        assert np.max(np.abs(back.values - f.values)) < 1e-12

    def test_negative_order_rejects_mean(self):
        g = grid256()
        f = SpectralField(g, np.ones(g.n, dtype=complex))
        with pytest.raises(SingularOperatorError):
            fractional(f, -0.5)

    def test_bessel_symbol_at_zero(self):
        g = grid256()
        m = fractional_multiplier(g, 0.7, "J")
        assert m[0] == pytest.approx(1.0)
        k = 10
        assert m[k] == pytest.approx((1 + g.xi[k] ** 2) ** 0.35, rel=1e-13)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            fractional_multiplier(grid256(), 0.5, "X")


class TestDyadicBlocks:
    def test_profile_shape(self):
        # annulus profile: vanishes at 1/2 and 2, equals 1 at 1
        assert block_symbol(np.array([0.5]), "Q")[0] == pytest.approx(0.0, abs=1e-15)
        assert block_symbol(np.array([1.0]), "Q")[0] == pytest.approx(1.0)
        assert block_symbol(np.array([2.0]), "Q")[0] == pytest.approx(0.0, abs=1e-15)
        assert np.all(block_symbol(np.linspace(-3, 3, 301), "Q") >= -1e-15)

    def test_partition_of_unity(self):
        f = random_band_field(grid256(), 100, 17, zero_mean=False)
        k_min, k_max = f.grid.resolvable_block_range()
        total = lp_block(f, k_min)
        for k in range(k_min + 1, k_max + 1):
            total = total + lp_block(f, k)
        target = remove_pi0(f)
        assert np.max(np.abs(total.values - target.values)) < 1e-10

    def test_lowpass_is_telescoped_sum(self):
        f = random_band_field(grid256(), 100, 19)
        k_min, k_max = f.grid.resolvable_block_range()
        k = k_max - 2
        acc = lp_block(f, k_min)
        for j in range(k_min + 1, k - 2):
            acc = acc + lp_block(f, j)
        low = lp_block(f, k, "P")
        assert np.max(np.abs(acc.values - low.values)) < 1e-12

    def test_wide_annulus_covers_annulus(self):
        f = random_band_field(grid256(), 100, 23)
        k_min, k_max = f.grid.resolvable_block_range()
        k = (k_min + k_max) // 2
        qf = lp_block(f, k)
        assert (lp_block(qf, k, "Qtilde") - qf).norm_l2() < 1e-13

    def test_wide_lowpass_covers_lowpass(self):
        f = random_band_field(grid256(), 100, 29)
        k_min, k_max = f.grid.resolvable_block_range()
        k = k_max - 1
        pf = lp_block(f, k, "P")
        assert (lp_block(pf, k, "Ptilde") - pf).norm_l2() < 1e-13

    def test_out_of_range_index(self):
        f = gaussian_field(grid256())
        k_min, k_max = f.grid.resolvable_block_range()
        with pytest.raises(ResolvableRangeError):
            lp_block(f, k_max + 1)
        with pytest.raises(ResolvableRangeError):
            lp_block_multiplier(f.grid, k_min - 1)

    def test_single_dyadic_mode_owned_by_one_block(self):
        # L = 16 pi puts xi on the lattice k/16; mode 32 sits at xi = 2 = 2^1
        g = Grid1D(1024, 16 * np.pi)
        f = mode_field(g, 32)
        assert (lp_block(f, 1) - f).norm_l2() < 1e-12
        assert lp_block(f, 0).norm_l2() < 1e-12
        assert lp_block(f, 2).norm_l2() < 1e-12


class TestLpNorm:
    def test_zero_field(self):
        g = grid256()
        assert lp_norm(SpectralField(g, np.zeros(g.n)), 2) == 0.0

    def test_constant_on_unit_interval(self):
        g = Grid1D(64, 1.0)
        f = SpectralField(g, np.ones(g.n, dtype=complex))
        assert lp_norm(f, 2) == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_matches_parseval(self):
        f = random_band_field(grid256(), 40, 31)
        w = f.grid.dx / f.grid.n
        assert lp_norm(f, 2) == pytest.approx(np.sqrt(w * np.sum(np.abs(f.hat) ** 2)), rel=1e-12)

    def test_sup_norm(self):
        f = random_band_field(grid256(), 40, 37)
        assert lp_norm(f, np.inf) == pytest.approx(np.max(np.abs(f.values)))

    def test_rejects_p_le_1(self):
        f = gaussian_field(grid256())
        with pytest.raises(ValueError):
            lp_norm(f, 1.0)
        with pytest.raises(ValueError):
            lp_norm(f, 0.5)

    def test_exponent_range_rejects_nan(self):
        # NaN fails every comparison, so a check written as `p <= 1` let it through
        f = random_band_field(grid256(), 40, 41)
        for p in (np.nan, 1.0):
            with pytest.raises(ValueError, match="norm exponent"):
                lp_norm(f, p)
        assert lp_norm(f, np.inf) == np.max(np.abs(f.values))


class TestDealiasedProduct:
    def test_low_modes_multiply_exactly(self):
        g = grid256()
        f = mode_field(g, 7)
        h = mode_field(g, 12)
        prod = dealiased_product(f, h)
        exact = mode_field(g, 19)
        assert np.max(np.abs(prod.values - exact.values)) < 1e-12

    def test_out_of_band_product_is_dropped(self):
        g = grid256()  # mask keeps |k| <= 85
        f = mode_field(g, 50)
        h = mode_field(g, 45)
        prod = dealiased_product(f, h)
        assert prod.norm_l2() < 1e-12

    def test_masked_factor_is_dropped(self):
        g = grid256()
        f = mode_field(g, 100)  # outside the mask entirely
        h = mode_field(g, 1)
        assert dealiased_product(f, h).norm_l2() < 1e-12

    def test_mask_into_a_buffer_matches_the_copy(self):
        g = grid256()
        hat = np.random.default_rng(3).standard_normal((3, 2 * g.n)).view(np.complex128)
        out = np.empty_like(hat)
        assert dealias_hat(g, hat, out) is out
        assert np.array_equal(out, dealias_hat(g, hat))
        assert dealias_hat(g, hat, hat) is hat
        assert np.array_equal(hat, out)


class TestGenerators:
    def test_band_field_reproducible_across_grids(self):
        coarse = random_band_field(Grid1D(256, 8 * np.pi), 30, 41)
        fine = random_band_field(Grid1D(512, 8 * np.pi), 30, 41)
        # coarse nodes are every second fine node
        assert np.max(np.abs(fine.values[::2] - coarse.values)) < 1e-10
        assert fine.norm_l2() == pytest.approx(coarse.norm_l2(), rel=1e-12)

    def test_real_flag(self):
        f = random_band_field(grid256(), 20, 43, real=True)
        assert np.max(np.abs(f.values.imag)) < 1e-12

    def test_zero_mean_default(self):
        f = random_band_field(grid256(), 20, 47)
        assert abs(f.mean()) < 1e-13

    def test_band_above_nyquist_rejected(self):
        with pytest.raises(ValueError):
            random_band_field(Grid1D(64, 1.0), 32, 1)

    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize(
        "kw",
        [{}, {"real": True}, {"zero_mean": False}, {"band_lo": 5}, {"real": True, "band_lo": 3}],
    )
    def test_vector_draw_matches_per_mode_loop(self, n, kw):
        # the draw order is part of the seed contract: one (Re z+, Im z+,
        # Re z-, Im z-) quadruple per mode, then the mean
        def loop_hat(grid, band, seed, real=False, zero_mean=True, band_lo=1):
            rng = np.random.default_rng(seed)
            hat = np.zeros(grid.n, dtype=np.complex128)
            for k in range(band_lo, band + 1):
                zp = complex(rng.standard_normal(), rng.standard_normal())
                zm = complex(rng.standard_normal(), rng.standard_normal())
                hat[k] = zp
                hat[-k] = np.conj(zp) if real else zm
            if not zero_mean:
                hat[0] = rng.standard_normal()
            return hat * grid.n

        grid, band = Grid1D(n, 8 * np.pi), n // 4
        for seed in range(10):
            drawn = random_band_field(grid, band, seed, **kw).hat
            assert np.array_equal(drawn, loop_hat(grid, band, seed, **kw))

    @pytest.mark.parametrize(
        "kw",
        [{}, {"real": True}, {"zero_mean": False}, {"band_lo": 5},
         {"real": True, "zero_mean": False, "band_lo": 3}],
    )
    def test_field_draw_is_the_hats_only_draw(self, kw):
        grid = Grid1D(256, 8 * np.pi)
        for seed in range(5):
            hat = random_band_hat(grid, 40, seed, **kw)
            assert np.array_equal(random_band_field(grid, 40, seed, **kw).hat, hat)


class TestHatBackedStack:
    # more slices than one transform block, so the chunked paths are used
    def _stack(self):
        g = grid256()
        assert chunk_rows(g.n) < 300
        rng = np.random.default_rng(7)
        values = rng.standard_normal((300, g.n)) + 1j * rng.standard_normal((300, g.n))
        times = np.linspace(0.0, 1.0, 300)
        return g, times, values

    def test_chunk_rows_fill_a_fixed_budget(self):
        assert (chunk_rows(2048), chunk_rows(512)) == (8, 32)
        assert all(chunk_rows(n) % 2 == 0 and chunk_rows(n) >= 2 for n in (16, 256, 2048, 1 << 20))

    def test_values_round_trip(self):
        g, times, values = self._stack()
        field = SpaceTimeField(g, times, hats=np.fft.fft(values, axis=1))
        assert np.max(np.abs(field.values - values)) < 1e-12 * np.max(np.abs(values))
        back = SpaceTimeField(g, times, values)
        assert np.max(np.abs(back.hats - field.hats)) < 1e-12 * np.max(np.abs(field.hats))
        assert np.max(np.abs(back.values - values)) < 1e-12 * np.max(np.abs(values))

    def test_stores_only_coefficients(self):
        g, times, values = self._stack()
        hats = np.fft.fft(values, axis=1)
        assert SpaceTimeField.__slots__ == ("grid", "times", "hats")
        assert SpaceTimeField(g, times, hats=hats).hats is hats   # taken as given, not copied

    def test_norms_by_parseval_without_values(self):
        g, times, values = self._stack()
        field = SpaceTimeField(g, times, hats=np.fft.fft(values, axis=1))
        quadrature = np.sqrt(g.dx * np.sum(np.abs(values) ** 2, axis=1))
        norms = field.norm_series()
        assert np.max(np.abs(norms - quadrature)) <= 1e-12 * np.max(quadrature)
        assert field.sup_norm() == pytest.approx(np.max(quadrature), rel=1e-12)

    def test_slice_reads_one_row(self):
        g, times, values = self._stack()
        field = SpaceTimeField(g, times, hats=np.fft.fft(values, axis=1))
        s = field.slice(123)
        assert np.array_equal(s.hat, field.hats[123])
        assert np.max(np.abs(s.values - values[123])) < 1e-12 * np.max(np.abs(values[123]))

    def test_norm_series_of_a_symbol(self):
        g, times, values = self._stack()
        sym = projection_multiplier(g, "-")
        want = np.array([project(SpectralField(g, row), "-").norm_l2() for row in values])
        for field in (
            SpaceTimeField(g, times, values),
            SpaceTimeField(g, times, hats=np.fft.fft(values, axis=1)),
        ):
            got = field.norm_series(sym)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)

    def test_block_reads_either_form_without_caching(self):
        g, times, values = self._stack()
        rows = slice(40, 77)
        for field in (
            SpaceTimeField(g, times, values),
            SpaceTimeField(g, times, hats=np.fft.fft(values, axis=1)),
        ):
            hats = field.hats
            back = field.block(rows)
            assert np.max(np.abs(back - values[rows])) < 1e-12 * np.max(np.abs(values))
            assert np.array_equal(back, field.values[rows])
            assert field.hats is hats

    def test_needs_a_backing_stack_of_the_right_shape(self):
        g, times, values = self._stack()
        with pytest.raises(ValueError, match="values or hats"):
            SpaceTimeField(g, times)
        with pytest.raises(ValueError, match="exactly one of values or hats"):
            SpaceTimeField(g, times, values, hats=np.fft.fft(values, axis=1))
        with pytest.raises(GridMismatchError):
            SpaceTimeField(g, times, hats=values[:, :10])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), band=st.integers(2, 60))
def test_projection_parts_are_orthogonal(seed, band):
    f = random_band_field(grid256(), band, seed)
    fp = project(f, "+")
    fm = project(f, "-")
    inner = f.grid.dx * np.vdot(fp.values, fm.values)
    assert abs(inner) < 1e-12 * max(f.norm_l2() ** 2, 1.0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_sign_multiplier_is_l2_isometry_off_pi0(seed):
    f = random_band_field(grid256(), 50, seed)
    assert hilbert(f).norm_l2() == pytest.approx(remove_pi0(f).norm_l2(), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), s=st.floats(0.1, 1.5))
def test_fractional_compose(seed, s):
    f = random_band_field(grid256(), 40, seed)
    twice = fractional(fractional(f, s / 2), s / 2)
    once = fractional(f, s)
    assert np.max(np.abs(twice.values - once.values)) < 1e-10 * max(lp_norm(once, np.inf), 1.0)
