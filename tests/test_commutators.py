"""Commutator lab tests: identities, closed-form oracle, ensembles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schrobvp import spectral
from schrobvp.commutators import (
    CommutatorTrial,
    _commutator_hats,
    _dealiased_samples,
    _kernel_grid,
    _resample_hat,
    _row_norms,
    _stratified_coefficient,
    commutator_apply,
    decomposition_audit,
    derivative_identity_residual,
    estimate_constant,
    fractional_commutator,
    trial_coefficient,
    trial_field,
)
from schrobvp.errors import ConfigError, ValidationError
from schrobvp.spectral import (
    Grid1D,
    SpectralField,
    derivative,
    derivative_multiplier,
    fractional_multiplier,
    hilbert_multiplier,
    lp_norm,
    mode_field,
    projection_multiplier,
    random_band_field,
    random_band_hat,
    row_blocks,
)

GRID = Grid1D(1024, 8 * np.pi)


def sample_pair(seed=3, band=48):
    a = trial_coefficient(GRID, band, seed)
    f = trial_field(GRID, band, seed + 500)
    return a, f


class TestTrialValidation:
    def test_bad_operator(self):
        a, f = sample_pair()
        with pytest.raises(ConfigError):
            CommutatorTrial(operator="Q", a=a, f=f)

    def test_negative_order(self):
        a, f = sample_pair()
        with pytest.raises(ConfigError):
            CommutatorTrial(operator="+", a=a, f=f, l=-1)

    def test_out_of_band_field(self):
        a, _ = sample_pair()
        spiky = SpectralField.from_hat(
            GRID, np.eye(GRID.n)[GRID.n // 2 - 1] * GRID.n
        )
        with pytest.raises(ValidationError, match="cutoff"):
            CommutatorTrial(operator="+", a=a, f=spiky)

    def test_complex_coefficient_rejected(self):
        a, f = sample_pair()
        with pytest.raises(ValidationError, match="real"):
            CommutatorTrial(operator="+", a=a * (1 + 0.5j), f=f)


class TestCommutatorApply:
    def test_constant_coefficient_vanishes(self):
        _, f = sample_pair()
        for op in ("+", "-", "H"):
            out = commutator_apply(
                CommutatorTrial(operator=op, a=np.full(GRID.n, 3.0), f=f, m=1)
            )
            assert out.norm_l2() < 1e-12 * f.norm_l2()

    def test_derivative_transform_identity(self):
        a, f = sample_pair(seed=11)
        scale = np.max(np.abs(a)) * f.norm_l2()
        assert derivative_identity_residual(a, f) < 1e-10 * scale

    def test_single_mode_closed_form(self):
        # a = sin(x), f = e^{ix}: the product a f' has exactly two modes,
        # and the commutator with P+ collapses to the constant 1/2, so
        # the ratio against |a'|_inf |f|_2 is exactly 1/2
        a = np.sin(GRID.x)
        f = mode_field(GRID, 8)
        out = commutator_apply(CommutatorTrial(operator="+", a=a, f=f, m=1))
        expected = 0.5 * np.sqrt(2 * GRID.half_length)
        assert abs(out.norm_l2() - expected) < 1e-10 * expected
        ratio = out.norm_l2() / (1.0 * f.norm_l2())
        assert abs(ratio - 0.5) < 1e-10

    def test_single_mode_degenerate_case(self):
        # f = e^{-ix}: both pieces of the split land on nonpositive
        # frequencies and the commutator is identically zero
        a = np.sin(GRID.x)
        f = mode_field(GRID, -8)
        out = commutator_apply(CommutatorTrial(operator="+", a=a, f=f, m=1))
        assert out.norm_l2() < 1e-12 * f.norm_l2()

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.1, max_value=10.0))
    def test_homogeneity_in_coefficient(self, s):
        a, f = sample_pair(seed=21)
        base = commutator_apply(CommutatorTrial(operator="+", a=a, f=f, m=1))
        scaled = commutator_apply(CommutatorTrial(operator="+", a=s * a, f=f, m=1))
        diff = (scaled - s * base).norm_l2()
        assert diff < 1e-12 * max(1.0, s) * base.norm_l2()


class TestKernelBlocks:
    SYMBOLS = {
        "P+": lambda g: projection_multiplier(g, "+"),
        "P-": lambda g: projection_multiplier(g, "-"),
        "H": hilbert_multiplier,
        "|D|^0.5": lambda g: fractional_multiplier(g, 0.5),
    }

    @pytest.mark.parametrize("name", list(SYMBOLS))
    def test_block_equals_row_by_row_calls(self, name):
        grid, band, rows = Grid1D(512, 8 * np.pi), 40, 5
        symbol = self.SYMBOLS[name](grid)
        a_hat = np.stack([_stratified_coefficient(grid, band, 10 + i) for i in range(rows)])
        g_hat = np.stack([random_band_hat(grid, band, 20 + i) for i in range(rows)])
        g_before = g_hat.copy()
        by_row = np.stack([
            _commutator_hats(grid, symbol, _dealiased_samples(grid, a_hat[i]), g_hat[i])
            for i in range(rows)
        ])
        a_m = _dealiased_samples(grid, a_hat)
        assert np.array_equal(_commutator_hats(grid, symbol, a_m, g_hat), by_row)
        out = np.empty_like(g_hat)
        work = (np.empty_like(g_hat), np.empty_like(g_hat))
        assert _commutator_hats(grid, symbol, a_m, g_hat, out, work) is out
        assert np.array_equal(out, by_row)
        assert np.array_equal(g_hat, g_before)
        # one coefficient shared by a block of fields
        shared = np.stack([_commutator_hats(grid, symbol, a_m[0], g_hat[i]) for i in range(rows)])
        assert np.array_equal(_commutator_hats(grid, symbol, a_m[0], g_hat), shared)

    def test_row_norms_equal_lp_norm_bit_for_bit(self):
        grid, exponents = Grid1D(512, 8 * np.pi), [4 / 3, 2.0, 3.0, 4.0]
        samples = np.stack([random_band_field(grid, 40, seed).values for seed in range(40)])
        norms = _row_norms(grid, samples, exponents, np.empty(samples.shape))
        for q in exponents:
            by_row = [lp_norm(SpectralField(grid, row), q) for row in samples]
            assert norms[q].tolist() == by_row

    @pytest.mark.parametrize("seed", range(5))
    def test_projection_commutator_is_anti_self_adjoint(self, seed):
        # a real, so <[P+; a] f, g> = -<f, [P+; a] g>: the adjoint of the
        # dealiased commutator is one more call of the same kernel
        grid, band = Grid1D(1024, 8 * np.pi), 64
        symbol = projection_multiplier(grid, "+")
        a_m = _dealiased_samples(grid, _stratified_coefficient(grid, band, seed))
        f_hat = random_band_hat(grid, band, 100 + seed)
        g_hat = random_band_hat(grid, band, 200 + seed)
        kf = _commutator_hats(grid, symbol, a_m, f_hat)
        kg = _commutator_hats(grid, symbol, a_m, g_hat)
        scale = np.linalg.norm(kf) * np.linalg.norm(g_hat)
        assert abs(np.vdot(g_hat, kf) + np.vdot(kg, f_hat)) <= 1e-13 * scale


def _check_against_hand_normalised_trials(operator, grid, exponents, check_stability, n_trials, band, seed):
    # each trial by hand: a and f drawn with the ensemble's seeds,
    # normalised to sup|d^{l+m} a| = 1 and ||f||_p = 1, then one
    # commutator_apply per (l, m), on the full grid
    pairs = [(0, 1), (1, 1), (0, 2)]

    def by_hand(g, l, m, p):
        ratios = []
        for i in range(n_trials):
            a_raw = SpectralField.from_hat(g, _stratified_coefficient(g, band, seed + n_trials + i))
            a = a_raw.values.real / np.max(np.abs(derivative(a_raw, l + m).values.real))
            f_raw = random_band_field(g, band, seed + i)
            f = (1.0 / lp_norm(f_raw, p)) * f_raw
            trial = CommutatorTrial(operator=operator, a=a, f=f, l=l, m=m)
            ratios.append(lp_norm(commutator_apply(trial), p))
        return np.asarray(ratios)

    table = estimate_constant(
        operator, pairs, grid, p=exponents, n_trials=n_trials, bandwidth=band,
        seed=seed, check_stability=check_stability,
    )
    for l, m in pairs:
        for p in exponents:
            est = table[(l, m, p)]
            expected = by_hand(grid, l, m, p)
            assert est.skipped == 0
            np.testing.assert_allclose(est.ratios, expected, rtol=1e-12, atol=0)
            assert est.max_ratio == pytest.approx(np.max(expected), rel=1e-12)
            stability = 1.0
            if check_stability:
                fine = Grid1D(2 * grid.n, grid.half_length)
                stability = np.max(by_hand(fine, l, m, p)) / np.max(expected)
            assert est.stability_factor == pytest.approx(stability, rel=1e-12)


def _full_grid_ratios(grid, operator, pairs, exponents, n_trials, band, seed):
    # one trial at a time, every transform on the grid itself: the ensemble
    # pipeline as it ran before the kernel grid
    symbol = hilbert_multiplier(grid) if operator == "H" else projection_multiplier(grid, operator)
    d = [derivative_multiplier(grid, k) for k in range(4)]
    ratios = {(l, m, q): [] for l, m in pairs for q in exponents}
    for i in range(n_trials):
        f_hat = random_band_hat(grid, band, seed + i)[None]
        a_hat = _stratified_coefficient(grid, band, seed + n_trials + i)[None]
        f_norm = _row_norms(grid, np.fft.ifft(f_hat), exponents, np.empty(f_hat.shape))
        a_m = _dealiased_samples(grid, a_hat.copy())
        for l, m in pairs:
            sup = np.max(np.abs(np.fft.ifft(d[l + m] * a_hat).real), axis=-1)
            comm = _commutator_hats(grid, symbol, a_m, d[m] * f_hat)
            lhs = _row_norms(grid, np.fft.ifft(d[l] * comm), exponents, np.empty(f_hat.shape))
            for q in exponents:
                ratios[(l, m, q)].extend((lhs[q] / (sup * f_norm[q])).tolist())
    return ratios


def _per_grid_ratios(g, operator, pairs, exponents, n_trials, band, seed):
    # the ensemble pipeline as it ran one grid at a time: every trial drawn on
    # the grid itself, its own kernel-grid run, blocks sized for rows of 2 g.n
    kg = _kernel_grid(g, band)
    symbol = hilbert_multiplier(kg) if operator == "H" else projection_multiplier(kg, operator)
    inner, total = sorted({m for _, m in pairs}), sorted({l + m for l, m in pairs})
    d = {k: derivative_multiplier(g, k) for k in {l for l, _ in pairs} | set(total)}
    dk = {m: derivative_multiplier(kg, m) for m in inner}
    ratios = {(l, m, q): [] for l, m in pairs for q in exponents}
    blocks = row_blocks(n_trials, 2 * g.n)
    stack = np.empty((3, blocks[0].stop, g.n), dtype=np.complex128)
    kernel_stack = np.empty((5, blocks[0].stop, kg.n), dtype=np.complex128)
    mod_stack = np.empty(stack.shape[1:])
    for block in blocks:
        count = block.stop - block.start
        f_hat, a_hat, scratch = stack[:, :count]
        a_m, g_hat, comm, *work = kernel_stack[:, :count]
        mod = mod_stack[:count]
        for j, i in enumerate(range(block.start, block.stop)):
            f_hat[j] = random_band_hat(g, band, seed + i)
            a_hat[j] = _stratified_coefficient(g, band, seed + n_trials + i)
        f_norm = _row_norms(g, np.fft.ifft(f_hat, out=scratch), exponents, mod)
        sup_a = {}
        for k in total:
            samples = np.fft.ifft(np.multiply(d[k], a_hat, out=scratch), out=scratch)
            sup_a[k] = np.max(np.abs(samples.real, out=mod), axis=-1)
        _dealiased_samples(kg, _resample_hat(a_hat, kg.n / g.n, a_m), out=a_m)
        for m in inner:
            _resample_hat(f_hat, kg.n / g.n, g_hat)
            _commutator_hats(kg, symbol, a_m, np.multiply(dk[m], g_hat, out=g_hat), comm, work)
            for l in (l for l, m_ in pairs if m_ == m):
                _resample_hat(comm, g.n / kg.n, scratch)
                samples = np.fft.ifft(np.multiply(d[l], scratch, out=scratch), out=scratch)
                lhs_norm = _row_norms(g, samples, exponents, mod)
                sup = sup_a[l + m]
                for q in exponents:
                    keep = ~(sup < 1e-12) & (f_norm[q] >= 1e-300)
                    ratio = lhs_norm[q][keep] / (sup[keep] * f_norm[q][keep])
                    ratios[(l, m, q)].extend(ratio.tolist())
    return ratios


class TestSharedGridPipeline:
    PAIRS, EXPONENTS = [(0, 1), (1, 1), (0, 2)], (4 / 3, 2.0, 4.0)

    def _check(self, operator, n, band, n_trials, seed):
        grid = Grid1D(n, 8 * np.pi)
        table = estimate_constant(operator, self.PAIRS, grid, p=self.EXPONENTS, n_trials=n_trials,
                                  bandwidth=band, seed=seed, check_stability=True)
        coarse, fine = (
            _per_grid_ratios(g, operator, self.PAIRS, self.EXPONENTS, n_trials, band, seed)
            for g in (grid, Grid1D(2 * n, grid.half_length))
        )
        assert set(table) == set(coarse)
        for key, est in table.items():
            max_ratio = max(coarse[key], default=0.0)
            stability = max(fine[key], default=0.0) / max_ratio if max_ratio > 0 else 1.0
            assert np.array_equal(est.ratios, coarse[key])
            assert np.array_equal(est.max_ratio, max_ratio)
            assert np.array_equal(est.stability_factor, stability)
            assert np.array_equal(est.skipped, n_trials - len(coarse[key]))

    @pytest.mark.parametrize("operator", ["+", "-", "H"])
    def test_workload_size_matches_per_grid_pipeline(self, operator):
        # one 512-point kernel grid serves n = 2048 and 4096; 10 trials make
        # three blocks of 4 rows, so a row carried into the next block would show
        assert len(row_blocks(10, 2 * 2048)) == 3
        self._check(operator, 2048, 64, n_trials=10, seed=5)

    @pytest.mark.parametrize("operator", ["+", "-", "H"])
    def test_kernel_grids_of_different_sizes(self, operator):
        # n = 256 and 512 are their own kernel grids: the draw on 256 points
        # is zero-padded into the 512-point kernel
        band = 48
        assert [_kernel_grid(Grid1D(n, 8 * np.pi), band).n for n in (256, 512)] == [256, 512]
        self._check(operator, 256, band, n_trials=9, seed=2)

    @pytest.mark.parametrize("operator", ["+", "-", "H"])
    def test_one_kernel_grid_that_is_a_grid(self, operator):
        # n = 512 is its own kernel grid and also serves as the doubled grid's
        band, grid = 48, Grid1D(512, 8 * np.pi)
        assert _kernel_grid(grid, band) is grid
        assert _kernel_grid(Grid1D(1024, 8 * np.pi), band) == grid
        self._check(operator, 512, band, n_trials=9, seed=2)


class TestKernelGrid:
    @pytest.mark.parametrize(
        "n, band, size", [(2048, 64, 512), (4096, 64, 512), (2048, 128, 1024), (256, 48, 256), (16, 1, 16)]
    )
    def test_smallest_power_of_two_above_six_bands(self, n, band, size):
        grid = Grid1D(n, 8 * np.pi)
        kernel = _kernel_grid(grid, band)
        assert kernel == Grid1D(size, grid.half_length)
        assert kernel is grid or 6 * band < size < grid.n

    @pytest.mark.parametrize("operator", ["+", "-", "H"])
    def test_grid_without_a_smaller_kernel_grid_keeps_every_bit(self, operator):
        grid, pairs, exponents = Grid1D(256, 8 * np.pi), [(0, 1), (1, 1), (0, 2)], (4 / 3, 2.0, 4.0)
        assert _kernel_grid(grid, 48) is grid
        table = estimate_constant(operator, pairs, grid, p=exponents, n_trials=10, bandwidth=48,
                                  seed=2, check_stability=False)
        expected = _full_grid_ratios(grid, operator, pairs, exponents, 10, 48, 2)
        for key, ratios in expected.items():
            assert np.array_equal(table[key].ratios, ratios)


class TestEstimateConstant:
    def test_first_order_ensemble_stable(self):
        est = estimate_constant(
            "+", [(0, 1)], Grid1D(2048, 8 * np.pi),
            n_trials=100, bandwidth=64, seed=0,
        )[(0, 1, 2.0)]
        assert est.ensemble == 100
        assert np.isfinite(est.max_ratio) and est.max_ratio > 0
        assert est.stability_factor <= 1.1
        assert est.skipped == 0

    def test_zeroth_order_operator_norm_bound(self):
        est = estimate_constant(
            "+", [(0, 0)], GRID, n_trials=50, bandwidth=48,
            seed=2, check_stability=False,
        )[(0, 0, 2.0)]
        assert np.all(est.ratios <= 2.0 + 1e-12)

    def test_mirror_symmetry(self):
        # reflecting the field spectrum swaps the roles of the two
        # projections; per-trial ratios agree to rounding
        grid = Grid1D(1024, 8 * np.pi)
        for seed in range(5):
            a = trial_coefficient(grid, 48, 100 + seed)
            f = trial_field(grid, 48, 200 + seed)
            mirrored = SpectralField(grid, np.conj(f.values))
            r_plus = lp_norm(
                commutator_apply(CommutatorTrial(operator="+", a=a, f=f, m=1)), 2.0
            )
            r_minus = lp_norm(
                commutator_apply(
                    CommutatorTrial(operator="-", a=a, f=mirrored, m=1)
                ),
                2.0,
            )
            assert abs(r_plus - r_minus) < 1e-10 * max(r_plus, 1e-30)

    def test_deterministic_given_seed(self):
        kw = dict(n_trials=5, bandwidth=32, seed=7, check_stability=False)
        one = estimate_constant("H", [(1, 0)], GRID, **kw)[(1, 0, 2.0)]
        two = estimate_constant("H", [(1, 0)], GRID, **kw)[(1, 0, 2.0)]
        assert np.array_equal(one.ratios, two.ratios)

    def test_bandwidth_guard(self):
        with pytest.raises(ConfigError, match="cutoff"):
            estimate_constant("+", [(0, 1)], Grid1D(128, 8.0), bandwidth=64)

    @pytest.mark.parametrize(
        "kw",
        [{"n_trials": 0}, {"n_trials": -3}, {"bandwidth": 0}, {"p": ()}, {"p": (2.0, 1.0)}],
    )
    def test_empty_ensemble_rejected(self, kw):
        with pytest.raises(ConfigError):
            estimate_constant("+", [(0, 1)], GRID, **kw)

    def test_negative_seed_named(self):
        # numpy's own "expected non-negative integer" did not name the seed
        with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
            estimate_constant("+", [(0, 1)], GRID, n_trials=2, bandwidth=16, seed=-1)

    @pytest.mark.parametrize("operator", ["+", "-", "H"])
    @pytest.mark.parametrize("p", [4 / 3, 4.0])
    @pytest.mark.parametrize("check_stability", [False, True])
    def test_ratios_match_hand_normalised_trials(self, operator, p, check_stability):
        _check_against_hand_normalised_trials(
            operator, Grid1D(256, 8 * np.pi), [p], check_stability, n_trials=6, band=16, seed=5
        )

    @pytest.mark.parametrize("operator", ["+", "-", "H"])
    def test_ratios_match_hand_normalised_trials_at_the_workload_size(self, operator):
        # the kernel runs on 512 points for both grids; 6 trials span two
        # row blocks at n = 2048 and three at 4096, so a kernel buffer that
        # kept one block's modes into the next would show
        _check_against_hand_normalised_trials(
            operator, Grid1D(2048, 8 * np.pi), [4 / 3, 2.0, 4.0], True, n_trials=6, band=64, seed=5
        )

    @pytest.mark.parametrize("operator", ["+", "H"])
    def test_exponents_in_one_call_match_one_call_each(self, operator):
        grid, pairs, exponents = Grid1D(256, 8 * np.pi), [(0, 1), (1, 1), (0, 2)], (4 / 3, 2.0, 4.0)
        kw = dict(n_trials=8, bandwidth=16, seed=11, check_stability=True)
        table = estimate_constant(operator, pairs, grid, p=exponents, **kw)
        assert set(table) == {(l, m, p) for l, m in pairs for p in exponents}
        for p in exponents:
            single = estimate_constant(operator, pairs, grid, p=p, **kw)
            assert set(single) == {(l, m, p) for l, m in pairs}
            for key, one in single.items():
                both = table[key]
                assert both.p == one.p == p
                assert np.array_equal(both.ratios, one.ratios)
                assert both.max_ratio == one.max_ratio
                assert both.stability_factor == one.stability_factor
                assert both.skipped == one.skipped

    def test_block_size_never_changes_a_result(self, monkeypatch):
        grid, pairs = Grid1D(2048, 8 * np.pi), [(0, 1), (1, 1), (0, 2)]
        kw = dict(p=(4 / 3, 2.0, 4.0), n_trials=11, bandwidth=32, seed=4)
        base = estimate_constant("+", pairs, grid, **kw)
        for chunk, blocks in ((1 << 13, 6), (1 << 22, 1)):
            monkeypatch.setattr(spectral, "CHUNK_BYTES", chunk)
            assert len(row_blocks(kw["n_trials"], 2 * grid.n)) == blocks
            other = estimate_constant("+", pairs, grid, **kw)
            assert set(other) == set(base)
            for key, est in base.items():
                assert np.array_equal(other[key].ratios, est.ratios)
                assert other[key].max_ratio == est.max_ratio
                assert other[key].stability_factor == est.stability_factor

    def test_ensemble_holds_no_trial_stack(self):
        # one (100, 2n) complex stack on the doubled grid would be 3.1 MiB;
        # trials are processed a row block at a time (8 rows at n = 1024, on
        # both grids) through one complex scratch and one real magnitude
        # buffer of (8, 2048), viewed at (8, 1024) for the grid, plus on the
        # 512-point kernel grid the (3, 8, 512) draws (f, a, d^k a) and five
        # (8, 512) kernel arrays, for all three exponents at once.  A
        # one-trial call first keeps the one-off costs of first use (lazy
        # imports, FFT plans) out of the peak.
        grid, pairs, p = Grid1D(1024, 8 * np.pi), [(0, 1), (1, 1), (0, 2)], (4 / 3, 2.0, 4.0)
        estimate_constant("+", pairs, grid, p=p, n_trials=1, bandwidth=64)
        tracemalloc.start()
        try:
            estimate_constant("+", pairs, grid, p=p, n_trials=100, bandwidth=64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20

    @pytest.mark.parametrize("grid", [Grid1D(256, 8 * np.pi), Grid1D(2048, 8 * np.pi)])
    @pytest.mark.parametrize("band", [1, 5, 16, 64])
    def test_stratified_draw_matches_per_mode_loop(self, grid, band):
        def loop_hat(seed):
            rng = np.random.default_rng(seed)
            levels = [1 << j for j in range(band.bit_length()) if 1 << j <= band]
            if levels[-1] != band:
                levels.append(band)
            count = int(rng.choice(levels))
            modes = np.sort(rng.choice(np.arange(1, band + 1), size=count, replace=False))
            hat = np.zeros(grid.n, dtype=np.complex128)
            for k in modes:
                z = complex(rng.standard_normal(), rng.standard_normal())
                hat[k] = z
                hat[-k] = np.conj(z)
            return hat

        for seed in range(20):
            assert np.array_equal(_stratified_coefficient(grid, band, seed), loop_hat(seed))


class TestDecompositionAudit:
    def test_identities_on_random_inputs(self):
        grid = Grid1D(1024, 8 * np.pi)
        a = SpectralField(grid, trial_coefficient(grid, 40, 31))
        f = trial_field(grid, 40, 32)
        audit = decomposition_audit(a, f, m=1)
        assert audit.residual_low_part < 1e-12 * audit.scale
        assert audit.residual_inner_support < 1e-12 * audit.scale
        assert audit.residual_diagonal_support < 1e-12 * audit.scale
        assert audit.residual_reconstruction < 1e-10 * audit.scale
        # the farthest sub-diagonal pairs a low coefficient block with a
        # field block two octaves up; their product cannot reach the
        # positive side
        assert audit.diagonal_norms[-2] < 1e-12 * audit.scale
        assert audit.near_diagonal.norm_l2() > 0

    def test_mean_rejected(self):
        grid = Grid1D(512, 8 * np.pi)
        a = SpectralField(grid, trial_coefficient(grid, 30, 41) + 0.5)
        f = trial_field(grid, 30, 42)
        with pytest.raises(ValidationError, match="mean"):
            decomposition_audit(a, f)


class TestFractionalCommutator:
    def test_constraint_violations(self):
        a, f = sample_pair()
        with pytest.raises(ConfigError):
            fractional_commutator(a, f, alpha=1.0, beta_exp=0.5)
        with pytest.raises(ConfigError):
            fractional_commutator(a, f, alpha=0.5, beta_exp=0.0)
        with pytest.raises(ConfigError):
            fractional_commutator(a, f, alpha=0.5, beta_exp=0.75)
        with pytest.raises(ConfigError):
            fractional_commutator(a, f, alpha=0.0, beta_exp=0.5, q=2.0, delta=0.4)

    def test_constant_coefficient(self):
        _, f = sample_pair()
        res = fractional_commutator(np.full(GRID.n, 1.5), f, 0.0, 0.5)
        assert res.lhs < 1e-12 * f.norm_l2()
        assert res.ratio == 0.0

    def test_reduction_identity(self):
        a, f = sample_pair(seed=51)
        res = fractional_commutator(a, f, alpha=0.5, beta_exp=0.25)
        assert res.reduction_residual < 1e-10 * f.norm_l2()

    def test_ensemble_bounded_and_refinement_stable(self):
        grid = Grid1D(1024, 8 * np.pi)
        fine = Grid1D(2048, 8 * np.pi)
        for pair in ((0.0, 0.5), (0.5, 0.25), (0.5, 0.5)):
            maxes = []
            for g in (grid, fine):
                rs = []
                for seed in range(50):
                    a = trial_coefficient(g, 48, 300 + seed)
                    f = trial_field(g, 48, 600 + seed)
                    rs.append(fractional_commutator(a, f, *pair).ratio)
                maxes.append(max(rs))
            assert maxes[0] < 3.0
            assert maxes[1] <= 1.1 * maxes[0]
