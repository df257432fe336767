"""Empirical commutator bounds and dyadic decomposition audits.

The solver's coupling terms live or die on one family of facts: the
commutator of a one-sided projection (or the Hilbert transform, or a
fractional derivative) with multiplication by a smooth coefficient is
one full order smoother than the raw product.  This module measures
those bounds on randomized ensembles and verifies the exact algebraic
identities behind them on the grid:

* one private kernel forms T(a g) - a T(g) in Fourier space, with
  2/3-rule products, for any multiplier T: the one-sided projections,
  the Hilbert transform, |D| and |D|^s all go through it.
* ``commutator_apply`` evaluates d^l [T; a] d^m f for T in
  {one-sided projections, Hilbert transform}.
* ``estimate_constant`` runs seeded ensembles and reports the max ratio
  against the sup norm of d^{l+m} a times the field norm, plus its
  stability under grid refinement (the falsifiable desk-scale content
  of a uniform bound).  Trials run a block of rows at a time through one
  pipeline for both grids: each trial's pair (a, f) is drawn once, its
  [T; a] kernel runs once per distinct kernel grid, and the result serves
  both grids, every (l, m) and every p.
* ``decomposition_audit`` splits a one-sided coefficient product into
  the three dyadic double-sum parts, checks the part that vanishes by
  frequency-support bookkeeping, the two block-support identities, and
  the reconstruction of the whole from the parts.
* ``fractional_commutator`` measures the half-derivative chain bound
  and verifies its reduction identity.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, ValidationError
from .spectral import (
    Grid1D,
    SpectralField,
    dealias_hat,
    dealiased_product,
    derivative,
    derivative_multiplier,
    fractional,
    fractional_multiplier,
    hat_norm,
    hilbert_multiplier,
    lp_block,
    lp_norm,
    project,
    projection_multiplier,
    random_band_field,
    random_band_hat,
    row_blocks,
)

__all__ = [
    "CommutatorTrial",
    "BoundEstimate",
    "DecompositionAudit",
    "FractionalResult",
    "commutator_apply",
    "derivative_identity_residual",
    "estimate_constant",
    "decomposition_audit",
    "fractional_commutator",
    "trial_coefficient",
    "trial_field",
]

_OPERATORS = ("+", "-", "H")


def _operator_symbol(grid: Grid1D, op: str) -> np.ndarray:
    if op == "H":
        return hilbert_multiplier(grid)
    return projection_multiplier(grid, op)


def _dealiased_samples(grid: Grid1D, a_hat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Physical samples of the 2/3-masked coefficient: the ``a_m`` of ``_commutator_hats``.

    ``out`` may be ``a_hat`` itself, which is then overwritten.
    """
    out = dealias_hat(grid, a_hat, out)
    return np.fft.ifft(out, out=out)


def _commutator_hats(
    grid: Grid1D,
    symbol: np.ndarray,
    a_m: np.ndarray,
    g_hat: np.ndarray,
    out: np.ndarray | None = None,
    work: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Fourier coefficients of [T; a] g = T(a g) - a T(g), T the multiplier ``symbol``.

    ``a_m`` holds the coefficient's samples from ``_dealiased_samples``, so
    a coefficient paired with several g is transformed once.  Both products
    follow ``dealiased_product``: each factor is masked by the 2/3 rule,
    multiplied in physical space, and the product masked again.  Works
    along the last axis, row by row, so a (rows, n) block of g gives every
    row's single-row result bit for bit.  ``out`` and the pair ``work`` are
    optional caller-owned arrays of the result's shape; given them, the
    kernel allocates nothing.
    """
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(a_m), np.shape(g_hat)), dtype=np.complex128)
    g_m, tg_m = (np.empty_like(out), np.empty_like(out)) if work is None else work
    np.fft.ifft(dealias_hat(grid, g_hat, g_m), out=g_m)
    np.fft.ifft(dealias_hat(grid, np.multiply(symbol, g_hat, out=tg_m), tg_m), out=tg_m)
    np.fft.fft(np.multiply(a_m, g_m, out=g_m), out=g_m)
    np.fft.fft(np.multiply(a_m, tg_m, out=tg_m), out=tg_m)
    np.subtract(np.multiply(symbol, g_m, out=out), tg_m, out=out)
    return dealias_hat(grid, out, out)


def _band_limited(f: SpectralField) -> bool:
    outside = f.hat[~f.grid.dealias_mask]
    scale = np.max(np.abs(f.hat))
    return scale == 0.0 or np.max(np.abs(outside)) <= 1e-12 * scale


@dataclass(frozen=True)
class CommutatorTrial:
    """One evaluation of d^l [T; a] d^m f.

    ``operator`` is "+", "-" (one-sided projections) or "H" (Hilbert
    transform); ``a`` holds real coefficient samples on the grid of ``f``.
    """

    operator: str
    a: np.ndarray
    f: SpectralField
    l: int = 0
    m: int = 0

    def __post_init__(self) -> None:
        if self.operator not in _OPERATORS:
            raise ConfigError(f"operator must be one of {_OPERATORS}")
        if self.l < 0 or self.m < 0:
            raise ConfigError("derivative orders must be nonnegative")
        a = np.asarray(self.a)
        if a.shape != (self.f.grid.n,):
            raise ValidationError("coefficient samples do not match the grid")
        if np.iscomplexobj(a) and np.max(np.abs(a.imag)) > 1e-12 * max(
            1.0, np.max(np.abs(a.real))
        ):
            raise ValidationError("coefficient must be real-valued")
        if not _band_limited(self.f):
            raise ValidationError(
                "field carries content above the dealiasing cutoff"
            )


def commutator_apply(trial: CommutatorTrial) -> SpectralField:
    """d^l ( T(a g) - a T(g) ) with g = d^m f, dealiased products."""
    grid = trial.f.grid
    a_m = _dealiased_samples(grid, np.fft.fft(np.asarray(trial.a, dtype=float)))
    g_hat = derivative_multiplier(grid, trial.m) * trial.f.hat
    comm = _commutator_hats(grid, _operator_symbol(grid, trial.operator), a_m, g_hat)
    return SpectralField.from_hat(grid, derivative_multiplier(grid, trial.l) * comm)


def derivative_identity_residual(a: np.ndarray, f: SpectralField) -> float:
    """Residual of [|D|; a]f = -[H; a] f' - H(a' f) on band-limited data.

    With the declared transform convention (symbol i sgn), H d/dx equals
    minus the modulus-derivative, which fixes the sign of the identity.
    """
    grid = f.grid
    a_field = SpectralField(grid, np.asarray(a, dtype=float))
    h = hilbert_multiplier(grid)
    f_prime = derivative_multiplier(grid, 1) * f.hat
    a_m = _dealiased_samples(grid, a_field.hat)
    lhs = _commutator_hats(grid, fractional_multiplier(grid, 1.0), a_m, f.hat)
    comm_h = _commutator_hats(grid, h, a_m, f_prime)
    rhs = -comm_h - h * dealiased_product(derivative(a_field, 1), f).hat
    return float(hat_norm(grid, lhs - rhs))


@dataclass
class BoundEstimate:
    """Ensemble statistics for one commutator inequality."""

    operator: str
    l: int
    m: int
    p: float
    ratios: np.ndarray
    max_ratio: float
    stability_factor: float
    grid_n: int
    half_length: float
    bandwidth: int
    skipped: int = 0

    @property
    def ensemble(self) -> int:
        return len(self.ratios)

    def to_dict(self) -> dict:
        return {
            "operator": self.operator,
            "l": self.l,
            "m": self.m,
            "p": float(self.p),
            "ensemble": self.ensemble,
            "max_ratio": float(self.max_ratio),
            "mean_ratio": float(np.mean(self.ratios)) if len(self.ratios) else 0.0,
            "stability_factor": float(self.stability_factor),
            "grid_n": self.grid_n,
            "half_length": float(self.half_length),
            "bandwidth": self.bandwidth,
            "skipped": self.skipped,
        }


def _stratified_coefficient(grid: Grid1D, bandwidth: int, seed: int) -> np.ndarray:
    """Fourier coefficients of a real band-limited coefficient at a seeded concentration level.

    Diffuse draws that populate every mode under-sample concentrated
    coefficients, and the near-extremal configurations for the
    projection commutators are concentrated ones, so a max over diffuse
    draws alone drifts downward as the band widens even though the
    underlying bound is uniform.  Mixing dyadic concentration levels
    (from a single active mode up to the full band) removes that bias.
    The draw depends only on the seed and the band, with modes filled in
    a fixed order, so the same seed places the same hats on any grid that
    resolves the band.  Unlike ``random_band_hat`` it does not scale them
    by n, so the physical amplitude scales as 1/n; no ratio sees this, and
    ``_ensemble_ratios`` relies on it.
    """
    rng = np.random.default_rng(seed)
    levels = [1 << j for j in range(bandwidth.bit_length()) if 1 << j <= bandwidth]
    if levels[-1] != bandwidth:
        levels.append(bandwidth)
    count = int(rng.choice(levels))
    modes = np.sort(rng.choice(np.arange(1, bandwidth + 1), size=count, replace=False))
    z = rng.standard_normal((count, 2)).view(np.complex128)[:, 0]
    hat = np.zeros(grid.n, dtype=np.complex128)
    hat[modes] = z
    hat[-modes] = np.conj(z)
    return hat


def trial_coefficient(grid: Grid1D, bandwidth: int, seed: int) -> np.ndarray:
    """Real band-limited coefficient normalized to unit sup norm."""
    raw = random_band_field(grid, bandwidth, seed, real=True).values.real
    return raw / np.max(np.abs(raw))


def trial_field(grid: Grid1D, bandwidth: int, seed: int, p: float = 2.0) -> SpectralField:
    """Complex band-limited field normalized to unit L^p norm."""
    raw = random_band_field(grid, bandwidth, seed)
    return (1.0 / lp_norm(raw, p)) * raw


def _row_norms(
    grid: Grid1D, samples: np.ndarray, exponents: list[float], mod: np.ndarray
) -> dict[float, np.ndarray]:
    """``lp_norm`` of every row of ``samples`` for every exponent, equal bit for bit.

    |samples| is taken once, into ``mod``.  The 1/q-th roots are taken one
    row at a time, in scalar arithmetic: numpy's vector ``power`` differs
    from the scalar one in the last bit.
    """
    np.abs(samples, out=mod)
    return {
        q: np.array([s ** (1.0 / q) for s in (grid.dx * np.sum(mod**q, axis=-1)).tolist()])
        for q in exponents
    }


def _kernel_grid(g: Grid1D, bandwidth: int) -> Grid1D:
    """The smallest power-of-two grid above 6 * bandwidth, or ``g`` if not smaller: there no
    B-band factor, nor the product of two, aliases, and the 2/3 masks keep every product mode."""
    n = max(16, 1 << (6 * bandwidth).bit_length())
    return Grid1D(n, g.half_length) if n < g.n else g


def _resample_hat(src: np.ndarray, scale: float, out: np.ndarray) -> np.ndarray:
    """``scale * src`` at the size of ``out``: modes truncated or zero-padded along the last axis."""
    h = min(src.shape[-1], out.shape[-1]) // 2
    np.multiply(src[..., :h], scale, out=out[..., :h])
    np.multiply(src[..., -h:], scale, out=out[..., -h:])
    out[..., h:-h] = 0.0
    return out


def _flat_view(buf: np.ndarray, *shape: int) -> np.ndarray:
    """The leading elements of the flat ``buf`` as a contiguous array of ``shape``."""
    return buf[: math.prod(shape)].reshape(shape)


def _ensemble_ratios(
    grids: list[Grid1D],
    operator: str,
    pairs: list[tuple[int, int]],
    exponents: list[float],
    n_trials: int,
    bandwidth: int,
    seed: int,
) -> list[dict[tuple[int, int, float], list[float]]]:
    """Trial ratios of every (l, m, q) on each of ``grids``, in trial order (see ``estimate_constant``).

    Trials are drawn once on the smallest kernel grid, the kernel runs once per distinct kernel
    grid, and derivatives are taken there before zero padding.  f's hats scale with n, a's and
    the kernel's do not, so hats move between grids by exact powers of two: each grid gets the
    bits of a pipeline of its own.
    """
    kernels = [_kernel_grid(g, bandwidth) for g in grids]
    draw = kernels[0]  # the smallest: grids come in increasing size, and so do their kernel grids
    inner, total = sorted({m for _, m in pairs}), sorted({l + m for l, m in pairs})
    orders = {l for l, _ in pairs} | set(inner) | set(total)
    d = {kg: {k: derivative_multiplier(kg, k) for k in orders} for kg in kernels}
    kernel_steps = [
        (kg, _operator_symbol(kg, operator), [t for t, other in enumerate(kernels) if other == kg])
        for kg in dict.fromkeys(kernels)
    ]
    ratios = [{(l, m, q): [] for l, m in pairs for q in exponents} for _ in grids]
    # blocks sized for rows of twice the first grid (4 trials at n = 2048); the flat work
    # arrays fit the largest grid and are viewed at the size of each
    blocks = row_blocks(n_trials, 2 * grids[0].n)
    rows = blocks[0].stop
    draws = np.empty((3, rows, draw.n), dtype=np.complex128)
    kernel_buf = np.empty(5 * rows * max(kg.n for kg in kernels), dtype=np.complex128)
    scratch_buf = np.empty(rows * max(g.n for g in grids), dtype=np.complex128)
    mod_buf = np.empty(scratch_buf.size)
    for block in blocks:
        count = block.stop - block.start
        f_hat, a_hat, a_der = draws[:, :count]
        for j, i in enumerate(range(block.start, block.stop)):
            f_hat[j] = random_band_hat(draw, bandwidth, seed + i)
            a_hat[j] = _stratified_coefficient(draw, bandwidth, seed + n_trials + i)
        f_norm, sup_a = [], []
        for g in grids:
            scratch, mod = _flat_view(scratch_buf, count, g.n), _flat_view(mod_buf, count, g.n)
            samples = np.fft.ifft(_resample_hat(f_hat, g.n / draw.n, scratch), out=scratch)
            f_norm.append(_row_norms(g, samples, exponents, mod))
            sup_a.append({})
            for k in total:
                _resample_hat(np.multiply(d[draw][k], a_hat, out=a_der), 1.0, scratch)
                samples = np.fft.ifft(scratch, out=scratch)
                sup_a[-1][k] = np.max(np.abs(samples.real, out=mod), axis=-1)
        for kg, symbol, users in kernel_steps:
            a_m, g_hat, comm, *work = _flat_view(kernel_buf, 5, count, kg.n)
            _dealiased_samples(kg, _resample_hat(a_hat, 1.0, a_m), out=a_m)
            for m in inner:
                _resample_hat(f_hat, kg.n / draw.n, g_hat)
                _commutator_hats(kg, symbol, a_m, np.multiply(d[kg][m], g_hat, out=g_hat), comm, work)
                for l in (l for l, m_ in pairs if m_ == m):
                    np.multiply(d[kg][l], comm, out=g_hat)
                    for t in users:
                        g = grids[t]
                        scratch, mod = _flat_view(scratch_buf, count, g.n), _flat_view(mod_buf, count, g.n)
                        samples = np.fft.ifft(_resample_hat(g_hat, 1.0, scratch), out=scratch)
                        lhs_norm = _row_norms(g, samples, exponents, mod)
                        sup = sup_a[t][l + m]
                        for q in exponents:
                            keep = ~(sup < 1e-12) & (f_norm[t][q] >= 1e-300)
                            ratio = lhs_norm[q][keep] / (sup[keep] * f_norm[t][q][keep])
                            ratios[t][(l, m, q)].extend(ratio.tolist())
    return ratios


def estimate_constant(
    operator: str,
    lm_pairs: list[tuple[int, int]],
    grid: Grid1D,
    p: float | Sequence[float] = 2.0,
    n_trials: int = 100,
    bandwidth: int = 64,
    seed: int = 0,
    check_stability: bool = True,
) -> dict[tuple[int, int, float], BoundEstimate]:
    """Seeded ensemble measurement of the projection-commutator bound.

    For each (l, m) and each exponent in ``p`` (one exponent or a
    sequence) the trial ratio is
    ||d^l [T; a] d^m f||_p / (||d^{l+m} a||_inf ||f||_p); the commutator
    is bilinear in (a, f), so it is divided by the denominator after the
    kernel.  The result is keyed (l, m, p) whether ``p`` is one exponent
    or several.  One pipeline serves the grid and, for the stability
    factor, the doubled grid, a block of trials at a time (``row_blocks``
    for rows of twice the grid size: 4 trials at n = 2048, on both grids)
    through work arrays allocated once.  Each trial's (a, f) keeps its own
    seeds and is drawn once, as Fourier coefficients on ``_kernel_grid``
    (512 points for a band of 64), where the coefficient samples and
    [T; a] d^m f are formed once for both grids and every (l, m) and p.
    The norms of f, sup |d^{l+m} a| and the samples of d^l [T; a] d^m f are
    taken on each grid, so the ratios agree with the full-grid kernel to
    rounding.  Every transform works row by row, so the block size never
    changes a bit.  Coefficients are drawn at stratified concentration
    levels (see ``_stratified_coefficient``) and arguments diffusely across
    the band, so the max tracks the actual extremal configurations at any
    bandwidth.  The stability factor divides the max ratios of the same
    seeds on the doubled grid by the grid's: the random fields reproduce
    mode-for-mode on any grid that resolves the band.

    Known limit: trial i of base seed s draws f from seed s + i and a
    from seed s + n_trials + i, so base seeds closer than ``n_trials``
    share trials (seeds 0 and 3 share 97 of 100).
    """
    if operator not in _OPERATORS:
        raise ConfigError(f"operator must be one of {_OPERATORS}")
    exponents = list(dict.fromkeys(float(q) for q in np.atleast_1d(p)))
    if not exponents:
        raise ConfigError("need at least one exponent p")
    if not all(1.0 < q < np.inf for q in exponents):
        raise ConfigError("exponent p must lie in (1, inf)")
    if n_trials < 1:
        raise ConfigError(f"need at least one trial, got {n_trials}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    if bandwidth < 1:
        raise ConfigError(f"bandwidth must be at least 1, got {bandwidth}")
    if 3 * bandwidth >= grid.n:
        raise ConfigError("bandwidth must sit below the dealiasing cutoff")
    pairs = list(dict.fromkeys(lm_pairs))
    if any(l < 0 or m < 0 for l, m in pairs):
        raise ConfigError("derivative orders must be nonnegative")

    grids = [grid, Grid1D(2 * grid.n, grid.half_length)] if check_stability else [grid]
    per_grid = _ensemble_ratios(grids, operator, pairs, exponents, n_trials, bandwidth, seed)

    out = {}
    for (l, m, q), ratios in per_grid[0].items():
        max_ratio = max(ratios, default=0.0)
        fine_max = max(per_grid[-1][(l, m, q)], default=0.0)
        out[(l, m, q)] = BoundEstimate(
            operator=operator, l=l, m=m, p=q, ratios=np.asarray(ratios), max_ratio=max_ratio,
            stability_factor=fine_max / max_ratio if check_stability and max_ratio > 0 else 1.0,
            grid_n=grid.n, half_length=grid.half_length, bandwidth=bandwidth,
            skipped=n_trials - len(ratios),
        )
    return out


@dataclass
class DecompositionAudit:
    """Dyadic three-part split of a one-sided coefficient product."""

    coeff_high: SpectralField
    coeff_low: SpectralField
    near_diagonal: SpectralField
    diagonal_norms: dict
    residual_low_part: float
    residual_inner_support: float
    residual_diagonal_support: float
    residual_reconstruction: float
    scale: float


def _require_zero_mean(f: SpectralField, label: str) -> None:
    scale = np.max(np.abs(f.hat))
    if scale > 0 and abs(f.hat[0]) > 1e-12 * scale * f.grid.n:
        raise ValidationError(f"{label} must have zero mean for the dyadic split")


def decomposition_audit(
    a: SpectralField, f: SpectralField, m: int = 1
) -> DecompositionAudit:
    """Split P+(a P- d^m f) into block pairs and check the identities.

    The three parts collect coefficient blocks at least three octaves
    above the field block (``coeff_high``), at least three below
    (``coeff_low``, which frequency bookkeeping forces to vanish under
    P+), and within two octaves (``near_diagonal``).  Support identities
    checked: a block-times-lowpass product is reproduced by the dilated
    annulus cutoff, and a near-diagonal block product by the wide
    lowpass cutoff.  The parts must reassemble the unsplit product.
    """
    grid = a.grid
    if f.grid != grid:
        raise ValidationError("coefficient and field grids differ")
    _require_zero_mean(a, "coefficient")
    _require_zero_mean(f, "field")
    if not (_band_limited(a) and _band_limited(f)):
        raise ValidationError("inputs must be band-limited below the cutoff")

    g = project(derivative(f, m) if m else f, "-")
    k_min, k_max = grid.resolvable_block_range()
    scale = float(np.max(np.abs(a.values)) * g.norm_l2())

    blocks_a = {k: lp_block(a, k, "Q") for k in range(k_min, k_max + 1)}
    blocks_g = {k: lp_block(g, k, "Q") for k in range(k_min, k_max + 1)}

    res_inner = 0.0
    res_diag_support = 0.0

    high_sum = None
    for k in range(k_min, k_max + 1):
        low_g = lp_block(g, k, "P")
        prod = dealiased_product(blocks_a[k], low_g)
        reproduced = lp_block(prod, k, "Qtilde")
        res_inner = max(res_inner, (prod - reproduced).norm_l2())
        high_sum = prod if high_sum is None else high_sum + prod
    coeff_high = project(high_sum, "+")

    low_sum = None
    for k in range(k_min, k_max + 1):
        low_a = lp_block(a, k, "P")
        prod = dealiased_product(low_a, blocks_g[k])
        low_sum = prod if low_sum is None else low_sum + prod
    coeff_low = project(low_sum, "+")

    diag_norms = {}
    diag_sum = None
    for j in range(-2, 3):
        part = None
        for k in range(k_min, k_max + 1):
            if not (k_min <= k - j <= k_max):
                continue
            prod = dealiased_product(blocks_a[k], blocks_g[k - j])
            reproduced = lp_block(prod, k, "Ptilde")
            res_diag_support = max(res_diag_support, (prod - reproduced).norm_l2())
            part = prod if part is None else part + prod
        projected = (
            project(part, "+")
            if part is not None
            else SpectralField(grid, np.zeros(grid.n, dtype=complex))
        )
        diag_norms[j] = projected.norm_l2()
        diag_sum = projected if diag_sum is None else diag_sum + projected
    near_diagonal = diag_sum

    target = project(dealiased_product(a, g), "+")
    recon = coeff_high + coeff_low + near_diagonal
    res_recon = (recon - target).norm_l2()

    return DecompositionAudit(
        coeff_high=coeff_high,
        coeff_low=coeff_low,
        near_diagonal=near_diagonal,
        diagonal_norms=diag_norms,
        residual_low_part=coeff_low.norm_l2(),
        residual_inner_support=res_inner,
        residual_diagonal_support=res_diag_support,
        residual_reconstruction=res_recon,
        scale=scale,
    )


@dataclass(frozen=True)
class FractionalResult:
    """One fractional-commutator trial."""

    alpha: float
    beta_exp: float
    p: float
    q: float
    delta: float
    lhs: float
    rhs: float
    ratio: float
    reduction_residual: float

    def to_dict(self) -> dict:
        return asdict(self)


def fractional_commutator(
    a: np.ndarray,
    f: SpectralField,
    alpha: float,
    beta_exp: float,
    p: float = 2.0,
    q: float = 2.0,
    delta: float = 0.6,
) -> FractionalResult:
    """||D^alpha [D^beta; a] D^{1-(alpha+beta)} f||_p against
    ||J^delta a'||_q ||f||_p, plus the two-term reduction identity

        D^alpha [D^beta; a] D^{1-(alpha+beta)} f
            = [D^{alpha+beta}; a] D^{1-(alpha+beta)} f
            - [D^alpha; a] D^{1-alpha} f.
    """
    if not (0.0 <= alpha < 1.0):
        raise ConfigError("alpha must lie in [0, 1)")
    if not (0.0 < beta_exp < 1.0):
        raise ConfigError("beta exponent must lie in (0, 1)")
    if alpha + beta_exp > 1.0:
        raise ConfigError("alpha + beta must not exceed 1")
    if not (1.0 < p < np.inf) or not (1.0 < q < np.inf):
        raise ConfigError("exponents p, q must lie in (1, inf)")
    if delta <= 1.0 / q or not (0.0 < delta < 1.0):
        raise ConfigError("delta must lie in (1/q, 1)")

    grid = f.grid
    a_field = SpectralField(grid, np.asarray(a, dtype=float))

    def d(s: float) -> np.ndarray:
        return fractional_multiplier(grid, s)

    a_m = _dealiased_samples(grid, a_field.hat)
    tail = d(1.0 - (alpha + beta_exp)) * f.hat
    direct = d(alpha) * _commutator_hats(grid, d(beta_exp), a_m, tail)
    reduced = _commutator_hats(grid, d(alpha + beta_exp), a_m, tail) - _commutator_hats(
        grid, d(alpha), a_m, d(1.0 - alpha) * f.hat
    )
    residual = float(hat_norm(grid, direct - reduced))

    lhs = lp_norm(SpectralField.from_hat(grid, direct), p)
    grad = derivative(a_field, 1)
    rhs = lp_norm(fractional(grad, delta, kind="J"), q) * lp_norm(f, p)
    ratio = lhs / rhs if rhs > 0 else (0.0 if lhs <= 1e-12 else np.inf)
    return FractionalResult(
        alpha=alpha,
        beta_exp=beta_exp,
        p=p,
        q=q,
        delta=delta,
        lhs=lhs,
        rhs=rhs,
        ratio=ratio,
        reduction_residual=residual,
    )
