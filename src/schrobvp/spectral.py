"""Periodic pseudospectral core: grid, fields, Fourier multipliers, dyadic blocks.

Conventions
-----------
The spatial domain is the periodic interval [-L, L) sampled at n equispaced
nodes x_j = -L + j*(2L/n).  Discrete frequencies are xi_k = pi*k/L for
integer k in [-n/2, n/2), stored in the usual FFT layout.  All norms are
quadrature norms: ||f||_p = (sum |f_j|^p dx)^(1/p).

Frequency ownership: the half-line projections own strictly positive and
strictly negative frequencies respectively; the zero mode and the unpaired
Nyquist mode form a separate two-dimensional projection (``pi0``).  The
sign multiplier ``hilbert`` has symbol i*sgn(xi) on paired modes and
annihilates the zero/Nyquist pair, so on that class the exact operator
identities

    hilbert = i*(project(+) - project(-))        and
    d/dx    = fractional(1/2) o hilbert o fractional(1/2)

hold mode by mode.

Products of gridded functions are dealiased with the 2/3 rule: the top
third of the spectrum of each factor is zeroed before pointwise
multiplication and the product spectrum is masked again afterwards.
"""

from __future__ import annotations

import math
from typing import Literal

import numpy as np

from .errors import (
    GridMismatchError,
    ResolvableRangeError,
    SingularOperatorError,
    ValidationError,
)

# Bytes of one complex block wherever a stack is transformed or coefficients
# are evaluated in pieces.  The operator kernel holds about 16 blocks at once
# (fields, products and each FFT's output), so 256 KiB blocks keep its working
# set within a 4 MiB L2 cache, whatever the step count.
CHUNK_BYTES = 1 << 18


def chunk_rows(n: int) -> int:
    """Even number of length-``n`` complex rows that fills one CHUNK_BYTES block.

    8 rows at n = 2048, 32 at n = 512.  The count is even so that blocks
    over a half-step time grid start on integer nodes.  Every blocked kernel
    transforms row by row, so the block size changes speed and peak memory,
    never a result.
    """
    return max(2, CHUNK_BYTES // (16 * n) // 2 * 2)


def row_blocks(count: int, n: int) -> list[slice]:
    """Slices that cut ``count`` rows of length ``n`` into ``chunk_rows(n)`` blocks."""
    step = chunk_rows(n)
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def same_time_grid(times: np.ndarray, other: np.ndarray) -> bool:
    """Whether ``times`` is the grid ``other``: equal length, and every node
    within 1e-12 max(1, |T|) of its counterpart, T being ``other``'s last time."""
    return np.shape(times) == np.shape(other) and bool(
        np.all(np.abs(times - other) <= 1e-12 * max(1.0, abs(other[-1])))
    )


__all__ = [
    "Grid1D",
    "SpectralField",
    "SpaceTimeField",
    "project",
    "hilbert",
    "fractional",
    "lp_block",
    "lp_norm",
    "derivative_multiplier",
    "projection_multiplier",
    "hilbert_multiplier",
    "fractional_multiplier",
    "lp_block_multiplier",
    "pi0",
    "remove_pi0",
    "require_one_sided",
    "derivative",
    "dealiased_product",
    "hat_norm",
    "gaussian_field",
    "mode_field",
    "random_band_field",
    "random_band_hat",
    "smooth_bump",
    "annulus_bump",
    "block_symbol",
]


class Grid1D:
    """Uniform periodic grid on [-L, L) with 2^m nodes.

    Parameters
    ----------
    n : int
        Number of nodes; must be a power of two, at least 16.
    half_length : float
        L; the period is 2L.

    Attributes
    ----------
    x : ndarray
        Node coordinates, ascending from -L.
    xi : ndarray
        Angular frequencies pi*k/L in FFT layout (k = 0..n/2-1, -n/2..-1).
    k_index : ndarray of int
        The signed integer mode index k for each slot.
    band_top : int
        The largest |k| the 2/3 rule keeps, (n - 1) // 3: the band's edge.
    dealias_mask : ndarray of bool
        True on the modes kept by the 2/3 rule (|k| < n/3, so |k| <= band_top).
    """

    __slots__ = ("n", "half_length", "dx", "x", "xi", "k_index", "band_top", "dealias_mask")

    def __init__(self, n: int, half_length: float) -> None:
        n = int(n)
        if n < 16 or (n & (n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 16, got {n}")
        if not (half_length > 0.0 and math.isfinite(half_length)):
            raise ValueError(f"half_length must be positive and finite, got {half_length}")
        self.n = n
        self.half_length = float(half_length)
        self.dx = 2.0 * self.half_length / n
        self.x = -self.half_length + self.dx * np.arange(n)
        self.k_index = np.rint(np.fft.fftfreq(n) * n).astype(np.int64)
        self.xi = (np.pi / self.half_length) * self.k_index
        self.band_top = (n - 1) // 3
        self.dealias_mask = np.abs(self.k_index) < (n / 3.0)

    @property
    def xi_min(self) -> float:
        return np.pi / self.half_length

    @property
    def xi_max(self) -> float:
        return (self.n // 2) * np.pi / self.half_length

    def resolvable_block_range(self) -> tuple[int, int]:
        """Dyadic indices [k_min, k_max] for which the block family partitions the grid spectrum."""
        k_min = math.floor(math.log2(self.xi_min))
        k_max = math.ceil(math.log2(self.xi_max))
        return k_min, k_max

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Grid1D)
            and other.n == self.n
            and other.half_length == self.half_length
        )

    def __hash__(self) -> int:
        return hash((self.n, self.half_length))

    def __repr__(self) -> str:
        return f"Grid1D(n={self.n}, half_length={self.half_length})"


def _as_complex(values: np.ndarray, n: int) -> np.ndarray:
    out = np.asarray(values, dtype=np.complex128)
    if out.shape != (n,):
        raise GridMismatchError(f"expected {n} samples, got shape {out.shape}")
    return out


class SpectralField:
    """A complex field on a :class:`Grid1D`, with a lazily cached transform."""

    __slots__ = ("grid", "values", "_hat")

    def __init__(self, grid: Grid1D, values: np.ndarray, *, hat: np.ndarray | None = None) -> None:
        self.grid = grid
        self.values = _as_complex(values, grid.n)
        self._hat = None if hat is None else _as_complex(hat, grid.n)

    @classmethod
    def from_hat(cls, grid: Grid1D, hat: np.ndarray) -> "SpectralField":
        hat = _as_complex(hat, grid.n)
        return cls(grid, np.fft.ifft(hat), hat=hat)

    @property
    def hat(self) -> np.ndarray:
        if self._hat is None:
            self._hat = np.fft.fft(self.values)
        return self._hat

    def norm_l2(self) -> float:
        return float(np.sqrt(self.grid.dx * np.sum(np.abs(self.values) ** 2)))

    def mean(self) -> complex:
        return complex(np.mean(self.values))

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check(other)
        return SpectralField(self.grid, self.values + other.values)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check(other)
        return SpectralField(self.grid, self.values - other.values)

    def __mul__(self, scalar: complex) -> "SpectralField":
        return SpectralField(self.grid, self.values * scalar)

    __rmul__ = __mul__

    def _check(self, other: "SpectralField") -> None:
        if other.grid != self.grid:
            raise GridMismatchError("fields live on different grids")

    def __repr__(self) -> str:
        return f"SpectralField(n={self.grid.n}, L={self.grid.half_length}, ||f||_2={self.norm_l2():.3e})"


# --- symbol builders -------------------------------------------------------
# Each returns the complex128 symbol of a diagonal operator: (M f)^hat = symbol * f^hat.

def derivative_multiplier(grid: Grid1D, order: int = 1) -> np.ndarray:
    return (1j * grid.xi) ** order


def _nyquist_slot(grid: Grid1D) -> int:
    return grid.n // 2


def projection_multiplier(grid: Grid1D, sign: str) -> np.ndarray:
    """Sharp half-line frequency cutoff.  ``sign`` is '+' or '-'.

    The zero mode is excluded from both; the unpaired Nyquist mode is
    grouped with it (see :func:`pi0`), so project(+) + project(-) + pi0 = 1.
    """
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    if sign == "+":
        mask = grid.xi > 0
    else:
        mask = grid.xi < 0
        mask[_nyquist_slot(grid)] = False
    return mask.astype(np.complex128)


def hilbert_multiplier(grid: Grid1D) -> np.ndarray:
    """Symbol i*sgn(xi) on paired modes; zero and Nyquist modes are annihilated."""
    sym = 1j * np.sign(grid.xi)
    sym[_nyquist_slot(grid)] = 0.0
    return sym


def fractional_multiplier(grid: Grid1D, s: float, kind: str = "D") -> np.ndarray:
    """|xi|^s (kind 'D') or (1+xi^2)^(s/2) (kind 'J').

    For kind 'D' with s < 0 the zero-mode symbol is set to 0; applying the
    operator to a field with nonvanishing mean is rejected in
    :func:`fractional`.
    """
    if kind == "D":
        sym = np.zeros(grid.n, dtype=np.complex128)
        nz = grid.xi != 0
        sym[nz] = np.abs(grid.xi[nz]) ** s
        if s == 0:
            sym[~nz] = 1.0
        return sym
    if kind == "J":
        return ((1.0 + grid.xi**2) ** (s / 2.0)).astype(np.complex128)
    raise ValueError(f"fractional kind must be 'D' or 'J', got {kind!r}")


def pi0(f: SpectralField) -> SpectralField:
    """Projection onto the zero and Nyquist modes."""
    hat = np.zeros(f.grid.n, dtype=np.complex128)
    ny = _nyquist_slot(f.grid)
    hat[0] = f.hat[0]
    hat[ny] = f.hat[ny]
    return SpectralField.from_hat(f.grid, hat)


def remove_pi0(f: SpectralField) -> SpectralField:
    """Project onto the paired-mode class (zero and Nyquist content removed)."""
    hat = f.hat.copy()
    hat[0] = 0.0
    hat[_nyquist_slot(f.grid)] = 0.0
    return SpectralField.from_hat(f.grid, hat)


def require_one_sided(f: SpectralField, sign: str, label: str) -> None:
    """ValidationError unless ``f`` has zero mean and no mass off the ``sign`` side.

    The endpoint-data check of the coupled and the closed-form problem.  Both
    tolerances are 1e-12 relative to ||f||_2, so the zero field passes.
    """
    scale = max(f.norm_l2(), 1e-300)
    hat = f.hat
    if abs(hat[0]) > 1e-12 * scale * f.grid.n:
        raise ValidationError(f"{label} must have zero mean")
    wrong = "-" if sign == "+" else "+"
    leak = float(hat_norm(f.grid, projection_multiplier(f.grid, wrong) * hat))
    if leak > 1e-12 * scale:
        raise ValidationError(
            f"{label} carries {leak:.3g} of mass on the {wrong} frequency side"
        )


def project(f: SpectralField, sign: str) -> SpectralField:
    return SpectralField.from_hat(f.grid, projection_multiplier(f.grid, sign) * f.hat)


def hilbert(f: SpectralField) -> SpectralField:
    return SpectralField.from_hat(f.grid, hilbert_multiplier(f.grid) * f.hat)


def fractional(f: SpectralField, s: float, kind: str = "D") -> SpectralField:
    if kind == "D" and s < 0:
        scale = float(np.max(np.abs(f.hat))) or 1.0
        if abs(f.hat[0]) > 1e-13 * scale:
            raise SingularOperatorError(
                f"|D|^{s} needs a zero-mean input; relative mean magnitude {abs(f.hat[0]) / scale:.2e}"
            )
    return SpectralField.from_hat(f.grid, fractional_multiplier(f.grid, s, kind) * f.hat)


def derivative(f: SpectralField, order: int = 1) -> SpectralField:
    return SpectralField.from_hat(f.grid, derivative_multiplier(f.grid, order) * f.hat)


# --- smooth dyadic family --------------------------------------------------

def _smooth_step(y: np.ndarray) -> np.ndarray:
    """C^infinity step: 0 for y<=0, 1 for y>=1, strictly increasing between."""
    y = np.asarray(y, dtype=np.float64)
    out = np.zeros_like(y)
    out[y >= 1.0] = 1.0
    mid = (y > 0.0) & (y < 1.0)
    if np.any(mid):
        ym = y[mid]
        a = np.exp(-1.0 / ym)
        b = np.exp(-1.0 / (1.0 - ym))
        out[mid] = a / (a + b)
    return out


def smooth_bump(xi: np.ndarray) -> np.ndarray:
    """Even C^infinity bump: 1 on [-1, 1], support [-2, 2]."""
    return _smooth_step(2.0 - np.abs(np.asarray(xi, dtype=np.float64)))


def annulus_bump(xi: np.ndarray) -> np.ndarray:
    """smooth_bump(xi) - smooth_bump(2 xi): supported on 1/2 <= |xi| <= 2.

    Dilates of this function telescope: summing over dyadic scales
    reproduces 1 at every nonzero frequency.
    """
    xi = np.asarray(xi, dtype=np.float64)
    return smooth_bump(xi) - smooth_bump(2.0 * xi)


BlockKind = Literal["Q", "P", "Qtilde", "Ptilde"]


def block_symbol(zeta: np.ndarray, kind: str) -> np.ndarray:
    """Evaluate the dyadic family's profile at rescaled frequency zeta = xi / 2^k.

    Q      : annulus bump, support 1/2 <= |zeta| <= 2
    P      : low-pass below the block, equals the telescoped sum of Q over
             scales <= k-3; support |zeta| < 1/4, value 1 at zeta = 0
    Qtilde : 1 on 1/4 <= |zeta| <= 4, support 1/8 < |zeta| < 8
    Ptilde : 1 on |zeta| <= 10, compactly supported
    """
    zeta = np.asarray(zeta, dtype=np.float64)
    if kind == "Q":
        return annulus_bump(zeta)
    if kind == "P":
        return smooth_bump(8.0 * zeta)
    if kind == "Qtilde":
        return smooth_bump(zeta / 4.0) * (1.0 - smooth_bump(8.0 * zeta))
    if kind == "Ptilde":
        return smooth_bump(zeta / 10.0)
    raise ValueError(f"unknown block kind {kind!r}")


def lp_block_multiplier(grid: Grid1D, k: int, kind: str = "Q") -> np.ndarray:
    k_min, k_max = grid.resolvable_block_range()
    if not (k_min <= k <= k_max):
        raise ResolvableRangeError(
            f"block index {k} outside resolvable range [{k_min}, {k_max}] for this grid"
        )
    zeta = grid.xi * 2.0 ** (-k)
    return block_symbol(zeta, kind).astype(np.complex128)


def lp_block(f: SpectralField, k: int, kind: str = "Q") -> SpectralField:
    return SpectralField.from_hat(f.grid, lp_block_multiplier(f.grid, k, kind) * f.hat)


def lp_norm(f: SpectralField, p: float) -> float:
    """Quadrature L^p norm (sum |f(x_j)|^p dx)^(1/p); p = inf gives max |f|."""
    if not 1 < p <= np.inf:
        raise ValueError(f"norm exponent must lie in (1, inf], got {p}")
    if p == np.inf:
        return float(np.max(np.abs(f.values)))
    return float((f.grid.dx * np.sum(np.abs(f.values) ** p)) ** (1.0 / p))


# --- dealiased products ----------------------------------------------------

def dealias_hat(grid: Grid1D, hat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``hat`` with the modes the 2/3 rule drops set to zero, along the last axis.

    With ``out`` (which may be ``hat`` itself) the mask is multiplied in
    place of the copy, and no array is allocated; a dropped mode may then
    read -0.0.
    """
    if out is None:
        return np.where(grid.dealias_mask, hat, 0.0)
    return np.multiply(hat, grid.dealias_mask, out=out)


def dealiased_product(f: SpectralField, g: SpectralField) -> SpectralField:
    """2/3-rule product of two fields: mask both factors, multiply, mask again."""
    if f.grid != g.grid:
        raise GridMismatchError("product of fields on different grids")
    fm = np.fft.ifft(dealias_hat(f.grid, f.hat))
    gm = np.fft.ifft(dealias_hat(g.grid, g.hat))
    hat = dealias_hat(f.grid, np.fft.fft(fm * gm))
    return SpectralField.from_hat(f.grid, hat)


def masked_samples(grid: Grid1D, samples: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Physical samples of a coefficient after the 2/3-rule pre-mask.

    Used for gridded coefficients that are not band-limited by
    construction; the returned array can be reused across many products.
    The round trip runs in place in a complex copy of ``samples``, or in
    ``out`` (complex128 of their shape, which may be ``samples`` itself),
    which allocates no array; the dropped modes are exact zeros either way.
    """
    if out is None:
        out = np.array(samples, dtype=np.complex128)
    elif samples is not out:
        out[...] = samples
    np.fft.fft(out, out=out)
    np.copyto(out, 0.0, where=~grid.dealias_mask)
    return np.fft.ifft(out, out=out)


def hat_norm(grid: Grid1D, hats: np.ndarray) -> np.ndarray:
    """Quadrature L^2 norm along the last axis of Fourier coefficients, by Parseval.

    sqrt(dx/n * sum |hat|^2), the one norm convention of every hat-space
    reader; a single row gives a 0-d result.
    """
    return power_norm(grid, np.abs(hats) ** 2)


def power_norm(grid: Grid1D, power: np.ndarray) -> np.ndarray:
    """:func:`hat_norm` from the squared magnitudes ``power`` = |hat|^2, bit for bit."""
    return np.sqrt(grid.dx / grid.n * np.sum(power, axis=-1))


# --- space-time stacks ------------------------------------------------------

class SpaceTimeField:
    """A field sampled on a uniform time grid: slice i lives at times[i].

    Stored as Fourier coefficients ``hats``, one row per slice: the form the
    march, the coupling source and the monitors work in.  Physical
    ``values`` given to the constructor are transformed once, block by
    block; the ``values`` property and :meth:`block` transform back on each
    read and store nothing.  Norms are Parseval sums (:func:`hat_norm`).
    """

    __slots__ = ("grid", "times", "hats")

    def __init__(
        self,
        grid: Grid1D,
        times: np.ndarray,
        values: np.ndarray | None = None,
        *,
        hats: np.ndarray | None = None,
    ) -> None:
        times = np.asarray(times, dtype=np.float64)
        if times.ndim != 1 or len(times) < 1:
            raise ValueError("need at least one time node")
        steps = np.diff(times)   # empty for a single slice, which has no dt
        if np.any(steps <= 0) or not np.allclose(steps, steps[:1], rtol=1e-9, atol=1e-14):
            raise ValueError("time nodes must be uniformly spaced and increasing")
        if (values is None) == (hats is None):
            raise ValueError("give exactly one of values or hats")
        stack = np.asarray(hats if values is None else values, dtype=np.complex128)
        if stack.shape != (len(times), grid.n):
            raise GridMismatchError(
                f"expected slice stack of shape {(len(times), grid.n)}, got {stack.shape}"
            )
        if values is not None:
            hats = np.empty_like(stack)
            for rows in row_blocks(len(times), grid.n):
                hats[rows] = np.fft.fft(stack[rows], axis=-1)
            stack = hats
        self.grid = grid
        self.times = times
        self.hats = stack

    @property
    def values(self) -> np.ndarray:
        """Physical slices, transformed from the hats on every read."""
        return self.block(slice(None))

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def block(self, rows: slice) -> np.ndarray:
        """Physical values of the slices ``rows``."""
        return np.fft.ifft(self.hats[rows], axis=-1)

    def slice(self, i: int) -> SpectralField:
        return SpectralField.from_hat(self.grid, self.hats[i])

    def norm_series(self, symbol: np.ndarray | None = None) -> np.ndarray:
        """Quadrature L^2 norm of every slice, of ``symbol`` applied to it if given."""
        out = np.empty(len(self.times))
        for rows in row_blocks(len(self.times), self.grid.n):
            stack = self.hats[rows]
            out[rows] = hat_norm(self.grid, stack if symbol is None else symbol * stack)
        return out

    def sup_norm(self) -> float:
        return float(np.max(self.norm_series()))

    def __repr__(self) -> str:
        return (
            f"SpaceTimeField(n={self.grid.n}, slices={len(self.times)}, "
            f"t in [{self.times[0]:g}, {self.times[-1]:g}])"
        )


# --- data helpers ---------------------------------------------------------

def gaussian_field(grid: Grid1D, center: float = 0.0, width: float = 1.0, amplitude: float = 1.0) -> SpectralField:
    vals = amplitude * np.exp(-((grid.x - center) ** 2) / (2.0 * width**2))
    return SpectralField(grid, vals.astype(np.complex128))


def mode_field(grid: Grid1D, k: int) -> SpectralField:
    """The single Fourier mode exp(i * (pi k / L) x)."""
    if not (-grid.n // 2 <= k < grid.n // 2):
        raise ValueError(f"mode index {k} not representable on this grid")
    xi = np.pi * k / grid.half_length
    return SpectralField(grid, np.exp(1j * xi * grid.x))


def random_band_hat(
    grid: Grid1D,
    band: int,
    rng: np.random.Generator | int,
    *,
    real: bool = False,
    zero_mean: bool = True,
    band_lo: int = 1,
) -> np.ndarray:
    """Fourier coefficients of a band-limited field with i.i.d. complex Gaussian coefficients.

    Coefficients are drawn mode-by-mode for |k| in [band_lo, band] in a
    fixed order, so the same seed yields the same function on any grid
    that resolves the band (refinement studies rely on this).  No
    transform is taken: a caller that only needs the hats, or transforms
    many draws at once, skips the per-draw inverse FFT.
    """
    if band >= grid.n // 2:
        raise ValueError(f"band {band} not below the Nyquist index {grid.n // 2}")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    hat = np.zeros(grid.n, dtype=np.complex128)
    modes = np.arange(band_lo, band + 1)
    # one row (Re z+, Im z+, Re z-, Im z-) per mode, in the mode order
    z = rng.standard_normal((len(modes), 4)).view(np.complex128)
    hat[modes] = z[:, 0]
    hat[-modes] = np.conj(z[:, 0]) if real else z[:, 1]
    if not zero_mean:
        z0 = rng.standard_normal()
        hat[0] = z0
    hat *= grid.n  # unit-scale physical values regardless of n
    return hat


def random_band_field(
    grid: Grid1D,
    band: int,
    rng: np.random.Generator | int,
    *,
    real: bool = False,
    zero_mean: bool = True,
    band_lo: int = 1,
) -> SpectralField:
    """The field of :func:`random_band_hat`'s draw."""
    hat = random_band_hat(grid, band, rng, real=real, zero_mean=zero_mean, band_lo=band_lo)
    return SpectralField.from_hat(grid, hat)
