"""Exponential spatial weights, each built from its log-derivative q.

A weight is e^phi with phi' = q.  Each mode gives q and q' in closed
form; phi is mean(q) x plus the spectral antiderivative of the periodic
part q - mean(q), shifted so that phi(0) = 0.  The operator reads only q
and q', so a smooth periodic q keeps the weighted problem spectrally
accurate across the seam, while e^phi itself need not be periodic.

* ``truncated``: q = (beta/2)[tanh((x - 5 beta)/0.5) - tanh((x - (L - 10))/0.5)].
  It rises from 0 to beta near x = 5 beta and falls back near x = L - 10,
  so the weight is 1 on the left, e^(beta x) times a constant in the
  middle, and flat again before the seam, where q is below round-off.
* ``pure_exponential``: q = beta, so the weight is exactly e^(beta x).  It
  jumps across the periodic seam and is only safe for data that is
  compactly supported well inside the domain.
* ``unit_weight``: q = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, require_decay_rate
from .spectral import Grid1D

__all__ = [
    "WeightProfile",
    "build_weight",
    "unit_weight",
]

# the truncated profile: rise centred at 5 beta, fall centred at L - 10,
# both of width 0.5.  The fall sits 20 widths from the seam, so q(+-L) is
# below 1e-17 beta; the rise and fall must be 10 widths apart, where tanh
# is within 1e-4 of its limits, for q to reach its plateau beta.
_RAMP_WIDTH = 0.5
_RISE_PER_BETA = 5.0
_FALL_FROM_EDGE = 10.0
_RAMP_GAP = 10.0 * _RAMP_WIDTH


@dataclass(frozen=True)
class WeightProfile:
    """Sampled weight, its log-derivative, and the latter's x-derivative.

    ``values`` holds the weight e^phi; ``logderiv`` its logarithmic
    derivative q; ``logderiv_x`` the closed-form x-derivative q' (not
    spectral).  ``sup_logderiv`` is max q on the grid; every consumer that
    needs a rate bound uses this value.
    """

    grid: Grid1D
    beta: float
    mode: str
    values: np.ndarray
    logderiv: np.ndarray
    logderiv_x: np.ndarray
    sup_logderiv: float


def _from_logderiv(grid: Grid1D, beta: float, mode: str, q: np.ndarray, q_x: np.ndarray) -> WeightProfile:
    """The weight e^phi with phi' = q and phi(0) = 0 (x = 0 is node n/2)."""
    # offset by q[0], so that a constant q has exactly its value as mean
    # and an exactly zero periodic part: phi is then exactly mean * x
    mean = q[0] + np.mean(q - q[0])
    hat = np.fft.fft(q - mean)
    nonzero = grid.xi != 0.0
    hat[nonzero] /= 1j * grid.xi[nonzero]
    hat[grid.n // 2] = 0.0  # the Nyquist mode has no antiderivative on the grid
    periodic = np.fft.ifft(hat).real
    phi = mean * grid.x + (periodic - periodic[grid.n // 2])
    return WeightProfile(
        grid=grid,
        beta=beta,
        mode=mode,
        values=np.exp(phi),
        logderiv=q,
        logderiv_x=q_x,
        sup_logderiv=float(np.max(q)),
    )


def _truncated_logderiv(beta: float, grid: Grid1D) -> tuple[np.ndarray, np.ndarray]:
    """q and q' of the truncated profile; q' = (beta / 2w)[sech^2(rise) - sech^2(fall)]."""
    L = grid.half_length
    rise = _RISE_PER_BETA * beta
    fall = L - _FALL_FROM_EDGE
    if rise + _RAMP_GAP > fall:
        raise ConfigError(
            f"weight ramps do not fit: beta = {beta:g} needs L >= {rise + _RAMP_GAP + _FALL_FROM_EDGE:g}, "
            f"got L = {L:g}"
        )
    t_rise = np.tanh((grid.x - rise) / _RAMP_WIDTH)
    t_fall = np.tanh((grid.x - fall) / _RAMP_WIDTH)
    q = 0.5 * beta * (t_rise - t_fall)
    q_x = (0.5 * beta / _RAMP_WIDTH) * (t_fall**2 - t_rise**2)
    return q, q_x


def build_weight(beta: float, grid: Grid1D, mode: str = "truncated") -> WeightProfile:
    """Construct the weight profile on ``grid``."""
    require_decay_rate(beta, grid.half_length)
    if mode == "truncated":
        q, q_x = _truncated_logderiv(beta, grid)
    elif mode == "pure_exponential":
        q, q_x = np.full(grid.n, beta), np.zeros(grid.n)
    else:
        raise ConfigError(f"unknown weight mode {mode!r}")
    return _from_logderiv(grid, beta, mode, q, q_x)


def unit_weight(grid: Grid1D) -> WeightProfile:
    """Trivial weight (identically 1) for unweighted evolution."""
    return _from_logderiv(grid, 0.0, "unit", np.zeros(grid.n), np.zeros(grid.n))
