"""Exponential spatial weights with a C^4 switch-on region.

The truncated weight equals 1 on the left half-line and e^(beta x) beyond
x = 10 beta, joined by exp(beta h(x)) where h is the unique degree-9
polynomial (in x / (10 beta)) whose values and first four derivatives
match both flat pieces.  Its logarithmic derivative therefore rises from 0
to beta across the transition and is available analytically together with
its first x-derivative, the one the operator's zeroth-order term reads;
neither is periodic, so nothing here is differentiated spectrally.

The pure exponential mode keeps e^(beta x) everywhere.  It jumps across
the periodic seam and is only safe for data that is compactly supported
well inside the domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

from .errors import ConfigError, ConstructionError
from .spectral import Grid1D

__all__ = [
    "WeightProfile",
    "build_weight",
    "unit_weight",
]

# Degree-9 switch polynomial on [0, 1]: S(0)=...=S''''(0)=0, S(1)=S'(1)=1,
# S''(1)=S'''(1)=S''''(1)=0.  The transition exponent is h = 10b * S(x/(10b)).
_SWITCH = Polynomial([0, 0, 0, 0, 0, 70, -224, 280, -160, 35])
_SWITCH_D1 = _SWITCH.deriv(1)
_SWITCH_D2 = _SWITCH.deriv(2)

_EXP_ARG_CAP = 690.0  # stay clear of double overflow in exp


@dataclass(frozen=True)
class WeightProfile:
    """Sampled weight, its log-derivative, and the latter's x-derivative.

    ``values`` holds the weight itself; ``logderiv`` its logarithmic
    derivative; ``logderiv_x`` the x-derivative of the log-derivative
    (analytic, not spectral).  ``sup_logderiv`` is the measured sup of the
    log-derivative, which for the truncated mode overshoots the nominal
    rate (about 1.79 beta); every consumer that needs a rate bound uses
    this measured value.
    """

    grid: Grid1D
    beta: float
    mode: str
    values: np.ndarray
    logderiv: np.ndarray
    logderiv_x: np.ndarray
    sup_logderiv: float


def _transition_exponent(x: np.ndarray, beta: float) -> tuple[np.ndarray, ...]:
    """h, the log-derivative and its x-derivative on the full axis, truncated mode."""
    width = 10.0 * beta
    tau = np.clip(x / width, 0.0, 1.0)
    mid = (x > 0.0) & (x < width)
    right = x >= width

    h = np.zeros_like(x)
    h[mid] = width * _SWITCH(tau[mid])
    h[right] = x[right]

    ld = np.zeros_like(x)  # beta * h'
    ld[mid] = beta * _SWITCH_D1(tau[mid])
    ld[right] = beta

    d1 = np.zeros_like(x)
    d1[mid] = _SWITCH_D2(tau[mid]) / 10.0
    return h, ld, d1


def build_weight(beta: float, grid: Grid1D, mode: str = "truncated", margin: float | None = None) -> WeightProfile:
    """Construct the weight profile on ``grid``.

    ``margin`` is the clearance required between the end of the transition
    region and the domain edge in truncated mode (default L/4).
    """
    if not (beta > 0.0 and np.isfinite(beta)):
        raise ConfigError(f"decay rate must be positive and finite, got {beta}")
    if beta * grid.half_length > _EXP_ARG_CAP:
        raise ConfigError(
            f"beta * L = {beta * grid.half_length:.3g} would overflow the weight; reduce beta or L"
        )
    if mode == "truncated":
        if margin is None:
            margin = grid.half_length / 4.0
        if 10.0 * beta + margin >= grid.half_length:
            raise ConfigError(
                f"transition region [0, {10 * beta:g}] plus margin {margin:g} exceeds the half-domain {grid.half_length:g}"
            )
        h, ld, d1 = _transition_exponent(grid.x, beta)

        # strict growth of the exponent across the transition, on grid nodes
        # and on an oversampled lattice (catches any non-monotone interpolant)
        inside = (grid.x >= 0.0) & (grid.x <= 10.0 * beta)
        if np.any(np.diff(h[inside]) <= 0.0):
            raise ConstructionError("transition exponent is not strictly increasing at grid nodes")
        tau_fine = np.linspace(0.0, 1.0, 20001)[1:-1]
        if np.min(_SWITCH_D1(tau_fine)) < -1e-12:
            raise ConstructionError("switch polynomial has a decreasing segment")

        vals = np.exp(beta * h)
        sup_ld = float(np.max(_SWITCH_D1(tau_fine))) * beta
        return WeightProfile(
            grid=grid,
            beta=beta,
            mode=mode,
            values=vals,
            logderiv=ld,
            logderiv_x=d1,
            sup_logderiv=sup_ld,
        )
    if mode == "pure_exponential":
        return WeightProfile(
            grid=grid,
            beta=beta,
            mode=mode,
            values=np.exp(beta * grid.x),
            logderiv=np.full(grid.n, beta),
            logderiv_x=np.zeros(grid.n),
            sup_logderiv=beta,
        )
    raise ConfigError(f"unknown weight mode {mode!r}")


def unit_weight(grid: Grid1D) -> WeightProfile:
    """Trivial weight (identically 1) for unweighted evolution."""
    return WeightProfile(
        grid=grid,
        beta=0.0,
        mode="unit",
        values=np.ones(grid.n),
        logderiv=np.zeros(grid.n),
        logderiv_x=np.zeros(grid.n),
        sup_logderiv=0.0,
    )

