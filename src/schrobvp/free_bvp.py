"""Constant-coefficient two-endpoint problem in closed form.

With a constant dispersive coefficient and a pure exponential weight the
weighted evolution splits exactly by frequency sign: the negative-frequency
part is damped forward in time and the positive-frequency part is damped
backward.  Prescribing the negative half at t = 0 (datum f) and the
positive half at t = T (datum g) therefore yields the explicit solution

    v(t) = M_f(t) f + M_g(t) g,

where both multipliers have nonpositive real exponents on their supports:

    M_f(t): exp(t * (-i xi^2 - 2 beta |xi| + i beta^2))
    M_g(t): exp(-(T - t) * (-i xi^2 + 2 beta |xi| + i beta^2)).

Evaluating the same equation as a forward initial value problem instead
amplifies positive frequencies like e^(2 beta xi t); ``forward_growth_demo``
measures that blow-up, which is why the two-endpoint formulation exists.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ValidationError
from .spectral import Grid1D, SpaceTimeField, SpectralField, require_one_sided

__all__ = [
    "FreeBvpData",
    "FreeEstimateReport",
    "GrowthReport",
    "solve_free",
    "verify_free_estimate",
    "forward_growth_demo",
]

_GROWTH_CAP = 1e12


@dataclass
class FreeBvpData:
    """Endpoint data for the constant-coefficient problem.

    ``f`` carries only negative frequencies (given at t = 0), ``g`` only
    positive ones (given at t = horizon); both must have zero mean.
    """

    f: SpectralField
    g: SpectralField
    beta: float
    horizon: float
    times: np.ndarray = field(default=None)  # defaults to 65 uniform samples

    def __post_init__(self) -> None:
        if self.f.grid != self.g.grid:
            raise ValidationError("endpoint data live on different grids")
        if not (self.beta > 0):
            raise ConfigError(f"decay rate must be positive, got {self.beta}")
        if not (self.horizon > 0):
            raise ConfigError(f"horizon must be positive, got {self.horizon}")
        if self.times is None:
            self.times = np.linspace(0.0, self.horizon, 65)
        self.times = np.asarray(self.times, dtype=np.float64)
        if self.times[0] < 0 or self.times[-1] > self.horizon + 1e-12:
            raise ConfigError("output times must lie in [0, horizon]")
        require_one_sided(self.f, "-", "datum f")
        require_one_sided(self.g, "+", "datum g")

    @property
    def grid(self) -> Grid1D:
        return self.f.grid

    def data_norm(self) -> float:
        return self.f.norm_l2() + self.g.norm_l2()


def _free_symbols(grid: Grid1D, beta: float, horizon: float, t: np.ndarray):
    """Endpoint-propagator symbols at each requested time (rows) and mode (cols)."""
    xi = grid.xi
    t = np.asarray(t, dtype=np.float64)[:, None]
    lam_f = -1j * xi**2 - 2.0 * beta * np.abs(xi) + 1j * beta**2
    lam_g = -1j * xi**2 + 2.0 * beta * np.abs(xi) + 1j * beta**2
    return np.exp(t * lam_f), np.exp(-(horizon - t) * lam_g)


def solve_free(data: FreeBvpData) -> SpaceTimeField:
    """Evaluate the closed-form solution at the requested output times."""
    sym_f, sym_g = _free_symbols(data.grid, data.beta, data.horizon, data.times)
    hats = sym_f * data.f.hat[None, :] + sym_g * data.g.hat[None, :]
    return SpaceTimeField(data.grid, data.times, hats=hats)


@dataclass(frozen=True)
class FreeEstimateReport:
    ratio: float          # sup_t ||v|| / (||f|| + ||g||); <= 1 for this problem
    sup_norm: float
    data_norm: float
    attained_at: float    # time of the sup


def verify_free_estimate(
    solution: SpaceTimeField | Sequence[SpaceTimeField], data: FreeBvpData
) -> FreeEstimateReport:
    """The sup over the solution's times of its L^2 norm, against the data norm.

    ``solution`` is one solve, or several (one per time of a list that is
    not uniformly spaced).
    """
    parts = [solution] if isinstance(solution, SpaceTimeField) else solution
    times = np.concatenate([part.times for part in parts])
    norms = np.concatenate([part.norm_series() for part in parts])
    i = int(np.argmax(norms))
    denom = data.data_norm()
    ratio = 0.0 if denom == 0.0 else float(norms[i] / denom)
    return FreeEstimateReport(
        ratio=ratio,
        sup_norm=float(norms[i]),
        data_norm=denom,
        attained_at=float(times[i]),
    )


@dataclass(frozen=True)
class GrowthReport:
    xi: np.ndarray               # modes present in the datum
    magnification: np.ndarray    # measured |v_hat(t)| / |v_hat(0)|, capped
    predicted: np.ndarray        # e^(2 beta xi t), capped
    max_magnification: float
    saturated: bool              # True when the cap bit


def forward_growth_demo(u0: SpectralField, beta: float, t: float) -> GrowthReport:
    """Evolve the unprojected weighted equation forward and measure the blow-up.

    The forward symbol exponent is -i xi^2 + 2 beta xi + i beta^2, whose
    real part 2 beta xi amplifies every positive frequency; reported
    magnifications are capped at 1e12.
    """
    if beta < 0:
        raise ConfigError("decay rate must be nonnegative")
    if t < 0:
        raise ConfigError("demo time must be nonnegative")
    grid = u0.grid
    if 2.0 * beta * grid.xi_max * t > 690.0:
        raise ConfigError(
            f"2 beta xi_max t = {2 * beta * grid.xi_max * t:.3g} would overflow; shorten t"
        )
    lam = -1j * grid.xi**2 + 2.0 * beta * grid.xi + 1j * beta**2
    hat_t = np.exp(t * lam) * u0.hat
    present = np.abs(u0.hat) > 1e-13 * max(np.max(np.abs(u0.hat)), 1e-300)
    mag = np.abs(hat_t[present]) / np.abs(u0.hat[present])
    pred = np.exp(2.0 * beta * grid.xi[present] * t)
    saturated = bool(np.any(mag > _GROWTH_CAP) or np.any(pred > _GROWTH_CAP))
    return GrowthReport(
        xi=grid.xi[present].copy(),
        magnification=np.minimum(mag, _GROWTH_CAP),
        predicted=np.minimum(pred, _GROWTH_CAP),
        max_magnification=float(np.minimum(np.max(mag), _GROWTH_CAP)) if len(mag) else 1.0,
        saturated=saturated,
    )
