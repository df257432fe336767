"""Time integration of the uncoupled weighted sub-problems.

The equation advanced here is

    dv/dt = i d/dx(a dv/dx) - 2i a q dv/dx + F(x, t),

with q the weight's log-derivative, regularized by a fourth-order
artificial viscosity -eps d^4/dx^4.  Forward problems carry the datum at
t = 0; backward problems carry it at t = horizon and are integrated in
the reversed variable s = horizon - t, which flips the sign of the
dispersive, drift, and source terms while the viscosity stays
dissipative.

Scheme: integrating-factor (Lawson) RK4.  Over each step the diagonal
symbol -eps xi^4 - i abar xi^2, with abar the spatial mean of a at the
step midpoint, is integrated exactly; the remainder
i d/dx((a(t_s) - abar) dv/dx) - 2i a(t_s) q dv/dx + F(t_s) is taken by the
classical RK4 stages at their own times t_s.  Every stage splits off the
same midpoint abar as the exponential, so the split is consistent and the
scheme keeps fourth order for time-dependent a.  Coefficients come from
one :class:`OperatorTable` of 2/3-rule masked rows, which the coupling
source and the residual monitor read as well, so all three realize the
same discrete operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coefficients import CoefficientField
from .errors import ConfigError, GridMismatchError, StabilityError
from .spectral import (
    CHUNK_ROWS,
    Grid1D,
    Multiplier,
    SpaceTimeField,
    SpectralField,
    coeff_product,
    masked_samples,
)
from .weights import WeightProfile

__all__ = [
    "StepperConfig",
    "LinearProblem",
    "OperatorTable",
    "EpsilonStudyReport",
    "heat_quartic",
    "solve_linear",
    "epsilon_study",
]

_STIFF_EXPONENT_CAP = 50.0
_BLOWUP_FACTOR = 1e12


def heat_quartic(f: SpectralField, s: float) -> SpectralField:
    """Apply the fourth-order dissipative semigroup symbol e^(-s xi^4)."""
    if s < 0:
        raise ConfigError(f"quartic semigroup time must be >= 0, got {s}")
    return Multiplier(f.grid, np.exp(-s * f.grid.xi**4), "heat4").apply(f)


@dataclass
class StepperConfig:
    """Viscosity and step size for one linear solve.

    Exactly one of ``dt``/``n_steps`` may be given; with neither, the
    horizon is split into 2048 steps.  ``epsilon_schedule`` drives
    :func:`epsilon_study` only.
    """

    epsilon: float = 1e-3
    dt: float | None = None
    n_steps: int | None = None
    epsilon_schedule: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.epsilon < 0:
            raise ConfigError(f"viscosity must be >= 0, got {self.epsilon}")
        if self.dt is not None and self.n_steps is not None:
            raise ConfigError("give either dt or n_steps, not both")
        if self.dt is not None and self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.n_steps is not None and self.n_steps < 1:
            raise ConfigError("n_steps must be >= 1")

    def resolve_steps(self, horizon: float) -> int:
        if self.n_steps is not None:
            return self.n_steps
        if self.dt is None:
            return 2048
        ratio = horizon / self.dt
        n = int(round(ratio))
        if n < 1 or abs(ratio - n) > 1e-9 * max(1.0, ratio):
            raise ConfigError(f"dt {self.dt:g} does not evenly divide the horizon {horizon:g}")
        return n

    def check_stability(self, grid: Grid1D, horizon: float) -> None:
        dt = horizon / self.resolve_steps(horizon)
        stiff = self.epsilon * grid.xi_max**4 * dt
        if stiff > _STIFF_EXPONENT_CAP:
            raise ConfigError(
                f"eps xi_max^4 dt = {stiff:.3g} exceeds the cap {_STIFF_EXPONENT_CAP:g}; shrink dt or eps"
            )


@dataclass
class LinearProblem:
    """One uncoupled sub-problem: direction, coefficients, weight, source, datum.

    ``zero_mean`` restricts the evolution to the paired-mode class: the mean
    mode of the datum, the source, and every remainder evaluation is
    annihilated.  The coupled solver uses this class throughout, since the
    half-line frequency projections resolve the identity only there.
    """

    direction: str
    coeffs: CoefficientField
    weight: WeightProfile
    source: SpaceTimeField | None
    datum: SpectralField
    horizon: float
    zero_mean: bool = False

    def __post_init__(self) -> None:
        if self.direction not in ("forward", "backward"):
            raise ConfigError(f"direction must be 'forward' or 'backward', got {self.direction!r}")
        if not (self.horizon > 0):
            raise ConfigError(f"horizon must be positive, got {self.horizon}")
        if self.weight.grid != self.datum.grid:
            raise GridMismatchError("weight and datum grids differ")
        if self.source is not None:
            if self.source.grid != self.datum.grid:
                raise GridMismatchError("source and datum grids differ")
            if self.source.times[0] > 1e-12 or self.source.times[-1] < self.horizon - 1e-9:
                raise ConfigError("source time grid must cover [0, horizon]")

    @property
    def grid(self) -> Grid1D:
        return self.datum.grid


class OperatorTable:
    """Masked coefficient rows of the discrete operator, built once per solve.

    The operator is i d/dx(a d/dx) - 2i a q d/dx + Z, with q the weight's
    log-derivative and Z = i((q^2 - q') a - q a_x) + iW the zeroth-order
    lump.  The march, the coupling source and the residual monitor all read
    their coefficients from here.  Row k of ``abar`` (spatial mean of a),
    ``a`` and ``aq`` (masked a and a q, stored as float64: the 2/3 mask is
    symmetric, so they are real up to round-off) belongs to ``nodes[k]``;
    ``zeroth`` (masked Z) is kept at the integer nodes ``times`` only.
    With ``half_steps`` the a rows also sit at every midpoint, the grid the
    IF-RK4 stages read.  When neither a nor W depends on t, each array
    holds one row that serves every node.
    """

    def __init__(
        self,
        coeffs: CoefficientField,
        weight: WeightProfile,
        times: np.ndarray,
        half_steps: bool = False,
    ) -> None:
        grid = weight.grid
        times = np.asarray(times, dtype=np.float64)
        self.stride = 2 if half_steps else 1
        self.nodes = np.linspace(times[0], times[-1], self.stride * (len(times) - 1) + 1)
        self.constant = not coeffs.time_dependent
        nodes = self.nodes[:1] if self.constant else self.nodes
        s = self.stride
        q, dq = weight.logderiv, weight.logderiv_derivs[0]
        self.abar = np.empty(len(nodes))
        self.a = np.empty((len(nodes), grid.n))
        self.aq = np.empty((len(nodes), grid.n))
        self.zeroth = np.empty(((len(nodes) - 1) // s + 1, grid.n), dtype=np.complex128)
        # CHUNK_ROWS is even, so every block starts on an integer node
        for lo in range(0, len(nodes), CHUNK_ROWS):
            rows = slice(lo, lo + CHUNK_ROWS)
            ts = nodes[rows, None]
            a = coeffs.a_values(grid.x, ts)
            self.abar[rows] = np.mean(a, axis=1)
            self.a[rows] = masked_samples(grid, a).real
            self.aq[rows] = masked_samples(grid, a * q).real
            a, ts = a[::s], ts[::s]
            ax = coeffs.a_x(grid.x, ts)
            lump = 1j * ((q**2 - dq) * a - q * ax) + 1j * coeffs.w_values(grid.x, ts)
            self.zeroth[lo // s : lo // s + len(ts)] = masked_samples(grid, lump)

    def require(self, times: np.ndarray, half_steps: bool = False) -> None:
        """Raise ConfigError unless the integer nodes are ``times`` (with midpoints if asked)."""
        times = np.asarray(times, dtype=np.float64)
        tol = 1e-12 * max(1.0, abs(times[-1]))
        ok = (
            (self.stride == 2 or not half_steps)
            and len(self.nodes) == self.stride * (len(times) - 1) + 1
            and np.allclose(self.nodes[:: self.stride], times, rtol=0.0, atol=tol)
        )
        if not ok:
            what = "half-step grid" if half_steps else "time grid"
            raise ConfigError(
                f"operator table nodes are not the {what} of {len(times)} times "
                f"on [{times[0]:g}, {times[-1]:g}]"
            )

    def at(self, k: int) -> tuple[float, np.ndarray, np.ndarray]:
        """abar, masked a and masked a q at ``nodes[k]``."""
        k = 0 if self.constant else k
        return self.abar[k], self.a[k], self.aq[k]

    def rows(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Masked a, a q and zeroth-order rows at integer nodes lo..hi-1."""
        if self.constant:
            return self.a, self.aq, self.zeroth
        s = self.stride
        ints = slice(s * lo, s * (hi - 1) + 1, s)
        return self.a[ints], self.aq[ints], self.zeroth[lo:hi]


class _SourceInterpolant:
    """Masked source coefficients, linearly interpolated in time."""

    def __init__(self, source: SpaceTimeField | None, grid: Grid1D, zero_mean: bool = False) -> None:
        self.grid = grid
        if source is None:
            self.hats = None
            return
        hats = np.fft.fft(source.values, axis=1)
        hats[:, ~grid.dealias_mask] = 0.0
        if zero_mean:
            hats[:, 0] = 0.0
        self.hats = hats
        self.times = source.times

    def at(self, t: float) -> np.ndarray | None:
        if self.hats is None:
            return None
        ts = self.times
        if t <= ts[0]:
            return self.hats[0]
        if t >= ts[-1]:
            return self.hats[-1]
        j = int(np.searchsorted(ts, t) - 1)
        w = (t - ts[j]) / (ts[j + 1] - ts[j])
        return (1.0 - w) * self.hats[j] + w * self.hats[j + 1]


def solve_linear(
    p: LinearProblem, cfg: StepperConfig, table: OperatorTable | None = None
) -> SpaceTimeField:
    """Integrate the sub-problem; returns slices on the ascending time grid.

    Backward problems are solved in reversed time and flipped back, so the
    returned field always has times[0] = 0, times[-1] = horizon, with the
    datum reproduced at the appropriate end.  ``table`` must be built with
    ``half_steps`` on this march's time grid; without one it is built here.
    """
    cfg.check_stability(p.grid, p.horizon)
    n_steps = cfg.resolve_steps(p.horizon)
    times = np.linspace(0.0, p.horizon, n_steps + 1)
    if table is None:
        table = OperatorTable(p.coeffs, p.weight, times, half_steps=True)
    table.require(times, half_steps=True)
    values = _march(p, cfg, n_steps, table)
    if p.direction == "backward":
        values = values[::-1]
    return SpaceTimeField(p.grid, times, values)


def _check_state(hat: np.ndarray, step: int, scale: float) -> None:
    if not np.all(np.isfinite(hat)):
        raise StabilityError(f"non-finite state at step {step}")
    if np.max(np.abs(hat)) > _BLOWUP_FACTOR * scale:
        raise StabilityError(f"state grew past {_BLOWUP_FACTOR:g} x datum at step {step}")


def _march(p: LinearProblem, cfg: StepperConfig, n_steps: int, table: OperatorTable) -> np.ndarray:
    """Lawson RK4 in the march variable; half-step i reads table node i (mirrored backward)."""
    grid = p.grid
    orientation = 1.0 if p.direction == "forward" else -1.0
    src = _SourceInterpolant(p.source, grid, p.zero_mean)
    dt = p.horizon / n_steps
    ixi = 1j * grid.xi
    visc = -cfg.epsilon * grid.xi**4

    def node(i: int) -> int:
        return i if p.direction == "forward" else 2 * n_steps - i

    def remainder(v_hat: np.ndarray, i: int, abar: float) -> np.ndarray:
        """tau * [i d/dx((a - abar) v_x) - 2i a q v_x + F] at half-step i, as masked hat values."""
        k = node(i)
        _, a, aq = table.at(k)
        vx = np.fft.ifft(ixi * v_hat)
        out = 1j * ixi * coeff_product(grid, a - abar, vx) - 2j * coeff_product(grid, aq, vx)
        f = src.at(table.nodes[k])
        if f is not None:
            out += f
        if p.zero_mean:
            out[0] = 0.0
        return orientation * out

    out = np.empty((n_steps + 1, grid.n), dtype=np.complex128)
    v_hat = np.where(grid.dealias_mask, p.datum.hat, 0.0)
    if p.zero_mean:
        v_hat[0] = 0.0
    out[0] = np.fft.ifft(v_hat)
    scale = max(float(np.max(np.abs(v_hat))), 1e-30)
    if p.source is not None:
        scale = max(scale, float(np.max(np.abs(p.source.values))) * grid.n)

    for step in range(n_steps):
        i = 2 * step
        # the exponential and every stage split off the same midpoint mean,
        # which keeps the scheme fourth order for time-dependent a
        abar = table.at(node(i + 1))[0]
        E = np.exp(0.5 * dt * (visc - orientation * 1j * abar * grid.xi**2))
        E2 = E * E

        a1 = remainder(v_hat, i, abar)
        a2 = remainder(E * (v_hat + 0.5 * dt * a1), i + 1, abar)
        a3 = remainder(E * v_hat + 0.5 * dt * a2, i + 1, abar)
        a4 = remainder(E2 * v_hat + dt * E * a3, i + 2, abar)

        v_hat = E2 * v_hat + (dt / 6.0) * (E2 * a1 + 2.0 * E * (a2 + a3) + a4)
        _check_state(v_hat, step + 1, scale)
        out[step + 1] = np.fft.ifft(v_hat)
    return out


@dataclass(frozen=True)
class EpsilonStudyReport:
    epsilons: tuple[float, ...]
    differences: tuple[float, ...]   # sup_t L2 distance between consecutive solves
    cauchy: bool                     # each difference at most half the previous
    order_estimates: tuple[float, ...]


def epsilon_study(p: LinearProblem, cfg: StepperConfig) -> EpsilonStudyReport:
    """Solve along the decreasing viscosity schedule and compare neighbours."""
    sched = tuple(cfg.epsilon_schedule)
    if len(sched) < 3:
        raise ConfigError("viscosity schedule needs at least 3 entries")
    if any(e2 >= e1 for e1, e2 in zip(sched, sched[1:])) or any(e <= 0 for e in sched):
        raise ConfigError("viscosity schedule must be positive and strictly decreasing")
    times = np.linspace(0.0, p.horizon, cfg.resolve_steps(p.horizon) + 1)
    table = OperatorTable(p.coeffs, p.weight, times, half_steps=True)
    solutions = []
    for eps in sched:
        sub = StepperConfig(epsilon=eps, dt=cfg.dt, n_steps=cfg.n_steps)
        solutions.append(solve_linear(p, sub, table))
    diffs = []
    for s1, s2 in zip(solutions, solutions[1:]):
        delta = s1.values - s2.values
        diffs.append(float(np.max(np.sqrt(p.grid.dx * np.sum(np.abs(delta) ** 2, axis=1)))))
    orders = []
    for i in range(len(diffs) - 1):
        if diffs[i + 1] > 0 and diffs[i] > 0:
            orders.append(float(np.log(diffs[i] / diffs[i + 1]) / np.log(sched[i] / sched[i + 1])))
        else:
            orders.append(float("nan"))
    cauchy = all(d2 <= 0.5 * d1 for d1, d2 in zip(diffs, diffs[1:])) and len(diffs) >= 2
    return EpsilonStudyReport(
        epsilons=sched,
        differences=tuple(diffs),
        cauchy=cauchy,
        order_estimates=tuple(orders),
    )
