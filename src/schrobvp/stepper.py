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
one :class:`OperatorTable` of 2/3-rule masked rows, which the coupled
solver builds once and shares with the coupling source and the monitors,
and S u = i d/dx(a u_x) - 2i a q u_x has one kernel, :func:`apply_s`,
which the march, the coupling source and the residual monitor all call.
On a ``uniform`` table (rows constant in x, as for a = 1, W = 0 under the
pure-exponential weight) S is a Fourier symbol, so when the table is also
constant in time a step is exactly the diagonal affine map v <- A v +
B0 F(t_n) + B1 F(t_n+1/2) + B2 F(t_n+1): A and the B's are the same step
run once on unit inputs, and the march makes no FFT.

Batched march: :func:`solve_linear` advances a stacked (rows, n) state of
Fourier coefficients, one row per sub-problem; a ``partner`` problem (the
coupled solver passes the backward carrier next to the forward one) rides
in the same state, its row reading the mirrored table node 2N - i.  Steps
go a ``row_blocks`` block at a time into a buffer whose magnitudes, taken
once, are scanned for blow-up (each row against its datum and handed-in
source scale; the error names the first bad step) and give each slot's
norm and wrong-side norm, the coupled solver's per-sweep norms; the block
is measured against the output buffer's previous contents (the coupled
solver's pair buffer) and copied into it.  A source must sit on the march's
own time grid; its midpoint rows are cubic Lagrange interpolants of the
four nearest slices, so it costs the scheme no order (it needs 3 steps).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .coefficients import CoefficientField
from .errors import ConfigError, GridMismatchError, StabilityError, typed
from .spectral import (
    Grid1D,
    SpaceTimeField,
    SpectralField,
    chunk_rows,
    hat_norm,
    masked_samples,
    power_norm,
    row_blocks,
)
from .weights import WeightProfile

__all__ = [
    "StepperConfig",
    "LinearProblem",
    "OperatorTable",
    "apply_s",
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
    return SpectralField.from_hat(f.grid, np.exp(-s * f.grid.xi**4) * f.hat)


@dataclass
class StepperConfig:
    """Viscosity and step size for one linear solve.

    Exactly one of ``dt``/``n_steps`` may be given; with neither, the
    horizon is split into 2048 steps.
    """

    epsilon: float = 1e-3
    dt: float | None = None
    n_steps: int | None = None

    def __post_init__(self) -> None:
        # scenario files hand these over unchecked: "64", 64.5 and true are errors
        for name, kind in (("n_steps", int), ("dt", float)):
            if getattr(self, name) is not None:
                typed(getattr(self, name), kind, name)
        # written so that NaN, which fails every comparison, fails the check
        if not 0.0 <= self.epsilon < math.inf:
            raise ConfigError(f"viscosity epsilon must be finite and >= 0, got {self.epsilon}")
        if self.dt is not None and self.n_steps is not None:
            raise ConfigError("give either dt or n_steps, not both")
        if self.dt is not None and not 0.0 < self.dt < math.inf:
            raise ConfigError(f"dt must be positive and finite, got {self.dt}")
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
    source_peak: float | None = None   # max |hat| of the source, its blow-up scale; measured if None

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
            if self.source_peak is None:
                hats = self.source.hats
                self.source_peak = max(np.max(np.abs(hats[b])) for b in row_blocks(*hats.shape))

    @property
    def grid(self) -> Grid1D:
        return self.datum.grid


class OperatorTable:
    """Masked coefficient rows of the discrete operator, built once per solve.

    The operator is i d/dx(a d/dx) - 2i a q d/dx + Z, with q the weight's
    log-derivative and Z = i((q^2 - q') a - q a_x) + iW the zeroth-order
    lump.  The march, the coupling source, the residual monitor and the
    energy monitors' sources all read their coefficients from the one table
    a coupled solve builds (``PicardReport.table``) on the weight's
    ``grid``.  Row k of ``abar`` (spatial mean of a), ``a`` and ``aq``
    (masked a and a q, stored as float64: the 2/3 mask is symmetric, so
    they are real up to round-off) belongs to ``nodes[k]``;
    ``zeroth`` (masked Z) is kept at the integer nodes ``times`` only.
    With ``half_steps`` the a rows also sit at every midpoint, the grid the
    IF-RK4 stages read.  When neither a nor W depends on t, each array
    holds one row that serves every node.

    ``uniform`` is true when every row of ``a``, ``aq`` and ``zeroth`` is
    constant in x (an exact ``np.ptp == 0`` test, made while the rows are
    built and stopped at the first row block that varies).  Every product
    with a row is then a Fourier multiple of the row's value: :func:`apply_s`
    and the zeroth-order product apply it as a symbol instead of an ifft/fft
    round trip, and on a constant table the march steps by the diagonal
    affine map its RK4 step becomes (see ``_march``).
    """

    def __init__(
        self,
        coeffs: CoefficientField,
        weight: WeightProfile,
        times: np.ndarray,
        half_steps: bool = False,
    ) -> None:
        self.grid = grid = weight.grid
        times = np.asarray(times, dtype=np.float64)
        self.stride = 2 if half_steps else 1
        self.nodes = np.linspace(times[0], times[-1], self.stride * (len(times) - 1) + 1)
        self.constant = not coeffs.time_dependent
        nodes = self.nodes[:1] if self.constant else self.nodes
        s = self.stride
        q, dq = weight.logderiv, weight.logderiv_x
        self.abar = np.empty(len(nodes))
        self.a = np.empty((len(nodes), grid.n))
        self.aq = np.empty((len(nodes), grid.n))
        self.zeroth = np.empty(((len(nodes) - 1) // s + 1, grid.n), dtype=np.complex128)
        self.uniform = True
        # the block row count is even, so every block starts on an integer node
        for rows in row_blocks(len(nodes), grid.n):
            ts = nodes[rows, None]
            a = coeffs.a_values(grid.x, ts)
            self.abar[rows] = np.mean(a, axis=1)
            self.a[rows] = masked_samples(grid, a).real
            self.aq[rows] = masked_samples(grid, a * q).real
            a, ts = a[::s], ts[::s]
            ax = coeffs.a_x(grid.x, ts)
            lump = 1j * ((q**2 - dq) * a - q * ax) + 1j * coeffs.w_values(grid.x, ts)
            ints = slice(rows.start // s, rows.start // s + len(ts))
            self.zeroth[ints] = masked_samples(grid, lump)
            self.uniform = self.uniform and all(
                np.all(np.ptp(block, axis=1) == 0)
                for block in (self.a[rows], self.aq[rows], self.zeroth[ints])
            )

    @staticmethod
    def planned_bytes(n: int, n_steps: int, constant: bool, half_steps: bool = False) -> int:
        """Bytes of the rows of a table over ``n_steps`` steps on ``n`` nodes, before it is built."""
        if constant:
            nodes = zeroth = 1
        else:
            nodes, zeroth = (2 if half_steps else 1) * n_steps + 1, n_steps + 1
        return nodes * (8 + 16 * n) + zeroth * 16 * n

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

    def at(self, k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """abar, masked a and masked a q at the nodes ``k`` (an index array)."""
        k = np.zeros_like(k) if self.constant else k
        return self.abar[k], self.a[k], self.aq[k]

    def rows(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Masked a, a q and zeroth-order rows at integer nodes lo..hi-1."""
        if self.constant:
            return self.a, self.aq, self.zeroth
        s = self.stride
        ints = slice(s * lo, s * (hi - 1) + 1, s)
        return self.a[ints], self.aq[ints], self.zeroth[lo:hi]


def apply_s(
    grid: Grid1D, u_hat: np.ndarray, a: np.ndarray, aq: np.ndarray, uniform: bool
) -> np.ndarray:
    """Unmasked hats of S u = i d/dx(a u_x) - 2i a q u_x, the one kernel of S.

    ``u_hat`` holds dealiased hats, (..., n); ``a`` and ``aq`` are
    operator-table rows (the march passes a - abar) that broadcast against
    it.  On a ``uniform`` table each row is constant in x and S is the
    symbol (i (i xi) a - 2i a q)(i xi) on the rows' values, with no FFT.
    Otherwise one batched ifft of u_x and one batched fft of the products
    [a u_x, a q u_x], written into one (2, ...) buffer.
    """
    ixi = 1j * grid.xi
    if uniform:
        return (1j * ixi * a[..., :1] - 2j * aq[..., :1]) * ixi * u_hat
    ux = np.fft.ifft(ixi * u_hat, axis=-1)
    products = np.empty((2,) + ux.shape, dtype=np.complex128)
    np.multiply(a, ux, out=products[0])
    np.multiply(aq, ux, out=products[1])
    products = np.fft.fft(products, axis=-1)
    products[0] *= 1j * ixi
    products[1] *= -2j
    products[0] += products[1]
    return products[0]


def solve_linear(
    p: LinearProblem,
    cfg: StepperConfig,
    table: OperatorTable | None = None,
    *,
    partner: LinearProblem | None = None,
    out: np.ndarray | None = None,
    update: np.ndarray | None = None,
    measure: np.ndarray | None = None,
    side: np.ndarray | None = None,
) -> SpaceTimeField | tuple[SpaceTimeField, SpaceTimeField]:
    """Integrate the sub-problem; returns its slices on the ascending time grid.

    Backward problems are solved in reversed time and flipped back, so the
    returned field always has times[0] = 0, times[-1] = horizon, with the
    datum reproduced at the appropriate end.  ``table`` must be built with
    ``half_steps`` on this march's time grid; without one it is built here.
    A source must sit on the march's integer nodes, else ConfigError, and
    needs at least 3 steps, else ConfigError.

    ``partner``, a second sub-problem on the same grid, horizon,
    coefficients and weight (either direction), is marched in the same
    batched state; the pair (field of ``p``, field of ``partner``) is then
    returned.  Each row equals its own one-row solve up to round-off.

    ``out``, a complex (rows, n_steps + 1, n) buffer in march order (row r
    belongs to the r-th problem; a backward row runs in reversed time),
    receives the steps in place of a fresh buffer, and the returned fields
    view it; no source may view it.  ``update``, a float array with one
    entry per row, then receives each row's sup over slots 0..n_steps of
    ``hat_norm(new - old)`` against the buffer's previous contents, each
    block of slots measured just before it is overwritten.  ``measure``, a
    float (rows, 2, n_steps + 1) array, receives each slot's ``hat_norm`` and
    that of its ``side`` part (a (rows, n) 0/1 mask) in march order, bit for
    bit ``norm_series``.  Arrays of another shape are a ConfigError.
    """
    problems = [p] if partner is None else [p, partner]
    if partner is not None and not (
        partner.grid == p.grid
        and partner.horizon == p.horizon
        and partner.coeffs is p.coeffs
        and partner.weight is p.weight
    ):
        raise ConfigError("a partner sub-problem must share grid, horizon, coefficients and weight")
    cfg.check_stability(p.grid, p.horizon)
    n_steps = cfg.resolve_steps(p.horizon)
    times = np.linspace(0.0, p.horizon, n_steps + 1)
    for q in problems:
        if q.source is not None:
            if n_steps < _SOURCE_MIN_STEPS:
                raise ConfigError(
                    f"a march with a source needs at least {_SOURCE_MIN_STEPS} steps "
                    f"(4 nodes for the cubic midpoint reads), got {n_steps}"
                )
            _require_march_grid(q.source.times, times)
    if table is None:
        table = OperatorTable(p.coeffs, p.weight, times, half_steps=True)
    table.require(times, half_steps=True)
    shape = (len(problems), n_steps + 1, p.grid.n)
    if out is None:
        if update is not None:
            raise ConfigError("an update measure needs the buffer it is measured against")
        out = np.empty(shape, dtype=np.complex128)
    elif out.shape != shape or out.dtype != np.complex128:
        raise ConfigError(f"march buffer must be complex of shape {shape}, got {out.dtype} {out.shape}")
    if update is not None and update.shape != (len(problems),):
        raise ConfigError(f"update needs one entry per row ({len(problems)}), got shape {update.shape}")
    if measure is not None and (measure.shape, np.shape(side)) != ((shape[0], 2, shape[1]), shape[::2]):
        raise ConfigError(f"measure must be {(shape[0], 2, shape[1])} with a {shape[::2]} side mask")
    hats = _march(problems, cfg, n_steps, table, out, update, measure, side)
    fields = tuple(
        SpaceTimeField(p.grid, times, hats=rows if q.direction == "forward" else rows[::-1])
        for q, rows in zip(problems, hats)
    )
    return fields[0] if partner is None else fields


def _require_march_grid(source_times: np.ndarray, times: np.ndarray) -> None:
    """Raise ConfigError unless a source sits on the march's integer nodes ``times``."""
    tol = 1e-9 * (times[1] - times[0])
    if len(source_times) != len(times) or not np.allclose(source_times, times, rtol=0.0, atol=tol):
        raise ConfigError(
            f"source time grid of {len(source_times)} times on [{source_times[0]:g}, "
            f"{source_times[-1]:g}] is not the march grid of {len(times)} times on "
            f"[{times[0]:g}, {times[-1]:g}]"
        )


def _check_state(mag: np.ndarray, first_step: int, scale: np.ndarray) -> None:
    """Every row of a (rows, steps, n) block of magnitudes |hat| finite and
    below the blow-up cap of its own datum/source scale; an error names the
    first bad step, the block's slot j being step ``first_step + j``."""
    peak = np.max(mag, axis=-1)   # NaN and inf propagate into the peak
    finite = np.all(np.isfinite(peak), axis=0)
    bad = ~finite | np.any(peak > _BLOWUP_FACTOR * scale[:, None], axis=0)
    if np.any(bad):
        j = int(np.argmax(bad))
        if not finite[j]:
            raise StabilityError(f"non-finite state at step {first_step + j}")
        raise StabilityError(f"state grew past {_BLOWUP_FACTOR:g} x datum at step {first_step + j}")


# cubic Lagrange weights of the midpoint between nodes s and s+1, indexed by
# the place ``own`` of node s in the stencil s - own .. s - own + 3: on the
# four nearest nodes at the first step (own 0), on s-1..s+2 in the interior
# (own 1) and on the four nearest nodes at the last step (own 2)
_MID_FIRST = np.array([5.0, 15.0, -5.0, 1.0]) / 16.0
_MID_INTERIOR = np.array([-1.0, 9.0, 9.0, -1.0]) / 16.0
_MID_LAST = np.array([1.0, -5.0, 15.0, 5.0]) / 16.0
_MID_WEIGHTS = np.stack([_MID_FIRST, _MID_INTERIOR, _MID_LAST])
_SOURCE_MIN_STEPS = 3   # the cubic midpoint read needs 4 source nodes


def _midpoints(
    hats: np.ndarray, lo: int, hi: int, out: np.ndarray, weights: np.ndarray = _MID_WEIGHTS
) -> None:
    """Write the source hats halfway between nodes s and s + 1, s = lo..hi-1, to ``out``.

    Row j is the cubic Lagrange interpolant sum_m c_m hats[s - own + m] on
    the stencil of step s = lo + j, which keeps Lawson RK4 fourth order for
    a time-dependent source; c = ``weights[own]``, which may be any (3, 4)
    or (3, 4, n) multipliers in place of the Lagrange weights.  Four scaled
    adds of contiguous views: the product of float weights with the complex
    slices would go through the threaded BLAS gemv, whose time over one
    solve varied twentyfold between identical runs.
    """
    n_steps = len(hats) - 1
    for own, (a, b) in enumerate(((0, 1), (1, n_steps - 1), (n_steps - 1, n_steps))):
        a, b = max(a, lo), min(b, hi)
        if a < b:
            c = weights[own]
            dst = out[a - lo : b - lo]
            np.multiply(hats[a - own : b - own], c[0], out=dst)
            for m in range(1, 4):
                dst += c[m] * hats[a - own + m : b - own + m]


def _march(
    problems: list[LinearProblem],
    cfg: StepperConfig,
    n_steps: int,
    table: OperatorTable,
    out: np.ndarray,
    update: np.ndarray | None,
    measure: np.ndarray | None,
    side: np.ndarray | None,
) -> np.ndarray:
    """Lawson RK4 on a (rows, n) hat-space state, one row per sub-problem.

    Half-step i of a forward row reads table node i and source slice i/2,
    of a backward row node 2 n_steps - i and slice n_steps - i/2; every
    stage applies S by :func:`apply_s`.  On a ``uniform`` table without time
    dependence the step is the affine map v <- A v + forcing: A and the B's
    are the same RK4 step run once on unit inputs, and with the midpoint
    weights and source factors folded in, a block's forcing is four scaled
    adds of source views per row.  Every other table takes the RK4 stages
    step by step.  Steps go a ``row_blocks`` block at a time into a buffer
    that first holds each step's source midpoint or forcing; per block, one
    ``np.abs`` feeds the blow-up scan (against the datum and ``source_peak``)
    and ``measure``, then one ``hat_norm`` for ``update`` and one copy into
    ``out``; without ``update`` the steps go straight in.  Returns ``out``.
    """
    grid = problems[0].grid
    n = grid.n
    rows = len(problems)
    dt = problems[0].horizon / n_steps
    forward = np.array([q.direction == "forward" for q in problems])
    orientation = np.where(forward, 1.0, -1.0)[:, None]
    first = np.where(forward, 0, 2 * n_steps)
    stride = np.where(forward, 1, -1)

    keep = np.tile(grid.dealias_mask.astype(np.float64), (rows, 1))
    keep[[q.zero_mean for q in problems], 0] = 0.0
    # the 2/3 mask, the zero-mean cut and the orientation fold into the
    # factor that multiplies the remainder and the source rows
    factor = keep * orientation
    sources = [None if q.source is None else q.source.hats for q in problems]
    march_hats = [h if fwd or h is None else h[::-1] for h, fwd in zip(sources, forward)]
    active = any(hats is not None for hats in sources)

    # The state is zero outside the 2/3 band, so E is needed only there; it
    # is even in xi, so it is evaluated on the non-negative band and mirrored
    # (slot kmax + 1 stays zero for the dropped modes).
    kmax = int(np.max(grid.k_index[grid.dealias_mask]))
    xi2 = grid.xi[: kmax + 1] ** 2
    visc = -cfg.epsilon * grid.xi[: kmax + 1] ** 4
    mirror = np.minimum(np.abs(grid.k_index), kmax + 1)

    def coefficients(step: int) -> tuple[np.ndarray, ...]:
        """E, E^2 and the stage rows a - abar, a q of one step; every stage
        splits off the exponential's midpoint mean."""
        abar3, a, aq = table.at(first + stride * (2 * step + np.arange(3)[:, None]))
        abar = abar3[1]
        band = np.zeros((rows, kmax + 2), dtype=np.complex128)
        band[:, : kmax + 1] = np.exp(0.5 * dt * (visc - orientation * 1j * abar[:, None] * xi2))
        E = np.take(band, mirror, axis=-1)
        return E, E * E, list(zip(a - abar[:, None], aq))

    def remainder(v_hat: np.ndarray, op, f: np.ndarray | None) -> np.ndarray:
        """tau * [i d/dx((a - abar) v_x) - 2i a q v_x + F] of every row, as masked hats."""
        out = factor * apply_s(grid, v_hat, *op, table.uniform)
        if f is not None:
            out += f
        return out

    def rk4(v_hat, f0, f1, f2, E, E2, ops):
        """One Lawson RK4 step, ``ops`` holding each stage's rows."""
        Ev, E2v = E * v_hat, E2 * v_hat
        k1 = remainder(v_hat, ops[0], f0)
        k2 = remainder(Ev + (0.5 * dt) * (E * k1), ops[1], f1)
        k3 = remainder(Ev + (0.5 * dt) * k2, ops[1], f1)
        k4 = remainder(E2v + dt * (E * k3), ops[2], f2)
        return E2v + (dt / 6.0) * (E2 * k1 + 2.0 * E * (k2 + k3) + k4)

    def affine() -> tuple[np.ndarray, np.ndarray]:
        """A, (rows, n), and the per-offset source coefficients C[own, m] of
        each midpoint stencil, (3, 4, rows, n), of a constant table's step."""
        # the four unit inputs (v, f0, f1, f2) side by side on a leading axis
        A, *B = rk4(*np.eye(4)[:, :, None, None], *coefficients(0))
        b0, b1, b2 = (b * factor for b in B)
        C = _MID_WEIGHTS[:, :, None, None] * b1
        for own in range(3):
            C[own, own] += b0
            C[own, own + 1] += b2
        return A, C

    def scan(hats: np.ndarray, slots: slice) -> None:
        """One np.abs of the slots ``slots``: the blow-up scan, then, squared, ``measure``."""
        mag = np.abs(hats)
        _check_state(mag, slots.start, scale)
        if measure is not None:
            measure[:, 0, slots] = power_norm(grid, np.square(mag, out=mag))
            measure[:, 1, slots] = power_norm(grid, np.multiply(mag, side[:, None], out=mag))

    block = chunk_rows(n)
    v_hat = np.stack([q.datum.hat for q in problems]) * keep
    scale = np.maximum(np.max(np.abs(v_hat), axis=1), [max(q.source_peak or 0.0, 1e-30) for q in problems])
    if update is not None:
        update[:] = hat_norm(grid, v_hat - out[:, 0])
        buffer = np.empty((rows, block, n), dtype=np.complex128)
    out[:, 0] = v_hat
    scan(out[:, :1], slice(0, 1))

    affine_map = table.uniform and table.constant
    if affine_map:
        A, C = affine()
        av = np.empty((rows, n), dtype=np.complex128)
    else:
        if table.constant:
            E, E2, ops = coefficients(0)
        if active:
            nodes = np.zeros((rows, block + 1, n), dtype=np.complex128)

    for steps in row_blocks(n_steps, n):
        lo, hi = steps.start, steps.stop
        slots = slice(lo + 1, hi + 1)
        buf = out[:, slots] if update is None else buffer[:, : hi - lo]
        if affine_map:
            for r, hats in enumerate(march_hats):
                if hats is None:
                    buf[r] = 0.0
                else:
                    _midpoints(hats, lo, hi, buf[r], C[:, :, r])
            for j in range(hi - lo):
                np.multiply(A, v_hat, out=av)
                buf[:, j] += av
                v_hat = buf[:, j]
        else:
            # each step's source midpoint waits in the slot its step overwrites; a backward
            # row sums in ascending node order (the reversed view rounds differently)
            for r, hats in enumerate(sources):
                if hats is None:   # the buffer holds stale slots; the unsourced row reads zero
                    buf[r] = 0.0
                    continue
                np.multiply(march_hats[r][lo : hi + 1], factor[r], out=nodes[r, : hi - lo + 1])
                if forward[r]:
                    _midpoints(hats, lo, hi, buf[r])
                else:
                    _midpoints(hats, n_steps - hi, n_steps - lo, buf[r, ::-1])
                buf[r] *= factor[r]
            for j, step in enumerate(range(lo, hi)):
                if not table.constant:
                    E, E2, ops = coefficients(step)
                f = (nodes[:, j], buf[:, j], nodes[:, j + 1]) if active else (None,) * 3
                v_hat = rk4(v_hat, *f, E, E2, ops)
                buf[:, j] = v_hat
        scan(buf, slots)
        if update is not None:   # old - new in place of the old slots, then the new ones
            out[:, slots] -= buf
            np.maximum(update, np.max(hat_norm(grid, out[:, slots]), axis=1), out=update)
            out[:, slots] = buf
        v_hat = out[:, hi]   # the next block may overwrite the buffer's last slot first
    return out


@dataclass(frozen=True)
class EpsilonStudyReport:
    epsilons: tuple[float, ...]
    differences: tuple[float, ...]   # sup_t L2 distance between consecutive solves
    cauchy: bool                     # each difference at most half the previous
    order_estimates: tuple[float, ...]


def epsilon_study(p: LinearProblem, cfg: StepperConfig, schedule: Sequence[float]) -> EpsilonStudyReport:
    """Solve at each viscosity of the decreasing ``schedule`` and compare neighbours.

    Every solve takes ``cfg``'s step size; its ``epsilon`` is not used.
    """
    sched = tuple(schedule)
    if len(sched) < 3:
        raise ConfigError("viscosity schedule needs at least 3 entries")
    if any(e2 >= e1 for e1, e2 in zip(sched, sched[1:])) or any(e <= 0 for e in sched):
        raise ConfigError("viscosity schedule must be positive and strictly decreasing")
    times = np.linspace(0.0, p.horizon, cfg.resolve_steps(p.horizon) + 1)
    table = OperatorTable(p.coeffs, p.weight, times, half_steps=True)
    solutions = []
    for eps in sched:
        solutions.append(solve_linear(p, replace(cfg, epsilon=eps), table))
    pairs = zip(solutions, solutions[1:])
    diffs = [float(np.max(hat_norm(p.grid, s1.hats - s2.hats))) for s1, s2 in pairs]
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
