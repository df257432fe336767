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

What a march derives from the table, the step and the rows is a
:class:`MarchPlan`: each step's exponential on the 2/3 band (stored once
for a forward row; a backward row's is its conjugate), S's output symbols
with the mask and orientation folded in, a constant uniform table's affine
map, and the work arrays of the stages, the scan, the update and the
midpoints.  The coupled solver builds one plan beside its table and hands
it to every sweep, so the sweeps re-derive nothing and allocate no array
of a row block or more; a call without a plan builds its own.  Every
product keeps the operand order and the rounding of the arithmetic it
replaces, so a plan changes no bit of a solve.
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
    "MarchPlan",
    "s_symbols",
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

    def rows(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Masked a, a q and zeroth-order rows at integer nodes lo..hi-1."""
        if self.constant:
            return self.a, self.aq, self.zeroth
        s = self.stride
        ints = slice(s * lo, s * (hi - 1) + 1, s)
        return self.a[ints], self.aq[ints], self.zeroth[lo:hi]


def s_symbols(grid: Grid1D, factor: np.ndarray | float = 1.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """i xi and the output symbols i (i xi) and -2i of :func:`apply_s`'s two
    products, both times ``factor`` (a real scalar, or rows that broadcast
    against the hats): the ``symbols`` that kernel reads."""
    ixi = 1j * grid.xi
    return ixi, factor * (1j * ixi), factor * np.full(grid.n, -2j)


def apply_s(
    grid: Grid1D,
    u_hat: np.ndarray,
    a: np.ndarray,
    aq: np.ndarray,
    uniform: bool,
    *,
    symbols: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Unmasked hats of S u = i d/dx(a u_x) - 2i a q u_x, the one kernel of S.

    ``u_hat`` holds dealiased hats, (..., n); ``a`` and ``aq`` are
    operator-table rows (the march passes a - abar) that broadcast against
    it.  On a ``uniform`` table each row is constant in x and S is the
    symbol (i (i xi) a - 2i a q)(i xi) on the rows' values, with no FFT.
    Otherwise one batched ifft of u_x and one batched fft of the products
    [a u_x, a q u_x], taken in place in the complex (2, ...) array ``work``.
    ``symbols`` are :func:`s_symbols` (built here when None); a factor
    folded into them multiplies the result (exactly, for the march's 0 and
    +-1 factors).  ``out`` (which may be
    ``u_hat`` itself) receives the result; given ``symbols``, ``out`` and
    ``work``, the FFT branch allocates nothing.
    """
    ixi, sym_a, sym_aq = s_symbols(grid) if symbols is None else symbols
    if uniform:
        return np.multiply((sym_a * a[..., :1] + sym_aq * aq[..., :1]) * ixi, u_hat, out=out)
    if work is None:
        work = np.empty((2,) + np.shape(u_hat), dtype=np.complex128)
    ux = np.fft.ifft(np.multiply(ixi, u_hat, out=work[1]), axis=-1, out=work[1])
    np.multiply(a, ux, out=work[0])
    np.multiply(aq, ux, out=work[1])
    np.fft.fft(work, axis=-1, out=work)
    np.multiply(work[0], sym_a, out=work[0])
    np.multiply(work[1], sym_aq, out=work[1])
    return np.add(work[0], work[1], out=out)


class MarchPlan:
    """What every march of one solve re-derives, built once for all its sweeps.

    A plan serves every :func:`solve_linear` call on its operator table
    with the same step, viscosity and rows (each row's direction and
    zero-mean flag); :meth:`require` raises ConfigError for any other.  It
    holds:

    - ``exponentials``: each step's Lawson exponential E on the
      non-negative 2/3 band, one row per step (one row on a constant
      table), for a forward row.  E is even in xi, so :meth:`load` mirrors
      it onto the band; a backward row's E at step s is the conjugate of
      the forward row's at step n_steps - 1 - s, so it is not stored;
    - ``symbols``, the :func:`s_symbols` of S with each row's 2/3 mask,
      zero-mean cut and orientation (``factor``) folded in;
    - on a uniform constant table the affine map (A, C) of one step
      (see ``_march``), built by the first march through the plan;
    - the work arrays of the stages, of the step's coefficients (E, E^2
      and the stage rows a - abar, a q, which :meth:`load` copies from the
      table's slices), of the blow-up scan, the update measure and the
      source midpoints.  Every march of the solve reuses them, so a march
      through a plan allocates no array of a row block or more.

    The stage arrays are contiguous (rows, n) rows and the stage rows are
    complex: a numpy product with a strided or a float operand is about
    twice as slow and buffers it.  Only the exponentials grow with the step
    count (:meth:`planned_bytes`).
    """

    def __init__(
        self,
        table: OperatorTable,
        cfg: StepperConfig,
        horizon: float,
        directions: Sequence[str],
        zero_mean: Sequence[bool],
    ) -> None:
        self.grid = grid = table.grid
        self.table = table
        self.n_steps = cfg.resolve_steps(horizon)
        self.dt = horizon / self.n_steps
        self.epsilon = cfg.epsilon
        self.rows = (tuple(directions), tuple(zero_mean))
        self.forward = [d == "forward" for d in directions]
        rows, n = len(self.forward), grid.n
        self.keep = np.tile(grid.dealias_mask.astype(np.float64), (rows, 1))
        self.keep[list(zero_mean), 0] = 0.0
        # the 2/3 mask, the zero-mean cut and the orientation fold into the
        # factor that multiplies the remainder and the source rows
        self.factor = self.keep * np.where(self.forward, 1.0, -1.0)[:, None]
        ixi, sym_a, sym_aq = s_symbols(grid, self.factor)
        self.symbols = (np.tile(ixi, (rows, 1)), sym_a, sym_aq)

        # The state is zero outside the 2/3 band, so E is needed only there.
        self.kmax = kmax = _band_top(n)
        xi = grid.xi[: kmax + 1]
        mid = table.abar if table.constant else table.abar[1::2]
        # the step's scalars as complex numbers, as numpy casts them for complex products
        self.scalars = tuple(np.complex128(c) for c in (0.5 * self.dt, self.dt, 2.0, self.dt / 6.0))
        self.exponentials = np.exp(0.5 * self.dt * (-cfg.epsilon * xi**4 - 1j * mid[:, None] * xi**2))
        self.E = np.zeros((rows, n), dtype=np.complex128)
        self.E2 = np.empty((rows, n), dtype=np.complex128)
        self.stage_a, self.stage_aq = np.empty((2, 3, rows, n), dtype=np.complex128)
        self._a_rows = np.empty((3, n))
        self.load(0)

        block = chunk_rows(rows * n)   # steps per block of the march (``row_blocks`` of all rows)
        self.buffer = np.empty((rows, block, n), dtype=np.complex128)
        # the midpoint product terms, read before a block's steps, and the
        # magnitudes of its scan and update, read after them, share memory
        scratch = np.empty(max(rows, 2) * block * n)
        self.mag = scratch[: rows * block * n].reshape(rows, block, n)
        self.terms = scratch.view(np.complex128)[: block * n].reshape(block, n)
        self.state = np.empty((rows, n), dtype=np.complex128)
        self.affine = table.uniform and table.constant
        if self.affine:
            self.A = self.C = None   # built by the first march
            self.av = np.empty((rows, n), dtype=np.complex128)
        else:
            # a step's forcing (f0 and f2 by the parity of their node, then f1), the stages' work
            self.forcing = np.zeros((3, rows, n), dtype=np.complex128)
            stages = np.empty((5, rows, n), dtype=np.complex128)
            self.work = (*stages, np.empty((2, rows, n), dtype=np.complex128))

    @staticmethod
    def planned_bytes(n: int, n_steps: int, constant: bool) -> int:
        """Bytes of a plan's exponentials over ``n_steps`` steps on ``n`` nodes, before it is built."""
        return (1 if constant else n_steps) * (_band_top(n) + 1) * 16

    def require(self, table: OperatorTable, cfg: StepperConfig, horizon: float, problems) -> None:
        """Raise ConfigError unless this plan was built for this march."""
        n_steps = cfg.resolve_steps(horizon)
        rows = (tuple(q.direction for q in problems), tuple(q.zero_mean for q in problems))
        other = [
            name
            for name, same in (
                ("grid", table.grid == self.grid),
                ("operator table", table is self.table),
                ("step", (n_steps, horizon / n_steps) == (self.n_steps, self.dt)),
                ("viscosity", cfg.epsilon == self.epsilon),
                ("rows", rows == self.rows),
            )
            if not same
        ]
        if other:
            raise ConfigError(f"march plan was built for another {', '.join(other)}")

    def load(self, step: int) -> None:
        """E, E^2 and the stage rows a - abar, a q of ``step``; every stage
        splits off the exponential's midpoint mean.  On a constant table
        every step has those of step 0."""
        n, kmax, table = self.grid.n, self.kmax, self.table
        last = self.n_steps - 1
        for r, forward in enumerate(self.forward):
            band = self.exponentials[0 if table.constant else step if forward else last - step]
            # mirrored onto the band; slots outside it stay zero
            if forward:
                self.E[r, : kmax + 1] = band
                self.E[r, n - kmax :] = band[kmax:0:-1]
            else:
                np.conjugate(band, out=self.E[r, : kmax + 1])
                np.conjugate(band[kmax:0:-1], out=self.E[r, n - kmax :])
            # half-step node i + m is stage m's of a forward row, i + 2 - m of a backward one
            if table.constant:
                a, aq, mean = table.a[[0, 0, 0]], table.aq[[0, 0, 0]], table.abar[0]
            else:
                i = 2 * (step if forward else last - step)
                a, aq, mean = table.a[i : i + 3], table.aq[i : i + 3], table.abar[i + 1]
            order = slice(None) if forward else slice(None, None, -1)
            self.stage_a[:, r] = np.subtract(a, mean, out=self._a_rows)[order]
            self.stage_aq[:, r] = aq[order]
        np.multiply(self.E, self.E, out=self.E2)

    def step(self, v_hat: np.ndarray, forcing: tuple, dest: np.ndarray, work: tuple | None = None) -> None:
        """One Lawson RK4 step of the loaded coefficients into ``dest``.

        ``forcing`` holds the masked source at the step's start, midpoint
        and end (or three None).  ``dest`` may be ``v_hat``.  ``work``
        defaults to the plan's arrays.
        """
        E, E2 = self.E, self.E2
        half, dt, two, sixth = self.scalars
        ev, e2v, u, k1, k2, s_work = self.work if work is None else work
        f0, f1, f2 = forcing

        def remainder(x: np.ndarray, stage: int, f: np.ndarray | None, out: np.ndarray) -> np.ndarray:
            """tau * [i d/dx((a - abar) x_x) - 2i a q x_x + F] of every row, as masked hats."""
            apply_s(self.grid, x, self.stage_a[stage], self.stage_aq[stage], self.table.uniform,
                    symbols=self.symbols, out=out, work=s_work)
            if f is not None:
                np.add(out, f, out=out)
            return out

        # E v + dt/2 E k1, E v + dt/2 k2, E^2 v + dt E k3, then
        # E^2 v + dt/6 (E^2 k1 + 2 E (k2 + k3) + k4), with k3 and k4 written
        # over their own stage inputs
        np.multiply(E, v_hat, out=ev)
        np.multiply(E2, v_hat, out=e2v)
        remainder(v_hat, 0, f0, k1)
        np.add(ev, np.multiply(half, np.multiply(E, k1, out=u), out=u), out=u)
        remainder(u, 1, f1, k2)
        np.add(ev, np.multiply(half, k2, out=u), out=u)
        k3 = remainder(u, 1, f1, u)
        np.add(e2v, np.multiply(dt, np.multiply(E, k3, out=ev), out=ev), out=ev)
        np.add(k2, k3, out=k2)
        np.multiply(np.multiply(two, E, out=u), k2, out=k2)
        np.add(np.multiply(E2, k1, out=k1), k2, out=k1)
        k4 = remainder(ev, 2, f2, ev)
        np.add(e2v, np.multiply(sixth, np.add(k1, k4, out=k1), out=k1), out=dest)

    def affine_map(self) -> tuple[np.ndarray, np.ndarray]:
        """A, (rows, n), and the per-offset source coefficients C[own, m] of
        each midpoint stencil, (3, 4, rows, n), of a constant table's step;
        the first call builds them, inside the first march."""
        if self.A is not None:
            return self.A, self.C
        # the four unit inputs (v, f0, f1, f2) side by side on a leading axis
        shape = (4,) + self.factor.shape
        steps = np.empty(shape, dtype=np.complex128)
        v, *f = np.eye(4)[:, :, None, None]
        self.step(v, f, steps, (*np.empty((5,) + shape, dtype=np.complex128), None))
        A, *B = steps
        b0, b1, b2 = (b * self.factor for b in B)
        C = _MID_WEIGHTS[:, :, None, None] * b1
        for own in range(3):
            C[own, own] += b0
            C[own, own + 1] += b2
        self.A, self.C = A, C
        return A, C


def _band_top(n: int) -> int:
    """Largest |k| the 2/3 rule keeps on n nodes (|k| < n / 3)."""
    return (n - 1) // 3


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
    plan: MarchPlan | None = None,
) -> SpaceTimeField | tuple[SpaceTimeField, SpaceTimeField]:
    """Integrate the sub-problem; returns its slices on the ascending time grid.

    Backward problems are solved in reversed time and flipped back, so the
    returned field always has times[0] = 0, times[-1] = horizon, with the
    datum reproduced at the appropriate end.  ``table`` must be built with
    ``half_steps`` on this march's time grid; without one it is built here.
    ``plan``, a :class:`MarchPlan` of ``table``, this step and viscosity and
    these rows (else ConfigError), is built here when not given; the coupled
    solver builds one for all its sweeps.  A source must sit on the march's
    integer nodes, else ConfigError, and needs at least 3 steps, else
    ConfigError.

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
    if plan is None:
        plan = MarchPlan(table, cfg, p.horizon, [q.direction for q in problems], [q.zero_mean for q in problems])
    else:
        plan.require(table, cfg, p.horizon, problems)
    hats = _march(problems, plan, out, update, measure, side)
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
    hats: np.ndarray,
    lo: int,
    hi: int,
    out: np.ndarray,
    weights: np.ndarray = _MID_WEIGHTS,
    work: np.ndarray | None = None,
) -> None:
    """Write the source hats halfway between nodes s and s + 1, s = lo..hi-1, to ``out``.

    Row j is the cubic Lagrange interpolant sum_m c_m hats[s - own + m] on
    the stencil of step s = lo + j, which keeps Lawson RK4 fourth order for
    a time-dependent source; c = ``weights[own]``, which may be any (3, 4)
    or (3, 4, n) multipliers in place of the Lagrange weights.  Four scaled
    adds of contiguous views, each product formed in ``work`` (at least
    hi - lo rows; allocated when None): the product of float weights with
    the complex slices would go through the threaded BLAS gemv, whose time
    over one solve varied twentyfold between identical runs.
    """
    n_steps = len(hats) - 1
    if work is None:
        work = np.empty(out.shape, dtype=np.complex128)
    for own, (a, b) in enumerate(((0, 1), (1, n_steps - 1), (n_steps - 1, n_steps))):
        a, b = max(a, lo), min(b, hi)
        if a < b:
            c = weights[own]
            dst, term = out[a - lo : b - lo], work[: b - a]
            np.multiply(hats[a - own : b - own], c[0], out=dst)
            for m in range(1, 4):
                dst += np.multiply(c[m], hats[a - own + m : b - own + m], out=term)


def _march(
    problems: list[LinearProblem],
    plan: MarchPlan,
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
    step by step, each step's coefficients loaded into the plan.  Steps go a
    ``row_blocks`` block (of all rows at once) at a time into a buffer that
    first holds each step's source midpoint or forcing; per block, one
    ``np.abs`` feeds the blow-up scan (against the datum and ``source_peak``)
    and ``measure``, then one ``hat_norm`` for ``update`` and one copy into
    ``out``; without ``update`` the steps go straight in.  Every array the
    march writes besides ``out`` is the plan's.  Returns ``out``.
    """
    grid = plan.grid
    n_steps, factor = plan.n_steps, plan.factor
    sources = [None if q.source is None else q.source.hats for q in problems]
    march_hats = [h if fwd or h is None else h[::-1] for h, fwd in zip(sources, plan.forward)]
    active = any(hats is not None for hats in sources)
    if plan.affine:
        A, C = plan.affine_map()

    def scan(hats: np.ndarray, slots: slice) -> None:
        """One np.abs of the slots ``slots``: the blow-up scan, then, squared, ``measure``."""
        mag = np.abs(hats, out=plan.mag[:, : hats.shape[1]])
        _check_state(mag, slots.start, scale)
        if measure is not None:
            measure[:, 0, slots] = power_norm(grid, np.square(mag, out=mag))
            measure[:, 1, slots] = power_norm(grid, np.multiply(mag, side[:, None], out=mag))

    state = plan.state   # the masked datums, then every step in turn
    for r, q in enumerate(problems):
        np.multiply(q.datum.hat, plan.keep[r], out=state[r])
    scale = np.maximum(np.max(np.abs(state), axis=1), [max(q.source_peak or 0.0, 1e-30) for q in problems])
    if update is not None:
        out[:, 0] -= state
        update[:] = power_norm(grid, np.square(np.abs(out[:, 0], out=plan.mag[:, 0]), out=plan.mag[:, 0]))
    out[:, 0] = state
    scan(out[:, :1], slice(0, 1))
    if active and not plan.affine:
        for r, hats in enumerate(march_hats):   # an unsourced row reads zero forcing
            if hats is None:
                plan.forcing[:, r] = 0.0
            else:
                np.multiply(hats[0], factor[r], out=plan.forcing[0, r])

    for steps in row_blocks(n_steps, len(problems) * grid.n):
        lo, hi = steps.start, steps.stop
        slots = slice(lo + 1, hi + 1)
        buf = out[:, slots] if update is None else plan.buffer[:, : hi - lo]
        if plan.affine:
            for r, hats in enumerate(march_hats):
                if hats is None:
                    buf[r] = 0.0
                else:
                    _midpoints(hats, lo, hi, buf[r], C[:, :, r], plan.terms)
            for j in range(hi - lo):
                np.add(buf[:, j], np.multiply(A, state, out=plan.av), out=state)
                buf[:, j] = state
        else:
            # each step's source midpoint waits in the slot its step overwrites; a backward
            # row sums in ascending node order (the reversed view rounds differently)
            # (its product terms reversed with it, so no view is read against its stride)
            for r, hats in enumerate(sources):
                if hats is None:   # the buffer holds stale slots; the unsourced row reads zero
                    buf[r] = 0.0
                elif plan.forward[r]:
                    _midpoints(hats, lo, hi, buf[r], work=plan.terms)
                else:
                    _midpoints(hats, n_steps - hi, n_steps - lo, buf[r, ::-1], work=plan.terms[::-1])
                buf[r] *= factor[r]
            # the state and the forcing step in contiguous rows: f0 and f2 by the
            # parity of their node, the midpoint copied from its slot
            forcing = (None,) * 3
            for j, step in enumerate(range(lo, hi)):
                if not plan.table.constant:
                    plan.load(step)
                if active:
                    end = plan.forcing[(step + 1) % 2]
                    for r, hats in enumerate(march_hats):
                        if hats is not None:
                            np.multiply(hats[step + 1], factor[r], out=end[r])
                    plan.forcing[2] = buf[:, j]
                    forcing = (plan.forcing[step % 2], plan.forcing[2], end)
                plan.step(state, forcing, state)
                buf[:, j] = state
        scan(buf, slots)
        if update is not None:   # old - new in place of the old slots, then the new ones
            out[:, slots] -= buf
            mag = np.square(np.abs(out[:, slots], out=plan.mag[:, : hi - lo]), out=plan.mag[:, : hi - lo])
            np.maximum(update, np.max(power_norm(grid, mag), axis=1), out=update)
            out[:, slots] = buf
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
