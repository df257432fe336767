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
solver builds once and shares with the coupling source and the monitors.
The table holds the coefficients, weight and time grid it was built on and
applies L = Z + S (:meth:`OperatorTable.apply`), and S u = i d/dx(a u_x) -
2i a q u_x has one kernel, :func:`apply_s`, which the march and the table
(for the coupling source and the residual monitor) call.  A
:class:`LinearProblem` names the table it marches on: the march's operator,
horizon and time grid are the table's.  On a ``diagonal`` table (one row,
constant in x, as for a = 1, W = 0 under the pure-exponential weight) L is
a Fourier symbol and a step is exactly the affine map
v <- A v + B0 F(t_n) + B1 F(t_n+1/2) + B2 F(t_n+1): A and the B's are the
same step run once on unit inputs, and the march makes no FFT.

Batched march: :func:`solve_linear` advances a stacked (rows, n) state of
Fourier coefficients, one row per sub-problem; a ``partner`` problem (the
coupled solver passes the backward carrier next to the forward one) rides
in the same state, each row in its own march order (:class:`MarchPlan`).
Steps go a ``row_blocks`` block at a time into a buffer whose magnitudes,
taken once, are scanned for blow-up (each row against its datum and handed-in
source scale; the error names the first bad step) and give each slot's
norm and wrong-side norm, the coupled solver's per-sweep norms; the block
is measured against the output slots it overwrites (the previous sweep's
pair, for the coupled solver) and copied into them.  A source must sit on
the march's own time grid; its midpoint rows are cubic Lagrange
interpolants of the four nearest slices, so it costs the scheme no order
(it needs 3 steps).

What a march derives from the table, the step and the rows, and what it
writes, is a :class:`MarchPlan`: each step's exponential on the 2/3 band
(stored once for a forward row; a backward row's is its conjugate), S's
output symbols with the mask and orientation folded in, a diagonal
table's affine map, the work arrays, and the output, the update
and the norms.  The coupled solver builds one plan beside its table and
hands it to every sweep, so the sweeps re-derive nothing and allocate no
array of a row block or more; a call without a plan builds its own.  Every
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
    projection_multiplier,
    row_blocks,
    same_time_grid,
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
# RK4 keeps |R(iy)| <= 1 exactly for |y| <= 2 sqrt 2 on the imaginary axis
_RK4_IMAGINARY_REACH = 2.0 * math.sqrt(2.0)


def heat_quartic(f: SpectralField, s: float) -> SpectralField:
    """Apply the fourth-order dissipative semigroup symbol e^(-s xi^4)."""
    if s < 0:
        raise ConfigError(f"quartic semigroup time must be >= 0, got {s}")
    return SpectralField.from_hat(f.grid, np.exp(-s * f.grid.xi**4) * f.hat)


@dataclass
class StepperConfig:
    """Viscosity and step count for one linear solve.

    ``n_steps`` splits the horizon into that many equal steps; without it,
    the horizon is split into 2048.
    """

    epsilon: float = 1e-3
    n_steps: int | None = None

    def __post_init__(self) -> None:
        # scenario files hand these over unchecked: "64", 64.5 and true are errors
        if self.n_steps is not None:
            typed(self.n_steps, int, "n_steps")
        # written so that NaN, which fails every comparison, fails the check
        if not 0.0 <= self.epsilon < math.inf:
            raise ConfigError(f"viscosity epsilon must be finite and >= 0, got {self.epsilon}")
        if self.n_steps is not None and self.n_steps < 1:
            raise ConfigError("n_steps must be >= 1")

    def resolve_steps(self, horizon: float) -> int:
        """The step count.  ``horizon`` is unused; it stays for callers outside the package."""
        return 2048 if self.n_steps is None else self.n_steps

    def time_grid(self, horizon: float) -> np.ndarray:
        """The march's integer nodes on [0, horizon]: ``resolve_steps`` equal steps."""
        return np.linspace(0.0, horizon, self.resolve_steps(horizon) + 1)


def _rk4_gain(z: complex) -> float:
    """|R(z)| of RK4's stability polynomial R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24."""
    return abs(1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0)


def _require_stable_step(table: OperatorTable, n_steps: int, epsilon: float) -> None:
    """Raise ConfigError when ``n_steps`` steps over the table's horizon are
    too long for viscosity ``epsilon`` or for RK4.

    The viscosity's exponent eps xi_max^4 dt (xi_max the grid's largest
    |xi|) is capped at ``_STIFF_EXPONENT_CAP``.  The RK4 stages take
    i d/dx((a - abar) d/dx), whose band-edge eigenvalue has modulus
    max|a - abar| xi_max^2 (max over the table's rows, xi_max the 2/3-band
    edge); RK4's polynomial is evaluated at i dt times it, and an error
    names the least step count that passes.  The drift's real part
    2 a q xi is left out.  dt is the table's horizon over ``n_steps``.
    """
    stiff = epsilon * table.grid.xi_max**4 * (table.times[-1] / n_steps)
    if stiff > _STIFF_EXPONENT_CAP:
        raise ConfigError(
            f"eps xi_max^4 dt = {stiff:.3g} exceeds the cap {_STIFF_EXPONENT_CAP:g}; raise n_steps or shrink eps"
        )
    xi = table.grid.xi[table.grid.band_top]
    spread = np.maximum(table.a.max(axis=1) - table.abar, table.abar - table.a.min(axis=1))
    reach = table.times[-1] * float(np.max(spread)) * xi**2   # dt times the rate, times n_steps
    gain = _rk4_gain(1j * reach / n_steps)
    if gain > 1.0:
        least = math.ceil(reach / _RK4_IMAGINARY_REACH)
        while _rk4_gain(1j * reach / least) > 1.0:   # round-off at the edge
            least += 1
        raise ConfigError(
            f"n_steps = {n_steps} puts dt max|a - abar| xi_max^2 = {reach / n_steps:.3g} outside "
            f"RK4's stability region (|R| = {gain:.3g} > 1); use n_steps >= {least}"
        )


@dataclass
class LinearProblem:
    """One uncoupled sub-problem: direction, operator table, source, datum.

    The ``table`` is the operator the problem marches on, and its time grid,
    equal steps from t = 0 (else ConfigError), is the march's: ``horizon``
    is its last time.  ``zero_mean`` restricts
    the evolution to the paired-mode class: the mean mode of the datum, the
    source, and every remainder evaluation is annihilated.  The coupled
    solver uses this class throughout, since the half-line frequency
    projections resolve the identity only there.
    """

    direction: str
    table: OperatorTable
    source: SpaceTimeField | None
    datum: SpectralField
    zero_mean: bool = False
    source_peak: float | None = None   # max |hat| of the source, its blow-up scale; measured if None

    def __post_init__(self) -> None:
        if self.direction not in ("forward", "backward"):
            raise ConfigError(f"direction must be 'forward' or 'backward', got {self.direction!r}")
        if self.table.grid != self.datum.grid:
            raise GridMismatchError("operator table and datum grids differ")
        self.table.require(np.linspace(0.0, self.horizon, len(self.table.times)))   # equal steps from t = 0
        if self.source is not None:
            if self.source.grid != self.datum.grid:
                raise GridMismatchError("source and datum grids differ")
            if self.source_peak is None:
                hats = self.source.hats
                self.source_peak = max(np.max(np.abs(hats[b])) for b in row_blocks(*hats.shape))

    @property
    def grid(self) -> Grid1D:
        return self.datum.grid

    @property
    def horizon(self) -> float:
        return self.table.times[-1]


class OperatorTable:
    """The discrete operator L = Z + S of one solve: its inputs and masked rows, built once.

    S = i d/dx(a d/dx) - 2i a q d/dx, with q the weight's log-derivative,
    and Z = i((q^2 - q') a - q a_x) + iW is the zeroth-order lump.  The
    table keeps the ``coeffs``, ``weight`` and ``times`` it was built on and
    :meth:`apply` applies L.  The march, the coupling source, the residual
    and the estimate monitors read the operator from the one table a run
    builds (``PicardReport.table``) on the weight's ``grid``.  ``nodes``
    are the half steps of ``times``: the integer nodes ``times`` and every
    midpoint, the grid the IF-RK4 stages read.  Row k of ``abar`` (spatial mean of a), ``a`` and ``aq``
    (masked a and a q, stored as float64: the 2/3 mask is symmetric, so
    they are real up to round-off) belongs to ``nodes[k]``;
    ``zeroth`` (masked Z) is kept at the integer nodes only.  When neither
    a nor W depends on t, each array holds one row that serves every node.

    ``diagonal`` is true when the table is ``constant`` and its one row of
    ``a``, ``aq`` and ``zeroth`` is constant in x (an exact ``np.ptp == 0``
    test).  L is then one Fourier symbol: :func:`apply_s` and :meth:`apply`'s
    Z product apply the row's value as a symbol instead of an ifft/fft round
    trip, the march steps by the affine map its RK4 step becomes (see
    ``_march``) and the coupling source is two symbols of the summed hats.
    Every table that depends on t takes the FFT stages.
    """

    def __init__(self, coeffs: CoefficientField, weight: WeightProfile, times: np.ndarray) -> None:
        self.coeffs, self.weight = coeffs, weight
        self.grid = grid = weight.grid
        self.times = times = np.asarray(times, dtype=np.float64)
        self.nodes = np.linspace(times[0], times[-1], 2 * len(times) - 1)
        self.constant = not coeffs.time_dependent
        nodes = self.nodes[:1] if self.constant else self.nodes
        q, dq = weight.logderiv, weight.logderiv_x
        self.abar = np.empty(len(nodes))
        self.a = np.empty((len(nodes), grid.n))
        self.aq = np.empty((len(nodes), grid.n))
        self.zeroth = np.empty(((len(nodes) - 1) // 2 + 1, grid.n), dtype=np.complex128)
        work = np.empty((chunk_rows(grid.n), grid.n), dtype=np.complex128)   # a's, a q's round trips
        iw = None if coeffs.w_time_dependent else 1j * coeffs.w_values(grid.x, nodes[:1, None])
        # the block row count is even, so every block starts on an integer node
        for rows in row_blocks(len(nodes), grid.n):
            ts = nodes[rows, None]
            z = work[: len(ts)]
            a = coeffs.a_values(grid.x, ts)
            self.abar[rows] = np.mean(a, axis=1)
            self.a[rows] = masked_samples(grid, a, out=z).real
            np.multiply(a, q, out=z.real)
            z.imag = 0.0
            self.aq[rows] = masked_samples(grid, z, out=z).real
            a, ts = a[::2], ts[::2]
            ax = coeffs.a_x(grid.x, ts)
            ints = slice(rows.start // 2, rows.start // 2 + len(ts))
            lump = np.multiply(1j, (q**2 - dq) * a - q * ax, out=self.zeroth[ints])
            np.add(lump, 1j * coeffs.w_values(grid.x, ts) if iw is None else iw, out=lump)
            masked_samples(grid, lump, out=lump)
        self.diagonal = self.constant and all(np.ptp(rows) == 0 for rows in (self.a, self.aq, self.zeroth))

    @staticmethod
    def planned_bytes(n: int, n_steps: int, constant: bool) -> int:
        """Bytes of the rows of a table over ``n_steps`` steps on ``n`` nodes, before it is built."""
        nodes, zeroth = (1, 1) if constant else (2 * n_steps + 1, n_steps + 1)
        return nodes * (8 + 16 * n) + zeroth * 16 * n

    def require(self, times: np.ndarray) -> None:
        """Raise ConfigError unless the table was built on the time grid ``times``."""
        if not same_time_grid(self.times, times):
            raise ConfigError(
                f"operator table was built on another time grid than the {len(times)} times "
                f"on [{times[0]:g}, {times[-1]:g}]"
            )

    def rows(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Masked a, a q and zeroth-order rows at integer nodes lo..hi-1."""
        if self.constant:
            return self.a, self.aq, self.zeroth
        return self.a[2 * lo : 2 * hi - 1 : 2], self.aq[2 * lo : 2 * hi - 1 : 2], self.zeroth[lo:hi]

    def apply(
        self, v_hat: np.ndarray, lo: int, hi: int, sym: np.ndarray | None = None, *,
        symbols: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None, work: np.ndarray | None = None,
    ) -> tuple[np.ndarray, ...]:
        """Unmasked hats of (Z v, S v), and of S(sym v) given a real symbol ``sym``,
        on the rows at integer nodes lo..hi-1.

        ``v_hat``, complex, is dealiased in place and then overwritten (the
        caller hands over a fresh block).  S is :func:`apply_s`, called once
        for v and once for sym v, with the caller's ``symbols`` and complex
        (2, ...) ``work`` array (both allocated per call when None).  Z v is
        one ifft of v and one fft of the product, or on a ``diagonal`` table
        the symbol product on the row's value, with no FFT.
        """
        a, aq, zeroth = self.rows(lo, hi)
        u = np.multiply(v_hat, self.grid.dealias_mask, out=v_hat)
        if self.diagonal:
            zv = zeroth[:, :1] * u
        else:
            # in place, zeroth first: on a temporary of 256 KiB or more numpy swaps the operands
            zv = np.fft.ifft(u, axis=-1)
            zv = np.fft.fft(np.multiply(zeroth, zv, out=zv), axis=-1, out=zv)
        sv = apply_s(self.grid, u, a, aq, self.diagonal, symbols=symbols, work=work)
        if sym is None:
            return zv, sv
        u *= sym   # u is spent: sym u and then S(sym u) take its place, with no block more
        return zv, sv, apply_s(self.grid, u, a, aq, self.diagonal, symbols=symbols, out=u, work=work)


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
    diagonal: bool,
    *,
    symbols: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Unmasked hats of S u = i d/dx(a u_x) - 2i a q u_x, the one kernel of S.

    ``u_hat`` holds dealiased hats, (..., n); ``a`` and ``aq`` are
    operator-table rows (the march passes a - abar) that broadcast against
    it.  On a ``diagonal`` table the row is constant in x and S is the
    symbol (i (i xi) a - 2i a q)(i xi) on the row's values, with no FFT.
    Otherwise one batched ifft of u_x and one batched fft of the products
    [a u_x, a q u_x], taken in place in the complex (2, ...) array ``work``.
    ``symbols`` are :func:`s_symbols` (built here when None); a factor
    folded into them multiplies the result (exactly, for the march's 0 and
    +-1 factors).  ``out`` (which may be
    ``u_hat`` itself) receives the result; given ``symbols``, ``out`` and
    ``work``, the FFT branch allocates nothing.
    """
    ixi, sym_a, sym_aq = s_symbols(grid) if symbols is None else symbols
    if diagonal:
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
    with the same viscosity and rows (each row's direction and zero-mean
    flag); :meth:`require` raises ConfigError for any other.  The step is
    the table's: the march's time grid is the table's ``times``, and the
    step is checked once, here (``_require_stable_step``).

    March order is the plan's alone: a backward row marches in the reversed
    variable s = horizon - t, so its slot i is time node n_steps - i and its
    half step i reads table node 2 n_steps - i.  Each row's output, norms
    and source are written and read in march order; :meth:`flip` turns a
    backward row's stack between the orders, and :meth:`fields` and
    :meth:`norms` hand the rows back on ascending times.  The plan holds:

    - what each march writes over the last: ``out``, the hats in march
      order (row r is the r-th problem's), zero before the first march;
      ``update``, each row's sup of ``hat_norm(new - old)`` over the
      slots; and ``measure``, each slot's ``hat_norm`` and that of its wrong
      side (``side``: P+ of a forward row, P- of a backward one), bit for
      bit ``norm_series``;
    - ``exponentials``: each step's Lawson exponential E on the
      non-negative 2/3 band, one row per step (one row on a constant
      table), for a forward row.  E is even in xi, so :meth:`load` mirrors
      it onto the band; a backward row's E at step s is the conjugate of
      the forward row's at step n_steps - 1 - s, so it is not stored;
    - ``symbols``, the :func:`s_symbols` of S with each row's 2/3 mask,
      zero-mean cut and orientation (``factor``) folded in;
    - on a ``diagonal`` table the affine map (A, C) of one step
      (see ``_march``), built by the first march through the plan;
    - the work arrays of the stages, of the step's coefficients (E, E^2
      and the stage rows a - abar, a q, which :meth:`load` copies from the
      table's slices), of the blow-up scan, the update measure and the
      source midpoints, and the ``buffer`` each block of steps is staged
      in.  Every march of the solve reuses them, so a march through a plan
      allocates no array of a row block or more.

    The stage arrays are contiguous (rows, n) rows and the stage rows are
    complex: a numpy product with a strided or a float operand is about
    twice as slow and buffers it.  Besides ``out`` and ``measure``, only the
    exponentials grow with the step count (:meth:`planned_bytes`).
    """

    def __init__(
        self, table: OperatorTable, cfg: StepperConfig, directions: Sequence[str], zero_mean: Sequence[bool]
    ) -> None:
        self.grid = grid = table.grid
        self.table = table
        self.n_steps = len(table.times) - 1
        _require_stable_step(table, self.n_steps, cfg.epsilon)   # before the first march and allocation
        self.dt = table.times[-1] / self.n_steps
        self.epsilon = cfg.epsilon
        self.rows = (tuple(directions), tuple(zero_mean))
        self.forward = [d == "forward" for d in directions]
        rows, n = len(self.forward), grid.n
        # the output is the plan's first allocation: built after the work arrays
        # instead, it left a `decoupled` run's peak resident memory about
        # 0.3 MiB higher (heap layout, not live memory)
        self.out = np.zeros((rows, self.n_steps + 1, n), dtype=np.complex128)
        self.update = np.empty(rows)
        self.measure = np.zeros((rows, 2, self.n_steps + 1))
        self.side = np.stack([projection_multiplier(grid, "+" if f else "-").real for f in self.forward])
        self.keep = np.tile(grid.dealias_mask.astype(np.float64), (rows, 1))
        self.keep[list(zero_mean), 0] = 0.0
        # the 2/3 mask, the zero-mean cut and the orientation fold into the
        # factor that multiplies the remainder and the source rows
        self.factor = self.keep * np.where(self.forward, 1.0, -1.0)[:, None]
        ixi, sym_a, sym_aq = s_symbols(grid, self.factor)
        self.symbols = (np.tile(ixi, (rows, 1)), sym_a, sym_aq)

        # The state is zero outside the 2/3 band, so E is needed only there.
        self.kmax = kmax = grid.band_top
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
        if table.diagonal:
            self.A = self.C = None   # built by the first march
            self.av = np.empty((rows, n), dtype=np.complex128)
        else:
            # a step's forcing (f0, f1, f2), the stages' work
            self.forcing = np.zeros((3, rows, n), dtype=np.complex128)
            stages = np.empty((5, rows, n), dtype=np.complex128)
            self.work = (*stages, np.empty((2, rows, n), dtype=np.complex128))

    def flip(self, stacks: Sequence) -> list:
        """Each row's stack (or None) of ``stacks`` with a backward row's reversed:
        time order to march order and back, the one place either becomes the other."""
        return [rows if forward or rows is None else rows[::-1] for forward, rows in zip(self.forward, stacks)]

    def fields(self) -> tuple[SpaceTimeField, ...]:
        """Each row of ``out`` as a view on the table's ascending times."""
        return tuple(SpaceTimeField(self.grid, self.table.times, hats=rows) for rows in self.flip(self.out))

    def norms(self) -> tuple[np.ndarray, ...]:
        """Each row's per-slot norm series (``measure``) as a view on the table's
        ascending times: bit for bit the ``norm_series()`` of :meth:`fields`."""
        return tuple(self.flip(self.measure[:, 0]))

    @staticmethod
    def planned_bytes(grid: Grid1D, n_steps: int, constant: bool) -> int:
        """Bytes of a plan's exponentials over ``n_steps`` steps on ``grid``, before it is built."""
        return (1 if constant else n_steps) * (grid.band_top + 1) * 16

    def require(self, table: OperatorTable, cfg: StepperConfig, problems) -> None:
        """Raise ConfigError unless this plan was built for this march."""
        rows = (tuple(q.direction for q in problems), tuple(q.zero_mean for q in problems))
        other = [
            name
            for name, same in (
                ("operator table", table is self.table),
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
            apply_s(self.grid, x, self.stage_a[stage], self.stage_aq[stage], self.table.diagonal,
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


def solve_linear(
    p: LinearProblem,
    cfg: StepperConfig,
    *,
    partner: LinearProblem | None = None,
    plan: MarchPlan | None = None,
) -> SpaceTimeField | tuple[SpaceTimeField, SpaceTimeField]:
    """Integrate the sub-problem on its operator table; returns its slices on
    the table's ascending time grid.

    Backward problems are solved in reversed time and flipped back, so the
    returned field always has times[0] = 0, times[-1] = horizon, with the
    datum reproduced at the appropriate end.  ``cfg`` must resolve to the
    table's step count, else ConfigError.  ``plan``, a :class:`MarchPlan` of
    ``p.table``, this viscosity and these rows (else ConfigError), is built
    here when not given; the coupled solver builds one for all its sweeps.
    The march writes the plan's ``out``, ``update`` and ``measure`` (the
    update of a fresh plan is measured against zero) and returns
    ``plan.fields()``, views of ``plan.out``, which the next march through
    the plan overwrites; no source may view it.  A source must sit on the
    table's times and needs at least 3 steps, else ConfigError.

    ``partner``, a second sub-problem on the same operator table, by
    identity (either direction; else ConfigError), is marched in the same
    batched state; the pair (field of ``p``, field of ``partner``) is then
    returned.  Each row equals its own one-row solve up to round-off.
    """
    problems = [p] if partner is None else [p, partner]
    table = p.table
    if partner is not None and partner.table is not table:
        raise ConfigError("a partner sub-problem must march on the same operator table")
    n_steps, steps = len(table.times) - 1, cfg.resolve_steps(p.horizon)
    if steps != n_steps:
        raise ConfigError(f"the stepper takes {steps} steps, the operator table has {n_steps}")
    for q in problems:
        if q.source is not None:
            if n_steps < _SOURCE_MIN_STEPS:
                raise ConfigError(
                    f"a march with a source needs at least {_SOURCE_MIN_STEPS} steps "
                    f"(4 nodes for the cubic midpoint reads), got {n_steps}"
                )
            _require_march_grid(q.source.times, table.times)
    if plan is None:
        plan = MarchPlan(table, cfg, [q.direction for q in problems], [q.zero_mean for q in problems])
    else:
        plan.require(table, cfg, problems)
    _march(problems, plan)
    return plan.fields()[0] if partner is None else plan.fields()


def _require_march_grid(source_times: np.ndarray, times: np.ndarray) -> None:
    """Raise ConfigError unless a source sits on the march's integer nodes ``times``."""
    if not same_time_grid(source_times, times):
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


def _march(problems: list[LinearProblem], plan: MarchPlan) -> None:
    """Lawson RK4 on a (rows, n) hat-space state, one row per sub-problem.

    Every row steps, stores and reads its source in march order (see
    :class:`MarchPlan`); every stage applies S by :func:`apply_s`.  On a
    ``diagonal`` table the step is the affine map v <- A v + forcing: A and
    the B's are the same RK4 step run once on unit inputs, and with the
    midpoint weights and source factors folded in, a block's forcing is
    four scaled adds of source views per row.  Every other table takes the
    RK4 stages step by step, each step's coefficients loaded into the plan,
    and reads each step's source at its start and end from the source rows.
    Steps go a ``row_blocks`` block (of all rows at once) at a time into the
    plan's ``buffer``, which first holds each step's source midpoint or forcing;
    per block, one ``np.abs`` feeds the blow-up scan (against the datum and
    ``source_peak``) and ``plan.measure``, then one ``hat_norm`` of the
    slots it overwrites for ``plan.update`` and one copy into ``plan.out``.
    Every array the march writes is the plan's.
    """
    grid = plan.grid
    n_steps, factor = plan.n_steps, plan.factor
    out, update, measure = plan.out, plan.update, plan.measure
    sources = plan.flip([None if q.source is None else q.source.hats for q in problems])
    active = any(hats is not None for hats in sources)
    affine = plan.table.diagonal
    if affine:
        A, C = plan.affine_map()

    def write(block: np.ndarray, slots: slice) -> None:
        """Write ``block`` over ``slots``, the datum slot and every block of steps
        alike: one np.abs for the blow-up scan and, squared, ``measure``; then
        the update against the old slots, and the copy."""
        mag = np.abs(block, out=plan.mag[:, : block.shape[1]])
        _check_state(mag, slots.start, scale)
        measure[:, 0, slots] = power_norm(grid, np.square(mag, out=mag))
        measure[:, 1, slots] = power_norm(grid, np.multiply(mag, plan.side[:, None], out=mag))
        out[:, slots] -= block   # old - new in place of the old slots, then the new ones
        np.square(np.abs(out[:, slots], out=mag), out=mag)
        np.maximum(update, np.max(power_norm(grid, mag), axis=1), out=update)
        out[:, slots] = block

    state = plan.state   # the masked datums, then every step in turn
    for r, q in enumerate(problems):
        np.multiply(q.datum.hat, plan.keep[r], out=state[r])
    scale = np.maximum(np.max(np.abs(state), axis=1), [max(q.source_peak or 0.0, 1e-30) for q in problems])
    update[:] = 0.0
    write(state[:, None], slice(0, 1))

    for steps in row_blocks(n_steps, len(problems) * grid.n):
        lo, hi = steps.start, steps.stop
        buf = plan.buffer[:, : hi - lo]
        # each step's source midpoint, or on a diagonal table its whole forcing,
        # waits in the slot its step overwrites
        for r, hats in enumerate(sources):
            if hats is None:   # the buffer holds stale slots; the unsourced row reads zero
                buf[r] = 0.0
            elif affine:
                _midpoints(hats, lo, hi, buf[r], C[:, :, r], plan.terms)
            else:
                _midpoints(hats, lo, hi, buf[r], work=plan.terms)
                buf[r] *= factor[r]
        if affine:
            for j in range(hi - lo):
                np.add(buf[:, j], np.multiply(A, state, out=plan.av), out=state)
                buf[:, j] = state
        else:
            # the state and the forcing step in contiguous rows, the midpoint copied from its slot
            forcing = plan.forcing if active else (None,) * 3
            for j, step in enumerate(range(lo, hi)):
                if not plan.table.constant:
                    plan.load(step)
                if active:
                    for r, hats in enumerate(sources):
                        if hats is None:   # an unsourced row reads zero forcing
                            forcing[0, r] = forcing[2, r] = 0.0
                        else:
                            np.multiply(hats[step], factor[r], out=forcing[0, r])
                            np.multiply(hats[step + 1], factor[r], out=forcing[2, r])
                    forcing[1] = buf[:, j]
                plan.step(state, forcing, state)
                buf[:, j] = state
        write(buf, slice(lo + 1, hi + 1))


@dataclass(frozen=True)
class EpsilonStudyReport:
    epsilons: tuple[float, ...]
    differences: tuple[float, ...]   # sup_t L2 distance between consecutive solves
    cauchy: bool                     # each difference at most half the previous
    order_estimates: tuple[float, ...]


def epsilon_study(p: LinearProblem, cfg: StepperConfig, schedule: Sequence[float]) -> EpsilonStudyReport:
    """Solve at each viscosity of the decreasing ``schedule`` and compare neighbours.

    Every solve marches on the problem's table with ``cfg``'s step count;
    its ``epsilon`` is not used.
    """
    sched = tuple(schedule)
    if len(sched) < 3:
        raise ConfigError("viscosity schedule needs at least 3 entries")
    if any(e2 >= e1 for e1, e2 in zip(sched, sched[1:])) or any(e <= 0 for e in sched):
        raise ConfigError("viscosity schedule must be positive and strictly decreasing")
    solutions = []
    for eps in sched:
        solutions.append(solve_linear(p, replace(cfg, epsilon=eps)))
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
