"""Coupled two-endpoint solver built on frozen-source sweeps.

The unknown is a pair of fields: the negative-frequency carrier gets its
datum at t = 0 and is integrated forward, the positive-frequency carrier
gets its datum at the horizon and is integrated backward.  Each sweep
freezes the coupling source evaluated on the previous pair, solves the two
uncoupled linear problems, and measures the update in the norm

    |||v||| = sup_t ||v_plus(t)||_2 + sup_t ||v_minus(t)||_2.

Under the contraction-admissible horizon the update shrinks by at least a
factor 1/2 per sweep from the second sweep on; that factor, the confinement
bound |||v||| <= 4 (||f|| + ||g||), the cross-frequency leakage, the
final PDE residual and the spatial resolution indicator (`band_tail`) are
all recorded in the report rather than assumed.

Everything runs on the paired-mode class (zero mean, no unpaired Nyquist
content): the half-line projections resolve the identity only there, so
data, coupling outputs, and the evolution itself are kept in that class.
The assembled sum then satisfies the projected equation exactly at the
fixed point, which is what `pde_residual` measures.

One sweep is one batched computation.  `coupling_stacks` evaluates the P+
branch of the coupling source only and takes lambda- = (Z v)_paired -
lambda+: on that class P+ + P- = I, and on dealiased input the commutator
terms of the two signs cancel except at the zero mode.  The sources stay
Fourier coefficients in one march-ordered (2, N+1, n) buffer on the
march's time grid, measured as written (norm series for the lambda ratio,
max |hat| for the march's blow-up scale).  Both carriers are then marched
together through `solve_linear(..., partner=...)` into the solve's one
march-ordered pair buffer: each step overwrites the previous sweep's slot
once the update is measured against it, and the march's blow-up
magnitudes give every slot's norm and wrong-side norm, so no sweep reads
the pair or its sources again.  A coupled solve therefore holds four
stacks at its peak, the pair and the frozen sources.

One solve builds one half-step `OperatorTable` and samples one
`NormBundle` on its time grid; the report hands both back (unserialised),
and the estimate monitors read them instead of building their own.  The
monitors need only the sources' norm series, which `coupling_norms`
measures one block at a time.

Every space-time field stores Fourier coefficients only, so norms are
Parseval sums (`spectral.hat_norm`), and physical values exist only inside
`_operator_parts`, the operator L = Z + S of the coupling source and the
residual monitor, whose S is `stepper.apply_s`, the kernel the march
steps with (and not even there on a `uniform` table, whose rows are
constant in x and act as Fourier symbols), and one block at a time in
`assemble_solution`, which stores only the weighted transform w.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable
from dataclasses import dataclass, field, fields

import numpy as np

from .coefficients import CoefficientField, NormBundle, norm_bundle, select_horizon
from .errors import (
    ConfigError,
    DivergenceError,
    GridMismatchError,
    HorizonError,
)
from .spectral import (
    Grid1D,
    SpaceTimeField,
    SpectralField,
    chunk_rows,
    dealias_hat,
    hat_norm,
    power_norm,
    projection_multiplier,
    require_one_sided,
    row_blocks,
)
from .stepper import LinearProblem, MarchPlan, OperatorTable, StepperConfig, apply_s, s_symbols, solve_linear
from .weights import WeightProfile

__all__ = [
    "BvpProblem",
    "PicardReport",
    "AssembledSolution",
    "ResidualProfile",
    "coupling_stacks",
    "coupling_norms",
    "picard_solve",
    "assemble_solution",
    "pde_residual",
    "band_tail",
]


@dataclass
class BvpProblem:
    """Two-endpoint data, coefficients, weight, and stepper settings.

    ``horizon`` must pass the contraction admissibility check computed from
    the measured coefficient norms, unless ``override_horizon`` is set (a
    warning is emitted and convergence is no longer guaranteed).
    """

    f: SpectralField
    g: SpectralField
    coeffs: CoefficientField
    weight: WeightProfile
    horizon: float
    stepper_cfg: StepperConfig
    override_horizon: bool = False

    def __post_init__(self) -> None:
        if self.f.grid != self.g.grid or self.f.grid != self.weight.grid:
            raise GridMismatchError("data and weight must share one grid")
        if not (self.horizon > 0):
            raise ConfigError(f"horizon must be positive, got {self.horizon}")
        require_one_sided(self.f, "-", "low-endpoint datum")
        require_one_sided(self.g, "+", "high-endpoint datum")

    @property
    def grid(self) -> Grid1D:
        return self.f.grid

    def data_norm(self) -> float:
        return self.f.norm_l2() + self.g.norm_l2()


@dataclass
class PicardReport:
    """Per-sweep diagnostics and final residuals of one coupled solve."""

    delta: float
    horizon: float = 0.0
    iterations: int = 0
    converged: bool = False
    sup_norms_plus: list[float] = field(default_factory=list)
    sup_norms_minus: list[float] = field(default_factory=list)
    triple_norms: list[float] = field(default_factory=list)
    diff_norms: list[float] = field(default_factory=list)
    contraction_factors: list[float] = field(default_factory=list)
    lambda_ratios: list[float] = field(default_factory=list)
    leakages: list[float] = field(default_factory=list)
    confinement_ok: bool = True
    boundary_residual_low: float = 0.0
    boundary_residual_high: float = 0.0
    final_leakage: float = 0.0
    residual_sup: float = 0.0
    band_tail: float = 0.0
    residual_profile: np.ndarray | None = None
    # not serialised: the table and rate bundle for the monitors, the final (plus, minus) norm series
    table: OperatorTable | None = field(default=None, repr=False)
    bundle: NormBundle | None = field(default=None, repr=False)
    carrier_norms: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        """Every serialised field (not ``repr=False``), the profile only when measured."""
        values = {f.name: getattr(self, f.name) for f in fields(self) if f.repr}
        return {
            k: v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in values.items() if v is not None
        }


def _operator_parts(
    grid: Grid1D,
    v_hat: np.ndarray,
    am: np.ndarray,
    aqm: np.ndarray,
    zwm: np.ndarray,
    sym: np.ndarray | None = None,
    *,
    uniform: bool,
    symbols: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    work: np.ndarray | None = None,
) -> tuple[np.ndarray, ...]:
    """Unmasked hats of (Z v, S v), and of S(sym v) given a real symbol ``sym``.

    L = Z + S is the discrete operator on the operator-table rows ``am``,
    ``aqm``, ``zwm``; ``v_hat``, complex, is dealiased in place and then
    overwritten (the caller hands over a fresh block).  S is the stepper's one
    kernel :func:`~schrobvp.stepper.apply_s`, called once for v and once for
    sym v, with the caller's ``symbols`` and complex (2, ...) ``work``
    array (both allocated per call when None).  Z v is one ifft of v and
    one fft of the product, or on a ``uniform`` table (rows constant in x)
    the symbol product on the row's value, with no FFT.
    """
    u = np.multiply(v_hat, grid.dealias_mask, out=v_hat)
    if uniform:
        zv = zwm[:, :1] * u
    else:
        zv = np.fft.fft(zwm * np.fft.ifft(u, axis=-1), axis=-1)
    sv = apply_s(grid, u, am, aqm, uniform, symbols=symbols, work=work)
    if sym is None:
        return zv, sv
    u *= sym   # u is spent: sym u and then S(sym u) take its place, with no block more
    return zv, sv, apply_s(grid, u, am, aqm, uniform, symbols=symbols, out=u, work=work)


def _lambda_rows(
    grid: Grid1D,
    v_hat: np.ndarray,
    table: OperatorTable,
    rows: slice,
    out_p: np.ndarray,
    out_m: np.ndarray,
    symbols: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    work: np.ndarray | None = None,
) -> None:
    """Coupling-source hats of both signs for the summed carrier hats
    ``v_hat`` (complex, overwritten) at the integer nodes ``rows`` of
    ``table``, written to ``out_p`` and ``out_m``.

    Only the P+ branch is evaluated: lambda+ = P+ L v - S(P+ v) and
    lambda- = (Z v)_paired - lambda+.  On dealiased input v_hat has no
    Nyquist mode and v_x no mean mode, so the commutator terms of the two
    signs cancel except at k = 0, which the paired-mode class zeroes anyway.
    ``symbols`` and ``work`` go to ``_operator_parts``.
    """
    mask = grid.dealias_mask.astype(np.float64)
    sym = projection_multiplier(grid, "+").real * mask
    zv, lv, sp = _operator_parts(
        grid, v_hat, *table.rows(rows.start, rows.stop), sym, uniform=table.uniform,
        symbols=symbols, work=work,
    )
    # the 2/3 mask of every product is folded into sym and mask
    lv += zv
    np.multiply(sym, lv, out=out_p)
    sp *= mask
    out_p -= sp
    out_p[..., 0] = 0.0  # paired-mode class
    zv *= mask
    zv[..., 0] = 0.0
    np.subtract(zv, out_p, out=out_m)


def _coupling_pass(
    vp: SpaceTimeField, vm: SpaceTimeField, table: OperatorTable, target: Callable
) -> tuple[np.ndarray, np.ndarray]:
    """Both coupling sources a row block at a time into the views ``target(rows)``,
    and their norm series and max |hat|.  On a uniform constant table the source
    is diagonal in v, with ``_lambda_rows`` of a unit row as its two symbols."""
    _require_pair(vp, vm, table)
    grid = vp.grid
    norms, peaks = np.empty((2, len(vp.times))), np.zeros(2)
    if diagonal := table.uniform and table.constant:
        lambdas = np.empty((2, 1, grid.n), dtype=np.complex128)
        _lambda_rows(grid, np.ones((1, grid.n), dtype=np.complex128), table, slice(0, 1), *lambdas)
    else:
        symbols, work = s_symbols(grid), np.empty((2, chunk_rows(grid.n), grid.n), dtype=np.complex128)
    for rows in row_blocks(len(vp.times), grid.n):
        v_hat = vp.hats[rows] + vm.hats[rows]
        outs = target(rows)
        if diagonal:
            for sym, out in zip(lambdas, outs):
                np.multiply(sym, v_hat, out=out)
        else:
            _lambda_rows(grid, v_hat, table, rows, *outs, symbols, work[:, : rows.stop - rows.start])
        for i, mag in enumerate(np.abs(out) for out in outs):
            peaks[i] = max(peaks[i], np.max(mag))
            norms[i, rows] = power_norm(grid, mag * mag)
        del mag   # not kept beside the next block's kernel
    return norms, peaks


def coupling_stacks(
    vp: SpaceTimeField, vm: SpaceTimeField, table: OperatorTable
) -> tuple[SpaceTimeField, SpaceTimeField, np.ndarray, np.ndarray]:
    """Both coupling-source stacks on the carriers' time grid, then their norm
    series (2, slices) and max |hat| (2,), lambda+ first, measured as written.

    The hats live in one (2, slices, n) buffer in march order: row 0 is
    lambda- on ascending times (the forward carrier's source), row 1 is
    lambda+ on descending times (the backward carrier's).  ``table`` must
    have the carriers' times as its integer nodes, else ConfigError.
    Raises GridMismatchError unless both carriers and the table share one
    grid and the carriers one time grid.
    """
    grid, times = vp.grid, vp.times
    hats = np.empty((2, len(times), grid.n), dtype=np.complex128)
    lam_m, lam_p = hats[0], hats[1, ::-1]
    norms, peaks = _coupling_pass(vp, vm, table, lambda rows: (lam_p[rows], lam_m[rows]))
    return SpaceTimeField(grid, times, hats=lam_p), SpaceTimeField(grid, times, hats=lam_m), norms, peaks


def coupling_norms(
    vp: SpaceTimeField, vm: SpaceTimeField, table: OperatorTable
) -> tuple[np.ndarray, np.ndarray]:
    """Norm series of both coupling sources (lambda+, lambda-) on the carriers' times.

    Bit for bit the ``norm_series()`` of the two ``coupling_stacks``, but
    each block of sources is measured and dropped: no stack is built.  The
    checks and errors are those of ``coupling_stacks``.
    """
    block = np.empty((2, chunk_rows(vp.grid.n), vp.grid.n), dtype=np.complex128)
    norms, _ = _coupling_pass(vp, vm, table, lambda rows: block[:, : rows.stop - rows.start])
    return norms[0], norms[1]


def _require_pair(vp: SpaceTimeField, vm: SpaceTimeField, table: OperatorTable) -> None:
    """The coupling source's input checks: one grid, one time grid, the table on it."""
    if vm.grid != vp.grid or table.grid != vp.grid:
        raise GridMismatchError("carriers and operator table must share one grid")
    if vm.times.shape != vp.times.shape or not np.allclose(vm.times, vp.times):
        raise GridMismatchError("the two carriers must share one time grid")
    table.require(vp.times)


def _check_horizon(p: BvpProblem, bundle: NormBundle) -> None:
    limit = 0.0
    try:
        sel = select_horizon(bundle)
        limit = sel.horizon
    except HorizonError:
        pass
    if p.horizon <= limit * (1 + 1e-12):
        return
    msg = (
        f"horizon {p.horizon:g} exceeds the contraction-admissible limit {limit:g} "
        f"for these coefficients"
    )
    if p.override_horizon:
        warnings.warn(msg + "; proceeding on explicit override", stacklevel=3)
    else:
        raise HorizonError(msg + "; shrink the horizon or set override_horizon=True")


# Cap on the estimated peak memory of one coupled solve (4 GiB), checked
# before the first stack is allocated.
_PEAK_BYTES_CAP = 4 << 30
# Row blocks live at once beside the stacks, at most: the operator kernel's
# fields, products and the fresh output of each FFT, and the work arrays of
# the march plan, which the sweeps keep through the coupling pass.
_PEAK_BLOCKS = 16


def _peak_bytes(n: int, n_steps: int, time_dependent: bool) -> int:
    """Estimated peak bytes of :func:`picard_solve` on ``n`` nodes and ``n_steps`` steps.

    Four (n_steps + 1, n) complex stacks, the half-step operator table, the
    march plan's exponentials and ``_PEAK_BLOCKS`` row blocks; the model is
    documented in picard_solve.
    """
    stack = 16 * n * (n_steps + 1)
    table = OperatorTable.planned_bytes(n, n_steps, constant=not time_dependent, half_steps=True)
    plan = MarchPlan.planned_bytes(n, n_steps, constant=not time_dependent)
    return 4 * stack + table + plan + _PEAK_BLOCKS * 16 * n * chunk_rows(n)


def _require_memory(n: int, n_steps: int, time_dependent: bool) -> None:
    estimate = _peak_bytes(n, n_steps, time_dependent)
    if estimate > _PEAK_BYTES_CAP:
        raise ConfigError(
            f"a solve on n = {n} nodes and {n_steps} steps needs about "
            f"{estimate / 2**20:.0f} MiB at its peak, above the cap of "
            f"{_PEAK_BYTES_CAP / 2**20:.0f} MiB; use fewer nodes or steps"
        )


def picard_solve(
    p: BvpProblem,
    tol: float = 1e-8,
    m_max: int = 50,
    solve_hook: Callable[[str, LinearProblem, SpaceTimeField], None] | None = None,
) -> tuple[SpaceTimeField, SpaceTimeField, PicardReport]:
    """Frozen-source sweeps from the zero pair until the update stalls below tol.

    Returns (plus carrier, minus carrier, report).  Raises ConfigError
    before the first sweep when the time grid is too coarse for the
    residual monitor (fewer than 4 steps) or when the memory model below
    puts the peak above ``_PEAK_BYTES_CAP``, DivergenceError after
    three consecutive non-contracting sweeps; stepper errors propagate.
    ``solve_hook``, when given, observes every linear sub-solve as
    ``(sign, problem, solution)`` right after it finishes, so bound monitors
    can audit the sweep internals without the solver storing them all.
    The solution views the solve's one pair buffer, which the next sweep
    overwrites: a hook that keeps a field past its call keeps a copy
    (``solution.hats.copy()``).  The problem's source is the sweep's own.
    The report carries the solve's operator table and rate bundle
    (``report.table``, ``report.bundle``) for the monitors to read.  Every
    sweep marches through one ``MarchPlan``, built beside the table and
    released with the last sweep's sources, before the residuals.

    Memory model: a stack is one (n_steps + 1, n) complex array.  At most
    four are live at once, in the march of a sweep: the pair buffer and
    the frozen sources.  The march writes each step into the pair buffer
    after measuring the update against the slot it overwrites, so the
    previous pair is never copied; the sources are released before the
    next sweep builds its own, and the last sweep's before the residuals.
    The operator table, the march plan's exponentials (one 2/3-band row per
    step, about a third of a stack: ``MarchPlan.planned_bytes``) and at most
    ``_PEAK_BLOCKS`` row blocks of ``spectral.CHUNK_BYTES`` come on top.
    The blocks are the coupling kernel's (about 7 on ``benchmark``) beside
    the plan's work arrays (about 7 there too), which live through the sweeps;
    ``_peak_bytes`` sums the four terms, and a test holds traced runs to it.
    """
    grid = p.grid
    n_steps = p.stepper_cfg.resolve_steps(p.horizon)
    _require_residual_slices(n_steps + 1)
    _require_memory(grid.n, n_steps, p.coeffs.time_dependent)
    times = np.linspace(0.0, p.horizon, n_steps + 1)
    delta = p.data_norm()
    bundle = norm_bundle(p.coeffs, p.weight.sup_logderiv, times, grid)
    _check_horizon(p, bundle)
    table = OperatorTable(p.coeffs, p.weight, times, half_steps=True)

    report = PicardReport(delta=delta, horizon=p.horizon, table=table, bundle=bundle)
    # the carriers' one buffer, in march order: every sweep overwrites it
    pair = np.zeros((2, n_steps + 1, grid.n), dtype=np.complex128)
    vm = SpaceTimeField(grid, times, hats=pair[0])
    vp = SpaceTimeField(grid, times, hats=pair[1, ::-1])
    update = np.empty(2)
    measure = np.zeros((2, 2, n_steps + 1))   # per row and slot: norm, wrong-side norm
    side = np.stack([projection_multiplier(grid, s).real for s in "+-"])   # P+ of v-, P- of v+
    # every sweep marches the carriers (forward v-, backward v+) through one plan; built
    # before the pair buffer instead, it left a `decoupled` run's peak resident memory
    # about 0.3 MiB higher (heap layout, not live memory)
    plan = MarchPlan(table, p.stepper_cfg, p.horizon, ("forward", "backward"), (True, True))

    prev_diff = None
    streak = 0
    for m in range(1, m_max + 1):
        # release the previous sweep's sources before the next pair is built
        src_p = src_m = prob_m = prob_p = None
        peaks = (None, None)
        if m > 1:
            src_p, src_m, lam_norms, peaks = coupling_stacks(vp, vm, table)
            denom = bundle.coupling_rate * (measure[1, 0, ::-1] + measure[0, 0])   # the pair they read
            keep = denom > 1e-14 * max(delta, 1e-300)
            ratios = np.maximum(lam_norms[0], lam_norms[1])[keep] / denom[keep]
            report.lambda_ratios.append(float(np.max(ratios)) if ratios.size else 0.0)
        prob_m = LinearProblem(
            direction="forward",
            coeffs=p.coeffs,
            weight=p.weight,
            source=src_m,
            datum=p.f,
            horizon=p.horizon,
            zero_mean=True,
            source_peak=peaks[1],
        )
        prob_p = LinearProblem(
            direction="backward",
            coeffs=p.coeffs,
            weight=p.weight,
            source=src_p,
            datum=p.g,
            horizon=p.horizon,
            zero_mean=True,
            source_peak=peaks[0],
        )
        vm, vp = solve_linear(prob_m, p.stepper_cfg, table, partner=prob_p, out=pair, update=update,
                              measure=measure, side=side, plan=plan)
        if solve_hook is not None:
            solve_hook("-", prob_m, vm)
            solve_hook("+", prob_p, vp)
        diff = float(update[1] + update[0])   # plus carrier's sup-norm update + minus carrier's

        sup_p, sup_m = float(np.max(measure[1, 0])), float(np.max(measure[0, 0]))
        report.iterations = m
        report.sup_norms_plus.append(sup_p)
        report.sup_norms_minus.append(sup_m)
        report.triple_norms.append(sup_p + sup_m)
        report.diff_norms.append(diff)
        report.leakages.append(float(np.max(measure[1, 1]) + np.max(measure[0, 1])))
        if sup_p + sup_m > 4.0 * delta * (1 + 1e-9):
            report.confinement_ok = False
        if prev_diff is not None and prev_diff > 0:
            rho = diff / prev_diff
            report.contraction_factors.append(rho)
            streak = streak + 1 if rho >= 1.0 else 0
            if streak >= 3:
                raise DivergenceError(
                    f"no contraction for 3 consecutive sweeps (last factor {rho:.3g}); "
                    f"shrink the horizon"
                )
        prev_diff = diff
        if diff <= tol * delta:
            report.converged = True
            break
    src_p = src_m = prob_m = prob_p = plan = None   # nothing reads the sources or the plan again
    report.carrier_norms = (measure[1, 0, ::-1], measure[0, 0])

    report.boundary_residual_low = _projection_residual(vp, vm, 0, p.f, "-")
    report.boundary_residual_high = _projection_residual(vp, vm, n_steps, p.g, "+")
    report.final_leakage = report.leakages[-1] if report.leakages else 0.0

    total = SpaceTimeField(grid, times, hats=vp.hats + vm.hats)
    profile = pde_residual(total, table)
    report.residual_profile = profile.norms
    report.residual_sup = profile.sup
    report.band_tail = band_tail(total)
    return vp, vm, report


def _projection_residual(
    vp: SpaceTimeField, vm: SpaceTimeField, i: int, datum: SpectralField, sign: str
) -> float:
    """L^2 distance of P_sign of slice ``i`` of the summed carriers from the datum."""
    grid = vp.grid
    sym = projection_multiplier(grid, sign)
    hat = sym * (vp.hats[i] + vm.hats[i]) - dealias_hat(grid, datum.hat)
    return float(hat_norm(grid, hat))


@dataclass(frozen=True)
class AssembledSolution:
    """The carriers and the decay-certified transform w of their sum.

    Only w is stored.  Slices of the total field v and of the unweighted
    solution u are formed from the carriers on each read.
    """

    v_plus: SpaceTimeField
    v_minus: SpaceTimeField
    weight: WeightProfile
    w: SpaceTimeField
    window: np.ndarray
    w_norms: np.ndarray

    def v_slice(self, i: int) -> SpectralField:
        """Slice i of v, the sum of the carriers."""
        return SpectralField.from_hat(self.w.grid, self.v_plus.hats[i] + self.v_minus.hats[i])

    def u_slice(self, i: int) -> SpectralField:
        """Slice i of u = v / weight."""
        v_vals = self.v_plus.slice(i).values + self.v_minus.slice(i).values
        return SpectralField.from_hat(self.w.grid, np.fft.fft(v_vals / self.weight.values))


def assemble_solution(
    v_plus: SpaceTimeField, v_minus: SpaceTimeField, weight: WeightProfile
) -> AssembledSolution:
    """v = sum of carriers; u = v / weight; w = e^(beta x) u on the central window.

    The exponential transform is only evaluated on |x| <= L/2: data are
    supported there, and outside the window a seam-crossing exponential
    would amplify wrap-around garbage.  The hats of w are formed one block
    of physical slices at a time; slices of v and u are formed when read.
    """
    if v_plus.grid != v_minus.grid or v_plus.grid != weight.grid:
        raise GridMismatchError("carriers and weight must share one grid")
    grid = v_plus.grid
    times = v_plus.times
    window = np.abs(grid.x) <= 0.5 * grid.half_length
    w_factor = np.exp(weight.beta * grid.x) / weight.values * window
    w_hats = np.empty((len(times), grid.n), dtype=np.complex128)
    for rows in row_blocks(len(times), grid.n):
        v_vals = v_plus.block(rows) + v_minus.block(rows)
        w_hats[rows] = np.fft.fft(v_vals * w_factor, axis=-1)
    w = SpaceTimeField(grid, times, hats=w_hats)
    return AssembledSolution(
        v_plus=v_plus,
        v_minus=v_minus,
        weight=weight,
        w=w,
        window=window,
        w_norms=w.norm_series(),
    )


@dataclass(frozen=True)
class ResidualProfile:
    times: np.ndarray   # interior slice times
    norms: np.ndarray   # discrete H^{-2} norm of the equation residual
    sup: float


# five-point weights of dv/dt, times 12 dt, by a slice's place in its
# stencil: one-sided next to t = 0, centered, one-sided next to t = horizon
_DDT_WEIGHTS = np.array([
    [-3.0, -10.0, 18.0, -6.0, 1.0],
    [1.0, -8.0, 0.0, 8.0, -1.0],
    [-1.0, 6.0, -18.0, 10.0, 3.0],
]) / 12.0
_RESIDUAL_MIN_SLICES = 5


def _require_residual_slices(count: int) -> None:
    if count < _RESIDUAL_MIN_SLICES:
        raise ConfigError(
            f"the order-4 residual needs at least {_RESIDUAL_MIN_SLICES} time slices "
            f"({_RESIDUAL_MIN_SLICES - 1} steps), got {count}"
        )


def pde_residual(v: SpaceTimeField, table: OperatorTable) -> ResidualProfile:
    """Fourth-order time derivative minus the realized spatial operator.

    dv/dt is the five-point difference (-v[i+2] + 8 v[i+1] - 8 v[i-1] +
    v[i-2]) / (12 dt), with the one-sided order-4 stencils on the two slices
    next to the ends, so the monitor is as accurate in time as the march
    it judges.  The spatial operator is the coupling source's kernel on the
    operator-table rows the solver steps with, projected to the paired-mode
    class, so a converged fixed point leaves only the time-discretization
    error and the artificial-viscosity tail eps xi^4 v (the latter sets the
    floor at fine steps).  Both are taken on hats.  Norms are measured in
    the discrete H^{-2} metric (symbol (1 + xi^2)^{-1}) on the interior
    slices.  ``table`` must have ``v.times`` as its integer nodes, else
    ConfigError.  Raises ConfigError on fewer than 5 slices and
    GridMismatchError when the table lives on another grid.
    """
    _require_residual_slices(len(v.times))
    grid = v.grid
    if table.grid != grid:
        raise GridMismatchError("field and operator table must share one grid")
    table.require(v.times)
    mask = grid.dealias_mask
    jm2 = 1.0 / (1.0 + grid.xi**2)
    last = len(v.times) - 1
    norms = np.empty(last - 1)
    symbols, work = s_symbols(grid), np.empty((2, chunk_rows(grid.n), grid.n), dtype=np.complex128)
    for rows in row_blocks(len(norms), grid.n):
        first, stop = rows.start + 1, rows.stop + 1     # interior slices first..stop-1
        start = np.clip(np.arange(first - 2, stop - 2), 0, last - 4)   # stencil first nodes
        weights = _DDT_WEIGHTS[np.arange(first, stop) - start - 1]
        lo = int(start[0])
        hats = v.hats[lo : int(start[-1]) + 5]
        dvdt = weights[:, 0, None] * hats[start - lo]
        for m in range(1, 5):
            dvdt += weights[:, m, None] * hats[start - lo + m]
        zv, r = _operator_parts(
            grid, hats[first - lo : stop - lo].copy(), *table.rows(first, stop), uniform=table.uniform,
            symbols=symbols, work=work[:, : stop - first],
        )
        r += zv
        r *= mask
        r[:, 0] = 0.0
        # r = (dv/dt - L v) hat, with the time difference dealiased like L v
        np.subtract(dvdt * (mask / v.dt), r, out=r)
        r *= jm2
        norms[rows] = hat_norm(grid, r)
    return ResidualProfile(times=v.times[1:-1], norms=norms, sup=float(np.max(norms)))


def band_tail(v: SpaceTimeField) -> float:
    """Resolution indicator: max over slices of the L^2 share of the band's top fifth.

    Per slice, sqrt(sum |v hat|^2 over 0.8 kmax < |k| <= kmax / sum over the
    2/3 band |k| <= kmax), 0 for a slice with no mass in the band; read one
    block of slices at a time.  The residual cannot see spatial error; this can.
    """
    grid = v.grid
    k = np.abs(grid.k_index)
    top = grid.dealias_mask & (k > 0.8 * np.max(k[grid.dealias_mask]))
    worst = 0.0
    for rows in row_blocks(len(v.times), grid.n):
        power = np.abs(v.hats[rows]) ** 2
        mass = np.sum(power, axis=-1, where=grid.dealias_mask)
        tail = np.sum(power, axis=-1, where=top)
        share = np.divide(tail, mass, out=np.zeros_like(tail), where=mass > 0)
        worst = max(worst, float(np.sqrt(np.max(share))))
    return worst
