"""Numerical monitors for the solver's a-priori inequalities.

Each monitor computes both sides of one estimate on stored space-time
fields and reports the measured ratio.  The fields hold Fourier
coefficients, which the monitors read through the multipliers of
:mod:`spectral`; physical values are built only where a product with
a(x, t) needs them, one block at a time with a's rows read from the run's
one `OperatorTable` (a is never evaluated).  The table is the monitors'
one source of the operator: the weight (q, its sup and beta) and the
coefficient field (the floor lambda and a_x) come from it too.  Norms
and pairings of hats come from Parseval.  Constants the theory leaves implicit are reported as
measured values, never assumed; verdicts allow the ratio a slack ``_SLACK``.

The three monitors:

* ``energy_monitor``: sup-norm plus weighted half-derivative smoothing
  term for a single carrier against three times the data norm amplified
  by the exponential of the integrated energy rate.  The rate comes from
  the coupled solve's own `NormBundle`; the carriers' sources enter
  only through their norm series, measured block by block on its
  `OperatorTable`.  The monitors build neither object and no source stack.
* ``weighted_smoothing_monitor``: the half-derivative space-time
  integral of the exponentially weighted pair against the endpoint data
  quadratic form; reports the implied constant.
* ``bootstrap_diagnostics``: the half-derivative-of-half-derivative
  level; pairing identities, interior-time witnesses, and the absorbed
  smoothing inequality that starts the regularity bootstrap, with its
  hypothesis on a's derivatives read from the same `NormBundle`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coefficients import NormBundle
from .errors import ValidationError
from .spectral import (
    Grid1D,
    SpaceTimeField,
    SpectralField,
    derivative_multiplier,
    fractional,
    fractional_multiplier,
    hat_norm,
    hilbert_multiplier,
    lp_norm,
    projection_multiplier,
    row_blocks,
    same_time_grid,
)
from .stepper import OperatorTable

__all__ = [
    "EstimateReport",
    "energy_monitor",
    "weighted_smoothing_monitor",
    "bootstrap_diagnostics",
]

_SLACK = 0.05            # a verdict passes with ratio <= 1 + _SLACK
_CHAIN_CONSTANT = 1.0    # the commutator chain term's constant, in the bootstrap
_CHAIN_Q, _CHAIN_DELTA = 2.0, 0.6   # its norm ||J^delta a_x||_q: delta > 1/q and delta > 1 - 1/q


@dataclass
class EstimateReport:
    """Measured two-sided comparison for one inequality."""

    name: str
    lhs: float
    rhs: float
    ratio: float
    constants: dict = field(default_factory=dict)
    verdict: str = "pass"
    notes: str = ""

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "ratio": float(self.ratio),
            "verdict": self.verdict,
            "slack": _SLACK,
            "notes": self.notes,
            "constants": {},
        }
        for key, val in self.constants.items():
            if isinstance(val, (list, tuple, np.ndarray)):
                out["constants"][key] = [float(x) for x in np.asarray(val).ravel()]
            elif isinstance(val, (bool, np.bool_)):
                out["constants"][key] = bool(val)
            elif isinstance(val, str):
                out["constants"][key] = val
            else:
                out["constants"][key] = float(val)
        return out


def _weighted_halfderiv_integral(
    v: SpaceTimeField,
    table: OperatorTable,
    side: np.ndarray | float = 1.0,
    factor: np.ndarray | float = 1.0,
    first: int = 0,
) -> float:
    """Trapezoid in t of int a(x,t) * factor(x) * |D^{1/2} side v|^2 dx, read in hat blocks;
    ``side`` is a frequency mask, and slice k reads a at table node ``first + k``."""
    grid = v.grid
    mult = side * fractional_multiplier(grid, 0.5).real
    per_slice = np.empty(len(v.times))
    for rows in row_blocks(len(v.times), grid.n):
        half = np.fft.ifft(mult * v.hats[rows], axis=-1)
        aval = table.rows(first + rows.start, first + rows.stop)[0]
        per_slice[rows] = grid.dx * np.sum(aval * factor * np.abs(half) ** 2, axis=1)
    return float(np.trapezoid(per_slice, v.times))


def energy_monitor(
    v: SpaceTimeField, source_norms: np.ndarray | None, sign: str, table: OperatorTable, bundle: NormBundle
) -> EstimateReport:
    """Sup norm plus twice the root of the weighted smoothing integral,
    against 3 * (endpoint data + integrated source) * exp(4 * int c).

    ``sign`` selects which endpoint carries the datum: "-" reads it at
    t = 0, "+" at the final time.  ``source_norms`` is the L^2 norm series
    of the carrier's source on ``v.times`` (``None`` without a source); a
    coupled run measures it block by block with ``picard.coupling_norms``,
    so no source stack is built.  ``bundle`` holds the rate c on
    ``v.times``, sampled with the weight's measured sup log-derivative; a
    coupled run passes the solve's own (``PicardReport.bundle``) and table,
    whose every a row must give a q >= 0 with q its weight's log-derivative.
    Raises ValidationError when the bundle or the norm series is off
    ``v.times``, ConfigError when the table is.
    """
    if sign not in ("+", "-"):
        raise ValidationError("sign must be '+' or '-'")
    if not same_time_grid(bundle.times, v.times):
        raise ValidationError("rate bundle and field must share one time grid")
    table.require(v.times)

    weight = table.weight
    factor = weight.logderiv
    neg = min(float(np.min(table.a[rows] * factor)) for rows in row_blocks(len(table.a), v.grid.n))
    if neg < -1e-12:
        raise ValidationError(
            f"coefficient times log-derivative dips to {neg:.3e}; "
            "the smoothing integrand must be nonnegative"
        )

    norms = v.norm_series()
    sup_norm = float(np.max(norms))
    smoothing = max(0.0, _weighted_halfderiv_integral(v, table, factor=factor))
    lhs = sup_norm + 2.0 * np.sqrt(smoothing)

    data_norm = norms[0] if sign == "-" else norms[-1]
    if source_norms is None:
        source_integral = 0.0
    else:
        if np.shape(source_norms) != v.times.shape:
            raise ValidationError(
                f"source norm series of shape {np.shape(source_norms)} is not on the "
                f"field's {len(v.times)} times"
            )
        source_integral = float(np.trapezoid(source_norms, v.times))

    rate_integral = float(bundle.energy_integral[-1])
    rhs = 3.0 * (data_norm + source_integral) * np.exp(4.0 * rate_integral)

    if rhs > 0.0:
        ratio = lhs / rhs
    else:
        ratio = 0.0 if lhs == 0.0 else np.inf
    return EstimateReport(
        name=f"energy[{sign}]",
        lhs=lhs,
        rhs=rhs,
        ratio=ratio,
        constants={
            "sup_norm": sup_norm,
            "smoothing_integral": smoothing,
            "data_norm": data_norm,
            "source_integral": source_integral,
            "rate_integral": rate_integral,
            "sup_logderiv": weight.sup_logderiv,
        },
        verdict="pass" if ratio <= 1.0 + _SLACK else "fail",
    )


def _support_check(w: SpaceTimeField) -> None:
    """Reject a field with over 1% of its mass in the outer decade of the
    domain, |x| > 0.9 L; one inverse FFT per block."""
    grid = w.grid
    shell = np.abs(grid.x) > 0.9 * grid.half_length
    total = outer = 0.0
    for rows in row_blocks(len(w.times), grid.n):
        mass = np.abs(w.block(rows)) ** 2
        total += np.sum(mass)
        outer += np.sum(mass[:, shell])
    if total > 0 and outer > 1e-2 * total:
        raise ValidationError(
            "support window violated: the weighted field carries "
            f"{outer / total:.2%} of its mass in the outer decade of the domain"
        )


def weighted_smoothing_monitor(w: SpaceTimeField, table: OperatorTable) -> EstimateReport:
    """beta * int int a (|D^{1/2}w+|^2 + |D^{1/2}w-|^2) against the
    endpoint quadratic form; the quotient is the implied constant.

    w+ and w- are the P+ and P- parts of ``w``, formed one block of slices
    at a time, so the monitor holds no stack beside ``w``; a comes from
    ``table`` on ``w.times`` (else ConfigError), and beta from its weight.
    With no a-priori constant, the verdict only checks finiteness;
    ``implied_c``'s stability under refinement is the caller's cross-run
    check.
    """
    grid = w.grid
    beta = table.weight.beta
    if beta <= 0:
        raise ValidationError("beta must be positive")
    table.require(w.times)
    sym_p = projection_multiplier(grid, "+")
    sym_m = projection_multiplier(grid, "-")
    _support_check(w)

    lhs = beta * (
        _weighted_halfderiv_integral(w, table, sym_p)
        + _weighted_halfderiv_integral(w, table, sym_m)
    )
    lhs = max(0.0, lhs)
    rhs_form = (
        SpectralField.from_hat(grid, sym_m * w.hats[0]).norm_l2() ** 2
        + SpectralField.from_hat(grid, sym_p * w.hats[-1]).norm_l2() ** 2
    )
    implied_c = lhs / rhs_form if rhs_form > 0 else 0.0
    verdict = "pass" if np.isfinite(lhs) and (rhs_form > 0 or lhs == 0.0) else "fail"
    return EstimateReport(
        name="weighted-smoothing",
        lhs=lhs,
        rhs=rhs_form,
        ratio=implied_c,
        constants={"implied_c": implied_c, "beta": beta},
        verdict=verdict,
        notes="ratio is the measured constant, not a bound check",
    )


def _hat_pairing(grid: Grid1D, f_hat: np.ndarray, g_hat: np.ndarray) -> float:
    """|sum f conj(g) dx| of two slices given by their hats (Parseval)."""
    return abs(grid.dx / grid.n * np.sum(f_hat * np.conj(g_hat)))


def _half_comm(half: np.ndarray, b: np.ndarray, g: np.ndarray) -> np.ndarray:
    """[D^{1/2}; b] g with plain grid products; ``half`` is the |xi|^{1/2} symbol.

    Both terms are computed the same way, so a constant b gives exactly 0.
    """
    half_of_product = np.fft.ifft(half * np.fft.fft(b * g))
    return half_of_product - b * np.fft.ifft(half * np.fft.fft(g))


def _interior_witness(
    times: np.ndarray, z_norms: np.ndarray, lo: float, hi: float
) -> tuple[int, float]:
    """Index and norm of the smallest-norm stored slice strictly inside
    (lo, hi); falls back to the slice nearest the interval midpoint."""
    inside = np.nonzero((times > lo) & (times < hi))[0]
    if len(inside) == 0:
        idx = int(np.argmin(np.abs(times - 0.5 * (lo + hi))))
        return idx, float(z_norms[idx])
    best = inside[np.argmin(z_norms[inside])]
    return int(best), float(z_norms[best])


def bootstrap_diagnostics(w: SpaceTimeField, table: OperatorTable, bundle: NormBundle) -> EstimateReport:
    """Half-derivative-level diagnostics on the weighted solution.

    Computes s = D^{1/2}w, verifies the derivative factorization
    d/dx = D^{1/2} H D^{1/2} on a stored slice, evaluates both displayed
    pairings (the commutator against s and against its half derivative)
    at sampled interior times together with their reduction identities,
    and checks the absorbed smoothing inequality

        beta * lam * int int |D^{1/2}s|^2
            <= beta * int int a (|D^{1/2}s+|^2 + |D^{1/2}s-|^2),

    reporting the implied data constant after subtracting the measured
    commutator contribution.  Everything but the field comes from ``table``
    and ``bundle``, which must sit on ``w.times`` (else ConfigError and
    ValidationError), checked first, whatever lam: lam is the floor of the
    table's ``coeffs``, and lam = 0 returns a not-applicable report (a
    hypothesis of the theory's smoothness half only); beta is its weight's.
    a comes from ``table``, and the hypothesis's need, sup <x>|a_x| +
    sup <x>|a_xx| over every time, from ``bundle``, :func:`norm_bundle`'s;
    ``table.coeffs`` is evaluated only for a_x at the three pairing slices.
    """
    table.require(w.times)
    if not same_time_grid(bundle.times, w.times):
        raise ValidationError("rate bundle and field must share one time grid")
    coeffs, beta = table.coeffs, table.weight.beta
    lam = coeffs.ellipticity
    if lam <= 0.0:
        return EstimateReport(
            name="bootstrap",
            lhs=0.0,
            rhs=0.0,
            ratio=0.0,
            verdict="not-applicable",
            notes="lam = 0: smoothing hypothesis absent, diagnostics skipped",
        )
    grid = w.grid
    times = w.times
    horizon = float(times[-1])
    half = fractional_multiplier(grid, 0.5).real
    hil = hilbert_multiplier(grid)
    deriv = derivative_multiplier(grid) * (hil != 0)   # d/dx on the paired modes
    pos = projection_multiplier(grid, "+").real
    # The negative side keeps the Nyquist mode that P- drops: |D^{1/2} z|^2 on
    # the left counts that mode, so the two sides must cover it too.
    neg = (grid.xi < 0).astype(float)

    z_hats = half * w.hats
    z_norms = SpaceTimeField(grid, times, hats=z_hats).norm_series()

    scale = float(np.max(z_norms))
    if scale == 0.0:
        return EstimateReport(
            name="bootstrap",
            lhs=0.0,
            rhs=0.0,
            ratio=0.0,
            constants={"beta_lam": beta * lam},
            verdict="pass",
            notes="zero field",
        )

    # derivative factorization d/dx = D^{1/2} H D^{1/2} on the middle slice
    mid = len(times) // 2
    direct = deriv * w.hats[mid]
    factored = half * hil * z_hats[mid]
    fact_err = float(
        np.max(np.abs(direct - factored)) / max(np.max(np.abs(direct)), 1e-300)
    )

    a_min = float(np.min(table.a))
    if a_min < lam - 1e-12:
        raise ValidationError(
            f"coefficient dips to {a_min:.6g}, below the assumed floor {lam}"
        )

    # interior-time witnesses for eps in {T/10, T/20}
    witnesses = {}
    for frac in (0.1, 0.05):
        eps = frac * horizon
        i0, n0 = _interior_witness(times, z_norms, 0.0, eps)
        i1, n1 = _interior_witness(times, z_norms, horizon - eps, horizon)
        witnesses[frac] = (i0, n0, i1, n1)
    i0, z0, i1, z1 = witnesses[0.1]

    # pairing checks at three interior slices
    sample_idx = sorted({i0, mid, i1})
    a_rows = [table.rows(i, i + 1)[0][0] for i in sample_idx]
    grad_rows = coeffs.a_x(grid.x, times[sample_idx, None])
    grad_sup = 0.0
    pair_ratio_20 = 0.0
    pair_ratio_21 = 0.0
    ident_err = fact_err
    for i, a_here, grad in zip(sample_idx, a_rows, grad_rows):
        grad_q = lp_norm(fractional(SpectralField(grid, grad), _CHAIN_DELTA, kind="J"), _CHAIN_Q)
        grad_sup = max(grad_sup, grad_q)

        z_hat = z_hats[i]
        dz_norm = float(hat_norm(grid, half * z_hat))
        half_hz = np.fft.ifft(half * hil * z_hat)
        core_hat = np.fft.fft(_half_comm(half, a_here, half_hz))
        wx = np.fft.ifft(deriv * w.hats[i])
        comm_wx_hat = np.fft.fft(_half_comm(half, a_here, wx))

        for sym in (pos, neg):
            z_side_hat = sym * z_hat
            z_side_norm = float(hat_norm(grid, z_side_hat))
            if z_side_norm == 0.0:
                continue

            lhs20 = _hat_pairing(grid, sym * comm_wx_hat, z_side_hat)
            red20 = _hat_pairing(grid, core_hat, z_side_hat)
            ident_err = max(
                ident_err,
                abs(lhs20 - red20) / max(scale**2, 1e-300),
            )
            pair_ratio_20 = max(
                pair_ratio_20,
                lhs20 / max(grad_q * z_norms[i] * z_side_norm, 1e-300),
            )

            lhs21 = _hat_pairing(grid, sym * deriv * comm_wx_hat, z_side_hat)
            red21 = _hat_pairing(grid, half * core_hat, half * hil * z_side_hat)
            dz_side = float(hat_norm(grid, half * z_side_hat))
            ident_err = max(
                ident_err,
                abs(lhs21 - red21) / max(scale**2 * grid.xi_max, 1e-300),
            )
            pair_ratio_21 = max(
                pair_ratio_21,
                lhs21 / max(grad_q * dz_norm * dz_side, 1e-300),
            )

    # absorbed smoothing inequality on the interior interval
    keep = slice(i0, i1 + 1)
    z_keep = SpaceTimeField(grid, times[keep], hats=z_hats[keep])
    total_integral = float(np.trapezoid(z_keep.norm_series(half) ** 2, times[keep]))
    lhs_abs = beta * lam * total_integral
    mid_val = beta * sum(
        _weighted_halfderiv_integral(z_keep, table, side, first=i0) for side in (pos, neg)
    )
    chain_term = _CHAIN_CONSTANT * grad_sup * total_integral
    implied_c0 = mid_val - chain_term

    ratio = lhs_abs / mid_val if mid_val > 0 else (0.0 if lhs_abs == 0.0 else np.inf)

    hyp_need = float(np.max(bundle.hypothesis_need))
    hypothesis_margin = beta * lam - _CHAIN_CONSTANT * hyp_need

    ok = (
        ratio <= 1.0 + _SLACK
        and fact_err <= 1e-12
        and ident_err <= 1e-8
        and np.isfinite(lhs_abs)
    )
    return EstimateReport(
        name="bootstrap",
        lhs=lhs_abs,
        rhs=mid_val,
        ratio=ratio,
        constants={
            "factorization_error": fact_err,
            "pairing_identity_error": ident_err,
            "pairing_ratio_low": pair_ratio_20,
            "pairing_ratio_high": pair_ratio_21,
            "interior_index_low": i0,
            "interior_index_high": i1,
            "interior_norm_low": z0,
            "interior_norm_high": z1,
            "interior_norm_low_fine": witnesses[0.05][1],
            "interior_norm_high_fine": witnesses[0.05][3],
            "implied_data_constant": implied_c0,
            "chain_term": chain_term,
            "grad_bessel_sup": grad_sup,
            "beta_lam": beta * lam,
            "hypothesis_need": hyp_need,
            "hypothesis_margin": hypothesis_margin,
            "hypothesis_ok": hypothesis_margin >= 0.0,
        },
        verdict="pass" if ok else "fail",
    )
