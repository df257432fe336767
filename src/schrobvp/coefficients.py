"""Coefficient pair (a, W): hypothesis checks, rate functions, horizon, drift index.

The dispersive coefficient a(x, t) and the potential W(x, t) enter as
expression strings over x and t (grammar: + - * / ^, exp, sin, cos, sech, tanh,
real literals; I in W and drift only), parsed with ``ast`` and checked node by
node, never run as Python.  x-derivatives of a are exact, by the chain rule on
the checked tree, so no periodic-seam artifacts enter the rate functions.

Three derived quantities drive the solver:

* a sup-norm bundle along a time grid (the coupling rate combining up to
  two derivatives of a with the potential, and the energy rate combining
  a with bracket-weighted derivatives),
* the solve horizon: the largest grid time satisfying the contraction
  budget 3 * exp(4 * int c) * 2 * int K <= 1/2 together with int K <= 1/8,
* the drift well-posedness index: the running sup over starting points,
  directions, and radii of the imaginary part of the integrated drift
  field, whose linear growth is the classical obstruction to solving the
  weighted problem as a forward evolution.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, HorizonError, ValidationError
from .spectral import Grid1D, SpectralField, row_blocks

__all__ = [
    "CoefficientField",
    "NormBundle",
    "HorizonSelection",
    "MizohataReport",
    "norm_bundle",
    "select_horizon",
    "mizohata_index",
    "drift_samples",
]

_FUNCTIONS = ("exp", "sin", "cos", "sech", "tanh")
_OPERATOR_NODES = (ast.BinOp, ast.UnaryOp, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.UAdd, ast.USub)
_NAMESPACE = {"__builtins__": {}, "exp": np.exp, "sin": np.sin, "cos": np.cos, "tanh": np.tanh,
              "sech": lambda z: 1.0 / np.cosh(z), "log": np.log, "I": 1j}  # log: derivative trees only
_RULES = {  # x-derivative templates over the operands u, v and their x-derivatives du, dv
    "exp": "exp(u)*du", "sin": "cos(u)*du", "cos": "-sin(u)*du", "sech": "-sech(u)*tanh(u)*du",
    "tanh": "sech(u)**2*du", "log": "du/u", ast.UAdd: "du", ast.USub: "-du",
    ast.Add: "du + dv", ast.Sub: "du - dv", ast.Mult: "v*du + u*dv", ast.Div: "(v*du - u*dv)/v**2",
    ast.Pow: "v*u**(v - 1)*du", "u**v": "u**v*(log(u)*dv + v*du/u)",  # u**v: x in the exponent
}


def _in_grammar(node: ast.AST) -> bool:
    if isinstance(node, ast.Call):
        return (isinstance(node.func, ast.Name) and node.func.id in _FUNCTIONS and len(node.args) == 1
                and not node.keywords and _in_grammar(node.args[0]))
    if isinstance(node, ast.Name):
        return node.id in ("x", "t", "I")
    if isinstance(node, ast.Constant):
        return type(node.value) in (int, float)
    return isinstance(node, _OPERATOR_NODES) and all(map(_in_grammar, ast.iter_child_nodes(node)))


def _parse(value: object, what: str) -> ast.expr:
    """Checked tree of an expression string or a number, with its literals as floats."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ConfigError(f"{what} must be an expression string or a number, got {value!r}")
    text = str(value)
    try:
        body = ast.parse(text.replace("^", "**"), mode="eval").body
        for node in ast.walk(body):
            if isinstance(node, ast.Constant) and type(node.value) is int:
                node.value = float(node.value)  # so 9^9^9 overflows instead of growing a big int
    except (SyntaxError, ValueError, OverflowError) as exc:
        raise ConfigError(f"could not parse {what} expression {text!r}: {exc}") from None
    if not _in_grammar(body):
        raise ConfigError(f"{what} expression {text!r} is outside the coefficient grammar (see README)")
    return body


def _names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _fill(node: ast.expr, parts: dict) -> ast.expr | None:
    """A rule template filled from ``parts``, where None is the zero tree; zero terms
    and factors, and right factors and exponents of 1, are pruned."""
    if isinstance(node, ast.Name):
        return parts.get(node.id, node)
    if isinstance(node, ast.Call):
        return ast.Call(node.func, [_fill(node.args[0], parts)], [])
    if isinstance(node, ast.UnaryOp):
        operand = _fill(node.operand, parts)
        return None if operand is None else ast.UnaryOp(node.op, operand)
    if not isinstance(node, ast.BinOp):
        return node
    a, op, b = _fill(node.left, parts), node.op, _fill(node.right, parts)
    if isinstance(op, (ast.Add, ast.Sub)) and (a is None or b is None):
        return a if b is None else b if isinstance(op, ast.Add) else ast.UnaryOp(ast.USub(), b)
    if a is None or b is None:
        return None
    if isinstance(op, ast.Sub) and isinstance(a, ast.Constant) and isinstance(b, ast.Constant):
        return ast.Constant(a.value - b.value)  # such as a constant exponent n - 1
    b_one = isinstance(b, ast.Constant) and b.value == 1.0  # rules keep du and dv on the right
    return a if b_one and isinstance(op, (ast.Mult, ast.Pow)) else ast.BinOp(a, op, b)


def _diff_x(node: ast.expr | None) -> ast.expr | None:
    """Tree of the x-derivative by the chain rule, or None when ``node`` has no x."""
    if not isinstance(node, (ast.Call, ast.UnaryOp, ast.BinOp)):  # a literal or a name
        return ast.Constant(1.0) if isinstance(node, ast.Name) and node.id == "x" else None
    if isinstance(node, ast.BinOp):
        rule, u, v = type(node.op), node.left, node.right
    else:  # f(u) or a sign
        rule = node.func.id if isinstance(node, ast.Call) else type(node.op)
        u, v = node.args[0] if isinstance(node, ast.Call) else node.operand, None
    parts = {"u": u, "v": v, "du": _diff_x(u), "dv": _diff_x(v)}
    if rule is ast.Pow and parts["dv"] is not None:
        rule = "u**v"
    return _fill(ast.parse(_RULES[rule], mode="eval").body, parts)


def _eval(code, x: np.ndarray, t) -> np.ndarray:
    """Samples on the broadcast of ``x`` and ``t`` (a column of times gives one row each)."""
    t = np.asarray(t, dtype=np.float64)
    with np.errstate(all="ignore"):
        out = eval(code, _NAMESPACE, {"x": x, "t": t})  # a checked tree: grammar names only
    return np.broadcast_to(out, np.broadcast_shapes(np.shape(x), t.shape))


def _compile(tree: ast.expr | None, text: str, what: str):
    """Code of a checked tree (None is zero), run once at x = t = 0 to fail early."""
    code = compile(ast.fix_missing_locations(ast.Expression(tree or ast.Constant(0.0))), what, "eval")
    try:
        _eval(code, np.zeros(1), 0.0)
    except ArithmeticError as exc:
        raise ConfigError(f"{what} expression {text!r} cannot be evaluated: {exc}") from None
    return code


class CoefficientField:
    """Dispersive coefficient a and potential W with x-derivatives of a by the chain rule.

    ``ellipticity`` is the required pointwise floor for a (may be 0).  The
    evaluators take a scalar time or a column of times, ``t[:, None]``,
    which gives one row per time.  A result may be a read-only view of
    the evaluation (a broadcast constant, say): callers copy before writing.
    """

    def __init__(self, a, W, ellipticity: float = 0.0) -> None:
        if not 0.0 <= ellipticity < math.inf:   # NaN fails the comparison too
            raise ConfigError(f"ellipticity floor lambda must be finite and >= 0, got {ellipticity}")
        a_tree = _parse(a, "dispersive coefficient")
        w_tree = _parse(W, "potential")
        if "I" in _names(a_tree):
            raise ValidationError("dispersive coefficient must be real-valued")
        self.a_expr, self.w_expr = str(a), str(W)
        self.ellipticity = float(ellipticity)
        self.time_dependent = "t" in _names(a_tree) | _names(w_tree)
        a_x = _diff_x(a_tree)
        self._a, self._a_x, self._a_xx = (_compile(tree, self.a_expr, "dispersive coefficient")
                                          for tree in (a_tree, a_x, _diff_x(a_x)))
        self._w = _compile(w_tree, self.w_expr, "potential")

    def a_values(self, x: np.ndarray, t) -> np.ndarray:
        arr = _eval(self._a, x, t)
        if np.iscomplexobj(arr) and np.max(np.abs(arr.imag)) > 1e-12 * max(1.0, np.max(np.abs(arr))):
            raise ValidationError("dispersive coefficient is not real on the sampled grid")
        return arr.real.astype(np.float64, copy=False)

    def a_x(self, x: np.ndarray, t) -> np.ndarray:
        return _eval(self._a_x, x, t).real.astype(np.float64, copy=False)

    def a_xx(self, x: np.ndarray, t) -> np.ndarray:
        return _eval(self._a_xx, x, t).real.astype(np.float64, copy=False)

    def w_values(self, x: np.ndarray, t) -> np.ndarray:
        return _eval(self._w, x, t).astype(np.complex128, copy=False)

    def __repr__(self) -> str:
        return f"CoefficientField(a={self.a_expr}, W={self.w_expr}, ellipticity={self.ellipticity})"


@dataclass(frozen=True)
class NormBundle:
    """Sup-norm samples and their running time integrals along a time grid."""

    times: np.ndarray
    coupling_rate: np.ndarray       # K(t): two-derivative budget of a plus the potential
    energy_rate: np.ndarray         # c(t): a plus bracket-weighted first/second derivatives
    coupling_integral: np.ndarray   # running trapezoid of coupling_rate from times[0]
    energy_integral: np.ndarray     # running trapezoid of energy_rate

    @classmethod
    def from_rates(cls, times: np.ndarray, coupling_rate: np.ndarray, energy_rate: np.ndarray) -> NormBundle:
        """The bundle of rate samples on ``times``, with their running integrals from times[0]."""
        return cls(times, coupling_rate, energy_rate,
                   _running_trapezoid(times, coupling_rate), _running_trapezoid(times, energy_rate))


def _running_trapezoid(times: np.ndarray, samples: np.ndarray) -> np.ndarray:
    inc = 0.5 * (samples[1:] + samples[:-1]) * np.diff(times)
    return np.concatenate([[0.0], np.cumsum(inc)])


def norm_bundle(coeffs: CoefficientField, beta: float, times: np.ndarray, grid: Grid1D) -> NormBundle:
    """Sample the rate functions on ``times`` x ``grid`` and integrate them.

    Also enforces the standing hypotheses: a real with a >= ellipticity
    everywhere sampled, and every sampled sup norm finite.
    """
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or len(times) < 2 or np.any(np.diff(times) <= 0):
        raise ConfigError("time grid must be strictly increasing with at least two points")
    bracket = np.sqrt(1.0 + grid.x**2)
    a_sup, a1_sup, a2_sup, xa1_sup, xa2_sup, w_sup = np.empty((6, len(times)))
    for rows in row_blocks(len(times), grid.n):
        ts = times[rows, None]
        a = coeffs.a_values(grid.x, ts)
        mags = [np.abs(a)] + [np.abs(f(grid.x, ts)) for f in (coeffs.a_x, coeffs.a_xx, coeffs.w_values)]
        sups = [np.max(m, axis=1) for m in mags]
        # a NaN or an infinite sample makes its row's sup non-finite
        for name, sup in zip(("a", "a_x", "a_xx", "W"), sups):
            bad = ~np.isfinite(sup)
            if np.any(bad):
                raise ValidationError(f"{name} is not finite at t={ts[np.argmax(bad), 0]:g}")
        a_min = np.min(a, axis=1)
        low = a_min < coeffs.ellipticity - 1e-12
        if np.any(low):
            i = int(np.argmax(low))
            raise ValidationError(
                f"dispersive coefficient dips to {a_min[i]:.6g} below the floor "
                f"{coeffs.ellipticity:g} at t={ts[i, 0]:g}"
            )
        a_sup[rows], a1_sup[rows], a2_sup[rows], w_sup[rows] = sups
        xa1_sup[rows] = np.max(bracket * mags[1], axis=1)
        xa2_sup[rows] = np.max(bracket * mags[2], axis=1)
    K = (a2_sup + beta * a1_sup + beta**2 * a_sup) + a_sup + w_sup
    c = a_sup + (1.0 + beta) * xa1_sup + beta * xa2_sup
    return NormBundle.from_rates(times, K, c)


@dataclass(frozen=True)
class HorizonSelection:
    horizon: float
    index: int
    coupling_integral: float      # int_0^T of the coupling rate
    energy_integral: float        # int_0^T of the energy rate
    contraction_product: float    # 3 exp(4 int c) * 2 int K, must be <= 1/2


def select_horizon(bundle: NormBundle) -> HorizonSelection:
    """Largest grid time satisfying the contraction budget.

    The budget is 3 * exp(4 * int_0^T c) * 2 * int_0^T K <= 1/2 together
    with int_0^T K <= 1/8; the first factor is exactly what makes the
    fixed-point iteration close with ratio < 1 and solution bound 4 times
    the data size.  (The literal form exp(4 int c) <= 2/3 can never hold,
    since int c >= 0, so it is not used.)  The budget does not read the
    data: their size delta is the Picard report's.
    """
    if abs(bundle.times[0]) > 1e-15:
        raise ConfigError("horizon selection needs a time grid starting at 0")
    IK = bundle.coupling_integral
    Ic = bundle.energy_integral
    with np.errstate(over="ignore"):  # exp(4 int c) = inf fails the cap, as it should
        product = 3.0 * np.exp(4.0 * Ic) * 2.0 * IK
    ok = (product <= 0.5) & (IK <= 0.125) & (bundle.times > bundle.times[0])
    if not np.any(ok):
        j = 1 if len(bundle.times) > 1 else 0
        raise HorizonError(
            "no admissible horizon: at the first positive grid time "
            f"T={bundle.times[j]:.6g} the integrals are int K={IK[j]:.6g} (cap 0.125) "
            f"and 3 exp(4 int c) 2 int K={product[j]:.6g} (cap 0.5)"
        )
    idx = int(np.max(np.nonzero(ok)[0]))
    return HorizonSelection(
        horizon=float(bundle.times[idx]),
        index=idx,
        coupling_integral=float(IK[idx]),
        energy_integral=float(Ic[idx]),
        contraction_product=float(product[idx]),
    )


@dataclass(frozen=True)
class MizohataReport:
    sup_value: float
    verdict: str            # "bounded" or "diverging"
    growth_slope: float     # linear-fit slope of the running sup over the last decade of R
    radii: np.ndarray
    running_sup: np.ndarray


def _window_maxima(vals: np.ndarray, segments: int, dx: float) -> np.ndarray:
    """max over starting nodes of |trapezoid integral over j segments|, for j = 0..segments."""
    n = len(vals)
    ext = np.concatenate([vals, vals])
    prefix = np.concatenate([[0.0], np.cumsum(ext)])
    j = np.arange(segments + 1)[None, :]
    best = np.zeros(segments + 1)
    for i0 in range(0, n, 512):
        i = np.arange(i0, min(i0 + 512, n))[:, None]
        sums = prefix[i + j + 1] - prefix[i]
        trap = dx * (sums - 0.5 * (ext[i] + ext[i + j]))
        trap[:, 0] = 0.0
        np.maximum(best, np.max(np.abs(trap), axis=0), out=best)
    return best


def drift_samples(text: str, x: np.ndarray) -> np.ndarray:
    """Complex samples on ``x`` of a drift expression in x alone (I is the imaginary unit)."""
    tree = _parse(text, "drift")
    if "t" in _names(tree):
        raise ConfigError(f"drift expression {text!r} must not depend on t")
    vals = np.array(_eval(_compile(tree, text, "drift"), x, 0.0), dtype=np.complex128)
    if not np.all(np.isfinite(vals)):
        raise ConfigError(f"drift expression {text!r} is not finite on the grid")
    return vals


def mizohata_index(b: SpectralField | np.ndarray, grid: Grid1D, R_max: float) -> MizohataReport:
    """Running sup of |Im integral of the drift along rays| up to radius R_max.

    Rays start at every grid node and point in both directions; integrals
    are node-aligned trapezoid sums with periodic wrap.  The verdict is
    "diverging" when the running sup still grows across the last decade of
    radii (fitted slope above 0.1 * sup / R_max), which is the signature
    of an unintegrable imaginary drift.
    """
    if not 0.0 < R_max <= grid.half_length:   # NaN fails too
        raise ValueError(f"R_max must lie in (0, {grid.half_length:g}], the half-domain; got {R_max:g}")
    vals = b.values if isinstance(b, SpectralField) else np.asarray(b)
    if vals.shape != (grid.n,):
        raise ConfigError("drift field shape does not match the grid")
    segments = int(math.floor(R_max / grid.dx + 1e-9))
    if segments < 8:
        raise ValueError("R_max resolves fewer than 8 grid segments")
    imb = np.ascontiguousarray(vals.imag.astype(np.float64))
    fwd = _window_maxima(imb, segments, grid.dx)
    bwd = _window_maxima((-imb)[::-1], segments, grid.dx)
    per_radius = np.maximum(fwd, bwd)
    running = np.maximum.accumulate(per_radius)
    radii = grid.dx * np.arange(segments + 1)
    sup_value = float(running[-1])
    tail = radii >= radii[-1] / 10.0
    slope = float(np.polyfit(radii[tail], running[tail], 1)[0])
    threshold = 0.1 * sup_value / radii[-1]
    verdict = "diverging" if slope > threshold else "bounded"
    return MizohataReport(
        sup_value=sup_value,
        verdict=verdict,
        growth_slope=slope,
        radii=radii,
        running_sup=running,
    )
