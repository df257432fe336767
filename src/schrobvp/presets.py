"""Bundled scenarios and endpoint-datum builders for the scenario runner.

A scenario is a plain dict (JSON-shaped) with the keys the CLI understands;
the decay rate beta is set once, by the ``weight`` section, and the
``coefficients`` section holds only a, W and the ellipticity floor
``lambda``.  The three bundled scenarios are referenced by name throughout
the verification suite:

  benchmark  variable dispersion 1 + 0.1 e^{-t} sech x, potential
             0.05 sech x, truncated weight beta = 1, ellipticity floor 0.9,
             viscosity 1e-7 on a 2048-node grid of half-length 40.
  free       constant coefficients a = 1, W = 0 on the benchmark grid.
  decoupled  a = 1, W = 0 under the pure-exponential weight, where the two
             frequency sides evolve independently and the closed-form
             endpoint solver is an exact oracle.

Datum specs are strings: ``gaussian`` or ``gaussian:center,width`` for a
projected Gaussian bump, ``mode:k`` for a single lateral mode, ``random:b``
for a seeded random field band-limited to |k| <= b, or a path to a field
file in either dump format.  Builders project onto the requested frequency
side, so the result is always admissible endpoint data.
"""

from __future__ import annotations

import copy
import os

import numpy as np

from .errors import ConfigError, ValidationError
from .fieldio import load_field
from .spectral import Grid1D, SpectralField, gaussian_field, mode_field, project

_BENCHMARK = {
    "grid": {"n": 2048, "L": 40.0},
    "weight": {"beta": 1.0, "mode": "truncated"},
    "coefficients": {
        "a": "1 + 0.1*exp(-t)*sech(x)",
        "W": "0.05*sech(x)",
        "lambda": 0.9,
    },
    "data": {"f": "gaussian:0,1.5", "g": "gaussian:1,2"},
    "stepper": {"epsilon": 1e-7, "n_steps": 64},
    "estimates": {"bootstrap": True},
    "horizon": None,
    "seed": 0,
}

_FREE = {
    "grid": {"n": 2048, "L": 40.0},
    "weight": {"beta": 1.0, "mode": "truncated"},
    "coefficients": {"a": "1", "W": "0", "lambda": 1.0},
    "data": {"f": "gaussian:0,1.5", "g": "gaussian:1,2"},
    "stepper": {"epsilon": 1e-6, "n_steps": 512},
    "estimates": {"bootstrap": True},
    "horizon": None,
    "seed": 0,
}

_DECOUPLED = {
    "grid": {"n": 512, "L": 24.0},
    "weight": {"beta": 1.0, "mode": "pure_exponential"},
    "coefficients": {"a": "1", "W": "0", "lambda": 1.0},
    "data": {"f": "gaussian:0,1.5", "g": "gaussian:1,2"},
    "stepper": {"epsilon": 1e-6, "n_steps": 512},
    "estimates": {"bootstrap": False},
    "horizon": 0.035,
    "seed": 0,
}

_PRESETS = {"benchmark": _BENCHMARK, "free": _FREE, "decoupled": _DECOUPLED}


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


def load_preset(name: str) -> dict:
    """Deep copy of a bundled scenario dict."""
    try:
        return copy.deepcopy(_PRESETS[name])
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; bundled presets are {', '.join(preset_names())}"
        ) from None


def merge_scenario(base: dict, override: dict) -> dict:
    """Recursive dict merge; override values win, sub-dicts merge key-wise."""
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = merge_scenario(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def resolve_scenario(raw: dict) -> dict:
    """Expand an optional ``preset`` key into the full scenario dict."""
    if "preset" in raw:
        rest = {k: v for k, v in raw.items() if k != "preset"}
        return merge_scenario(load_preset(raw["preset"]), rest)
    return copy.deepcopy(raw)


def _parse_args(spec: str, what: str, count: int) -> list[float]:
    parts = spec.split(",")
    if len(parts) != count:
        raise ConfigError(f"{what} expects {count} comma-separated numbers, got {spec!r}")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"{what} has a non-numeric parameter in {spec!r}") from None


def build_datum(spec: str, grid: Grid1D, sign: str, seed: int = 0) -> SpectralField:
    """Endpoint datum from a preset string or a field file, on the given side."""
    if sign not in ("+", "-"):
        raise ConfigError(f"sign must be '+' or '-', got {sign!r}")
    if spec == "gaussian":
        return project(gaussian_field(grid), sign)
    if spec.startswith("gaussian:"):
        center, width = _parse_args(spec[len("gaussian:"):], "gaussian datum", 2)
        if width <= 0:
            raise ConfigError(f"gaussian width must be positive, got {width:g}")
        return project(gaussian_field(grid, center=center, width=width), sign)
    if spec.startswith("mode:"):
        try:
            k = int(spec[len("mode:"):])
        except ValueError:
            raise ConfigError(f"mode datum expects an integer index, got {spec!r}") from None
        if k == 0 or (k > 0) != (sign == "+"):
            raise ConfigError(
                f"mode index {k} is not on the {sign!r} frequency side required here"
            )
        return project(mode_field(grid, k), sign)
    if spec.startswith("random:"):
        try:
            band = int(spec[len("random:"):])
        except ValueError:
            raise ConfigError(f"random datum expects an integer bandwidth, got {spec!r}") from None
        if not (0 < band < grid.n // 3):
            raise ConfigError(f"random bandwidth must lie in (0, n/3), got {band}")
        rng = np.random.default_rng(seed)
        hat = np.zeros(grid.n, dtype=np.complex128)
        idx = np.arange(1, band + 1) if sign == "+" else np.arange(grid.n - band, grid.n)
        hat[idx] = rng.standard_normal(band) + 1j * rng.standard_normal(band)
        return project(SpectralField.from_hat(grid, hat), sign)
    if os.path.exists(spec):
        f = load_field(spec)
        if f.grid != grid:
            raise ValidationError(
                f"field file {spec} lives on {f.grid!r}, scenario grid is {grid!r}"
            )
        return f
    raise ConfigError(
        f"datum spec {spec!r} is neither a known preset "
        f"(gaussian, gaussian:c,w, mode:k, random:b) nor an existing file"
    )
