"""Exception types shared across the package, and the checks of config values."""

import math
import numbers


class GridMismatchError(ValueError):
    """Operands live on different grids (or wrong sample count)."""


class SingularOperatorError(ValueError):
    """Operator is singular on the given input (e.g. negative-order |D|^s on a field with mean)."""


class ResolvableRangeError(ValueError):
    """Dyadic block index outside the range the grid can represent."""


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


class ValidationError(ValueError):
    """Coefficient or data fields violate a precondition."""


class HorizonError(RuntimeError):
    """No admissible solve horizon on the requested window."""


class StabilityError(RuntimeError):
    """Time-stepping configuration violates a stability cap, or a solve blew up."""


class DivergenceError(RuntimeError):
    """Fixed-point sweeps stopped contracting."""


class ConvergenceError(RuntimeError):
    """Fixed-point sweeps reached their cap without meeting the tolerance."""


_KINDS = {
    int: (numbers.Integral, "an integer"),
    float: (numbers.Real, "a real number"),
    bool: (bool, "true or false"),
    str: (str, "a string"),
}


def typed(value: object, kind: type, key: str):
    """``kind(value)`` if ``value`` has the JSON type ``kind``, else a ConfigError naming ``key``.

    ``kind`` is int, float, bool or str.  Nothing is coerced: "5" for a
    number, 2.5 for an integer and true for a number are all errors; an
    integer passes as a float.
    """
    abc, what = _KINDS[kind]
    if not isinstance(value, abc) or (isinstance(value, bool) and kind is not bool):
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    return kind(value)


def require_horizon(horizon: float) -> None:
    """Raise ConfigError unless ``horizon`` is positive and finite (NaN fails too)."""
    if not 0.0 < horizon < math.inf:
        raise ConfigError(f"horizon must be positive and finite, got {horizon:g}")


_EXP_ARG_CAP = 690.0  # e^690 stays clear of double overflow


def require_decay_rate(beta: float, half_length: float) -> None:
    """Raise ConfigError naming beta unless 0 < beta < inf and beta^2 and e^(beta L) are finite."""
    if not 0.0 < beta < math.inf:
        raise ConfigError(f"beta must be positive and finite, got {beta:g}")
    if not (beta * half_length <= _EXP_ARG_CAP and beta * beta < math.inf):
        raise ConfigError(
            f"beta = {beta:g} overflows beta^2 or e^(beta L) at L = {half_length:g}; reduce beta or L"
        )
