"""Traced pass: spans and counters installed from outside the package.

Wrappers are installed only in a traced child process, after the package
import has been timed.  Spans sit at layer boundaries (name, start, end,
parent) and stay in memory until the run ends.  FFT and coefficient calls
are far too many for one span each (about 300,000 FFTs per benchmark
solve), so they feed counters instead; their time stays inside the self
time of the span that made them.

Each wrapper is patched onto the module that calls the function, because
the package imports names with ``from .module import name``.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict

_FFT_FUNCS = ("fft", "ifft")
_COEFF_METHODS = ("a_values", "a_x", "a_xx", "w_values")


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []      # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    # --- recording ------------------------------------------------------

    def span(self, name: str, fn, on_call=None):
        """``fn`` wrapped so that each call records one span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append([name, time.perf_counter(), None, parent])
            self._open.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self._open.pop()

        return wrapper

    def counted(self, prefix: str, fn, measure=None):
        """``fn`` wrapped to add call count and busy time under ``prefix``."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            counts[prefix + "_s"] += time.perf_counter() - t0
            counts[prefix + "_calls"] += 1
            if measure is not None:
                measure(args, kwargs)
            return out

        return wrapper

    def patch(self, owner, attr: str, wrapper_factory) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # --- derived numbers ------------------------------------------------

    def durations(self) -> dict[str, float]:
        """Total wall time per span name."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time its direct children cover.

        The program is single-threaded, so children of one span never
        overlap and their durations add.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child_time[i]
        return out

    def span_counts(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name, *_ in self.spans:
            out[name] += 1
        return out

    def dump(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]


def _fft_measure(counts):
    def measure(args, kwargs):
        a = args[0]
        n = kwargs.get("n", args[1] if len(args) > 1 else None)
        axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
        shape = getattr(a, "shape", None) or (len(a),)
        length = shape[axis] if n is None else n
        rows = math.prod(shape) // max(shape[axis], 1)
        counts["spectral.fft_rows"] += rows
        if length > 1:
            counts["spectral.fft_flop"] += rows * 5.0 * length * math.log2(length)
        counts["spectral.fft_bytes"] += rows * 32.0 * length

    return measure


def install(tracer: Tracer) -> None:
    """Patch counters and spans onto the package's layer boundaries."""
    import numpy.fft

    from schrobvp import cli, coefficients, estimates, picard

    fft_modules = [numpy.fft]
    try:
        import scipy.fft
    except ImportError:  # scipy is optional; numpy.fft is what the package calls
        pass
    else:
        fft_modules.append(scipy.fft)
    measure = _fft_measure(tracer.counts)
    for module in fft_modules:
        for name in _FFT_FUNCS:
            tracer.patch(module, name, lambda f: tracer.counted("spectral.fft", f, measure))

    for name in _COEFF_METHODS:
        tracer.patch(
            coefficients.CoefficientField, name,
            lambda f: tracer.counted("coefficients.eval", f),
        )

    counts = tracer.counts

    def count_steps(args, kwargs):
        problem, cfg = args[0], args[1]
        counts["stepper.steps"] += cfg.resolve_steps(problem.horizon)

    def count_nodes(args, kwargs):
        times = args[2] if len(args) > 2 else kwargs["times"]
        counts["coefficients.norm_bundle_nodes"] += len(times)

    spans = [
        (picard, "solve_linear", "stepper.solve_linear", count_steps),
        (picard, "pde_residual", "picard.pde_residual", None),
        (cli, "picard_solve", "picard.picard_solve", None),
        (cli, "assemble_solution", "picard.assemble", None),
        (cli, "run_monitors", "estimates.monitors", None),
        (cli, "energy_monitor", "estimates.energy", None),
        (cli, "weighted_smoothing_monitor", "estimates.smoothing", None),
        (cli, "bootstrap_diagnostics", "estimates.bootstrap", None),
        (cli, "write_norms_csv", "fieldio.write", None),
        (cli, "dump_field_binary", "fieldio.write", None),
        (cli, "dump_field_csv", "fieldio.write", None),
        (cli, "atomic_write_text", "fieldio.write", None),
        (cli, "estimate_constant", "commutators.estimate_constant", None),
    ]
    for module in (cli, picard, estimates):
        if hasattr(module, "norm_bundle"):
            spans.append((module, "norm_bundle", "coefficients.norm_bundle", count_nodes))
    for owner, attr, name, on_call in spans:
        tracer.patch(owner, attr, lambda f, name=name, on_call=on_call: tracer.span(name, f, on_call))
