"""Run a bundled scenario end to end and print the headline numbers.

Usage:
    python3 scripts/run_benchmark.py [--preset benchmark] [--n 2048] [--T ...]

Solves the two-endpoint problem for the chosen preset, prints the sweep
history, the boundary and equation residuals, and the estimate-monitor
verdicts.
"""

import argparse
import sys
import time

from schrobvp.cli import build_scenario, resolve_horizon, run_monitors
from schrobvp.picard import BvpProblem, assemble_solution, picard_solve
from schrobvp.presets import load_preset, merge_scenario, preset_names


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--preset", default="benchmark", choices=preset_names())
    ap.add_argument("--n", type=int, default=None, help="override the grid size")
    ap.add_argument("--T", type=float, default=None, help="override the horizon")
    args = ap.parse_args()

    raw = load_preset(args.preset)
    if args.n is not None:
        raw = merge_scenario(raw, {"grid": {"n": args.n}})
    sc = build_scenario(raw)

    horizon, override, trace = resolve_horizon(sc, args.T)
    if trace["source"] == "selected":
        print(f"selected horizon T = {horizon:.6g} "
              f"(coupling integral {trace['coupling_integral']:.4f}, "
              f"contraction product {trace['contraction_product']:.4f})")

    problem = BvpProblem(f=sc.f, g=sc.g, coeffs=sc.coeffs, weight=sc.weight,
                         horizon=horizon, stepper_cfg=sc.stepper,
                         override_horizon=override)
    t0 = time.perf_counter()
    vp, vm, report = picard_solve(problem, tol=sc.tol, m_max=sc.m_max)
    elapsed = time.perf_counter() - t0

    print(f"\n{args.preset}: grid n={sc.grid.n}, T={horizon:.6g}, "
          f"delta={report.delta:.6g}, {elapsed:.1f}s")
    print(f"converged in {report.iterations} sweeps: {report.converged}")
    for i, (rho, d) in enumerate(zip(report.contraction_factors, report.diff_norms[1:])):
        print(f"  sweep {i + 2}: |update| {d:.3e}  rho {rho:.4f}")
    print(f"boundary residuals: {report.boundary_residual_low:.3e} (t=0), "
          f"{report.boundary_residual_high:.3e} (t=T)")
    print(f"equation residual sup: {report.residual_sup:.3e}")
    print(f"cross-side leakage: {report.final_leakage:.3e}")

    asm = assemble_solution(vp, vm, sc.weight)
    print(f"decaying-norm range: [{asm.w_norms.min():.6g}, {asm.w_norms.max():.6g}]")
    for rep in run_monitors(sc, vp, vm, asm.w, report.table, report.bundle):
        print(f"estimate {rep.name}: ratio {rep.ratio:.4f} -> {rep.verdict}")
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except (ValueError, RuntimeError, OSError) as exc:   # the package's named errors, as `schro` reports them
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1) from None
