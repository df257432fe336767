"""Viscosity-convergence study for the regularized linear marcher.

Usage:
    python3 scripts/epsilon_sweep.py [--preset benchmark] [--direction forward]

Solves one linear endpoint problem repeatedly along a decreasing
schedule of artificial-viscosity strengths and prints the successive
differences and observed convergence orders.  First-order decrease of
the differences with epsilon is the expected signature.
"""

import argparse
import sys

from schrobvp.cli import build_scenario, resolve_horizon
from schrobvp.presets import load_preset, preset_names
from schrobvp.stepper import LinearProblem, OperatorTable, StepperConfig, epsilon_study


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--preset", default="benchmark", choices=preset_names())
    ap.add_argument("--direction", default="forward", choices=["forward", "backward"])
    ap.add_argument("--epsilons", default="1e-2,1e-3,1e-4,1e-5",
                    help="comma-separated decreasing schedule")
    ap.add_argument("--n-steps", type=int, default=1024)
    args = ap.parse_args()

    sc = build_scenario(load_preset(args.preset))
    horizon, _, _ = resolve_horizon(sc, None)

    schedule = tuple(float(tok) for tok in args.epsilons.split(","))
    datum = sc.f if args.direction == "forward" else sc.g
    cfg = StepperConfig(n_steps=args.n_steps)
    table = OperatorTable(sc.coeffs, sc.weight, cfg.time_grid(horizon))
    problem = LinearProblem(direction=args.direction, table=table, source=None, datum=datum)
    rep = epsilon_study(problem, cfg, schedule)

    print(f"{args.preset} {args.direction}, T={horizon:.6g}, "
          f"{args.n_steps} steps")
    for eps_pair, diff in zip(zip(rep.epsilons, rep.epsilons[1:]), rep.differences):
        print(f"  eps {eps_pair[0]:.0e} -> {eps_pair[1]:.0e}: "
              f"|difference| {diff:.6e}")
    for order in rep.order_estimates:
        print(f"  observed order {order:.3f}")
    print(f"cauchy: {rep.cauchy}")
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except (ValueError, RuntimeError, OSError) as exc:   # the package's named errors, as `schro` reports them
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1) from None
