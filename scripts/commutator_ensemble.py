"""Sweep the commutator-bound ensembles and print the constant table.

Usage:
    python3 scripts/commutator_ensemble.py [--operator +] [--trials 100] ...

For each integrability exponent and each (outer, inner) derivative
order, reports the max ratio over the seeded ensemble, its stability
under grid doubling, and its stability under bandwidth doubling.  Flat
rows across the two stability columns are the desk-scale evidence that
the underlying bound is uniform.
"""

import argparse
import sys

import numpy as np

from schrobvp.cli import _parse_lm, _parse_p_list
from schrobvp.commutators import estimate_constant
from schrobvp.spectral import Grid1D


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--operator", default="+", choices=["+", "-", "H"])
    ap.add_argument("--lm", default="0,1;1,1;0,2", help="semicolon-separated l,m pairs")
    ap.add_argument("--p", default="4/3,2,4", help="comma-separated exponents")
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--grid-n", type=int, default=2048)
    ap.add_argument("--grid-L", type=float, default=8 * np.pi)
    ap.add_argument("--bandwidth", type=int, default=64)
    args = ap.parse_args()

    grid = Grid1D(args.grid_n, args.grid_L)
    # the band x2 column reruns the ensemble at twice the bandwidth, which must
    # also sit below the dealiasing cutoff n/3: check it before any ensemble runs
    if 6 * args.bandwidth >= grid.n:
        print(f"error: --bandwidth {args.bandwidth} doubled to {2 * args.bandwidth} does not sit "
              f"below the dealiasing cutoff n/3 = {grid.n / 3:.1f} of --grid-n {grid.n}",
              file=sys.stderr)
        return 1
    lm_pairs = _parse_lm(args.lm)
    exponents = _parse_p_list(args.p)

    print(f"operator {args.operator}, grid n={grid.n}, L={grid.half_length:g}, "
          f"{args.trials} trials, bandwidth {args.bandwidth}")
    print(f"{'p':>6} {'(l,m)':>7} {'max ratio':>10} {'mean':>8} "
          f"{'grid x2':>8} {'band x2':>8}")
    base = estimate_constant(args.operator, lm_pairs, grid, p=exponents,
                             n_trials=args.trials, bandwidth=args.bandwidth,
                             seed=args.seed, check_stability=True)
    wide = estimate_constant(args.operator, lm_pairs, grid, p=exponents,
                             n_trials=args.trials, bandwidth=2 * args.bandwidth,
                             seed=args.seed, check_stability=False)
    for p in exponents:
        for l, m in lm_pairs:
            b = base[(l, m, p)]
            band_factor = wide[(l, m, p)].max_ratio / b.max_ratio if b.max_ratio > 0 else 1.0
            print(f"{p:>6.3g} {str((l, m)):>7} {b.max_ratio:>10.4f} "
                  f"{np.mean(b.ratios):>8.4f} {b.stability_factor:>8.4f} "
                  f"{band_factor:>8.4f}")
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except (ValueError, RuntimeError, OSError) as exc:   # the package's named errors, as `schro` reports them
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1) from None
