"""Correctness checks that need the package, each in its own process; started by run.py.

    python3 perfbench/checks.py oracle --workload decoupled-oracle --seed N --smoke 0|1 \
        --out-dir DIR --result FILE
    python3 perfbench/checks.py band --smoke 0|1 --result FILE

They run apart from the measured repetition, so that its peak memory and
wall time cover the user path alone.

``oracle`` compares one repetition's stored carrier slices with the
closed-form ``free_bvp`` solution (acceptance criterion 03).  The run keeps
at most 129 slices (every fourth of the decoupled preset's 513 times, both
ends included), so the check covers those times, not all of them.

``band`` is criterion 07's bandwidth cross-check at the acceptance test's
pinned seed: the 100-trial ensembles at bandwidth 64 and 128 must agree
within 10%.  The shift is a max over random trials and exceeds 0.10 on some
seeds, so it is checked at the seed the acceptance test promises it for,
once per benchmark run, whatever the workload seed.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BAND_SEED = 3     # the seed criterion 07 pins


def _parse() -> argparse.Namespace:
    ap = argparse.ArgumentParser()
    ap.add_argument("check", choices=("oracle", "band"))
    ap.add_argument("--workload", default="decoupled-oracle")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--smoke", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir")
    ap.add_argument("--result", required=True)
    return ap.parse_args()


def oracle(out: Path, workload: str, seed: int, smoke: bool) -> dict:
    """Sup over the stored carrier slices of the distance to the closed form, over delta."""
    import numpy as np

    import workloads
    from schrobvp import free_bvp
    from schrobvp.cli import build_scenario
    from schrobvp.fieldio import load_field
    from schrobvp.spectral import SpaceTimeField

    sc = build_scenario(workloads.scenario(workload, seed, smoke))
    fields = out / "fields"
    table = np.genfromtxt(fields / "times.csv", delimiter=",", skip_header=1, ndmin=2)
    times = table[:, 1]
    total = np.array([
        load_field(fields / f"vplus_{j:04d}.spf").values
        + load_field(fields / f"vminus_{j:04d}.spf").values
        for j in range(len(times))
    ])
    data = free_bvp.FreeBvpData(f=sc.f, g=sc.g, beta=sc.beta, horizon=sc.horizon, times=times)
    t0 = time.perf_counter()
    free = free_bvp.solve_free(data)
    solve_free_s = time.perf_counter() - t0
    diff = SpaceTimeField(sc.grid, times, total - free.values)
    return {
        "oracle_rel_err": diff.sup_norm() / (sc.f.norm_l2() + sc.g.norm_l2()),
        "solve_free_s": solve_free_s,
        "oracle_slices": len(times),
    }


def band(smoke: bool) -> dict:
    """Worst relative shift of the max ratio from bandwidth 64 to 128, at the pinned seed."""
    import workloads
    from schrobvp.commutators import estimate_constant
    from schrobvp.spectral import Grid1D

    settings = workloads.commutator_settings(smoke)
    grid = Grid1D(settings["n"], settings["L"])
    lm = [tuple(int(v) for v in pair.split(",")) for pair in settings["lm"].split(";")]
    shift = 0.0
    for p in settings["p"]:
        base, wide = (
            estimate_constant(settings["operator"], lm, grid, p=p, n_trials=settings["trials"],
                              bandwidth=bw, seed=BAND_SEED, check_stability=False)
            for bw in (settings["bandwidth"], settings["wide_bandwidth"])
        )
        for key, est in wide.items():
            shift = max(shift, abs(est.max_ratio / base[key].max_ratio - 1.0))
    return {"band_shift": shift}


def main() -> int:
    args = _parse()
    sys.path.insert(0, str(ROOT / "src"))
    if args.check == "oracle":
        res = oracle(Path(args.out_dir), args.workload, args.seed, bool(args.smoke))
    else:
        res = band(bool(args.smoke))
    tmp = args.result + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(res, fh)
    os.replace(tmp, args.result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
