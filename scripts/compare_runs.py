"""Compare two run directories file by file.

Usage:
    python3 scripts/compare_runs.py RUN_A RUN_B

Pairs every file of the two directories (``timings.json`` excepted) by its
path inside them.  Per file it prints ``identical`` when the bytes match,
and otherwise the largest absolute and relative difference of the numbers
the file holds: the numeric leaves of a JSON file, the numeric cells of a
CSV file and the samples of an SPF field file (real and imaginary parts).
The relative difference of two numbers is |a - b| / max(|a|, |b|).  A file
on one side only, or a difference outside the numbers (a key, a string, a
row count, a grid), prints one ``error:`` line and exits 1.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from schrobvp.fieldio import load_field


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("run_a", type=Path)
    ap.add_argument("run_b", type=Path)
    args = ap.parse_args()

    files_a, files_b = run_files(args.run_a), run_files(args.run_b)
    for only, run in ((files_a - files_b, args.run_a), (files_b - files_a, args.run_b)):
        if only:
            raise ValueError(f"{min(only)} is in {run} only")
    for name in sorted(files_a):
        a, b = args.run_a / name, args.run_b / name
        if a.read_bytes() == b.read_bytes():
            print(f"{name}: identical")
            continue
        (form_a, x), (form_b, y) = contents(a), contents(b)
        if form_a != form_b:
            raise ValueError(f"{name}: the files differ outside their numbers")
        same = (x == y) | (np.isnan(x) & np.isnan(y))
        diff = np.where(same, 0.0, np.abs(x - y))
        if not np.all(np.isfinite(diff)):
            raise ValueError(f"{name}: a non-finite number differs")
        rel = np.divide(diff, np.maximum(np.abs(x), np.abs(y)), out=np.zeros_like(diff), where=diff > 0)
        print(f"{name}: max abs diff {np.max(diff, initial=0.0):.3g}, "
              f"max rel diff {np.max(rel, initial=0.0):.3g} over {x.size} numbers")
    return 0


def run_files(run: Path) -> set[str]:
    """Paths, relative to ``run``, of every file under it but ``timings.json``."""
    if not run.is_dir():
        raise ValueError(f"{run} is not a directory")
    return {p.relative_to(run).as_posix() for p in run.rglob("*") if p.is_file() and p.name != "timings.json"}


def contents(path: Path) -> tuple[object, np.ndarray]:
    """The file's form, everything in it but its numbers, and its numbers."""
    numbers = []

    def form(value):
        """``value`` with each number moved to ``numbers`` and a "#" left in its place."""
        if isinstance(value, dict):
            return {k: form(v) for k, v in value.items()}
        if isinstance(value, list):
            return [form(v) for v in value]
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            numbers.append(value)
            return "#"
        return value

    if path.suffix == ".json":
        shape = form(json.loads(path.read_text()))
    elif path.suffix == ".csv":
        shape = [[form(_number(cell)) for cell in line.split(",")] for line in path.read_text().splitlines()]
    elif path.suffix == ".spf":
        field = load_field(path)
        return (field.grid.n, field.grid.half_length), field.values.view(np.float64)
    else:
        raise ValueError(f"{path.name}: the files differ and hold no numbers this script reads")
    return shape, np.asarray(numbers, dtype=np.float64)


def _number(cell: str) -> float | str:
    try:
        return float(cell)
    except ValueError:
        return cell


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1) from None
