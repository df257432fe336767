"""The package functions the traced benchmark pass patches exist under their names.

``perfbench/tracing.py`` wraps package functions by module attribute
(``cli.picard_solve``, ``picard.solve_linear``, ``cli.run_monitors``, ...).
Renaming one makes ``install`` raise AttributeError in the middle of a
benchmark run; installing and uninstalling the tracer here catches that in
the unit suite instead.
"""

import importlib
from pathlib import Path

from schrobvp import cli, picard

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_every_target_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        originals = {(owner, attr): fn for owner, attr, fn in tracer._patched}
        for key in ((cli, "picard_solve"), (picard, "solve_linear"), (cli, "run_monitors")):
            assert getattr(*key) is not originals[key]
    finally:
        tracer.uninstall()
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original
