"""The package calls the benchmark harness makes keep working.

``perfbench/tracing.py`` wraps package functions by module attribute
(``cli.picard_solve``, ``picard.solve_linear``, ``cli.run_monitors``, ...).
Renaming one makes ``install`` raise AttributeError in the middle of a
benchmark run; installing and uninstalling the tracer here catches that in
the unit suite instead.  ``perfbench/checks.py oracle`` builds a
``SpaceTimeField`` from positional physical values and reads
``solve_free(...).values``; running it on a smoke-size run covers both.
"""

import importlib
from pathlib import Path

from schrobvp import cli, picard
from schrobvp.cli import build_scenario
from schrobvp.presets import load_preset, merge_scenario

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


def test_every_sweep_is_one_traced_solve_linear_call(monkeypatch):
    # the stepper.solve_linear span and the step counter wrap
    # picard.solve_linear and read its problem and config positionally; a
    # sweep that marched without that call would zero both per-layer metrics
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    sc = build_scenario(merge_scenario(load_preset("benchmark"), {"grid": {"n": 256}}))
    p = picard.BvpProblem(
        f=sc.f, g=sc.g, coeffs=sc.coeffs, weight=sc.weight, horizon=0.015625,
        stepper_cfg=sc.stepper, override_horizon=True,
    )
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        _, _, report = picard.picard_solve(p, tol=sc.tol, m_max=sc.m_max)
    finally:
        tracer.uninstall()
    assert report.iterations >= 2
    assert tracer.span_counts()["stepper.solve_linear"] == report.iterations
    assert tracer.counts["stepper.steps"] == report.iterations * sc.stepper.n_steps


def test_the_solve_bundle_is_counted_in_the_traced_nodes(tmp_path, monkeypatch):
    # install wraps norm_bundle only on the modules that hold the name (cli
    # for the horizon probe, picard for the solve's bundle); a solve that
    # reached it another way would drop out of coefficients.norm_bundle_nodes
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    raw = merge_scenario(load_preset("benchmark"), {"grid": {"n": 256}, "horizon": 0.01,
                                                    "stepper": {"n_steps": 64}})
    try:
        tracing.install(tracer)
        patched = {(owner, attr) for owner, attr, _ in tracer._patched}
        assert cli.run_picard_scenario(raw, str(tmp_path / "run")) == 0
    finally:
        tracer.uninstall()
    assert {(cli, "norm_bundle"), (picard, "norm_bundle")} <= patched
    # an explicit horizon runs no probe: the nodes are the solve grid's
    assert tracer.counts["coefficients.norm_bundle_nodes"] == 64 + 1


def test_every_run_file_is_written_in_a_traced_span(tmp_path, monkeypatch):
    # fieldio.write wraps the writers cli calls by name; the run directory
    # appears with the first of them, after the solve
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    out = tmp_path / "run"
    written = []

    def recorded(write):
        def wrapper(path, *args):
            open_span = tracer.spans[tracer._open[-1]][0] if tracer._open else None
            written.append((Path(path).name, open_span, out.exists()))
            return write(path, *args)

        return wrapper

    for name in ("atomic_write_text", "write_norms_csv"):
        monkeypatch.setattr(cli, name, recorded(getattr(cli, name)))
    raw = merge_scenario(load_preset("benchmark"), {"grid": {"n": 256}})
    try:
        tracing.install(tracer)
        assert cli.run_picard_scenario(raw, str(out)) == 0
    finally:
        tracer.uninstall()
    assert written[0] == ("norms.csv", "fieldio.write", False)
    assert {name for name, span, _ in written if span == "fieldio.write"} == {
        "norms.csv", "estimates.json", "estimates.csv", "scenario.json", "report.json", "timings.json",
    }
    assert [name for name, *_ in written[-2:]] == ["report.json", "timings.json"]


def test_oracle_check_on_a_smoke_decoupled_run(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    checks = importlib.import_module("checks")
    out = tmp_path / "run"
    raw = workloads.scenario("decoupled-oracle", 0, smoke=True)
    assert cli.run_picard_scenario(raw, str(out)) == 0
    stored = len((out / "fields" / "times.csv").read_text().splitlines()) - 1
    res = checks.oracle(out, "decoupled-oracle", 0, True)
    assert res["oracle_slices"] == stored
    assert 0.0 < res["oracle_rel_err"] <= workloads.BOUNDS["oracle_rel"]
    assert res["solve_free_s"] >= 0.0
