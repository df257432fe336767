"""End-to-end checks of the scenario runner and its artifact contracts."""

import json
import re
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from schrobvp import cli, stepper
from schrobvp.cli import (
    ScenarioConfig,
    _estimates_exit,
    build_scenario,
    load_scenario_source,
)
from schrobvp.coefficients import CoefficientField, norm_bundle, select_horizon
from schrobvp.errors import ConfigError, ConvergenceError, HorizonError, ValidationError
from schrobvp.estimates import EstimateReport
from schrobvp.fieldio import dump_field_binary, load_field
from schrobvp.picard import BvpProblem, assemble_solution, picard_solve
from schrobvp.presets import build_datum, load_preset, merge_scenario, preset_names
from schrobvp.free_bvp import FreeBvpData, solve_free
from schrobvp.spectral import Grid1D, SpaceTimeField, gaussian_field, project, random_band_hat

SMALL = {
    "preset": "decoupled",
    "grid": {"n": 256, "L": 24.0},
    "stepper": {"n_steps": 128},
}


def small_scenario_file(tmp_path, extra=None):
    raw = dict(SMALL)
    if extra:
        raw = merge_scenario(raw, extra)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    return str(path)


class TestPresets:
    def test_names(self):
        assert preset_names() == ("benchmark", "decoupled", "free")

    def test_load_preset_is_isolated(self):
        a = load_preset("benchmark")
        a["grid"]["n"] = 17
        assert load_preset("benchmark")["grid"]["n"] == 2048

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            load_preset("nope")

    def test_merge_is_keywise(self):
        merged = merge_scenario(load_preset("benchmark"), {"grid": {"n": 512}})
        assert merged["grid"]["n"] == 512
        assert merged["grid"]["L"] == 40.0


class TestBuildDatum:
    def test_gaussian_is_projected(self):
        grid = Grid1D(256, 20.0)
        f = build_datum("gaussian:0,1.5", grid, "-")
        assert f.norm_l2() > 0
        assert project(f, "+").norm_l2() < 1e-14 * f.norm_l2()

    def test_mode_side_validation(self):
        grid = Grid1D(256, 20.0)
        with pytest.raises(ConfigError, match="frequency side"):
            build_datum("mode:-3", grid, "+")
        g = build_datum("mode:3", grid, "+")
        assert g.norm_l2() > 0

    def test_random_band_deterministic(self):
        grid = Grid1D(256, 20.0)
        a = build_datum("random:12", grid, "-", seed=5)
        b = build_datum("random:12", grid, "-", seed=5)
        assert np.array_equal(a.values, b.values)

    def test_file_round_trip(self, tmp_path):
        grid = Grid1D(256, 20.0)
        f = project(gaussian_field(grid), "-")
        path = tmp_path / "datum.spf"
        dump_field_binary(f, path)
        loaded = build_datum(str(path), grid, "-")
        assert np.allclose(loaded.values, f.values)

    def test_bad_spec(self):
        grid = Grid1D(256, 20.0)
        with pytest.raises(ConfigError, match="datum spec"):
            build_datum("wavelet:3", grid, "-")


class TestBuildScenario:
    def test_preset_expansion(self):
        sc = build_scenario(SMALL)
        assert isinstance(sc, ScenarioConfig)
        assert sc.grid.n == 256
        assert sc.horizon == 0.035
        assert sc.weight.mode == "pure_exponential"

    def test_unknown_top_key(self):
        with pytest.raises(ConfigError, match="mystery"):
            build_scenario({"preset": "decoupled", "mystery": 1})

    def test_unknown_nested_key(self):
        raw = merge_scenario(SMALL, {"stepper": {"dt_max": 0.1}})
        with pytest.raises(ConfigError, match="dt_max"):
            build_scenario(raw)

    def test_beta_mismatch(self):
        raw = merge_scenario(SMALL, {"coefficients": {"beta": 2.0}})
        with pytest.raises(ConfigError, match="beta"):
            build_scenario(raw)

    def test_negative_seed_named(self):
        # numpy's own "expected non-negative integer" named neither the key nor the seed
        raw = {"preset": "decoupled", "seed": -1, "data": {"f": "random:8", "g": "random:8"}}
        with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
            build_scenario(raw)

    def test_readme_key_table_lists_the_accepted_keys(self):
        # the README's table of scenario keys: one row per section, then the top level
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = text[text.index("| `grid` |"):].split("\n\n", 1)[0]
        listed = {}
        for row in table.splitlines():
            _, section, keys, _ = row.split("|")
            names = set(re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", keys)))
            listed[section.strip().strip("`")] = names
        accepted = {**cli._SECTION_KEYS, "top level": cli._TOP_KEYS - set(cli._SECTION_KEYS)}
        assert listed == accepted

    def test_missing_sections(self):
        with pytest.raises(ConfigError, match="grid"):
            build_scenario({"weight": {"beta": 1.0}})

    def test_load_scenario_source(self, tmp_path):
        assert load_scenario_source("decoupled") == {"preset": "decoupled"}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(SMALL))
        assert load_scenario_source(str(path))["grid"]["n"] == 256
        with pytest.raises(ConfigError, match="neither a file nor a bundled preset"):
            load_scenario_source("missing.json")


class TestFreeBvpCommand:
    def test_end_to_end(self, tmp_path):
        out = tmp_path / "free"
        code = cli.main([
            "free-bvp", "--grid-n", "256", "--grid-L", "20", "--T", "0.3",
            "--times", "5", "--out-dir", str(out),
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["estimate"]["ratio"] <= 1 + 1e-10
        assert (out / "norms.csv").read_text().startswith("t,norm_v")
        assert len(list((out / "dumps").glob("v_*.spf"))) == 5

    @pytest.mark.parametrize("times", ["abc", "0.1,abc", "5,x", ",", ""])
    def test_bad_times_token_is_named(self, tmp_path, capsys, times):
        code = cli.main([
            "free-bvp", "--grid-n", "64", "--T", "0.2",
            "--times", times, "--out-dir", str(tmp_path / "free"),
        ])
        assert code == 1
        # an option value without any token is named whole
        bad = times.split(",")[-1] or times
        err = capsys.readouterr().err
        assert err.startswith("error: --times") and repr(bad) in err

    def test_a_single_time_without_a_point_is_a_time(self, tmp_path):
        # a lone token is a count only as an integer literal: "5" in test_end_to_end
        out = tmp_path / "free"
        code = cli.main([
            "free-bvp", "--grid-n", "64", "--T", "0.2", "--times", "1e-3", "--out-dir", str(out),
        ])
        assert code == 0
        assert json.loads((out / "report.json").read_text())["times"] == [1e-3]
        assert [p.name for p in (out / "dumps").glob("v_*.spf")] == ["v_0000.spf"]

    def test_non_uniform_times_are_evaluated_one_at_a_time(self, tmp_path):
        # each dump is the closed form at its own time: the slice of a uniform solve there
        out = tmp_path / "free"
        code = cli.main([
            "free-bvp", "--grid-n", "256", "--grid-L", "20", "--T", "0.3",
            "--times", "0.05,0.1,0.2", "--out-dir", str(out),
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["times"] == [0.05, 0.1, 0.2]
        grid = Grid1D(256, 20.0)
        data = FreeBvpData(
            f=build_datum("gaussian:0,1.5", grid, "-"), g=build_datum("gaussian:1,2", grid, "+"),
            beta=1.0, horizon=0.3, times=np.array([0.0, 0.05, 0.1, 0.15, 0.2]),
        )
        uniform = solve_free(data)
        ref = tmp_path / "ref.spf"
        for j, k in enumerate((1, 2, 4)):
            dump_field_binary(uniform.slice(k), ref)
            assert (out / "dumps" / f"v_{j:04d}.spf").read_bytes() == ref.read_bytes()
        assert len(list((out / "dumps").glob("v_*.spf"))) == 3
        norms = uniform.norm_series()[[1, 2, 4]]
        assert report["estimate"]["sup_norm"] == np.max(norms)
        assert report["estimate"]["ratio"] == np.max(norms) / data.data_norm()

    @pytest.mark.parametrize("times", ["0.2,0.1,0.05", "0.1,0.1"])
    def test_times_that_do_not_increase_exit_1(self, tmp_path, capsys, times):
        code = cli.main([
            "free-bvp", "--grid-n", "64", "--T", "0.3", "--times", times, "--out-dir", str(tmp_path / "free"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: --times must be increasing, got {times!r}")

    def test_csv_field_format(self, tmp_path):
        out = tmp_path / "free"
        code = cli.main([
            "free-bvp", "--grid-n", "256", "--grid-L", "20", "--T", "0.2",
            "--times", "3", "--field-format", "csv", "--out-dir", str(out),
        ])
        assert code == 0
        dumped = load_field(out / "dumps" / "v_0000.csv")
        assert dumped.grid.n == 256


class TestLinearCommand:
    @pytest.mark.parametrize("direction, sign", [("forward", "-"), ("backward", "+")])
    def test_report_contract(self, tmp_path, capsys, direction, sign):
        out = tmp_path / "lin"
        code = cli.main([
            "linear", "--scenario", small_scenario_file(tmp_path), "--direction", direction,
            "--out-dir", str(out),
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["direction"] == direction
        assert report["sup_norm"] > 0
        assert [e["name"] for e in report["estimates"]] == [f"energy[{sign}]"]
        assert "epsilon_study" not in report
        assert f"sup norm {report['sup_norm']:.6g}" in capsys.readouterr().out

    def test_coefficient_below_the_floor_is_rejected_before_the_march(self, tmp_path, capsys, monkeypatch):
        # with --T no horizon probe runs, so the bundle's a >= lambda check is
        # the first to see the coefficients; it must come before any march
        marches = []

        def counting(*args, **kwargs):
            marches.append(args)
            return stepper.solve_linear(*args, **kwargs)

        monkeypatch.setattr(cli, "solve_linear", counting)
        scenario = small_scenario_file(tmp_path, {"coefficients": {"a": "1 - 0.5*sech(x)", "lambda": 0.9}})
        out = tmp_path / "lin"
        code = cli.main(["linear", "--scenario", scenario, "--T", "0.01", "--out-dir", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: dispersive coefficient dips to 0.5 below the floor 0.9 at t=0\n"
        assert not out.exists()
        assert marches == []

    def test_viscosity_schedule_is_an_unknown_key(self, tmp_path, capsys):
        scenario = small_scenario_file(tmp_path, {"stepper": {"epsilon_schedule": [1e-2, 1e-3, 1e-4]}})
        code = cli.main(["linear", "--scenario", scenario, "--out-dir", str(tmp_path / "lin")])
        assert code == 1
        assert "unknown config key 'epsilon_schedule' in stepper" in capsys.readouterr().err


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("picard_run")
    scenario = tmp / "scenario.json"
    raw = merge_scenario(SMALL, {"times": [0.0, 0.02]})
    scenario.write_text(json.dumps(raw))
    out = tmp / "out"
    code = cli.main(["picard", "--scenario", str(scenario), "--out-dir", str(out)])
    assert code == 0
    return out


class TestPicardCommand:
    def test_report_contract(self, run_dir):
        report = json.loads((run_dir / "report.json").read_text())
        assert report["picard"]["converged"] is True
        assert report["horizon"]["source"] == "explicit"
        assert report["timing"] == {"file": "timings.json"}
        assert report["versions"]["schrobvp"]
        assert all(e["verdict"] == "pass" for e in report["estimates"])

    def test_norms_header(self, run_dir):
        head = (run_dir / "norms.csv").read_text().splitlines()[0]
        assert head == "t,norm_vplus,norm_vminus,norm_w"

    def test_stored_carriers(self, run_dir):
        report = json.loads((run_dir / "report.json").read_text())
        count = report["storage"]["count"]
        assert len(list((run_dir / "fields").glob("vplus_*.spf"))) == count
        table = (run_dir / "fields" / "times.csv").read_text().splitlines()
        assert len(table) == count + 1

    def test_requested_dumps(self, run_dir):
        report = json.loads((run_dir / "report.json").read_text())
        assert len(report["dumps"]) == 2
        for entry in report["dumps"]:
            assert abs(entry["requested_t"] - entry["stored_t"]) <= 2e-4
            for name in entry["files"].values():
                assert (run_dir / "dumps" / name).exists()

    def test_determinism(self, run_dir, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(merge_scenario(SMALL, {"times": [0.0, 0.02]})))
        out2 = tmp_path / "out2"
        assert cli.main(["picard", "--scenario", str(scenario), "--out-dir", str(out2)]) == 0
        for name in ("report.json", "norms.csv", "estimates.csv", "scenario.json"):
            assert (out2 / name).read_bytes() == (run_dir / name).read_bytes()

    def test_verify_estimates_round_trip(self, run_dir, tmp_path, capsys):
        out = tmp_path / "verify"
        code = cli.main([
            "verify-estimates", "--run-dir", str(run_dir), "--out-dir", str(out),
        ])
        assert code == 0
        reports = json.loads((out / "estimates.json").read_text())
        assert {r["name"] for r in reports} == {"energy[-]", "energy[+]", "weighted-smoothing"}
        assert all(r["verdict"] == "pass" for r in reports)
        # the run stores every step, so the re-run reads the run's own table and bundle
        assert json.loads((run_dir / "report.json").read_text())["storage"]["stride"] == 1
        ran = {r["name"]: r for r in json.loads((run_dir / "estimates.json").read_text())}
        for r in reports:
            for key in ("ratio", "lhs", "rhs"):
                assert r[key] == pytest.approx(ran[r["name"]][key], rel=1e-12, abs=0.0), (r["name"], key)

    def test_horizon_override_warns(self, tmp_path):
        scenario = small_scenario_file(tmp_path)
        out = tmp_path / "ovr"
        with pytest.warns(UserWarning, match="override"):
            code = cli.main([
                "picard", "--scenario", scenario, "--T", "0.2", "--out-dir", str(out),
            ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["horizon"]["source"] == "override-flag"


class TestErrorsAndExitCodes:
    @pytest.mark.parametrize("argv", [["picard"], ["picard", "--batch", "runs.json"]], ids=["bare", "batch"])
    def test_picard_needs_a_scenario(self, argv, capsys):
        # one run per invocation: --scenario is required and --batch is gone
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2
        assert "--scenario" in capsys.readouterr().err

    def test_unknown_key_exits_1(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({"preset": "decoupled", "bogus": 1}))
        code = cli.main(["picard", "--scenario", scenario.as_posix(), "--out-dir", str(tmp_path)])
        assert code == 1
        assert "bogus" in capsys.readouterr().err

    def test_no_out_dir_exits_1(self, monkeypatch, capsys):
        monkeypatch.delenv("SCHRO_OUT_DIR", raising=False)
        code = cli.main(["mizohata", "--b", "sech(x)"])
        assert code == 1
        assert "out-dir" in capsys.readouterr().err

    def test_env_out_dir_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv("SCHRO_OUT_DIR", str(tmp_path / "envout"))
        assert cli.main(["mizohata", "--b", "sech(x)", "--grid-n", "512"]) == 0
        assert (tmp_path / "envout" / "report.json").exists()

    @pytest.mark.parametrize("n_steps", ["64", 64.5, True, 64.0, [64]])
    def test_mistyped_step_count_exits_1(self, tmp_path, capsys, n_steps):
        scenario = small_scenario_file(tmp_path, {"stepper": {"n_steps": n_steps}})
        code = cli.main(["picard", "--scenario", scenario, "--out-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "n_steps" in err

    @pytest.mark.parametrize("t, shown", [(5.0, "5"), (-0.01, "-0.01"), (float("nan"), "nan")])
    def test_dump_time_outside_the_horizon_fails_before_the_solve(
        self, tmp_path, capsys, monkeypatch, t, shown
    ):
        def no_solve(*args, **kwargs):
            pytest.fail("the solve ran")

        monkeypatch.setattr(cli, "picard_solve", no_solve)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"preset": "decoupled", "times": [0.01, t]}))
        out = tmp_path / "out"
        assert cli.main(["picard", "--scenario", str(scenario), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: requested dump time {shown} outside [0, 0.035]")
        assert not (out / "fields").exists()

    def test_too_few_steps_exit_1(self, tmp_path, capsys):
        scenario = small_scenario_file(tmp_path, {"stepper": {"n_steps": 2}})
        code = cli.main(["picard", "--scenario", scenario, "--out-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "at least" in err

    @pytest.mark.parametrize(
        "extra, key",
        [
            ({"times": 5}, "times"),
            ({"times": [[0.0]]}, "times"),
            ({"stepper": 5}, "stepper"),
            ({"estimates": 5}, "estimates"),
            # NaN fails every comparison, so each range check must reject it by name
            ({"stepper": {"epsilon": float("nan")}}, "epsilon"),
            ({"tol": [1e-8]}, "tol"),
            ({"override_horizon": "false"}, "override_horizon"),
            ({"override_horizon": 0}, "override_horizon"),
            ({"estimates": {"bootstrap": "false"}}, "estimates.bootstrap"),
            ({"estimates": {"bootstrap": 1}}, "estimates.bootstrap"),
            ({"stepper": {"n_steps": "64"}}, "n_steps"),
            ({"data": {"g": 5}}, "data.g"),
            ({"m_max": 2.5}, "m_max"),
            ({"seed": True}, "seed"),
            ({"grid": {"n": 128.9}}, "grid.n"),
            ({"grid": {"L": "24"}}, "grid.L"),
            ({"weight": {"beta": "1"}}, "weight.beta"),
            ({"weight": {"mode": 1}}, "weight.mode"),
            ({"horizon": "0.035"}, "horizon"),
            ({"data": {"f": 5}}, "data.f"),
            ({"out_dir": 5}, "out_dir"),
            ({"stepper": {"dt": float("nan"), "n_steps": None}}, "dt"),
            ({"coefficients": {"lambda": float("nan")}}, "lambda"),
        ],
    )
    def test_mistyped_section_exits_1(self, tmp_path, capsys, extra, key):
        scenario = small_scenario_file(tmp_path, extra)
        code = cli.main(["picard", "--scenario", scenario, "--out-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err

    @pytest.mark.parametrize(
        "extra, key",
        [
            pytest.param({"estimates": {"energy": True}}, "'energy' in estimates", id="estimates.energy"),
            pytest.param({"estimates": {"smoothing": True}}, "'smoothing' in estimates", id="estimates.smoothing"),
            pytest.param({"estimates": {"q": 2.0}}, "'q' in estimates", id="estimates.q"),
            pytest.param({"estimates": {"delta": 0.6}}, "'delta' in estimates", id="estimates.delta"),
            pytest.param({"estimates": {"chain_constant": 1.0}}, "'chain_constant' in estimates",
                         id="estimates.chain_constant"),
            pytest.param({"estimates": {"slack": 0.05}}, "'slack' in estimates", id="estimates.slack"),
            pytest.param({"stepper": {"dt": 0.035 / 128, "n_steps": None}}, "'dt' in stepper", id="stepper.dt"),
            pytest.param({"override_horizon": False}, "'override_horizon' in scenario", id="override_horizon"),
        ],
    )
    def test_removed_key_exits_1(self, tmp_path, capsys, extra, key):
        # each key only ever took one value, so it is gone; an older scenario.json holding it is rejected
        scenario = small_scenario_file(tmp_path, extra)
        out = tmp_path / "out"
        code = cli.main(["picard", "--scenario", scenario, "--out-dir", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: unknown config key {key}")
        assert not out.exists()

    @pytest.mark.parametrize("extra, key", [({"m_max": 0}, "m_max"), ({"tol": 0}, "tol"),
                                            ({"tol": -1e-8}, "tol")])
    def test_out_of_range_sweep_setting_exits_1(self, tmp_path, capsys, extra, key):
        scenario = small_scenario_file(tmp_path, extra)
        code = cli.main(["picard", "--scenario", scenario, "--out-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err

    @pytest.mark.parametrize("size", [16, 19])
    def test_truncated_field_file_exits_1(self, tmp_path, capsys, size):
        # the binary header is 20 bytes; shorter files must not reach struct
        datum = tmp_path / "f.spf"
        datum.write_bytes(b"SPF1" + bytes(size - 4))
        scenario = small_scenario_file(tmp_path, {"data": {"f": str(datum)}})
        code = cli.main(["picard", "--scenario", scenario, "--out-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "truncated header" in err

    @pytest.mark.parametrize(
        "argv, scenario",
        [
            (["free-bvp", "--grid-n", "64", "--T", "inf"], None),
            (["picard", "--T", "inf"], {"preset": "decoupled"}),
            (["linear", "--T", "inf"], {"preset": "decoupled", "stepper": {"epsilon": 0.0}}),
            (["picard"], {"preset": "decoupled", "horizon": float("inf")}),
        ],
        ids=["free-bvp", "picard-flag", "linear-eps0", "scenario-infinity"],
    )
    def test_infinite_horizon_exits_1_before_any_file(self, tmp_path, capsys, argv, scenario):
        # inf passes every `horizon > 0` test; each path must name the horizon instead
        if scenario is not None:
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps(scenario))   # inf is written as the JSON token Infinity
            argv = argv + ["--scenario", str(path)]
        out = tmp_path / "out"
        assert cli.main(argv + ["--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: horizon must be positive and finite, got inf")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["free-bvp", "--grid-n", "64", "--datum-f", "nosuch"], "nosuch"),
            (["commutator-bench", "--grid-n", "256", "--trials", "2", "--lm", "0,a"], "--lm"),
            (["commutator-bench", "--grid-n", "256", "--trials", "2", "--seed", "-1"], "seed"),
            (["mizohata", "--grid-n", "256", "--b", "y"], "y"),
            # NaN and inf pass `> 0` tests, and 1e308 overflowed beta**2 uncaught
            (["free-bvp", "--grid-n", "64", "--beta", "inf"], "beta"),
            (["free-bvp", "--grid-n", "64", "--beta", "1e308"], "beta"),
            (["free-bvp", "--grid-n", "64", "--times", "nan"], "times"),
            (["free-bvp", "--grid-n", "64", "--times", "0.1,nan"], "times"),
            (["mizohata", "--grid-n", "256", "--b", "I*sech(x)", "--R", "nan"], "R_max"),
        ],
        ids=["free-bvp-datum", "commutator-bench-lm", "commutator-bench-seed", "mizohata-b", "free-bvp-beta-inf",
             "free-bvp-beta-overflow", "free-bvp-times-nan", "free-bvp-times-list-nan", "mizohata-R-nan"],
    )
    def test_rejected_input_leaves_no_directory(self, tmp_path, capsys, argv, needle):
        out = tmp_path / "out"
        assert cli.main(argv + ["--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and needle in err
        assert not out.exists()

    def test_verify_without_stored_slices_leaves_no_directory(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        (run / "scenario.json").write_text(json.dumps(SMALL))
        out = tmp_path / "new"
        assert cli.main(["verify-estimates", "--run-dir", str(run), "--out-dir", str(out)]) == 1
        assert "fields/times.csv missing" in capsys.readouterr().err
        assert not out.exists()

    def test_diverged_run_leaves_no_directory(self, tmp_path, capsys):
        # at n = 512 and 128 steps the benchmark's sweeps contract at T = 0.75 and not at 1.5
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"preset": "benchmark", "grid": {"n": 512}, "stepper": {"n_steps": 128}}))
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="override"):
            code = cli.main(["picard", "--scenario", str(scenario), "--T", "1.5", "--out-dir", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: no contraction for 3 consecutive sweeps")
        assert not out.exists()

    def test_non_converged_run_is_named_and_leaves_no_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(ConvergenceError, match="no convergence in 1 sweeps"):
            cli.run_picard_scenario(merge_scenario(load_preset("decoupled"), {"m_max": 1}), str(out))
        assert not out.exists()
        scenario = small_scenario_file(tmp_path, {"m_max": 1})
        assert cli.main(["picard", "--scenario", scenario, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: no convergence in 1 sweeps")
        assert not out.exists()

    def test_estimate_failure_maps_to_2(self):
        failing = EstimateReport(
            name="energy[-]", lhs=2.0, rhs=1.0, ratio=2.0, constants={}, verdict="fail"
        )
        passing = EstimateReport(
            name="energy[+]", lhs=0.5, rhs=1.0, ratio=0.5, constants={}, verdict="pass"
        )
        assert _estimates_exit([passing]) == 0
        assert _estimates_exit([passing, failing]) == 2


class TestMizohataCommand:
    def test_real_preset_bounded(self, tmp_path):
        out = tmp_path / "m"
        assert cli.main(["mizohata", "--b", "sech(x)", "--grid-n", "512",
                         "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"] == "bounded"
        assert report["sup_value"] == 0.0

    def test_imaginary_constant_slope(self, tmp_path):
        out = tmp_path / "m"
        assert cli.main(["mizohata", "--b", "3*I", "--grid-n", "512",
                         "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"] == "diverging"
        assert abs(report["growth_slope"] - 3.0) < 0.03

    def test_expression_field(self, tmp_path):
        # R deep enough that the integrable tail flattens the last decade
        out = tmp_path / "m"
        assert cli.main(["mizohata", "--b", "I*sech(x)", "--grid-n", "512",
                         "--R", "60", "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"] == "bounded"
        assert report["sup_value"] == pytest.approx(np.pi, rel=0.02)

    def test_benchmark_drift_preset_diverges_with_slope_two(self, tmp_path):
        # the benchmark's weighted drift -2i a q: q -> beta = 1 on the plateau
        # and a -> 1 away from the origin, so the running sup grows like 2 R
        out = tmp_path / "m"
        assert cli.main(["mizohata", "--preset", "benchmark-drift", "--grid-n", "512",
                         "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"] == "diverging"
        assert report["growth_slope"] == pytest.approx(2.0, rel=0.05)

    @pytest.mark.parametrize("argv, message", [
        (["--preset", "nope"], "error: unknown mizohata preset 'nope'; use benchmark-drift"),
        (["--preset", "benchmark-drift", "--b", "x"], "error: give either --preset or --b, not both"),
        ([], "error: mizohata needs --b EXPR or --preset NAME"),
    ], ids=["unknown-preset", "preset-and-b", "neither"])
    def test_usage_error_is_an_error_line_and_leaves_no_directory(self, tmp_path, capsys, argv, message):
        out = tmp_path / "m"
        assert cli.main(["mizohata", *argv, "--grid-n", "256", "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.strip() == message
        assert not out.exists()

    @pytest.mark.parametrize("expr", ["y", "foo(x)", "t*x", "1/x"])
    def test_bad_expression_is_an_error_line(self, tmp_path, capsys, expr):
        code = cli.main(["mizohata", "--b", expr, "--grid-n", "256",
                         "--out-dir", str(tmp_path / "m")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


class TestCoefficientText:
    """Coefficient expressions are read by a closed grammar and never run as Python."""

    # horizon auto-selected, so any admissible a and W runs to exit 0
    TINY = {
        "preset": "decoupled", "grid": {"n": 64, "L": 24.0}, "stepper": {"n_steps": 8}, "horizon": None,
    }

    def run(self, tmp_path, where, value):
        if where == "b":
            return cli.main(["mizohata", "--b", value, "--grid-n", "64", "--out-dir", str(tmp_path / "m")])
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(merge_scenario(self.TINY, {"coefficients": {where: value}})))
        return cli.main(["picard", "--scenario", str(scenario), "--out-dir", str(tmp_path / "out")])

    @pytest.mark.parametrize("where", ["a", "W", "b"])
    @pytest.mark.parametrize(
        "text",
        ['__import__("os").makedirs("{ran}") or 1', "pi", "E", "oo", "sqrt(2)", "Rational(1,2)",
         "x if 1 else 2", "[1][0]", "(lambda: 1)()", "1j", "exp(x=1)", "x.real", "x and 1", "x % 2"],
    )
    def test_outside_the_grammar_is_an_error_line(self, tmp_path, capsys, where, text):
        ran = tmp_path / "ran"
        assert self.run(tmp_path, where, text.format(ran=ran.as_posix())) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not ran.exists()

    @pytest.mark.parametrize("where, name", [("a", "dispersive coefficient"), ("W", "potential")])
    @pytest.mark.parametrize("value", [[1], None, True, {"x": 1}])
    def test_mistyped_value_is_an_error_line(self, tmp_path, capsys, where, name, value):
        assert self.run(tmp_path, where, value) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err

    @pytest.mark.parametrize(
        "where, value", [("a", 2), ("W", 0.5), ("a", "2^1 + exp(-t)*sech(x)^2"), ("b", "I*tanh(x)^2")]
    )
    def test_grammar_and_json_numbers_run(self, tmp_path, where, value):
        assert self.run(tmp_path, where, value) == 0

    @pytest.mark.parametrize("where", ["a", "W", "b"])
    @pytest.mark.parametrize("text", ["1/0", "10^400", "x + 9^9^9^9"])
    def test_constant_that_cannot_be_evaluated_is_an_error_line(self, tmp_path, capsys, where, text):
        assert self.run(tmp_path, where, text) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "cannot be evaluated" in err


def carrier_pair(n_times, n=256):
    grid = Grid1D(n, 4 * np.pi)
    times = np.linspace(0.0, 0.1, n_times)

    def stack(seed):
        return np.stack([random_band_hat(grid, 40, seed + i) for i in range(n_times)])

    return SpaceTimeField(grid, times, hats=stack(0)), SpaceTimeField(grid, times, hats=stack(1000))


def stored_files(run_dir):
    return {f.name: f.read_bytes() for f in (run_dir / "fields").iterdir()}


class TestStoredCarriers:
    @pytest.mark.parametrize(
        "steps, count", [(64, 65), (512, 129), (131, 132), (257, 258), (256, 129), (8, 9)],
    )
    def test_stored_slices_are_uniform_and_never_just_the_ends(self, steps, count):
        # the presets keep 65 and 129 slices; a prime step count keeps every slice
        stride = cli._storage_stride(steps + 1)
        assert steps % stride == 0 and steps // stride + 1 == count

    def test_a_step_count_it_cannot_store_fails_before_the_solve(self, tmp_path, capsys, monkeypatch):
        # 1031 is prime: every slice is 1032, more than 513, and the next divisor keeps the ends only
        with pytest.raises(ConfigError, match="n_steps = 1031"):
            cli._storage_stride(1032)

        def no_solve(*args, **kwargs):
            pytest.fail("the solve ran")

        monkeypatch.setattr(cli, "picard_solve", no_solve)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"preset": "decoupled", "stepper": {"n_steps": 1031}}))
        out = tmp_path / "out"
        assert cli.main(["picard", "--scenario", str(scenario), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: n_steps = 1031 has no divisor")
        assert not (out / "fields").exists()

    def test_files_match_single_slice_dumps(self, tmp_path):
        # 257 times: stride 2, 129 slices in three 64-row blocks
        vp, vm = carrier_pair(257)
        assert cli._store_carriers(tmp_path, vp, vm) == {"stride": 2, "count": 129}
        files = stored_files(tmp_path)
        assert len(files) == 2 * 129 + 1
        ref = tmp_path / "ref.spf"
        for j in range(129):
            for name, carrier in (("vplus", vp), ("vminus", vm)):
                dump_field_binary(carrier.slice(2 * j), ref)
                assert files[f"{name}_{j:04d}.spf"] == ref.read_bytes()
        rows = [f"{j},{t:.17g}" for j, t in enumerate(vp.times[::2])]
        assert files["times.csv"].decode() == "\n".join(["index,t", *rows]) + "\n"

    def test_rerun_leaves_no_stale_slices(self, tmp_path):
        cli._store_carriers(tmp_path, *carrier_pair(257))
        assert cli._store_carriers(tmp_path, *carrier_pair(9)) == {"stride": 1, "count": 9}
        names = {f"{name}_{j:04d}.spf" for name in ("vplus", "vminus") for j in range(9)}
        assert set(stored_files(tmp_path)) == names | {"times.csv"}
        assert [p.name for p in tmp_path.iterdir()] == ["fields"]

    def test_failed_write_keeps_the_old_fields(self, tmp_path, monkeypatch):
        cli._store_carriers(tmp_path, *carrier_pair(9))
        before = stored_files(tmp_path)
        calls = []

        def failing(grid, values):
            calls.append(1)
            if len(calls) == 5:
                raise OSError("disk full")
            return b"partial"

        monkeypatch.setattr(cli, "field_binary_bytes", failing)
        with pytest.raises(OSError, match="disk full"):
            cli._store_carriers(tmp_path, *carrier_pair(17))
        assert stored_files(tmp_path) == before
        assert [p.name for p in tmp_path.iterdir()] == ["fields"]


class TestCommutatorBenchCommand:
    def test_artifacts(self, tmp_path):
        out = tmp_path / "bench"
        code = cli.main([
            "commutator-bench", "--trials", "8", "--grid-n", "512",
            "--bandwidth", "32", "--lm", "0,1", "--p", "2,4/3",
            "--no-stability", "--out-dir", str(out),
        ])
        assert code == 0
        rows = (out / "bench.csv").read_text().splitlines()
        assert rows[0] == "operator,l,m,p,trial,ratio"
        assert len(rows) == 1 + 8 * 2
        summary = json.loads((out / "bench-summary.json").read_text())
        assert len(summary["estimates"]) == 2
        assert all(np.isfinite(e["max_ratio"]) for e in summary["estimates"])

    def test_duplicate_exponents_keep_their_rows_in_order(self, tmp_path):
        out = tmp_path / "bench"
        code = cli.main([
            "commutator-bench", "--trials", "4", "--grid-n", "256",
            "--bandwidth", "16", "--lm", "1,1;0,1", "--p", "2,4/3,2",
            "--no-stability", "--out-dir", str(out),
        ])
        assert code == 0
        rows = [row.split(",") for row in (out / "bench.csv").read_text().splitlines()[1:]]
        keys = [(p, l, m) for p in (2.0, 4 / 3, 2.0) for l, m in (("0", "1"), ("1", "1"))]
        assert [(float(r[3]), r[1], r[2]) for r in rows] == [k for k in keys for _ in range(4)]
        assert rows[:8] == rows[16:]
        summary = json.loads((out / "bench-summary.json").read_text())["estimates"]
        assert [(e["p"], str(e["l"]), str(e["m"])) for e in summary] == keys
        assert summary[:2] == summary[4:]

    @pytest.mark.parametrize(
        "flags, needle",
        [
            (["--trials", "0"], "trial"),
            (["--trials", "-3"], "trial"),
            (["--bandwidth", "0"], "bandwidth"),
            (["--p", "1/0"], "denominator"),
            (["--p", "abc"], "--p expects numbers or fractions 'a/b', got 'abc'"),
            (["--lm", "0,a"], "--lm expects integer 'l,m' pairs separated by ';', got '0,a'"),
        ],
    )
    def test_empty_or_undefined_ensemble_exits_1(self, tmp_path, capsys, flags, needle):
        out = tmp_path / "bench"
        code = cli.main(["commutator-bench", "--grid-n", "256", "--bandwidth", "16",
                         "--trials", "2", *flags, "--out-dir", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and needle in err
        assert not (out / "bench-summary.json").exists()


class TestPicardMemory:
    def test_carriers_stay_hats_through_the_run(self, tmp_path, monkeypatch):
        # the run never asks for a whole physical stack, only blocks of one
        def whole_stack(field):
            pytest.fail("a whole physical stack was built")

        monkeypatch.setattr(SpaceTimeField, "values", property(whole_stack))
        assert cli.run_picard_scenario(merge_scenario(SMALL, {}), str(tmp_path / "out")) == 0

    def test_monitors_build_no_source_stack(self, tmp_path, monkeypatch):
        # the energy monitors read the sources' norm series block by block
        sc = build_scenario(merge_scenario(SMALL, {}))
        problem = BvpProblem(
            f=sc.f, g=sc.g, coeffs=sc.coeffs, weight=sc.weight,
            horizon=sc.horizon, stepper_cfg=sc.stepper,
        )
        vp, vm, report = picard_solve(problem, tol=sc.tol, m_max=sc.m_max)
        asm = assemble_solution(vp, vm, sc.weight)

        def no_stack(*args, **kwargs):
            pytest.fail("a coupling-source stack was built")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "schrobvp" and hasattr(module, "coupling_stacks"):
                monkeypatch.setattr(module, "coupling_stacks", no_stack)
        reports = cli.run_monitors(sc, vp, vm, asm.w, report.table, report.bundle)
        energy = [r for r in reports if r.name.startswith("energy")]
        assert len(energy) == 2
        assert all(r.verdict == "pass" and r.constants["source_integral"] > 0 for r in energy)

    def test_monitors_read_a_from_the_table(self, monkeypatch):
        # benchmark coefficients (a varies in x and t) on a small grid: every
        # monitor, the bootstrap's floor and pairings included, reads a from the
        # solve's table and evaluates only a_x and a_xx
        sc = build_scenario(merge_scenario(load_preset("benchmark"), {"grid": {"n": 256, "L": 24.0}}))
        assert sc.bootstrap and sc.coeffs.a_time_dependent
        problem = BvpProblem(
            f=sc.f, g=sc.g, coeffs=sc.coeffs, weight=sc.weight,
            horizon=cli.resolve_horizon(sc, None)[0], stepper_cfg=sc.stepper,
        )
        vp, vm, report = picard_solve(problem, tol=sc.tol, m_max=sc.m_max)
        asm = assemble_solution(vp, vm, sc.weight)

        def no_samples(self, x, t, out=None):
            pytest.fail("a monitor evaluated a(x, t)")

        monkeypatch.setattr(CoefficientField, "a_values", no_samples)
        reports = cli.run_monitors(sc, vp, vm, asm.w, report.table, report.bundle)
        assert [r.name for r in reports] == ["energy[-]", "energy[+]", "weighted-smoothing", "bootstrap"]
        assert all(r.verdict == "pass" for r in reports)


class TestOneBuildPerRun:
    def test_one_table_and_one_solve_grid_bundle(self, tmp_path, monkeypatch):
        # the monitors read the solve's operator table and rate bundle
        tables, bundle_grids = [], []
        build = stepper.OperatorTable.__init__

        def counting_build(self, *args, **kwargs):
            tables.append(args)
            build(self, *args, **kwargs)

        def counting_bundle(coeffs, beta, times, grid, **kwargs):
            bundle_grids.append(np.array(times))
            return norm_bundle(coeffs, beta, times, grid, **kwargs)

        monkeypatch.setattr(stepper.OperatorTable, "__init__", counting_build)
        for name, module in list(sys.modules.items()):
            if name.startswith("schrobvp.") and hasattr(module, "norm_bundle"):
                monkeypatch.setattr(module, "norm_bundle", counting_bundle)
        out = tmp_path / "out"
        assert cli.run_picard_scenario({"preset": "benchmark"}, str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        steps = build_scenario(load_preset("benchmark")).stepper.n_steps
        solve_grid = np.linspace(0.0, report["picard"]["horizon"], steps + 1)
        assert len(tables) == 1
        assert sum(np.array_equal(t, solve_grid) for t in bundle_grids) == 1


def free_on(n, a="1", W="0", lam=1.0):
    """The free preset on an n-point grid with the coefficients (a, W)."""
    return {"preset": "free", "grid": {"n": n, "L": 24.0}, "stepper": {"n_steps": 24},
            "coefficients": {"a": a, "W": W, "lambda": lam}}


def full_probe(sc):
    """The horizon selection of the whole probe grid, in one norm_bundle call."""
    window, nodes = cli._HORIZON_PROBE
    bundle = norm_bundle(sc.coeffs, sc.weight.sup_logderiv, np.linspace(0.0, window, nodes), sc.grid)
    return select_horizon(bundle)


class TestHorizonProbe:
    @pytest.fixture
    def probed_nodes(self, monkeypatch):
        nodes = []

        def counting(coeffs, beta, times, grid, **kwargs):
            nodes.append(len(times))
            return norm_bundle(coeffs, beta, times, grid, **kwargs)

        monkeypatch.setattr(cli, "norm_bundle", counting)
        return nodes

    @pytest.mark.parametrize(
        "raw", [{"preset": "benchmark"}, {"preset": "free"}, free_on(1024, a="0.5", lam=0.0)]
    )
    def test_blockwise_probe_selects_what_the_whole_probe_selects(self, raw, probed_nodes):
        sc = build_scenario(raw)
        horizon, override, trace = cli.resolve_horizon(sc, None)
        sel = full_probe(sc)
        assert trace == {"source": "selected", **asdict(sel)}
        assert (horizon, override) == (sel.horizon, False)
        # the probe stops in the block that holds the first inadmissible node
        step = cli._PROBE_BLOCK
        assert len(probed_nodes) == sel.index // (step - 1) + 1 > 1 and set(probed_nodes) == {step}
        assert sum(probed_nodes) - len(probed_nodes) + 1 < sel.index + 1 + step

    def test_window_of_admissible_nodes_selects_its_end(self, probed_nodes):
        sc = build_scenario(free_on(256, a="0", lam=0.0))
        horizon, _, trace = cli.resolve_horizon(sc, None)
        window, nodes = cli._HORIZON_PROBE
        assert horizon == window and trace["index"] == nodes - 1
        assert sum(probed_nodes) - len(probed_nodes) + 1 == nodes

    def test_failure_in_the_first_block_keeps_its_message(self, probed_nodes):
        sc = build_scenario(free_on(256, W="1e5"))
        with pytest.raises(HorizonError) as whole:
            full_probe(sc)
        with pytest.raises(HorizonError) as blockwise:
            cli.resolve_horizon(sc, None)
        assert str(blockwise.value) == str(whole.value)
        assert probed_nodes == [cli._PROBE_BLOCK]

    def test_budget_overflow_is_a_rejection_without_a_warning(self, tmp_path, capsys):
        # int c passes 177 in the first block, so exp(4 int c) is inf there
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(free_on(256, a="1e5")))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["picard", "--scenario", str(scenario), "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err.startswith("error: no admissible horizon")

    def test_coefficients_are_checked_only_where_the_probe_reaches(self):
        # W overflows for t > 0.164, far beyond the horizon (about 0.02)
        sc = build_scenario(free_on(256, W="1e-300*exp(exp(40*t))"))
        with pytest.raises(ValidationError, match="W is not finite"):
            full_probe(sc)
        horizon, _, _ = cli.resolve_horizon(sc, None)
        assert horizon == cli.resolve_horizon(build_scenario(free_on(256)), None)[0]

    def test_coefficients_stay_checked_on_the_solve_grid(self, tmp_path):
        # a pole on a node of the solve grid that no probe node hits
        horizon = cli.resolve_horizon(build_scenario(free_on(256)), None)[0]
        pole = float(np.linspace(0.0, horizon, 25)[1])
        window, nodes = cli._HORIZON_PROBE
        assert pole not in np.linspace(0.0, window, nodes)
        raw = free_on(256, W=f"1e-300/(t - {pole!r})")
        assert cli.resolve_horizon(build_scenario(raw), None)[0] == horizon
        with pytest.raises(ValidationError, match="W is not finite"):
            cli.run_picard_scenario(raw, str(tmp_path / "out"))

    @pytest.mark.parametrize(
        "W", [None, "0.05*sech(x)*exp(-t)", "0.05*I*sech(x)*exp(-t)"],
        ids=["benchmark", "t-dependent real W", "complex W"],
    )
    def test_blockwise_rates_equal_one_whole_prefix_call(self, W, monkeypatch):
        raw = {"preset": "benchmark"} if W is None else {"preset": "benchmark", "coefficients": {"W": W}}
        sc = build_scenario(raw)
        blocks = []

        def recording(coeffs, beta, times, grid, **kwargs):
            blocks.append(norm_bundle(coeffs, beta, times, grid, **kwargs))
            return blocks[-1]

        monkeypatch.setattr(cli, "norm_bundle", recording)
        cli.resolve_horizon(sc, None)
        assert len(blocks) > 1
        # neighbouring blocks share a node; the whole call samples the prefix in other row blocks
        prefix = np.concatenate([blocks[0].times] + [b.times[1:] for b in blocks[1:]])
        whole = norm_bundle(sc.coeffs, sc.weight.sup_logderiv, prefix, sc.grid)
        for name in ("coupling_rate", "energy_rate"):
            rates = [getattr(b, name) for b in blocks]
            assert all(r[-1] == s[0] for r, s in zip(rates, rates[1:]))
            assert np.array_equal(np.concatenate([rates[0]] + [r[1:] for r in rates[1:]]), getattr(whole, name))

    def test_one_evaluator_call_per_coefficient_and_probe_block(self, probed_nodes, monkeypatch):
        # perfbench counts the same four methods
        sc = build_scenario({"preset": "benchmark"})
        calls = dict.fromkeys(("a_values", "a_x", "a_xx", "w_values"), 0)
        for name in calls:
            def counted(self, x, t, out=None, _name=name, _method=getattr(CoefficientField, name)):
                calls[_name] += 1
                return _method(self, x, t, out)

            monkeypatch.setattr(CoefficientField, name, counted)
        cli.resolve_horizon(sc, None)
        assert not sc.coeffs.w_time_dependent
        assert sum(calls.values()) <= 4 * len(probed_nodes)
        assert calls["w_values"] == len(probed_nodes)
