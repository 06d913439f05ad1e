"""Scenario configs, CSV/manifest output, the report merger, and exit codes."""

from __future__ import annotations

import json

import numpy as np
import pytest

import levyflow as lf
from levyflow import cli


def _write_config(tmp_path, doc, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


ZERO_TRIPLET = {
    "d": 2,
    "sigma": [0.0] * 16,
    "gamma": [0.0, 0.0, 0.0, 0.0],
}


def _simulate_config(tmp_path, seed=1, triplet="rotation_rank1", **extra):
    doc = {
        "triplet": triplet,
        "experiment": "simulate",
        "parameters": {"T": 1.0, "dt": 0.25, "seed": seed, **extra},
        "output_dir": str(tmp_path / "out"),
    }
    return _write_config(tmp_path, doc)


class TestRunScenario:
    def test_zero_dynamics_stay_at_identity(self, tmp_path):
        cfg = _simulate_config(tmp_path, triplet=ZERO_TRIPLET)
        man = cli.run_scenario(cfg)
        text = (tmp_path / "out" / "simulate.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == "t,X11,X12,X21,X22"
        for line in lines[1:]:
            _, x11, x12, x21, x22 = line.split(",")
            assert (x11, x12, x21, x22) == ("1", "0", "0", "1")
        assert text.endswith("\n")
        assert "\r" not in text
        assert man.summary["final_det"] == 1.0

    def test_manifest_contents(self, tmp_path):
        cfg = _simulate_config(tmp_path)
        man = cli.run_scenario(cfg)
        assert len(man.scenario_hash) == 16
        int(man.scenario_hash, 16)  # hex
        assert man.experiment == "simulate"
        assert man.seed == 1
        assert man.files == ("simulate.csv",)
        assert man.wall_clock_s >= 0.0
        doc = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert doc["scenario_hash"] == man.scenario_hash
        assert doc["seed"] == 1

    def test_seed_override_changes_hash(self, tmp_path):
        cfg = _simulate_config(tmp_path)
        m1 = cli.run_scenario(cfg)
        m2 = cli.run_scenario(cfg, seed=2, out_dir=str(tmp_path / "out2"))
        assert m2.seed == 2
        assert m1.scenario_hash != m2.scenario_hash

    def test_output_dir_does_not_enter_hash(self, tmp_path):
        cfg = _simulate_config(tmp_path)
        m1 = cli.run_scenario(cfg)
        m2 = cli.run_scenario(cfg, out_dir=str(tmp_path / "elsewhere"))
        assert m1.scenario_hash == m2.scenario_hash

    def test_load_manifest_round_trip(self, tmp_path):
        cfg = _simulate_config(tmp_path)
        man = cli.run_scenario(cfg)
        back = cli.load_manifest(tmp_path / "out" / "manifest.json")
        assert back.scenario_hash == man.scenario_hash
        assert back.summary.keys() == man.summary.keys()

    def test_load_manifest_is_exact_and_ignores_unknown_keys(self, tmp_path):
        man = cli.run_scenario(_simulate_config(tmp_path))
        path = tmp_path / "out" / "manifest.json"
        assert cli.load_manifest(path) == man
        path.write_text(json.dumps({**json.loads(path.read_text()), "profile": {}}))
        assert cli.load_manifest(path) == man

    def test_float_formatting_is_shortest_exact(self, tmp_path):
        doc = {
            "triplet": "rotation_rank1",
            "experiment": "determinant",
            "parameters": {"T": 2.0, "dt": 0.25, "seed": 11},
            "output_dir": str(tmp_path / "det"),
        }
        cli.run_scenario(_write_config(tmp_path, doc))
        text = (tmp_path / "det" / "determinant.csv").read_text()
        for line in text.splitlines()[1:]:
            for cell in line.split(","):
                assert cell == f"{float(cell):.17g}"
                # the formatter must round-trip exactly
                assert float(f"{float(cell):.17g}") == float(cell)


    def test_float_array_rows_write_the_same_bytes_as_list_rows(self, tmp_path):
        table = np.array([
            [0.0, -0.0, 1.0, -1.0],
            [np.nan, np.inf, -np.inf, 5e-324],
            [0.1, 1.0 / 3.0, 2.0 / 3.0, 1.7976931348623157e308],
            [123456789.12345678, -2.2250738585072014e-308, 1e22, 9007199254740993.0],
        ])
        cli._write_csv(tmp_path / "array.csv", ["a", "b", "c", "d"], table)
        cli._write_csv(tmp_path / "list.csv", ["a", "b", "c", "d"], table.tolist())
        text = (tmp_path / "array.csv").read_bytes()
        assert text == (tmp_path / "list.csv").read_bytes()
        assert text.splitlines()[1] == b"0,-0,1,-1"
        assert text.splitlines()[2] == b"nan,inf,-inf,4.9406564584124654e-324"
        assert text.splitlines()[3].split(b",")[1] == b"0.33333333333333331"


class TestConfigErrors:
    def test_missing_seed_is_named(self, tmp_path):
        doc = {"triplet": "rotation_rank1", "experiment": "simulate",
               "parameters": {"T": 1.0, "dt": 0.5},
               "output_dir": str(tmp_path / "o")}
        with pytest.raises(cli.ConfigError, match="parameters.seed"):
            cli.run_scenario(_write_config(tmp_path, doc))

    def test_experiment_mismatch(self, tmp_path):
        cfg = _simulate_config(tmp_path)
        with pytest.raises(cli.ConfigError, match="experiment"):
            cli.run_scenario(cfg, experiment="determinant")

    def test_unknown_triplet(self, tmp_path):
        cfg = _simulate_config(tmp_path, triplet="no_such_model")
        with pytest.raises(cli.ConfigError, match="triplet"):
            cli.run_scenario(cfg)

    def test_wrong_parameter_type(self, tmp_path):
        cfg = _simulate_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["parameters"]["T"] = "one"
        cfg.write_text(json.dumps(doc))
        with pytest.raises(cli.ConfigError, match="parameters.T"):
            cli.run_scenario(cfg)

    def test_invalid_triplet_reports_rules(self, tmp_path):
        bad = dict(ZERO_TRIPLET)
        bad["sigma"] = list(np.diag([1.0, -1.0, 1.0, 1.0]).ravel())
        cfg = _simulate_config(tmp_path, triplet=bad)
        with pytest.raises(cli.ValidationError, match="sigma-psd"):
            cli.run_scenario(cfg)


class TestMain:
    def test_success_exit_zero(self, tmp_path, capsys):
        cfg = _simulate_config(tmp_path)
        assert cli.main(["simulate", "--config", str(cfg)]) == 0
        assert "simulate.csv" in capsys.readouterr().out

    def test_config_error_exit_two(self, tmp_path, capsys):
        doc = {"triplet": "rotation_rank1", "experiment": "simulate",
               "parameters": {"T": 1.0, "dt": 0.5},
               "output_dir": str(tmp_path / "o")}
        cfg = _write_config(tmp_path, doc)
        assert cli.main(["simulate", "--config", str(cfg)]) == 2
        assert "parameters.seed" in capsys.readouterr().err

    # standard_brownian(2) noise with drift 800 I at dt = 1: the engine's
    # drift factor e^800 overflows
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("experiment, parameters", [
        ("mixing", {"t_grid": [1.0, 2.0], "n_paths": 20, "dt": 1.0}),
        ("mean_check", {"t": 4.0, "n_paths": 50}),
    ], ids=["mixing", "mean_check"])
    def test_engine_overflow_exit_three(self, tmp_path, capsys, experiment, parameters):
        triplet = {"d": 2, "sigma": list(np.eye(4).ravel()),
                   "gamma": [800.0, 0.0, 0.0, 800.0]}
        doc = {"triplet": triplet, "experiment": experiment,
               "parameters": {"seed": 1, **parameters},
               "output_dir": str(tmp_path / "o")}
        cfg = _write_config(tmp_path, doc)
        assert cli.main([experiment, "--config", str(cfg)]) == 3
        assert "DegenerateNorm" in capsys.readouterr().err

    def test_runtime_error_exit_three(self, tmp_path, capsys):
        cfg = _simulate_config(tmp_path, triplet="standard_brownian(2)",
                               method="exact")
        assert cli.main(["simulate", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err != ""

    @pytest.mark.parametrize("experiment, parameters, key", [
        ("generator_check", {"h_grid": [0.01], "n_paths": 100, "x": [1, 0, 0]},
         "parameters.x"),
        ("invariant_measure", {"h": 0.2, "n_steps": 30, "burn_in": 10,
                               "n_chains": 4, "seed": 3, "dt": -3}, "parameters.dt"),
        ("lyapunov", {"T": 1.0, "n_paths": 10,
                      "F": {"kind": "vector_norm", "y": [1, 0, 0]}}, "parameters.F.y"),
        ("clt", {"T": 1.0, "n_paths": 10, "F": {"kind": "entry", "i": 5, "j": 0}},
         "parameters.F.i"),
        ("clt", {"T": 1.0, "n_paths": 10, "F": {"kind": "entry", "i": 0, "j": 0.5}},
         "parameters.F.j"),
        ("clt", {"T": 1.0, "n_paths": 10,
                 "F": {"kind": "abs_inner", "y": [1, 0], "z": [0, 1, 0]}}, "parameters.F.z"),
        ("mixing", {"t_grid": [0.5, 1.0], "n_paths": 10,
                    "f": {"kind": "coord_sq", "u": [0, 0]}}, "parameters.f.u"),
    ], ids=["generator_check_x", "invariant_measure_dt", "vector_norm_y",
            "entry_index", "entry_fractional_index", "abs_inner_z", "mixing_zero_u"])
    def test_bad_parameter_exit_two_names_key(self, tmp_path, capsys, experiment,
                                              parameters, key):
        doc = {"triplet": "standard_brownian(2)", "experiment": experiment,
               "parameters": {"seed": 1, **parameters},
               "output_dir": str(tmp_path / "o")}
        cfg = _write_config(tmp_path, doc)
        assert cli.main([experiment, "--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err

    def test_seed_flag_overrides(self, tmp_path):
        cfg = _simulate_config(tmp_path)
        assert cli.main(["simulate", "--config", str(cfg),
                         "--seed", "9", "--out", str(tmp_path / "s9")]) == 0
        doc = json.loads((tmp_path / "s9" / "manifest.json").read_text())
        assert doc["seed"] == 9


class TestReport:
    def test_empty(self):
        assert cli.emit_report([]) == "scenario_hash,experiment,seed\n"

    def test_scalar_summaries_align_columns(self, tmp_path):
        m1 = cli.run_scenario(_simulate_config(tmp_path, seed=1))
        cfg2 = _simulate_config(tmp_path, seed=2)
        m2 = cli.run_scenario(cfg2, out_dir=str(tmp_path / "out2"))
        text = cli.emit_report([m1, m2])
        lines = text.splitlines()
        assert lines[0].startswith("scenario_hash,experiment,seed,")
        assert len(lines) == 3
        header_cols = lines[0].count(",")
        assert all(line.count(",") == header_cols for line in lines[1:])
        assert lines[1].split(",")[2] == "1"
        assert lines[2].split(",")[2] == "2"

    def test_berry_esseen_long_format(self, tmp_path):
        doc = {
            "triplet": "gbm1(0.1, 0.2)",
            "experiment": "berry_esseen",
            "parameters": {"t_grid": [2.0, 4.0], "n_paths": 300, "seed": 5},
            "output_dir": str(tmp_path / "be"),
        }
        man = cli.run_scenario(_write_config(tmp_path, doc))
        text = cli.emit_report([man])
        lines = text.splitlines()
        assert lines[0] == "scenario_hash,t,sup_dist"
        assert len(lines) == 3
        assert lines[1].split(",")[0] == man.scenario_hash
        assert float(lines[1].split(",")[1]) == 2.0

    def test_mixed_kinds_rejected(self, tmp_path):
        m1 = cli.run_scenario(_simulate_config(tmp_path))
        doc = {
            "triplet": "gbm1(0.1, 0.2)",
            "experiment": "berry_esseen",
            "parameters": {"t_grid": [2.0], "n_paths": 200, "seed": 5},
            "output_dir": str(tmp_path / "be"),
        }
        m2 = cli.run_scenario(_write_config(tmp_path, doc, name="c2.json"))
        with pytest.raises(cli.MixedKinds):
            cli.emit_report([m1, m2])

    def test_report_subcommand_writes_file(self, tmp_path, capsys):
        cli.run_scenario(_simulate_config(tmp_path))
        man_path = tmp_path / "out" / "manifest.json"
        out_csv = tmp_path / "report.csv"
        assert cli.main(["report", str(man_path), "--out", str(out_csv)]) == 0
        assert out_csv.read_text().startswith("scenario_hash,experiment,seed,")

    def test_mixed_kinds_exit_code(self, tmp_path, capsys):
        cli.run_scenario(_simulate_config(tmp_path))
        doc = {
            "triplet": "gbm1(0.1, 0.2)",
            "experiment": "berry_esseen",
            "parameters": {"t_grid": [2.0], "n_paths": 200, "seed": 5},
            "output_dir": str(tmp_path / "be"),
        }
        cli.run_scenario(_write_config(tmp_path, doc, name="c2.json"))
        code = cli.main(["report", str(tmp_path / "out" / "manifest.json"),
                         str(tmp_path / "be" / "manifest.json")])
        assert code == 2

    @pytest.mark.parametrize("text, named", [
        ('{"scenario_hash": "x"}', "version"),
        ('[1, 2]', "manifest.json"),
        (None, "manifest.json"),
        ('{"scenario_hash": ', "manifest.json"),
        ('{"scenario_hash": "x", "version": "1", "experiment": "simulate", "seed": "abc",'
         ' "wall_clock_s": 1.0, "summary": {}, "files": []}', "seed"),
        ('{"scenario_hash": "x", "version": "1", "experiment": "simulate", "seed": 1,'
         ' "wall_clock_s": 1.0, "summary": {}, "files": 3}', ": files"),
        ('{"scenario_hash": "x", "version": "1", "experiment": "simulate", "seed": 1,'
         ' "wall_clock_s": 1.0, "summary": [], "files": []}', ": summary"),
    ], ids=["missing_key", "json_list", "missing_file", "invalid_json", "non_numeric_seed",
            "files_not_a_list", "summary_not_an_object"])
    def test_bad_manifest_exit_two(self, tmp_path, capsys, text, named):
        path = tmp_path / "manifest.json"
        if text is not None:
            path.write_text(text)
        assert cli.main(["report", str(path)]) == 2
        assert named in capsys.readouterr().err


class TestExperimentRunners:
    """One fast end-to-end run for each runner not exercised elsewhere."""

    def test_lyapunov(self, tmp_path):
        doc = {"triplet": "gbm1(0.1, 0.2)", "experiment": "lyapunov",
               "parameters": {"T": 5.0, "n_paths": 200, "seed": 3},
               "output_dir": str(tmp_path / "o")}
        man = cli.run_scenario(_write_config(tmp_path, doc))
        assert "lambda_hat" in man.summary
        assert man.summary["lambda_se"] > 0

    def test_invariant_measure(self, tmp_path):
        doc = {"triplet": "standard_brownian(2)",
               "experiment": "invariant_measure",
               "parameters": {"h": 0.2, "n_steps": 30, "burn_in": 10,
                              "n_chains": 4, "seed": 3},
               "output_dir": str(tmp_path / "o")}
        man = cli.run_scenario(_write_config(tmp_path, doc))
        text = (tmp_path / "o" / "invariant_measure.csv").read_text()
        assert text.splitlines()[0] == "angle,v1,v2,weight"
        assert len(text.splitlines()) == 1 + 20 * 4

    @pytest.mark.parametrize("d", [2, 3])
    def test_invariant_measure_csv_is_the_library_measure(self, tmp_path, d):
        params = {"h": 0.2, "n_steps": 30, "burn_in": 10, "n_chains": 4, "seed": 3}
        doc = {"triplet": f"standard_brownian({d})",
               "experiment": "invariant_measure", "parameters": params,
               "output_dir": str(tmp_path / "o")}
        cli.run_scenario(_write_config(tmp_path, doc))
        table = np.loadtxt(tmp_path / "o" / "invariant_measure.csv",
                           delimiter=",", skiprows=1)
        meas = lf.estimate_invariant_measure(
            lf.builtin_triplet(f"standard_brownian({d})"), params["h"],
            params["n_steps"], params["burn_in"], params["n_chains"], params["seed"])
        np.testing.assert_array_equal(table[:, -1], meas.weights)
        np.testing.assert_array_equal(table[:, -1 - d:-1], meas.points)
        if d == 2:
            np.testing.assert_array_equal(table[:, 0], meas.angles())

    def test_invariant_measure_absent_dt_is_default_substep(self, tmp_path):
        params = {"h": 0.2, "n_steps": 30, "burn_in": 10, "n_chains": 4, "seed": 3}
        texts = []
        for name, extra in (("absent", {}), ("explicit", {"dt": 0.05})):
            doc = {"triplet": "standard_brownian(2)",
                   "experiment": "invariant_measure",
                   "parameters": {**params, **extra},
                   "output_dir": str(tmp_path / name)}
            cli.run_scenario(_write_config(tmp_path, doc, name=f"{name}.json"))
            texts.append((tmp_path / name / "invariant_measure.csv").read_bytes())
        assert texts[0] == texts[1]

    def test_mixing(self, tmp_path):
        doc = {"triplet": "standard_brownian(2)", "experiment": "mixing",
               "parameters": {"t_grid": [0.5, 1.0, 2.0], "n_paths": 2000,
                              "seed": 3},
               "output_dir": str(tmp_path / "o")}
        man = cli.run_scenario(_write_config(tmp_path, doc))
        assert set(man.summary) == {"D_hat", "d_hat", "r2", "flagged_no_decay"}

    def test_ip_certify(self, tmp_path):
        doc = {"triplet": "rotation_rank1", "experiment": "ip_certify",
               "parameters": {"seed": 0},
               "output_dir": str(tmp_path / "o")}
        man = cli.run_scenario(_write_config(tmp_path, doc))
        assert man.summary["status"] == "certified"
        text = (tmp_path / "o" / "ip_certify.csv").read_text()
        assert text.splitlines()[0] == "status,route,witness_word,counterexample_kind"

    def test_generator_check(self, tmp_path):
        doc = {"triplet": "standard_brownian(2)", "experiment": "generator_check",
               "parameters": {"h_grid": [0.01], "n_paths": 4000, "seed": 14},
               "output_dir": str(tmp_path / "o")}
        man = cli.run_scenario(_write_config(tmp_path, doc))
        assert man.summary["generator_value"] == pytest.approx(-2.0, abs=1e-9)
        assert man.summary["max_abs_z"] < 5.0

    def test_mean_check(self, tmp_path):
        doc = {"triplet": "rotation_rank1", "experiment": "mean_check",
               "parameters": {"t": 0.5, "n_paths": 500, "seed": 3},
               "output_dir": str(tmp_path / "o")}
        man = cli.run_scenario(_write_config(tmp_path, doc))
        text = (tmp_path / "o" / "mean_check.csv").read_text()
        assert text.splitlines()[0] == "i,j,mc_mean,target,z"
        assert len(text.splitlines()) == 5
        assert man.summary["max_abs_z"] < 5.0
