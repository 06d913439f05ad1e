"""Scenario configs, CSV/manifest output, the report merger, and exit codes."""

from __future__ import annotations

import json

import numpy as np
import pytest

import levyflow as lf
from levyflow import _csvfmt, _engine, cli, path_sampler


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

    @pytest.mark.parametrize("column", [
        np.full(5, 0.1), np.full(5, np.nan), np.array([0.0, 0.0, -0.0, 0.0, 0.0]),
        np.array([1.0, 1.0, 1.0, 1.0, np.nextafter(1.0, 2.0)])],
        ids=["constant", "constant_nan", "signed_zeros", "last_differs"])
    def test_constant_columns_write_the_same_bytes(self, tmp_path, column):
        """A column formatted once into the template (only when every entry
        has the same bits) gives the per-cell bytes, for any row count, also
        one row past a chunk of rows formatted by one % call."""
        n = cli._CSV_CHUNK + 1
        table = np.column_stack([np.arange(n) / 3.0, np.resize(column, n), np.full(n, -2.5)])
        for rows in (table, table[:5], table[:1], table[:0]):
            cli._write_csv(tmp_path / "array.csv", ["a", "b", "c"], rows)
            cli._write_csv(tmp_path / "list.csv", ["a", "b", "c"], rows.tolist())
            assert (tmp_path / "array.csv").read_bytes() == (tmp_path / "list.csv").read_bytes()

    def test_kernel_writes_the_bytes_of_percent_17g_on_a_corpus(self, tmp_path):
        """The vectorized kernel against '%.17g' % x, cell by cell, on values
        chosen to break a digit generator: random bit patterns of every
        binade, decimals, integers near 2^53 and 10^16..10^17, powers of ten
        and their neighbours, values whose 17-digit rounding carries into
        the next decade, exact ties, subnormals, signed zeros, nan and inf;
        written as one table one row past a chunk boundary."""
        rng = np.random.default_rng(21)
        binades = (rng.integers(0, 2 ** 52, 2048, dtype=np.uint64)
                   | (np.arange(2048, dtype=np.uint64) << np.uint64(52))).view(float)
        tens = np.array([10.0 ** k for k in range(-323, 309)] + [float(f"1e{k}") for k in
                                                                  range(-323, 309)])
        neighbours = np.concatenate([np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])
        below = [float("0." + "9" * 17 + "5") * 10.0 ** k for k in range(-30, 30)]
        ties = (rng.integers(10 ** 15, 2 ** 51, 200) + np.repeat([0.25, 0.75], 100))
        corpus = np.concatenate([
            rng.integers(0, 2 ** 64, 20000, dtype=np.uint64).view(float), binades,
            np.arange(-3000, 3001) / 1000.0,
            2.0 ** 53 + np.arange(-300, 301),
            rng.integers(10 ** 16, 10 ** 17, 2000).astype(float),
            tens, neighbours, np.nextafter(neighbours, 0.0), below, ties,
            np.ldexp(1.0, np.arange(-1074, 1024)),
            np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072009e-308,
                      0.99999999999999995, 9.9999999999999995e-5, 1e16, 1e17, 1e-5]),
        ])
        corpus = np.concatenate([corpus, -corpus])
        n_cols, n = 7, cli._CSV_CHUNK + 1
        table = np.resize(corpus, (-(-corpus.size // n_cols), n_cols))
        for rows in (table, table[:n]):
            cli._write_csv(tmp_path / "array.csv", ["c"] * n_cols, rows)
            expected = "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows.tolist())
            assert (tmp_path / "array.csv").read_text() == "c," * (n_cols - 1) + "c\n" + expected

    def test_kernel_certifies_ordinary_cells_and_no_others(self):
        """The kernel's own digits, not the per-cell fallback, format ordinary
        values: D and X are those of '%.16e'.  Zero, inf, nan, values outside
        [1e-200, 1e200] and exact ties are left to '%.17g' itself."""
        rng = np.random.default_rng(22)
        # no exact ties: below 1e10 or above 1e17 a double's decimal
        # expansion never ends at its 18th digit
        scale = 10.0 ** np.r_[rng.integers(-198, 10, 4000), rng.integers(17, 199, 1000)]
        x = np.concatenate([rng.standard_normal(5000), rng.random(5000) * scale,
                            [1.5e-200, 9e199]])
        ok, d, xp = _csvfmt._digits(x)
        assert ok.all()
        for v, digits, e in zip(x.tolist(), d.tolist(), xp.tolist()):
            mantissa, exponent = ("%.16e" % abs(v)).split("e")
            assert (digits, e) == (int(mantissa.replace(".", "")), int(exponent))
        odd = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 9.9e-201, 1.1e200,
                        1234567890123456.25, -0.5 ** 1074])
        assert not _csvfmt._digits(odd)[0].any()


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

    @pytest.mark.parametrize("change, key, message", [
        ({"experiment": None}, "experiment", "missing required key"),
        ({"experiment": "nope"}, "experiment", "unknown experiment"),
        ({"triplet": None}, "triplet", "missing required key"),
        ({"triplet": 3}, "triplet", "builtin name or an object"),
        ({"parameters": [1.0]}, "parameters", "expected an object"),
        ({"parameters": {"T": 1.0, "dt": 0.5, "seed": "1"}}, "parameters.seed",
         "expected an integer"),
        ({"output_dir": None}, "output_dir", "missing required key"),
    ], ids=["no_experiment", "unknown_experiment", "no_triplet", "triplet_type",
            "parameters_type", "seed_type", "no_output_dir"])
    def test_scenario_refusal_names_key(self, tmp_path, change, key, message):
        doc = json.loads(_simulate_config(tmp_path).read_text())
        doc = {k: v for k, v in {**doc, **change}.items() if v is not None}
        with pytest.raises(cli.ConfigError, match=message) as exc:
            cli.run_scenario(_write_config(tmp_path, doc))
        assert exc.value.path == key

    @pytest.mark.parametrize("kind, value, message", [
        (float, "1", "expected a number, got str"),
        (float, True, "expected a number, got bool"),
        (int, 2.0, "expected an integer, got float"),
        (int, True, "expected an integer, got bool"),
        (str, 3, "expected a string, got int"),
        (list, 1.0, "expected a nonempty list"),
        (list, [], "expected a nonempty list"),
        (list, ["a"], "expected a list of numbers"),
        (list, [None], "expected a list of numbers"),
        (list, [1.0, float("inf")], "expected a finite number"),
    ], ids=["float_str", "float_bool", "int_float", "int_bool", "str_int", "list_scalar",
            "list_empty", "list_str", "list_none", "list_inf"])
    def test_parameter_type_refusal_names_key(self, kind, value, message):
        with pytest.raises(cli.ConfigError, match=message) as exc:
            cli._param({"k": value}, "k", kind)
        assert exc.value.path == "parameters.k"


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

    @pytest.mark.parametrize("d", [2.5, True])
    def test_non_integer_dimension_exit_two(self, tmp_path, capsys, d):
        triplet = {"d": d, "sigma": [0.0] * 16, "gamma": [0.0] * 4}
        doc = {"triplet": triplet, "experiment": "simulate",
               "parameters": {"T": 1.0, "dt": 0.5, "seed": 1},
               "output_dir": str(tmp_path / "o")}
        cfg = _write_config(tmp_path, doc)
        assert cli.main(["simulate", "--config", str(cfg)]) == 2
        assert "'d' must be a positive integer" in capsys.readouterr().err

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
        # the Emery cell factor 1 + dt * (-10) = 0 at dt = 0.1 is singular
        cfg = _simulate_config(tmp_path, triplet="gbm1(-10, 0)", method="emery", dt=0.1)
        assert cli.main(["simulate", "--config", str(cfg)]) == 3
        assert "SingularFactor" in capsys.readouterr().err

    def test_vanished_overlap_exit_three(self, tmp_path, capsys):
        """diagonal_reducible keeps X_t^(0,1) = 0, which has no logarithm."""
        doc = {"triplet": "diagonal_reducible", "experiment": "clt",
               "parameters": {"T": 5.0, "n_paths": 50, "seed": 1,
                              "F": {"kind": "entry", "i": 0, "j": 1}},
               "output_dir": str(tmp_path / "o")}
        assert cli.main(["clt", "--config", str(_write_config(tmp_path, doc))]) == 3
        assert "DegenerateNorm" in capsys.readouterr().err

    def test_unknown_method_exits_two_before_sampling(self, tmp_path, capsys, monkeypatch):
        def no_path(*args, **kwargs):
            raise AssertionError("the path was sampled")

        monkeypatch.setattr(cli, "sample_levy_path", no_path)
        cfg = _simulate_config(tmp_path, method="euler")
        assert cli.main(["simulate", "--config", str(cfg)]) == 2
        assert "parameters.method" in capsys.readouterr().err

    def test_exact_method_with_gaussian_part_exits_two_before_sampling(
            self, tmp_path, capsys, monkeypatch):
        """The exact product needs sigma = 0, which the config alone decides."""
        def no_path(*args, **kwargs):
            raise AssertionError("the path was sampled")

        monkeypatch.setattr(cli, "sample_levy_path", no_path)
        cfg = _simulate_config(tmp_path, triplet="standard_brownian(2)", method="exact")
        assert cli.main(["simulate", "--config", str(cfg)]) == 2
        assert "parameters.method" in capsys.readouterr().err

    def test_overflowing_step_count_exits_two(self, tmp_path, capsys):
        """A dt so small that T / dt overflows is a config error, refused by
        the step rule (InvalidStep) before any draw."""
        doc = {"triplet": "gbm1(0.1, 0.2)", "experiment": "lyapunov",
               "parameters": {"seed": 1, "T": 1.0, "dt": 5e-324, "n_paths": 10},
               "output_dir": str(tmp_path / "o")}
        assert cli.main(["lyapunov", "--config", str(_write_config(tmp_path, doc))]) == 2
        assert "T / dt finite" in capsys.readouterr().err

    def test_memory_error_exit_three(self, tmp_path, capsys, monkeypatch):
        """A run too large for memory is a numerical failure: an error line
        and exit 3, not a traceback with exit 1.  The runner is patched to
        raise, so no large array is allocated."""
        def runner(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setitem(cli._RUNNERS, "simulate", runner)
        cfg = _simulate_config(tmp_path)
        assert cli.main(["simulate", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: MemoryError: Unable to allocate") and "Traceback" not in err

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
        ("lyapunov", {"T": 1.0, "n_paths": 0}, "parameters.n_paths"),
        ("mixing", {"t_grid": [0.5, 1.0], "n_paths": 1}, "parameters.n_paths"),
        ("clt", {"T": 1.0, "n_paths": 1}, "parameters.n_paths"),
        ("lyapunov", {"T": 1.0, "n_paths": 10, "dt": 0}, "parameters.dt"),
        ("lyapunov", {"T": -1, "n_paths": 10}, "parameters.T"),
        ("invariant_measure", {"h": 0.2, "n_steps": 10, "burn_in": 10,
                               "n_chains": 4}, "parameters.n_steps"),
        ("invariant_measure", {"h": -0.2, "n_steps": 30, "burn_in": 10,
                               "n_chains": 4}, "parameters.h"),
        ("simulate", {"T": 1.0, "dt": 2.0}, "parameters.T"),
        ("lyapunov", {"T": 1.0, "n_paths": 10, "F": {"kind": "entry", "i": 0, "j": 0}},
         "parameters.F.kind"),
        ("berry_esseen", {"t_grid": [1.0, 2.0], "n_paths": 10, "F": {"kind": "op_norm"}},
         "parameters.F.kind"),
        ("clt", {"T": float("nan"), "n_paths": 10}, "parameters.T"),
        ("ip_certify", {"search_depth": -3}, "parameters.search_depth"),
        ("berry_esseen", {"t_grid": [1.0], "n_paths": 200}, "parameters.t_grid"),
        ("berry_esseen", {"t_grid": [1.0, 1.0], "n_paths": 200}, "parameters.t_grid"),
        ("mixing", {"t_grid": [0.5, 0.5], "n_paths": 200}, "parameters.t_grid"),
        ("mixing", {"t_grid": [0.3, 1.0], "n_paths": 200, "dt": 0.25},
         "parameters.t_grid"),
        ("berry_esseen", {"t_grid": [1.5, 3.0], "n_paths": 200, "dt": 0.2},
         "parameters.t_grid"),
        ("mixing", {"t_grid": [0.5, 1.0], "n_paths": 200, "n_starts": 1},
         "parameters.n_starts"),
        ("ip_certify", {"n_samples": -3}, "parameters.n_samples"),
        ("lyapunov", {"T": 1.0, "n_paths": 10, "dt": 2.0}, "parameters.T"),
        ("clt", {"T": 1.0, "n_paths": 10, "dt": 2.0}, "parameters.T"),
        ("clt", {"T": 0.01, "n_paths": 10}, "parameters.T"),
        ("invariant_measure", {"h": 0.1, "n_steps": 30, "burn_in": 10,
                               "n_chains": 4, "dt": 0.5}, "parameters.dt"),
        ("mixing", {"t_grid": [0.5, 1.0], "n_paths": 10, "dt": 2.0}, "parameters.t_grid"),
        ("berry_esseen", {"t_grid": [1.0, 2.0], "n_paths": 10, "dt": 3.0},
         "parameters.t_grid"),
        ("lyapunov", {"n_paths": 10}, "parameters.T"),
        ("lyapunov", {"T": 1.0, "n_paths": 10, "F": {"kind": "vector_norm", "y": ["a", "b"]}},
         "parameters.F.y"),
        ("clt", {"T": 1.0, "n_paths": 10, "F": [1.0, 0.0]}, "parameters.F"),
        ("clt", {"T": 1.0, "n_paths": 10, "F": {"y": [1.0, 0.0]}}, "parameters.F"),
        ("clt", {"T": 1.0, "n_paths": 10, "F": {"kind": "abs_inner", "y": [1.0, 0.0]}},
         "parameters.F.z"),
        ("mixing", {"t_grid": [0.5, 1.0], "n_paths": 10, "f": {"kind": "sine"}},
         "parameters.f"),
        ("berry_esseen", {"t_grid": [1.0, 2.0], "n_paths": 10, "z_grid": []},
         "parameters.z_grid"),
    ], ids=["generator_check_x", "invariant_measure_dt", "vector_norm_y",
            "entry_index", "entry_fractional_index", "abs_inner_z", "mixing_zero_u",
            "lyapunov_no_paths", "mixing_one_path", "clt_one_path", "lyapunov_zero_dt",
            "lyapunov_negative_T", "invariant_measure_burn_in", "invariant_measure_h",
            "simulate_dt_above_T", "lyapunov_entry_kind", "berry_esseen_op_norm_kind",
            "clt_nan_T", "ip_certify_search_depth", "berry_esseen_one_horizon",
            "berry_esseen_repeated_horizon", "mixing_repeated_horizon",
            "mixing_off_grid_horizon", "berry_esseen_off_grid_horizon",
            "mixing_n_starts_below_d", "ip_certify_n_samples", "lyapunov_dt_above_T",
            "clt_dt_above_T", "clt_T_below_default_dt", "invariant_measure_dt_above_h",
            "mixing_dt_above_horizons", "berry_esseen_dt_above_horizons", "lyapunov_no_T",
            "vector_norm_non_numeric_y", "F_not_an_object", "F_without_kind",
            "abs_inner_without_z", "mixing_f_kind", "berry_esseen_empty_z_grid"])
    def test_bad_parameter_exit_two_names_key(self, tmp_path, capsys, experiment,
                                              parameters, key):
        doc = {"triplet": "standard_brownian(2)", "experiment": experiment,
               "parameters": {"seed": 1, **parameters},
               "output_dir": str(tmp_path / "o")}
        cfg = _write_config(tmp_path, doc)
        assert cli.main([experiment, "--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("text", [None, '{"triplet": ', '[1, 2]'],
                             ids=["missing_file", "invalid_json", "top_level_list"])
    @pytest.mark.parametrize("reader", ["config", "manifest"])
    def test_unreadable_json_exit_two_names_file(self, tmp_path, capsys, reader, text):
        path = tmp_path / f"{reader}.json"
        if text is not None:
            path.write_text(text)
        argv = (["simulate", "--config", str(path)] if reader == "config"
                else ["report", str(path)])
        assert cli.main(argv) == 2
        assert str(path) in capsys.readouterr().err

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
            "parameters": {"t_grid": [2.0, 4.0], "n_paths": 200, "seed": 5},
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
            "parameters": {"t_grid": [2.0, 4.0], "n_paths": 200, "seed": 5},
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
        ('{"scenario_hash": "x", "version": "1", "experiment": "simulate", "seed": 1,'
         ' "wall_clock_s": 1.0, "summary": {}, "files": [1]}', ": files"),
    ], ids=["missing_key", "json_list", "missing_file", "invalid_json", "non_numeric_seed",
            "files_not_a_list", "summary_not_an_object", "file_name_not_a_string"])
    def test_bad_manifest_exit_two(self, tmp_path, capsys, text, named):
        path = tmp_path / "manifest.json"
        if text is not None:
            path.write_text(text)
        assert cli.main(["report", str(path)]) == 2
        assert named in capsys.readouterr().err


class TestRarelyTakenRoutes:
    @pytest.mark.parametrize("triplet", ["rotation_rank1", "diagonal_reducible"])
    def test_exact_method_writes_the_auto_bytes(self, tmp_path, triplet):
        """On a triplet with sigma = 0, method auto is the exact product."""
        csvs = []
        for method in ("exact", "auto"):
            man = cli.run_scenario(_simulate_config(tmp_path, triplet=triplet, method=method,
                                                    T=5.0, dt=0.1),
                                   out_dir=tmp_path / method)
            assert man.summary["method"] == "exact_cpp"
            csvs.append((tmp_path / method / "simulate.csv").read_bytes())
        assert csvs[0] == csvs[1]

    def test_z_grid_is_the_library_curve(self, tmp_path):
        doc = {"triplet": "gbm1(0.1, 0.2)", "experiment": "berry_esseen",
               "parameters": {"t_grid": [1.0, 2.0], "n_paths": 50, "seed": 3,
                              "z_grid": [-1.0, 0.0, 1.0]},
               "output_dir": str(tmp_path / "be")}
        cli.run_scenario(_write_config(tmp_path, doc))
        rows = np.loadtxt(tmp_path / "be" / "berry_esseen.csv", delimiter=",", skiprows=1)
        rep = lf.berry_esseen_curve(lf.builtin_triplet("gbm1(0.1, 0.2)"),
                                    lf.FunctionalSpec.vector_norm([1.0]), [1.0, 2.0], 50,
                                    z_grid=[-1.0, 0.0, 1.0], seed=3)
        np.testing.assert_array_equal(rows, np.array(rep.rows))

    def test_moved_output_dir_falls_back_to_the_manifest_dir(self, tmp_path):
        cli.run_scenario(_simulate_config(tmp_path))
        moved = (tmp_path / "out").rename(tmp_path / "moved")
        man = cli.load_manifest(moved / "manifest.json")
        assert man.output_dir == str(moved)

    def test_report_without_out_writes_stdout(self, tmp_path, capsys):
        cli.run_scenario(_simulate_config(tmp_path))
        path = tmp_path / "out" / "manifest.json"
        assert cli.main(["report", str(path)]) == 0
        assert capsys.readouterr().out == cli.emit_report([cli.load_manifest(path)])


class TestWalkerChoice:
    """simulate's method auto, determinant and skorokhod_reconstruct take the
    walker that path_sampler.auto_exponential names: the exact product for
    sigma = 0, Emery's product for a Gaussian part or no triplet."""

    @staticmethod
    def _spy(monkeypatch):
        """The methods of the ExpPaths the two walkers return from now on."""
        seen = []
        for name in ("exact_cpp_exponential", "emery_exponential"):
            def spy(*args, _walk=getattr(path_sampler, name)):
                ep = _walk(*args)
                seen.append(ep.method)
                return ep
            monkeypatch.setattr(path_sampler, name, spy)
            monkeypatch.setattr(cli, name, spy)
        return seen

    @pytest.mark.parametrize("name, method", [("rotation_rank1", "exact_cpp"),
                                              ("sl2_conservative", "emery")])
    def test_cli_runs(self, tmp_path, monkeypatch, name, method):
        triplet = lf.builtin_triplet(name)
        path = lf.sample_levy_path(triplet, 1.0, 0.25, 1)
        assert lf.auto_exponential(path, triplet).method == method
        seen = self._spy(monkeypatch)
        man = cli.run_scenario(_simulate_config(tmp_path, triplet=name, method="auto"))
        assert man.summary["method"] == method and seen == [method]
        seen.clear()
        doc = {"triplet": name, "experiment": "determinant",
               "parameters": {"T": 1.0, "dt": 0.25, "seed": 1},
               "output_dir": str(tmp_path / "det")}
        cli.run_scenario(_write_config(tmp_path, doc, name="det.json"))
        assert seen == [method]

    @pytest.mark.parametrize("name, method", [("rotation_rank1", "exact_cpp"),
                                              ("sl2_conservative", "emery"),
                                              (None, "emery")])
    def test_reconstruction(self, monkeypatch, name, method):
        triplet = lf.builtin_triplet(name or "rotation_rank1")
        path = lf.sample_levy_path(triplet, 2.0, 0.25, 4)
        triplet = triplet if name else None
        assert lf.auto_exponential(path, triplet).method == method
        seen = self._spy(monkeypatch)
        lf.skorokhod_reconstruct(path, 0.5, triplet=triplet)
        assert seen == [method]


class TestExperimentRunners:
    """One fast end-to-end run for each runner not exercised elsewhere."""

    def test_lyapunov(self, tmp_path):
        doc = {"triplet": "gbm1(0.1, 0.2)", "experiment": "lyapunov",
               "parameters": {"T": 5.0, "n_paths": 200, "seed": 3},
               "output_dir": str(tmp_path / "o")}
        man = cli.run_scenario(_write_config(tmp_path, doc))
        assert "lambda_hat" in man.summary
        assert man.summary["lambda_se"] > 0

    @pytest.mark.parametrize("experiment, header", [
        ("lyapunov", ["lambda_hat", "lambda_se", "T", "n_paths"]),
        ("clt", ["lambda_hat", "lambda_se", "sigma2_hat", "sigma2_se",
                 "ks_stat", "ks_p", "degenerate", "T", "n_paths"]),
    ])
    def test_scalar_csv_is_the_summary_as_one_row(self, tmp_path, experiment, header):
        doc = {"triplet": "gbm1(0.1, 0.2)", "experiment": experiment,
               "parameters": {"T": 5.0, "n_paths": 200, "seed": 3},
               "output_dir": str(tmp_path / "o")}
        man = cli.run_scenario(_write_config(tmp_path, doc))
        lines = (tmp_path / "o" / f"{experiment}.csv").read_text().splitlines()
        assert lines[0].split(",") == header
        assert list(man.summary) == header
        doc = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert sorted(doc["summary"]) == sorted(header)
        assert lines[1:] == [",".join(cli._fmt(man.summary[k]) for k in header)]

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

    def test_lyapunov_absent_dt_is_the_default_step(self, tmp_path):
        texts = []
        for name, extra in (("absent", {}), ("explicit", {"dt": _engine.DEFAULT_DT})):
            doc = {"triplet": "gbm1(0.1, 0.2)", "experiment": "lyapunov",
                   "parameters": {"T": 2.0, "n_paths": 50, "seed": 3, **extra},
                   "output_dir": str(tmp_path / name)}
            cli.run_scenario(_write_config(tmp_path, doc, name=f"{name}.json"))
            texts.append((tmp_path / name / "lyapunov.csv").read_bytes())
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
