"""Tests of the benchmark itself: every output check passes on a correct
output and fails on a deliberately wrong one, a run with an operation that
raises or fails its check is not correct, and the tracer's metrics match
BENCHMARK.json.

    python3 -m pytest perfbench/test_checks.py -q
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks as C  # noqa: E402
import layer_trace  # noqa: E402
import levyflow as lf  # noqa: E402
import levyflow.cli as cli  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layer_trace import Tracer, unit  # noqa: E402
from workloads import WORKLOADS, Op, load_csv  # noqa: E402


def _scale(summary, key, factor):
    return {**summary, key: summary[key] * factor}


def _scenario(tmp_path, triplet, experiment, **parameters):
    cfg = tmp_path / f"{experiment}.json"
    cfg.write_text(json.dumps({"triplet": triplet, "experiment": experiment,
                               "parameters": parameters,
                               "output_dir": str(tmp_path / experiment)}))
    man = cli.run_scenario(cfg)
    return man.summary, load_csv(man)


# -- gaussian_limits ------------------------------------------------------------

SB2 = dict(lam=0.0, sigma2=1.0, T=20.0, n_paths=10000, dt=0.05,
           c_lambda=C.SB2_C_LAMBDA, c_sigma2=C.SB2_C_SIGMA2)
CLT_OK = {"lambda_hat": 0.001, "sigma2_hat": 1.059, "ks_p": 0.4, "degenerate": False}


def test_clt_check():
    assert C.check_clt(CLT_OK, **SB2) == []
    assert C.check_clt(_scale(CLT_OK, "sigma2_hat", 1.2), **SB2)
    assert C.check_clt({**CLT_OK, "lambda_hat": 0.05}, **SB2)
    assert C.check_clt({**CLT_OK, "ks_p": 1e-9}, **SB2)
    assert C.check_clt({**CLT_OK, "sigma2_hat": math.nan}, **SB2)


def test_lyapunov_check_gbm():
    gbm = dict(lam=0.08, sigma2=0.04, T=100.0, n_paths=10000, dt=0.05,
               c_lambda=C.GBM_C_LAMBDA, c_sigma2=C.GBM_C_SIGMA2)
    assert C.check_lyapunov({"lambda_hat": 0.0799}, **gbm) == []
    assert C.check_lyapunov({"lambda_hat": 0.08 * 1.2}, **gbm)


def test_berry_esseen_check():
    rows = np.array([[2.0, 0.05, 20000], [4.0, 0.03, 20000]])
    ok = {"sigma_hat": 1.05, "lambda_hat": 0.004}
    assert C.check_berry_esseen(ok, rows, [4.0, 2.0], 20000, 0.1) == []
    assert C.check_berry_esseen(_scale(ok, "sigma_hat", 1.2), rows, [2.0, 4.0], 20000, 0.1)
    assert C.check_berry_esseen(ok, rows[:1], [2.0, 4.0], 20000, 0.1)
    assert C.check_berry_esseen(ok, rows * [1, 40, 1], [2.0, 4.0], 20000, 0.1)


def test_generator_check():
    rows = np.array([[1e-3, -1.998, 0.0045, 0.4]])
    assert C.check_generator({"generator_value": -2.0}, rows, 100000) == []
    assert C.check_generator({"generator_value": -2.0 * 1.2}, rows, 100000)
    assert C.check_generator({"generator_value": -2.0}, rows * [1, 1.2, 1, 1], 100000)


# -- jump_paths -----------------------------------------------------------------

def test_determinant_check(tmp_path):
    summary, rows = _scenario(tmp_path, "rotation_rank1", "determinant",
                              T=40.0, dt=0.05, seed=3)
    assert C.check_determinant(summary, rows, 40.0, 0.05) == []
    closed_x2 = rows.copy()
    closed_x2[5:, 1] *= 2.0
    assert C.check_determinant(summary, closed_x2, 40.0, 0.05)
    state_x2 = rows.copy()
    state_x2[5:, 2] *= 2.0
    assert C.check_determinant(summary, state_x2, 40.0, 0.05)
    assert C.check_determinant(_scale(summary, "growth_mean", 1.2), rows, 40.0, 0.05)


def test_simulate_check(tmp_path):
    summary, rows = _scenario(tmp_path, "rotation_rank1", "simulate",
                              T=20.0, dt=0.05, method="exact", seed=4)
    assert C.check_simulate(summary, rows, 20.0, 0.05) == []
    bad = rows.copy()
    bad[len(rows) // 2:, 1] *= 1.0 + 1e-9
    assert C.check_simulate(summary, bad, 20.0, 0.05)
    assert C.check_simulate(summary, rows[::2], 20.0, 0.05)


@pytest.mark.parametrize("case", ["rotation", "emery"])
def test_mean_check(case):
    if case == "rotation":
        moments = C.exp_moments(C.ROT_DRIFT, np.zeros((4, 4)), 1.0, [(1.0, C.ROT_ATOM)], 1.0)
    else:
        from workloads import EMERY_ATOMS, EMERY_SIGMA
        moments = C.exp_moments(np.zeros((2, 2)), EMERY_SIGMA, 1.0, EMERY_ATOMS, 1.0)
    mean, _ = moments
    rows = np.array([[i + 1, j + 1, mean[i, j], mean[i, j], 0.0]
                     for i in range(2) for j in range(2)])
    assert C.check_mean(rows, moments, 10000) == []
    assert C.check_mean(rows * [1, 1, 1.2, 1, 1], moments, 10000)
    assert C.check_mean(rows * [1, 1, 1, 1.2, 1], moments, 10000)


def test_exp_moments_scalar_closed_forms():
    # gbm: E X = e^{mu t}, E X^2 = e^{(2 mu + v^2) t}
    mean, var = C.exp_moments([[0.1]], [[0.04]], 0.0, [], 2.0)
    assert mean[0, 0] == pytest.approx(math.exp(0.2))
    assert var[0, 0] == pytest.approx(math.exp(2.0 * (0.2 + 0.04)) - math.exp(0.4))
    # compound Poisson of (1 + a): E X^k = exp(r t ((1 + a)^k - 1))
    mean, var = C.exp_moments([[0.0]], [[0.0]], 1.5, [(1.0, np.array([[0.5]]))], 2.0)
    assert mean[0, 0] == pytest.approx(math.exp(3.0 * 0.5))
    assert var[0, 0] == pytest.approx(math.exp(3.0 * 1.25) - math.exp(3.0))


def test_exp_moments_match_monte_carlo():
    """rotation_rank1 second moments against exact products of 4000 paths
    (t = 0.5 keeps the 4^{N_t} tail of X_t^2 light enough for 4000 samples)."""
    trip = lf.builtin_triplet("rotation_rank1")
    n, t = 4000, 0.5
    sq = np.array([lf.exact_cpp_exponential(lf.sample_levy_path(trip, t, t, s), trip).X[-1]
                   for s in range(n)]) ** 2
    mean, var = C.exp_moments(C.ROT_DRIFT, np.zeros((4, 4)), 1.0, [(1.0, C.ROT_ATOM)], t)
    z = (sq.mean(axis=0) - (var + mean ** 2)) / (sq.std(axis=0, ddof=1) / np.sqrt(n))
    assert np.all(np.abs(z) <= 5.0)


def test_op_norm_rotation_check():
    assert C.check_op_norm_rotation({"lambda_hat": 0.45}, 50.0, 2000) == []
    assert C.check_op_norm_rotation({"lambda_hat": math.log(2.0) * 1.2}, 50.0, 2000)
    assert C.check_op_norm_rotation({"lambda_hat": math.log(2.0) / 2.0 / 1.2}, 50.0, 2000)


def test_ip_check():
    assert C.check_ip("diagonal_reducible", {"status": "falsified_irreducibility"}) == []
    assert C.check_ip("rotation_rank1", {"status": "unknown"})


def test_reconstruct_check():
    x = np.array([[3.0, 1.0], [2.0, 5.0]])
    assert C.check_reconstruct(x, x) == []
    assert C.check_reconstruct(x * (1.0 + 1e-9), x)


# -- projective_chain -----------------------------------------------------------

def _measure_rows(angles):
    v = np.column_stack([np.cos(angles), np.sin(angles)])
    v[v[:, 0] < 0] *= -1.0
    ang = np.arctan2(v[:, 1], v[:, 0]) % np.pi
    return np.column_stack([ang, v, np.full(len(angles), 1.0 / len(angles))])


def test_measure_row_checks():
    rows = _measure_rows(np.random.default_rng(0).uniform(0.0, np.pi, 5000))
    assert C.check_measure_rows(rows, 5000) == []
    assert C.check_uniform_angles(rows, n_chains=50, stride=1) == []
    assert C.check_measure_rows(rows, 4000)
    for col, factor in ((1, 1.001), (3, 1.2)):
        bad = rows.copy()
        bad[:, col] *= factor
        assert C.check_measure_rows(bad, 5000)
    flipped = rows.copy()
    flipped[7, 1:3] *= -1.0
    assert C.check_measure_rows(flipped, 5000)
    shifted = rows.copy()
    shifted[7, 0] = (shifted[7, 0] + 0.1) % np.pi
    assert C.check_measure_rows(shifted, 5000)
    squeezed = rows * [0.9, 1, 1, 1]
    assert C.check_uniform_angles(squeezed, n_chains=50, stride=1)


def test_positive_check():
    rows = _measure_rows(np.random.default_rng(1).uniform(0.1, 1.4, 1000))
    assert C.check_positive(rows) == []
    assert C.check_positive(_measure_rows(np.array([0.5, 1.0, 2.0])))


def test_mixing_check():
    t = np.array([0.25, 0.5, 1.0, 2.0])
    rows = np.column_stack([t, np.exp(-2.0 * t * (1.0 + 1.07 * 0.05))])
    assert C.check_mixing(rows, 20000, 0.05) == []
    assert C.check_mixing(rows * [1, 1.2], 20000, 0.05)
    assert C.check_mixing(np.column_stack([t, np.exp(-1.6 * t)]), 20000, 0.05)


# -- benchmark definition and tracer ---------------------------------------------

def test_benchmark_json_matches_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
    names = set(Tracer().metrics(1.0))
    assert {m["name"] for m in spec["per_layer"]} == names
    for m in spec["per_layer"]:
        assert m["unit"] == unit(m["name"])


def test_tracer_accounts_for_wall_time_and_uninstalls(tmp_path):
    cfg = tmp_path / "lyapunov.json"
    cfg.write_text(json.dumps({
        "triplet": "rotation_rank1", "experiment": "lyapunov",
        "parameters": {"T": 5.0, "n_paths": 200, "dt": 0.05, "seed": 1},
        "output_dir": str(tmp_path / "out")}))
    original = cli.run_scenario
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        cli.run_scenario(cfg)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert cli.run_scenario is original
    m = tracer.metrics(wall)
    assert m["engine.path_steps"] == 200 * 100
    assert m["engine.jumps"] > 0 and m["cli.csv_bytes"] > 0
    assert 0.0 <= m["traced.unattributed_s"] <= 0.05 * wall
    assert m["cli.run_scenario_s"] <= wall


def test_tracer_refuses_a_missing_function(monkeypatch):
    monkeypatch.setitem(layer_trace.FUNCTIONS, "_engine",
                        [*layer_trace.FUNCTIONS["_engine"], "evolve_renamed"])
    original = cli.run_scenario
    tracer = Tracer()
    with pytest.raises(AttributeError, match="evolve_renamed"):
        try:
            tracer.install()
        finally:
            tracer.uninstall()
    assert cli.run_scenario is original


# -- the run's correctness gate ---------------------------------------------------

def _raise():
    raise FloatingPointError("scenario crashed")


@pytest.mark.parametrize("bad", ["none", "raises", "check_fails"])
def test_run_counts_raised_and_failed_operations(monkeypatch, bad):
    ops = [Op(name="ok", check=lambda out: [] if out == 2 else ["not 2"], call=lambda: 2)]
    if bad == "raises":
        ops.append(Op(name="crash", check=lambda out: [], call=_raise))
    elif bad == "check_fails":
        ops.append(Op(name="wrong", check=lambda out: ["wrong"], call=lambda: 3))
    monkeypatch.setitem(workloads.WORKLOADS, "toy", lambda seed: ops)
    monkeypatch.setattr(run, "time_setup", lambda workload: 1.0)
    args = argparse.Namespace(workload="toy", seed=1, seconds=0.0, trace=0)
    result = run.run(args)
    assert result["attempted"] == len(ops)
    assert result["failed"] == (bad != "none")
    assert result["correct"] is (bad == "none")
    assert result["metrics"]["setup_s"]["value"] == 1.0
    assert result["metrics"]["peak_rss_mb"]["value"] > 0
