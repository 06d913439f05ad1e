"""Every entry point that takes a direction reads it through one rule,
``_linalg.unit_vectors``: a vector with a non-finite entry or no nonzero
entry is refused before any engine run, and a direction scaled by a power of
two, however far outside the range where its squared norm is finite and
normal, has bit for bit the unit vector of the unscaled one."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import levyflow as lf
from levyflow import _engine, cli
from levyflow._linalg import unit_vectors
from levyflow.projective import canonical_unit

REFUSAL = "a direction needs finite entries, not all zero"
SB2 = lf.builtin_triplet("standard_brownian(2)")
V = np.array([0.3, -1.7])
W = np.array([1.1, 0.4])
PATH = lf.ExpPath(grid=np.array([0.0, 1.0]),
                  X=np.array([np.eye(2), [[2.0, 1.0], [0.0, 0.5]]]), method="hand")


def _cli(tmp_path, experiment, parameters):
    """(exit code, CSV bytes or None) of one standard_brownian(2) run."""
    tmp_path.mkdir(exist_ok=True)
    out = tmp_path / "out"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"triplet": "standard_brownian(2)", "experiment": experiment,
                               "parameters": {"seed": 5, **parameters},
                               "output_dir": str(out)}))
    code = cli.main([experiment, "--config", str(cfg)])
    return code, (out / f"{experiment}.csv").read_bytes() if code == 0 else None


# library entry points: v -> what the direction v determines there
LIBRARY = {
    "vector_norm_y": lambda v: lf.FunctionalSpec.vector_norm(v).y,
    "abs_inner_y": lambda v: lf.FunctionalSpec.abs_inner(v, W).y,
    "abs_inner_z": lambda v: lf.FunctionalSpec.abs_inner(W, v).z,
    "evolve_vectors": lambda v: _engine.evolve_vectors(SB2, [W, v], 0.1, 3, 0, [0.1])[1],
    "evolve_vectors_per_path": lambda v: _engine.evolve_vectors(
        SB2, np.array([[W], [v]]), 0.1, 2, 0, [0.1])[1],
    "canonical_unit": lambda v: canonical_unit(np.column_stack([W, v])),
    "proj_point": lambda v: lf.ProjPoint(v).v,
    "angular_distance": lambda v: lf.angular_distance(v, W),
    "mixing_rate_starts": lambda v: lf.mixing_rate(
        SB2, lf.HolderFn(eval=lambda p: p.v[0] ** 2), [W, v], [0.1, 0.2], 4, 0).sup_diffs,
    "m_statistics_probes": lambda v: lf.m_statistics(PATH, [W, v])[0],
}

# CLI keys: (experiment, v -> parameters)
CLI = {
    "F.y": ("lyapunov", lambda v: {"T": 0.1, "n_paths": 4,
                                   "F": {"kind": "vector_norm", "y": list(v)}}),
    "F.z": ("clt", lambda v: {"T": 0.1, "n_paths": 4,
                              "F": {"kind": "abs_inner", "y": list(W), "z": list(v)}}),
    "f.u": ("mixing", lambda v: {"t_grid": [0.1, 0.2], "n_paths": 4, "n_starts": 2,
                                 "f": {"kind": "coord_sq", "u": list(v)}}),
}

NOT_DIRECTIONS = {
    "nan": [np.nan, 1.0], "inf": [np.inf, 0.0], "minus_inf": [1.0, -np.inf],
    "zero": [0.0, 0.0],
}


@pytest.fixture
def no_engine_run(monkeypatch):
    def no_run(*args):
        raise AssertionError("an engine run started")

    monkeypatch.setattr(_engine, "_evolve", no_run)


@pytest.mark.parametrize("bad", NOT_DIRECTIONS.values(), ids=NOT_DIRECTIONS.keys())
@pytest.mark.parametrize("entry", LIBRARY.values(), ids=LIBRARY.keys())
def test_library_refuses_what_is_not_a_direction(entry, bad, no_engine_run):
    with pytest.raises(ValueError, match=REFUSAL):
        entry(np.array(bad))


@pytest.mark.parametrize("bad", NOT_DIRECTIONS.values(), ids=NOT_DIRECTIONS.keys())
@pytest.mark.parametrize("key", CLI, ids=CLI.keys())
def test_cli_refuses_what_is_not_a_direction(tmp_path, capsys, key, bad, no_engine_run):
    experiment, parameters = CLI[key]
    assert _cli(tmp_path, experiment, parameters(bad))[0] == 2
    err = capsys.readouterr().err
    assert f"parameters.{key}" in err and REFUSAL in err


@pytest.mark.parametrize("k", [600, -600], ids=["times_2^600", "times_2^-600"])
@pytest.mark.parametrize("entry", LIBRARY.values(), ids=LIBRARY.keys())
def test_library_scaled_direction_is_the_direction(entry, k):
    assert np.asarray(entry(np.ldexp(V, k))).tobytes() == np.asarray(entry(V)).tobytes()


@pytest.mark.parametrize("k", [600, -600], ids=["times_2^600", "times_2^-600"])
@pytest.mark.parametrize("key", CLI, ids=CLI.keys())
def test_cli_scaled_direction_writes_the_same_bytes(tmp_path, key, k):
    experiment, parameters = CLI[key]
    code, want = _cli(tmp_path / "plain", experiment, parameters(V))
    assert code == 0
    assert _cli(tmp_path / "scaled", experiment, parameters(np.ldexp(V, k))) == (0, want)


def test_cli_functional_stores_the_library_vectors():
    """A config's F.y and F.z are scaled once, as FunctionalSpec scales them,
    so the CLI and the library run the same unit vectors.  Scaling [1, 2] a
    second time would change its last bits."""
    y, z = [1.0, 2.0], [1.0, 1.0]
    spec = cli._functional({"F": {"kind": "abs_inner", "y": y, "z": z}}, 2)
    want = lf.FunctionalSpec.abs_inner(y, z)
    assert (spec.y.tobytes(), spec.z.tobytes()) == (want.y.tobytes(), want.z.tobytes())
    assert (cli._functional({"F": {"kind": "vector_norm", "y": y}}, 2).y.tobytes()
            == lf.FunctionalSpec.vector_norm(y).y.tobytes())


@pytest.mark.parametrize("k", [600, -600], ids=["times_2^600", "times_2^-600"])
def test_scaled_start_row_shifts_only_its_log_norm(k):
    """The directions of y X_t are those of the unscaled row, bit for bit,
    and log ||y X_t|| moves by k log 2."""
    _, dirs, logs = _engine.evolve_vectors(SB2, [W, V], 0.5, 6, 3, [0.0, 0.5])
    _, dirs_k, logs_k = _engine.evolve_vectors(SB2, [W, np.ldexp(V, k)], 0.5, 6, 3, [0.0, 0.5])
    np.testing.assert_array_equal(dirs_k, dirs)
    np.testing.assert_array_equal(logs_k[..., 0], logs[..., 0])
    np.testing.assert_allclose(logs_k[..., 1] - logs[..., 1], k * math.log(2.0),
                               rtol=0.0, atol=1e-12)


def test_unit_vectors_rescales_only_where_the_sum_fails():
    """In one batch, the vectors whose squared norm is finite and normal keep
    the first pass's bits, and the others get their scaled unit vectors;
    log |v| is the log-norm of each, far below and above the normal range
    too, and bit for bit log of the first pass where no scaling was taken."""
    rng = np.random.default_rng(4)
    base = rng.standard_normal((6, 3))
    scales = np.array([0, 600, -600, 1000, -1000, 0])
    batch = np.ldexp(base, scales[:, None])
    units, logs = unit_vectors(batch)
    first_pass = np.sqrt(sum(x * x for x in base.T))
    np.testing.assert_array_equal(units, base / first_pass[:, None])
    np.testing.assert_array_equal(logs[[0, 5]], np.log(first_pass[[0, 5]]))
    np.testing.assert_allclose(logs, np.log(first_pass) + scales * math.log(2.0),
                               rtol=1e-15, atol=0.0)
    # along the first axis, the same vectors as columns
    units_t, logs_t = unit_vectors(batch.T, axis=0)
    np.testing.assert_array_equal(units_t, units.T)
    np.testing.assert_array_equal(logs_t, logs)
    # one subnormal entry is a direction too
    np.testing.assert_array_equal(unit_vectors([5e-324, 0.0])[0], [1.0, 0.0])


def test_start_row_beyond_the_float_range():
    """A start row whose norm exceeds the largest double runs: its log-norms
    are those of the row scaled into range, plus the log of the scale."""
    args = (1.0, 3, 5, [0.5, 1.0])
    _, dirs, logs = _engine.evolve_vectors(SB2, [1.5e308, 1.5e308], *args)
    _, dirs_1, logs_1 = _engine.evolve_vectors(SB2, [1.5, 1.5], *args)
    np.testing.assert_allclose(dirs, dirs_1, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(logs, logs_1 + math.log(1e308), rtol=1e-12, atol=0.0)
