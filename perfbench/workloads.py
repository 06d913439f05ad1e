"""The benchmark's three workloads: pinned operation lists.

An operation is one CLI scenario, run through ``levyflow.cli.run_scenario``,
or one library call where a layer has no CLI route.  Every parameter that
sets the amount of work (T, dt, n_paths, horizons, chain sizes) is pinned
here; only the seeds come from the benchmark's ``--seed``, so a speed-up
cannot come from doing less work.  README.md explains why each operation is
in its workload.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks as C
import levyflow as lf

SB2 = "standard_brownian(2)"
GBM = "gbm1(0.1, 0.2)"
ROT = "rotation_rank1"


@dataclass
class Op:
    """One timed operation and the check of its output.

    CLI operations carry a scenario ``config`` (without output_dir) and their
    output is the RunManifest; library operations carry a zero-argument
    ``call`` whose return value is their output.
    """

    name: str
    check: Callable[[Any], list[str]]
    config: dict | None = None
    call: Callable[[], Any] | None = None


def load_csv(manifest) -> np.ndarray:
    """The numeric table a scenario wrote, without its header."""
    path = Path(manifest.output_dir) / manifest.files[0]
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _scenario(name, triplet, experiment, check, **parameters) -> Op:
    """A CLI operation; ``check(manifest, parameters)`` reads the pinned
    sizes from the same parameters the scenario runs with."""
    config = {"triplet": triplet, "experiment": experiment, "parameters": parameters}
    return Op(name=name, check=lambda m: check(m, parameters), config=config)


def _sizes(p: dict) -> dict:
    return {"T": p["T"], "n_paths": p["n_paths"], "dt": p["dt"]}


def _points(p: dict) -> int:
    return (p["n_steps"] - p["burn_in"]) * p["n_chains"]


def _inline_triplet(drift0, sigma, rate, atoms) -> dict:
    """Inline triplet document; gamma = drift0 + compensated small atoms."""
    drift0 = np.asarray(drift0, dtype=float)
    gamma = drift0 + rate * sum(p * a for p, a in atoms if np.linalg.norm(a) <= 1.0)
    return {
        "d": drift0.shape[0],
        "sigma": [float(x) for x in np.asarray(sigma, dtype=float).ravel()],
        "gamma": [float(x) for x in gamma.ravel()],
        "drift0": [float(x) for x in drift0.ravel()],
        "jumps": {"rate": rate, "atoms": [
            {"prob": p, "matrix": [float(x) for x in np.asarray(a).ravel()]}
            for p, a in atoms]},
    }


# Small Gaussian part plus two non-commuting atoms and no drift: the Emery
# product is then unbiased for E[X_t] = expm(t E[L_1]) at any step size.
EMERY_ATOMS = [(0.5, np.array([[0.0, 0.5], [0.0, 0.0]])),
               (0.5, np.array([[0.0, 0.0], [-0.5, 0.0]]))]
EMERY_SIGMA = 0.04 * np.eye(4)
EMERY_TRIPLET = _inline_triplet(np.zeros((2, 2)), EMERY_SIGMA, 1.0, EMERY_ATOMS)

# Nonnegative dynamics of acceptance criterion 8: Metzler drift, positive atom.
POSITIVE_TRIPLET = _inline_triplet(
    [[0.1, 0.4], [0.3, -0.2]], np.zeros((4, 4)), 1.0,
    [(1.0, np.array([[0.5, 0.2], [0.1, 0.3]]))])


def gaussian_limits(seed: int) -> list[Op]:
    s = seed * 1000
    e1 = {"kind": "vector_norm", "y": [1.0, 0.0]}
    sb2 = dict(lam=0.0, sigma2=1.0, c_lambda=C.SB2_C_LAMBDA, c_sigma2=C.SB2_C_SIGMA2)
    gbm = dict(lam=0.1 - 0.2 ** 2 / 2, sigma2=0.2 ** 2,
               c_lambda=C.GBM_C_LAMBDA, c_sigma2=C.GBM_C_SIGMA2)
    return [
        _scenario("lyapunov_sb2", SB2, "lyapunov",
                  lambda m, p: C.check_lyapunov(m.summary, **_sizes(p), **sb2),
                  T=20.0, n_paths=10000, dt=0.05, F=e1, seed=s + 1),
        _scenario("clt_sb2", SB2, "clt",
                  lambda m, p: C.check_clt(m.summary, **_sizes(p), **sb2),
                  T=20.0, n_paths=10000, dt=0.05, F=e1, seed=s + 2),
        _scenario("lyapunov_gbm1", GBM, "lyapunov",
                  lambda m, p: C.check_lyapunov(m.summary, **_sizes(p), **gbm),
                  T=100.0, n_paths=10000, dt=0.05, F={"kind": "vector_norm", "y": [1.0]},
                  seed=s + 3),
        _scenario("clt_gbm1", GBM, "clt",
                  lambda m, p: C.check_clt(m.summary, **_sizes(p), **gbm),
                  T=50.0, n_paths=10000, dt=0.05, F={"kind": "op_norm"}, seed=s + 4),
        _scenario("berry_esseen_sb2", SB2, "berry_esseen",
                  lambda m, p: C.check_berry_esseen(m.summary, load_csv(m), p["t_grid"],
                                                    p["n_paths"], p["dt"]),
                  t_grid=[2.0, 4.0, 8.0, 16.0], n_paths=20000, dt=0.1, seed=s + 5),
        _scenario("generator_check_sb2", SB2, "generator_check",
                  lambda m, p: C.check_generator(m.summary, load_csv(m), p["n_paths"]),
                  h_grid=[1e-3], n_paths=100000, seed=s + 6),
    ]


def _reconstruct_path(rng, n_big: int, n_small: int, T: float, n_cells: int):
    """rotation_rank1 drift with n_big of its atoms (norm 1) and n_small
    small jumps (norm 0.3) at random times, merged into a uniform grid."""
    big = np.sort(T * (1.0 - rng.random(n_big)))
    small = np.sort(T * (1.0 - rng.random(n_small)))
    small_mark = 0.3 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    jumps = sorted([(float(t), C.ROT_ATOM) for t in big]
                   + [(float(t), small_mark) for t in small], key=lambda j: j[0])
    grid = np.unique(np.concatenate([np.arange(n_cells + 1) * (T / n_cells), big, small]))
    inc = np.diff(grid)[:, None, None] * C.ROT_DRIFT
    return lf.LevyPath(grid=grid, increments=inc, jumps=tuple(jumps))


def jump_paths(seed: int) -> list[Op]:
    s = seed * 1000
    ops = [
        _scenario("determinant_rot", ROT, "determinant",
                  lambda m, p: C.check_determinant(m.summary, load_csv(m), p["T"], p["dt"]),
                  T=200.0, dt=0.05, seed=s + 1),
        _scenario("simulate_rot", ROT, "simulate",
                  lambda m, p: C.check_simulate(m.summary, load_csv(m), p["T"], p["dt"]),
                  T=200.0, dt=0.01, method="exact", seed=s + 2),
        _scenario("mean_check_rot", ROT, "mean_check",
                  lambda m, p: C.check_mean(load_csv(m), C.exp_moments(
                      C.ROT_DRIFT, np.zeros((4, 4)), 1.0, [(1.0, C.ROT_ATOM)], p["t"]),
                      p["n_paths"]),
                  t=1.0, n_paths=10000, seed=s + 3),
        _scenario("mean_check_emery", EMERY_TRIPLET, "mean_check",
                  lambda m, p: C.check_mean(load_csv(m), C.exp_moments(
                      np.zeros((2, 2)), EMERY_SIGMA, 1.0, EMERY_ATOMS, p["t"]),
                      p["n_paths"]),
                  t=1.0, n_paths=200, seed=s + 4),
        _scenario("lyapunov_op_norm_rot", ROT, "lyapunov",
                  lambda m, p: C.check_op_norm_rotation(m.summary, p["T"], p["n_paths"]),
                  T=50.0, n_paths=2000, dt=0.05, F={"kind": "op_norm"}, seed=s + 5),
    ]
    for k, name in enumerate(C.IP_EXPECTED):
        ops.append(_scenario(f"ip_certify_{k}", name, "ip_certify",
                             lambda m, p, name=name: C.check_ip(name, m.summary),
                             seed=s + 10 + k))

    rot = lf.builtin_triplet(ROT)
    rng = np.random.default_rng([seed, 20])
    for k in range(4):
        path = _reconstruct_path(rng, n_big=12, n_small=4, T=4.0, n_cells=16)

        def call(path=path):
            return (lf.skorokhod_reconstruct(path, 0.5, triplet=rot),
                    lf.exact_cpp_exponential(path, rot).X[-1])

        ops.append(Op(name=f"skorokhod_reconstruct_{k}",
                      check=lambda out: C.check_reconstruct(*out), call=call))
    return ops


def projective_chain(seed: int) -> list[Op]:
    s = seed * 1000
    return [
        _scenario("invariant_measure_sb2", SB2, "invariant_measure",
                  lambda m, p: (C.check_measure_rows(rows := load_csv(m), _points(p))
                                + C.check_uniform_angles(rows, p["n_chains"], stride=50)),
                  h=0.1, n_steps=2000, burn_in=500, n_chains=50, seed=s + 1),
        _scenario("invariant_measure_positive", POSITIVE_TRIPLET, "invariant_measure",
                  lambda m, p: (C.check_measure_rows(rows := load_csv(m), _points(p))
                                + C.check_positive(rows)),
                  h=0.1, n_steps=800, burn_in=300, n_chains=20, seed=s + 2),
        _scenario("mixing_sb2", SB2, "mixing",
                  lambda m, p: C.check_mixing(load_csv(m), p["n_paths"], p["dt"]),
                  t_grid=[0.25, 0.5, 1.0, 2.0], n_paths=20000, n_starts=4, dt=0.05,
                  seed=s + 3),
    ]


WORKLOADS = {
    "gaussian_limits": gaussian_limits,
    "jump_paths": jump_paths,
    "projective_chain": projective_chain,
}
