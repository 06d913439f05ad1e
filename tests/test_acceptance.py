"""End-to-end acceptance suite.

Each test prints one verdict line (run ``pytest tests/test_acceptance.py -s``
to see every line; captured output shows up on failure either way) and then
asserts, so a red criterion fails the suite.  Tolerances, seeds, and sample
sizes are pinned; every statistical check is a fixed-seed regression, not a
flaky re-draw.
"""

from __future__ import annotations

import filecmp
import json
import time

import numpy as np
import pytest
from scipy import stats

import levyflow as lf
from levyflow.cli import run_scenario


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    print(line)
    assert ok, line


def _cpp_triplet(d, drift, jumps=lf.JumpSpec()) -> lf.MatrixLevyTriplet:
    """Compound-Poisson-plus-drift triplet from its drift matrix."""
    drift = np.asarray(drift, dtype=float)
    zero = np.zeros((d * d, d * d))
    t0 = lf.MatrixLevyTriplet(d=d, sigma=zero, gamma=np.zeros((d, d)),
                              drift0=np.zeros((d, d)), jumps=jumps)
    return lf.MatrixLevyTriplet(d=d, sigma=zero,
                                gamma=drift + t0.jump_compensator(),
                                drift0=drift, jumps=jumps)


def _random_cpp_triplet(rng, d) -> lf.MatrixLevyTriplet:
    """A tame random CPP+drift triplet (rate <= 3, 1-3 atoms)."""
    drift = rng.normal(0.0, 0.15, (d, d))
    rate = float(rng.uniform(0.5, 3.0))
    n_atoms = int(rng.integers(1, 4))
    probs = rng.dirichlet(np.ones(n_atoms))
    atoms = []
    for p in probs:
        while True:
            a = rng.normal(0.0, 0.2, (d, d))
            if abs(np.linalg.det(np.eye(d) + a)) > 0.05:
                break
        atoms.append((float(p), a))
    return _cpp_triplet(d, drift, lf.JumpSpec(rate=rate, atoms=tuple(atoms)))


SB2 = lf.builtin_triplet("standard_brownian(2)")
E1 = np.array([1.0, 0.0])


def test_criterion_01_determinant_matches_direct_product():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for k in range(20):
        trip = _random_cpp_triplet(rng, 2 if k % 2 == 0 else 3)
        path = lf.sample_levy_path(trip, T=5.0, dt=0.1, seed=3000 + k)
        X = lf.exact_cpp_exponential(path, trip)
        direct = float(np.linalg.det(X.X[-1]))
        closed = lf.det_closed_form(path, trip)[-1, 1]
        rel = abs(direct - closed) / abs(closed)
        worst = max(worst, rel)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and elapsed < 60.0
    _verdict(1, "determinant closed form vs direct product",
             ok, f"worst relative error {worst:.3e} (tol 1e-10), {elapsed:.1f}s")


def test_criterion_02_product_scheme_error_decreases_under_refinement():
    t0 = time.monotonic()
    base = lf.builtin_triplet("rotation_rank1")
    trip = lf.MatrixLevyTriplet(d=2, sigma=0.01 * np.eye(4), gamma=base.gamma,
                                drift0=base.drift0, jumps=base.jumps)
    bad = 0
    min_ratio = np.inf
    for seed in range(10):
        fine = lf.sample_levy_path(trip, T=1.0, dt=1.0 / 128.0, seed=seed)
        ref = lf.emery_exponential(fine).X[-1]
        errs = []
        for factor in (16, 8, 4, 2):
            coarse = lf.coarsen_path(fine, factor)
            approx = lf.emery_exponential(coarse).X[-1]
            errs.append(np.linalg.norm(approx - ref, 2))
        ratios = [a / b for a, b in zip(errs, errs[1:])]
        min_ratio = min(min_ratio, *ratios)
        if any(r <= 1.0 for r in ratios):
            bad += 1
    elapsed = time.monotonic() - t0
    ok = bad == 0 and elapsed < 120.0
    _verdict(2, "common-noise error decreases under 3 halvings",
             ok, f"{bad}/10 seeds non-monotone, min ratio {min_ratio:.2f}, {elapsed:.1f}s")


def test_criterion_03_big_jump_reconstruction_is_exact():
    trip = lf.builtin_triplet("rotation_rank1")
    worst = 0.0
    cases = 0
    for seed in range(25):
        path = lf.sample_levy_path(trip, T=3.0, dt=0.25, seed=seed)
        exact = lf.exact_cpp_exponential(path, trip).X[-1]
        for eps in (0.3, 0.5, 0.9, 2.0):
            recon = lf.skorokhod_reconstruct(path, eps, triplet=trip)
            worst = max(worst, float(np.linalg.norm(recon - exact, 2)))
            cases += 1
    ok = cases == 100 and worst <= 1e-10
    _verdict(3, "interlaced big-jump reconstruction",
             ok, f"{cases} cases, worst error {worst:.3e} (tol 1e-10)")


def test_criterion_04_determinant_growth_rate():
    trip = SB2
    target = lf.det_growth_mean(trip)
    assert target == pytest.approx(-1.0, abs=1e-14)
    T, n = 200.0, 200
    vals = np.empty(n)
    for k in range(n):
        path = lf.sample_levy_path(trip, T=T, dt=0.5, seed=10000 + k)
        _, logabs, _ = lf.det_log_series(path, trip)
        vals[k] = logabs[-1] / T
    se = vals.std(ddof=1) / np.sqrt(n)
    z = (vals.mean() - target) / se
    ok = abs(z) <= 3.0
    _verdict(4, "mean determinant growth rate",
             ok, f"mean {vals.mean():.4f} vs {target}, z = {z:.2f}")


def test_criterion_05_determinant_clt():
    trip = SB2
    T, n = 50.0, 2000
    centering, scale, applicable = lf.det_clt_params(trip, T)
    assert applicable
    assert centering == pytest.approx(-T, abs=1e-12)
    assert scale == pytest.approx(np.sqrt(2.0 * T), abs=1e-12)
    samples = np.empty(n)
    for k in range(n):
        path = lf.sample_levy_path(trip, T=T, dt=0.5, seed=20000 + k)
        _, logabs, _ = lf.det_log_series(path, trip)
        samples[k] = (logabs[-1] - centering) / scale
    p = stats.kstest(samples, "norm").pvalue
    ok = p > 0.01
    _verdict(5, "determinant CLT normality", ok, f"KS p = {p:.3f} (need > 0.01)")


def test_criterion_06_scalar_lyapunov_and_moment_function():
    trip = lf.builtin_triplet("gbm1(0.1, 0.2)")
    lam, se = lf.lyapunov_estimate(trip, lf.FunctionalSpec.op_norm(),
                                   T=100.0, n_paths=2000, seed=73, dt=0.05)
    z_lam = (lam - 0.08) / se

    s_grid = np.array([-0.2, -0.1, 0.0, 0.1, 0.2])
    rep = lf.lambda_moment_function(trip, s_grid, n=100.0, n_paths=2000,
                                    seed=78, dt=0.05)
    theory = 0.08 * s_grid + 0.02 * s_grid ** 2
    zs = np.where(rep.ses > 0, (rep.values - theory) / np.where(rep.ses > 0, rep.ses, 1.0), 0.0)
    ok = abs(z_lam) <= 3.0 and np.all(np.abs(zs) <= 3.0)
    _verdict(6, "scalar growth rate and moment function",
             ok, f"lambda z = {z_lam:.2f}, max |z| on Lambda(s) = {np.max(np.abs(zs)):.2f}")


def test_criterion_07_invariant_measure_is_uniform_for_isotropic_flow():
    meas = lf.estimate_invariant_measure(SB2, h=0.1, n_steps=2000, burn_in=500,
                                         n_chains=50, seed=99)
    angles = meas.angles()
    thinned = angles.reshape(1500, 50)[::50].ravel()
    p = stats.kstest(thinned, "uniform", args=(0.0, np.pi)).pvalue
    ok = p > 0.01
    _verdict(7, "isotropic invariant measure uniform on directions",
             ok, f"KS p = {p:.3f} on {thinned.size} thinned samples (need > 0.01)")


def test_criterion_08_nonnegative_dynamics_stay_in_positive_orthant():
    drift = np.array([[0.1, 0.4], [0.3, -0.2]])
    atom = np.array([[0.5, 0.2], [0.1, 0.3]])
    trip = _cpp_triplet(2, drift, lf.JumpSpec(rate=1.0, atoms=((1.0, atom),)))
    meas = lf.estimate_invariant_measure(trip, h=0.1, n_steps=600, burn_in=100,
                                         n_chains=20, seed=8)
    worst = np.inf
    for v in meas.points:
        v = v * np.sign(v[np.argmax(np.abs(v))])
        worst = min(worst, float(v.min()))
    ok = worst > 0.0
    _verdict(8, "positive-orthant absorption",
             ok, f"min direction component {worst:.3f} over {len(meas.points)} samples")


def test_criterion_09_mixing_rate_log_linear():
    f = lf.HolderFn(eval=lambda p: p.v[0] ** 2)
    starts = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
              np.array([1.0, 1.0]) / np.sqrt(2.0),
              np.array([3.0, -1.0]) / np.sqrt(10.0)]
    t_grid = [1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 3.0, 4.0, 6.0, 10.0, 14.0, 20.0]
    rep = lf.mixing_rate(SB2, f, starts, t_grid, n_paths=50000, seed=5, dt=0.05)
    ok = rep.d_hat > 0.0 and rep.r2 > 0.8 and not rep.flagged_no_decay
    _verdict(9, "exponential mixing of the direction chain",
             ok, f"rate {rep.d_hat:.3f}, R^2 = {rep.r2:.4f} (need rate > 0, R^2 > 0.8)")


def test_criterion_10_normal_approximation_error_decays():
    t0 = time.monotonic()
    rep = lf.berry_esseen_curve(SB2, lf.FunctionalSpec.vector_norm(E1),
                                [4.0, 8.0, 16.0, 32.0, 64.0], 50000,
                                seed=33, dt=0.1)
    elapsed = time.monotonic() - t0
    ok = -0.8 <= rep.slope <= -0.2 and elapsed < 600.0
    _verdict(10, "Berry-Esseen sup-distance log-log slope",
             ok, f"slope {rep.slope:.3f} (need within [-0.8, -0.2]), {elapsed:.1f}s")


def test_criterion_11_norm_bounds_hold_pathwise():
    rng = np.random.default_rng(7)
    triples = 0
    violations = 0
    det_violations = 0
    for k in range(20):
        trip = _random_cpp_triplet(rng, 2 if k % 2 == 0 else 3)
        path = lf.sample_levy_path(trip, T=2.0, dt=2.0 / 49.0, seed=4000 + k)
        X = lf.exact_cpp_exponential(path, trip)
        probes = rng.standard_normal((10, trip.d))
        m_series, viol = lf.m_statistics(X, probes)
        violations += viol
        triples += 10 * len(X.grid)
        _, logabs = np.linalg.slogdet(X.X)
        det_violations += int(np.sum(np.abs(logabs) > trip.d * np.log(m_series) + 1e-9))
    ok = violations == 0 and det_violations == 0 and triples >= 10000
    _verdict(11, "norm and determinant bounds",
             ok, f"{triples} probe triples, {violations} norm / {det_violations} det violations")


def test_criterion_12_mean_identity():
    rep = lf.mean_check(lf.builtin_triplet("rotation_rank1"), t=1.0,
                        n_paths=10000, seed=3)
    ok = rep.max_abs_z <= 3.0
    _verdict(12, "E[X_t] = exp(t E[L_1]) entrywise",
             ok, f"max |z| = {rep.max_abs_z:.2f} over {rep.mc_mean.size} entries")


def test_criterion_13_irreducibility_proximality_certificates():
    got = {}
    for name in ("standard_brownian(2)", "rotation_rank1",
                 "irrational_rotation(1.0)", "diagonal_reducible"):
        cert = lf.ip_certify(lf.builtin_triplet(name), seed=0)
        got[name] = cert.status
    ok = (got["standard_brownian(2)"] == "certified"
          and got["rotation_rank1"] == "certified"
          and got["irrational_rotation(1.0)"] == "certified"
          and got["diagonal_reducible"] == "falsified_irreducibility")
    _verdict(13, "certificates on the builtin catalog",
             ok, ", ".join(f"{k}: {v}" for k, v in got.items()))


def test_criterion_14_generator_consistency():
    # (a) drift-only dynamics, linear test function: the difference quotient
    # converges at first order and the error halves with h.
    drift = np.array([[0.1, 0.3], [0.0, -0.2]])
    trip = _cpp_triplet(2, drift)
    C = np.array([[1.0, -0.5], [0.25, 2.0]])
    zero4 = np.zeros((2, 2, 2, 2))
    f_lin = lf.SmoothFunction(value=lambda x: np.sum(C * x, axis=(-2, -1)),
                              grad=lambda x: C, hess=lambda x: zero4)
    a_val = lf.generator_apply(trip, f_lin, np.eye(2))
    assert a_val == pytest.approx(-0.45, abs=1e-12)
    rows, _ = lf.generator_mc_check(trip, f_lin, np.eye(2),
                                    [1e-2, 5e-3, 2.5e-3], n_paths=10, seed=0)
    errs = [abs(q - a_val) for _, q, _, _ in rows]
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    halving = all(1.7 <= r <= 2.3 for r in ratios)

    # (b) isotropic Brownian dynamics, Gaussian bump at the identity: the
    # Monte Carlo difference quotient at small h matches the generator value.
    from levyflow.cli import _gauss_bump
    bump = _gauss_bump(np.eye(2), 1.0)
    a_bump = lf.generator_apply(SB2, bump, np.eye(2))
    assert a_bump == pytest.approx(-2.0, abs=1e-12)
    rows_b, _ = lf.generator_mc_check(SB2, bump, np.eye(2), [1e-3],
                                      n_paths=100000, seed=14)
    z = rows_b[0][3]
    ok = halving and abs(z) <= 3.0
    _verdict(14, "generator difference-quotient consistency",
             ok, f"error ratios {ratios[0]:.2f}/{ratios[1]:.2f} (need ~2), bump z = {z:.2f}")


def test_criterion_15_scenario_runs_are_reproducible(tmp_path):
    config = {
        "triplet": "rotation_rank1",
        "experiment": "determinant",
        "parameters": {"T": 5.0, "dt": 0.1, "seed": 11},
        "output_dir": str(tmp_path / "run1"),
    }
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(config))
    man1 = run_scenario(cfg)
    man2 = run_scenario(cfg, out_dir=str(tmp_path / "run2"))
    f1 = tmp_path / "run1" / "determinant.csv"
    f2 = tmp_path / "run2" / "determinant.csv"
    identical = filecmp.cmp(f1, f2, shallow=False)
    ok = identical and man1.scenario_hash == man2.scenario_hash
    _verdict(15, "byte-identical reruns",
             ok, f"csv identical = {identical}, hash {man1.scenario_hash}")
