"""Growth rates, CLT diagnostics, moment function, and norm statistics."""

from __future__ import annotations

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import logm

import levyflow as lf
from levyflow import _engine
from levyflow.cli import _gauss_bump
from levyflow.limits import _terminal_log_samples

GBM = lf.builtin_triplet("gbm1(0.1, 0.2)")
# zero volatility: X_t = exp(0.1 t) with no randomness at all
GBM_DET = lf.builtin_triplet("gbm1(0.1, 0.0)")
# volatility 1e-6: log X_T has variance 1e-12 T, below the 1e-10 T degeneracy rule
GBM_FLAT = lf.builtin_triplet("gbm1(0.0, 1e-6)")
SB2 = lf.builtin_triplet("standard_brownian(2)")
# log ||X_n|| grows like 0.98 n: s log ||X_n|| leaves the float range at moderate s
GBM_FAST = lf.builtin_triplet("gbm1(1.0, 0.2)")


def _functional_at(F: lf.FunctionalSpec, a) -> float:
    """F(X_1) as the estimators compute it, on the deterministic dynamics
    X_t = expm(t logm(a)), so that X_1 = a."""
    gamma = np.real(logm(np.asarray(a, dtype=float)))
    trip = lf.MatrixLevyTriplet(d=2, sigma=np.zeros((4, 4)), gamma=gamma, drift0=gamma)
    samples, _ = _terminal_log_samples(trip, F, [1.0], n_paths=2, seed=0, dt=1.0)
    return float(np.exp(samples[0, 0]))


class TestFunctionalSpec:
    A = np.array([[3.0, 4.0], [0.0, 0.5]])

    def test_op_norm(self):
        F = lf.FunctionalSpec.op_norm()
        assert _functional_at(F, np.diag([2.0, 0.5])) == pytest.approx(2.0)

    def test_vector_norm(self):
        F = lf.FunctionalSpec.vector_norm([1.0, 0.0])
        assert _functional_at(F, self.A) == pytest.approx(5.0)

    def test_vector_is_normalized(self):
        F = lf.FunctionalSpec.vector_norm([2.0, 0.0])
        assert _functional_at(F, self.A) == pytest.approx(5.0)

    def test_entry(self):
        F = lf.FunctionalSpec.entry(0, 1)
        assert _functional_at(F, self.A) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            F.vectors(1)

    def test_abs_inner(self):
        F = lf.FunctionalSpec.abs_inner([1.0, 0.0], [0.0, 1.0])
        assert _functional_at(F, self.A) == pytest.approx(4.0)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            lf.FunctionalSpec.vector_norm([0.0, 0.0])

    @pytest.mark.parametrize("F", [lf.FunctionalSpec.vector_norm([1.0, 0.0, 0.0]),
                                   lf.FunctionalSpec.abs_inner([1.0, 0.0], [0.0, 1.0, 0.0])],
                             ids=["vector_norm_y", "abs_inner_z"])
    def test_vector_length_must_fit_d(self, F):
        with pytest.raises(ValueError, match="length 3"):
            F.vectors(2)
        # the estimators read the same check, before the engine runs
        with pytest.raises(ValueError, match="length 3"):
            lf.clt_diagnostic(SB2, F, T=1.0, n_paths=4, seed=0, dt=0.5)

    def test_vector_norm_has_no_z(self):
        y, z = lf.FunctionalSpec.vector_norm([3.0, 4.0]).vectors(2)
        np.testing.assert_array_equal(y, [0.6, 0.8])
        assert z is None


class TestLyapunov:
    def test_deterministic_growth_is_exact(self):
        lam, se = lf.lyapunov_estimate(GBM_DET, lf.FunctionalSpec.op_norm(),
                                       T=5.0, n_paths=4, seed=0, dt=0.05)
        assert lam == pytest.approx(0.1, abs=1e-9)
        assert se <= 1e-9

    @pytest.mark.parametrize("estimator", [lf.lyapunov_estimate, lf.clt_diagnostic])
    def test_one_path_has_no_variance(self, estimator):
        with pytest.raises(ValueError, match="two or more paths"):
            estimator(GBM, lf.FunctionalSpec.op_norm(), T=1.0, n_paths=1, seed=0)

    def test_entry_functional_rejected(self):
        with pytest.raises(ValueError):
            lf.lyapunov_estimate(GBM, lf.FunctionalSpec.entry(0, 0),
                                 T=1.0, n_paths=4, seed=0)


class TestCltDiagnostic:
    def test_scalar_model_normal(self):
        rep = lf.clt_diagnostic(GBM, lf.FunctionalSpec.op_norm(), T=20.0,
                                n_paths=2000, seed=11, dt=0.05)
        assert not rep.degenerate
        # lambda = mu - vol^2/2 = 0.08, sigma^2 = vol^2 = 0.04
        assert rep.lambda_hat == pytest.approx(0.08, abs=3.5 * rep.lambda_se)
        assert rep.sigma2_hat == pytest.approx(0.04, abs=3.5 * rep.sigma2_se)
        assert rep.ks_p > 0.01

    def test_deterministic_model_degenerate(self):
        rep = lf.clt_diagnostic(GBM_DET, lf.FunctionalSpec.op_norm(), T=5.0,
                                n_paths=16, seed=0, dt=0.05)
        assert rep.degenerate
        assert rep.ks_stat == 1.0
        assert rep.ks_p == 0.0

    def test_one_degeneracy_rule_for_clt_and_berry_esseen(self):
        E1 = lf.FunctionalSpec.vector_norm([1.0])
        rep = lf.clt_diagnostic(GBM_FLAT, E1, T=2.0, n_paths=200, seed=1, dt=0.1)
        assert rep.degenerate
        assert rep.sigma2_hat > 0.0
        with pytest.raises(lf.DegenerateNorm, match="1e-10"):
            lf.berry_esseen_curve(GBM_FLAT, E1, [1.0, 2.0], 200, seed=1, dt=0.1)


def _moment_reference(ell, s_all, n):
    """Lambda(s) and its SE one exponent at a time, from the raw weights
    ||X_n||^s: the direct formula, valid while they stay in float range."""
    values, ses = [], []
    for s in s_all:
        w = np.exp(s * ell)
        m = w.mean()
        values.append(np.log(m) / n)
        ses.append(w.std(ddof=1) / (np.sqrt(len(ell)) * m * n))
    return np.array(values), np.array(ses)


class TestMomentFunction:
    def test_deterministic_model_is_linear(self):
        s_grid = np.array([-0.5, 0.0, 0.5, 1.0])
        rep = lf.lambda_moment_function(GBM_DET, s_grid, n=10.0, n_paths=4,
                                        seed=0, dt=0.05)
        np.testing.assert_allclose(rep.values, 0.1 * s_grid, atol=1e-9)
        assert rep.deriv1 == pytest.approx(0.1, abs=1e-9)
        assert rep.deriv2 == pytest.approx(0.0, abs=1e-7)

    def test_empirical_midpoint_convexity(self):
        s_grid = np.linspace(-1.0, 1.0, 9)
        rep = lf.lambda_moment_function(GBM, s_grid, n=5.0, n_paths=500,
                                        seed=2, dt=0.05)
        second = rep.values[:-2] - 2.0 * rep.values[1:-1] + rep.values[2:]
        assert np.all(second >= -1e-12)
        assert rep.values[np.searchsorted(s_grid, 0.0)] == pytest.approx(0.0, abs=1e-12)

    def test_matches_per_exponent_reference(self):
        n, n_paths, seed, dt = 20.0, 400, 5, 0.1
        s_grid = np.linspace(-40.0, 40.0, 17)
        rep = lf.lambda_moment_function(GBM_FAST, s_grid, n, n_paths, seed, dt=dt)
        assert np.all(np.isfinite(rep.values)) and np.all(np.isfinite(rep.ses))
        ell = _terminal_log_samples(GBM_FAST, lf.FunctionalSpec.op_norm(), [n],
                                    n_paths, seed, dt)[0][0]
        h = rep.fd_step
        s_all = np.concatenate([s_grid, [h, -h]])
        # the reference holds where the weights and their squares stay in the
        # normal float range; s log ||X_20|| reaches about +-800 at s = +-40
        ok = np.abs(s_all[:, None] * ell).max(axis=1) < 300.0
        assert 5 <= ok[:-2].sum() < len(s_grid) and ok[-2:].all()
        values, ses = _moment_reference(ell, s_all[ok], n)
        np.testing.assert_allclose(rep.values[ok[:-2]], values[:-2], rtol=1e-12)
        np.testing.assert_allclose(rep.ses[ok[:-2]], ses[:-2], rtol=1e-12)
        lp, lm = values[-2:]
        assert rep.deriv1 == pytest.approx((lp - lm) / (2 * h), rel=1e-12)
        assert rep.deriv2 == pytest.approx((lp + lm) / h ** 2,
                                           abs=1e-12 * (abs(lp) + abs(lm)) / h ** 2)

    def test_one_path_has_no_variance(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="two or more paths"):
                lf.lambda_moment_function(GBM, [0.5], 1.0, 1, 0)

    def test_large_exponent_is_finite(self):
        # s log ||X_100|| is about 980 > log(max float): exp overflows there
        rep = lf.lambda_moment_function(GBM_FAST, [10.0], 100.0, 100, 3, dt=0.25)
        assert np.all(np.isfinite(rep.values)) and np.all(np.isfinite(rep.ses))
        assert np.isfinite(rep.deriv1) and np.isfinite(rep.deriv2)
        # Jensen: log mean ||X||^s >= s mean log ||X||, and Lambda(10) <= 11.8
        lam, _ = lf.lyapunov_estimate(GBM_FAST, lf.FunctionalSpec.op_norm(),
                                      100.0, 100, 3, dt=0.25)
        assert 10.0 * lam - 1e-9 <= rep.values[0] <= 11.8


class TestBerryEsseen:
    def test_scalar_model_curve(self):
        rep = lf.berry_esseen_curve(GBM, lf.FunctionalSpec.vector_norm([1.0]),
                                    [2.0, 8.0, 32.0], 4000, seed=1, dt=0.05)
        assert len(rep.rows) == 3
        ts = [r[0] for r in rep.rows]
        assert ts == [2.0, 8.0, 32.0]
        dists = np.array([r[1] for r in rep.rows])
        assert np.all(dists > 0) and np.all(dists < 1)
        assert rep.sigma_hat > 0
        assert np.isfinite(rep.slope)
        # the sup-distance at the longest horizon is the smallest
        assert dists[-1] == dists.min()

    def test_repeated_horizon_has_no_slope(self, capfd):
        # a fit through one distinct horizon: NaN, with no warning and no
        # LAPACK message on stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = lf.berry_esseen_curve(SB2, lf.FunctionalSpec.vector_norm([1.0, 0.0]),
                                        [1.0, 1.0], 200, seed=1, dt=0.1)
        assert np.isnan(rep.slope) and np.isnan(rep.intercept)
        assert rep.rows[0] == rep.rows[1]
        assert capfd.readouterr().err == ""


# mu = 800 at dt = 1: the drift factor e^800 overflows, so every state is
# inf/nan after the first step
OVERFLOW = lf.builtin_triplet("gbm1(800, 0.1)")
E1 = lf.FunctionalSpec.vector_norm([1.0])
OP = lf.FunctionalSpec.op_norm()
# the same overflow in d = 2, for the estimators on projective space and the
# unnormalized evolutions: standard_brownian(2) noise with drift 800 I
OVERFLOW2 = lf.MatrixLevyTriplet(d=2, sigma=np.eye(4), gamma=800.0 * np.eye(2))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("call", [
    lambda: lf.lyapunov_estimate(OVERFLOW, E1, 4.0, 50, 1, dt=1.0),
    lambda: lf.lyapunov_estimate(OVERFLOW, OP, 4.0, 50, 1, dt=1.0),
    lambda: lf.clt_diagnostic(OVERFLOW, E1, 4.0, 50, 1, dt=1.0),
    lambda: lf.clt_diagnostic(OVERFLOW, OP, 4.0, 50, 1, dt=1.0),
    lambda: lf.lambda_moment_function(OVERFLOW, [0.5, 1.0], 4.0, 50, 1, dt=1.0),
    lambda: lf.berry_esseen_curve(OVERFLOW, E1, [2.0, 4.0], 50, seed=1, dt=1.0),
    lambda: lf.mixing_rate(OVERFLOW2, lf.HolderFn(eval=lambda p: p.v[0] ** 2),
                           np.eye(2), [1.0, 2.0], 20, 1, dt=1.0),
    lambda: lf.estimate_invariant_measure(OVERFLOW2, 1.0, 4, 1, 5, 1, dt=1.0),
    lambda: lf.contraction_estimate(OVERFLOW2, 2, 1.0, 4, 20, 1, dt=1.0),
    lambda: lf.mean_check(OVERFLOW2, 4.0, 50, 1),
    # h = 1 with 8 substeps: the unnormalized state reaches e^800
    lambda: lf.generator_mc_check(OVERFLOW2, _gauss_bump(np.eye(2), 1.0), np.eye(2),
                                  [1.0], 50, 1),
], ids=["lyapunov_vector", "lyapunov_op_norm", "clt_vector", "clt_op_norm",
        "moment_function", "berry_esseen", "mixing_rate", "invariant_measure",
        "contraction", "mean_check", "generator_mc_check"])
def test_non_finite_engine_output_raises_degenerate_norm(call):
    with pytest.raises(lf.DegenerateNorm, match="not finite"):
        call()


@pytest.mark.parametrize("F", [lf.FunctionalSpec.entry(0, 1),
                               lf.FunctionalSpec.abs_inner([1.0, 0.0], [0.0, 1.0])],
                         ids=["entry", "abs_inner"])
def test_vanished_overlap_raises_degenerate_norm(F):
    """diagonal_reducible keeps X_t diagonal, so X_t^(0,1) = <e1 X_t, e2> is
    exactly 0 and has no logarithm: DegenerateNorm, not a clamped log."""
    with pytest.raises(lf.DegenerateNorm, match="is 0 or not finite"):
        lf.clt_diagnostic(lf.builtin_triplet("diagonal_reducible"), F, T=5.0,
                          n_paths=50, seed=1)


@pytest.mark.parametrize("call", [
    lambda: lf.generator_mc_check(SB2, _gauss_bump(np.eye(2), 1.0), np.eye(2), [1e-2], 1, 0),
    lambda: lf.mixing_rate(SB2, lf.HolderFn(eval=lambda p: p.v[0] ** 2), np.eye(2),
                           [0.5, 1.0], 1, 0),
    lambda: lf.mean_check(SB2, 1.0, 1, 0),
], ids=["generator_mc_check", "mixing_rate", "mean_check"])
def test_one_path_has_no_spread(call, monkeypatch):
    """The estimators that report a Monte Carlo spread outside ``limits``
    keep its two-path floor too: one path raises before any engine run,
    where it gave se = z = nan, or d_hat = inf unflagged."""
    def no_run(*args, **kwargs):
        raise AssertionError("the engine ran")

    monkeypatch.setattr(_engine, "_evolve", no_run)
    with pytest.raises(ValueError, match="two or more paths, got 1"):
        call()


_HAND_PATH = lf.ExpPath(grid=np.array([0.0, 1.0]), X=np.array([np.eye(2), 2.0 * np.eye(2)]),
                       method="hand")


@pytest.mark.parametrize("call, error, message", [
    (lambda: lf.berry_esseen_curve(GBM, OP, [1.0, 2.0], 10, seed=0), ValueError,
     "defined for vector_norm"),
    (lambda: lf.berry_esseen_curve(GBM, E1, [1.0, 2.0], 10, seed=0,
                                   phi=lf.HolderFn(eval=lambda p: 1.0)),
     lf.RequiresInvariantMeasure, "supply measure"),
    (lambda: lf.m_statistics(_HAND_PATH, [[1.0, 0.0], [0.0, 0.0]]), ValueError,
     "a direction needs finite entries"),
    (lambda: lf.FunctionalSpec.entry(-1, 0), ValueError, "nonnegative"),
    (lambda: lf.FunctionalSpec.entry(0, 2).vectors(2), ValueError, "out of range"),
    (lambda: lf.FunctionalSpec.op_norm().vectors(2), ValueError, r"no \(y, z\) form"),
], ids=["berry_esseen_op_norm", "berry_esseen_phi_without_measure", "m_statistics_zero_probe",
        "negative_entry_index", "entry_out_of_range", "op_norm_vectors"])
def test_refusal(call, error, message):
    """Refusals of the Berry-Esseen curve, the M-statistics and the
    functional spec, each raised before any engine run."""
    with pytest.raises(error, match=message):
        call()


class TestMStatistics:
    def test_rotations_have_unit_m(self):
        gamma = np.array([[0.0, -1.0], [1.0, 0.0]])
        trip = lf.MatrixLevyTriplet(d=2, sigma=np.zeros((4, 4)),
                                    gamma=gamma, drift0=gamma)
        path = lf.sample_levy_path(trip, T=3.0, dt=0.1, seed=0)
        ep = lf.exact_cpp_exponential(path, trip)
        m_series, violations = lf.m_statistics(ep, [np.array([1.0, 0.0])])
        np.testing.assert_allclose(m_series, np.ones(len(ep.grid)), atol=1e-12)
        assert violations == 0

    def test_m_at_least_one(self):
        path = lf.sample_levy_path(lf.builtin_triplet("standard_brownian(2)"),
                                   T=1.0, dt=0.05, seed=8)
        ep = lf.emery_exponential(path)
        rng = np.random.default_rng(0)
        m_series, violations = lf.m_statistics(ep, rng.standard_normal((5, 2)))
        assert np.all(m_series >= 1.0 - 1e-12)
        assert violations == 0


def test_import_leaves_scipy_stats_unloaded():
    """scipy.stats costs most of the import time of levyflow and serves only
    clt_diagnostic's KS test, which imports it when called."""
    code = "import sys, levyflow; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(lf.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


def test_import_leaves_scipy_linalg_unloaded():
    """The package's matrix exponentials come from _linalg.expm_pair_last, so
    importing levyflow, its CLI included, does not load scipy.linalg."""
    code = "import sys, levyflow.cli; print('scipy.linalg' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(lf.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


def test_import_leaves_scipy_special_unloaded():
    """lambda_moment_function's logsumexp and berry_esseen_curve's ndtr are
    imported when called, so importing levyflow, its CLI included, does not
    load scipy.special."""
    code = "import sys, levyflow.cli; print('scipy.special' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(lf.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


def test_import_leaves_fractions_and_decimal_unloaded():
    """The CSV kernel builds its double-double powers of ten from Python ints
    on first use, so importing the CLI loads neither fractions nor decimal."""
    code = ("import sys, levyflow.cli; "
            "print('fractions' in sys.modules, 'decimal' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(lf.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False False"
