"""Growth rates, CLT diagnostics, moment function, and norm statistics."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import logm

import levyflow as lf
from levyflow.limits import _terminal_log_samples

GBM = lf.builtin_triplet("gbm1(0.1, 0.2)")
# zero volatility: X_t = exp(0.1 t) with no randomness at all
GBM_DET = lf.builtin_triplet("gbm1(0.1, 0.0)")


def _functional_at(F: lf.FunctionalSpec, a) -> float:
    """F(X_1) as the estimators compute it, on the deterministic dynamics
    X_t = expm(t logm(a)), so that X_1 = a."""
    gamma = np.real(logm(np.asarray(a, dtype=float)))
    trip = lf.MatrixLevyTriplet(d=2, sigma=np.zeros((4, 4)), gamma=gamma, drift0=gamma)
    _, samples, _ = _terminal_log_samples(trip, F, [1.0], n_paths=2, seed=0, dt=1.0)
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


class TestLyapunov:
    def test_deterministic_growth_is_exact(self):
        lam, se = lf.lyapunov_estimate(GBM_DET, lf.FunctionalSpec.op_norm(),
                                       T=5.0, n_paths=4, seed=0, dt=0.05)
        assert lam == pytest.approx(0.1, abs=1e-9)
        assert se <= 1e-9

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


# mu = 800 at dt = 1: the drift factor e^800 overflows, so every state is
# inf/nan after the first step
OVERFLOW = lf.builtin_triplet("gbm1(800, 0.1)")
E1 = lf.FunctionalSpec.vector_norm([1.0])
OP = lf.FunctionalSpec.op_norm()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("call", [
    lambda: lf.lyapunov_estimate(OVERFLOW, E1, 4.0, 50, 1, dt=1.0),
    lambda: lf.lyapunov_estimate(OVERFLOW, OP, 4.0, 50, 1, dt=1.0),
    lambda: lf.clt_diagnostic(OVERFLOW, E1, 4.0, 50, 1, dt=1.0),
    lambda: lf.clt_diagnostic(OVERFLOW, OP, 4.0, 50, 1, dt=1.0),
    lambda: lf.lambda_moment_function(OVERFLOW, [0.5, 1.0], 4.0, 50, 1, dt=1.0),
    lambda: lf.berry_esseen_curve(OVERFLOW, E1, [2.0, 4.0], 50, seed=1, dt=1.0),
], ids=["lyapunov_vector", "lyapunov_op_norm", "clt_vector", "clt_op_norm",
        "moment_function", "berry_esseen"])
def test_non_finite_engine_output_raises_degenerate_norm(call):
    with pytest.raises(lf.DegenerateNorm, match="not finite"):
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
