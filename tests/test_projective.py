"""Directions on projective space: metric, chains, invariant measure, mixing."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import levyflow as lf

SB2 = lf.builtin_triplet("standard_brownian(2)")


def _drift_only(gamma) -> lf.MatrixLevyTriplet:
    gamma = np.asarray(gamma, dtype=float)
    d = gamma.shape[0]
    return lf.MatrixLevyTriplet(d=d, sigma=np.zeros((d * d, d * d)),
                                gamma=gamma, drift0=gamma)


class TestCanonicalUnit:
    def test_idempotent_and_antipodal(self):
        from levyflow.projective import canonical_unit
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.standard_normal(3)
            u = canonical_unit(v)
            assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
            # idempotent up to the rounding of one extra renormalization
            np.testing.assert_allclose(canonical_unit(u), u, atol=1e-15)
            # v and -v give the same representative bit for bit
            np.testing.assert_array_equal(canonical_unit(-v), u)

    def test_zero_vector_rejected(self):
        from levyflow.projective import canonical_unit
        with pytest.raises(ValueError):
            canonical_unit(np.zeros(2))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_batch_equals_per_column_calls(self, d):
        from levyflow.projective import canonical_unit
        rng = np.random.default_rng(10 + d)
        V = rng.standard_normal((d, 40))
        # leading coordinates of modulus <= 1e-12 (zero only where another
        # coordinate keeps the vector nonzero)
        tiny = [1e-12, -1e-12, 5e-13, -5e-13] + ([0.0, -0.0] if d > 1 else [])
        V[0, :10] = rng.choice(tiny, size=10)
        V[:, 10:20] = -np.abs(V[:, 10:20])  # negative leads
        if d > 1:
            V[0, 20:25] = 0.0
            V[1, 20:25] = -1.0  # the lead sits past a zero first coordinate
        U = canonical_unit(V)
        assert U.shape == (d, 40)
        for j in range(V.shape[1]):
            np.testing.assert_array_equal(U[:, j], canonical_unit(V[:, j]))
            assert U[:, j].tobytes() == canonical_unit(V[:, j]).tobytes()
        np.testing.assert_array_equal(canonical_unit(-V), U)

    def test_batch_with_a_degenerate_column_rejected(self):
        from levyflow.projective import canonical_unit
        V = np.ones((2, 5))
        for bad in (0.0, np.inf, np.nan):
            W = V.copy()
            W[:, 3] = [bad, 0.0]
            with pytest.raises(ValueError):
                canonical_unit(W)

    def test_batched_proj_point(self):
        rng = np.random.default_rng(3)
        V = rng.standard_normal((2, 25))
        batch = lf.ProjPoint(V)
        assert batch.d == 2 and batch.v.shape == (2, 25)
        assert not batch.v.flags.writeable
        angles = batch.angle()
        for j in range(V.shape[1]):
            one = lf.ProjPoint(V[:, j])
            np.testing.assert_array_equal(batch.v[:, j], one.v)
            assert angles[j] == one.angle()
            assert 0.0 <= angles[j] < np.pi

    def test_proj_point_angle(self):
        assert lf.ProjPoint(np.array([1.0, 0.0])).angle() == pytest.approx(0.0)
        assert lf.ProjPoint(np.array([0.0, 1.0])).angle() == pytest.approx(np.pi / 2)
        assert lf.ProjPoint(np.array([-1.0, -1.0])).angle() == pytest.approx(np.pi / 4)
        # a line just below the first axis has representative angle near pi,
        # which is the same projective direction as angle 0
        wrap = lf.ProjPoint(np.array([-1.0, 1e-16])).angle()
        assert min(wrap, np.pi - wrap) == pytest.approx(0.0, abs=1e-12)


class TestAngularDistance:
    def test_range_and_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a, b = rng.standard_normal((2, 3))
            dab = lf.angular_distance(a, b)
            assert 0.0 <= dab <= 1.0
            assert dab == pytest.approx(lf.angular_distance(b, a), abs=1e-15)
            assert lf.angular_distance(a, -a) == pytest.approx(0.0, abs=1e-7)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            a, b, c = rng.standard_normal((3, 3))
            assert (lf.angular_distance(a, c)
                    <= lf.angular_distance(a, b) + lf.angular_distance(b, c) + 1e-12)

    def test_orthogonal_lines_at_unit_distance(self):
        assert lf.angular_distance([1.0, 0.0], [0.0, 2.0]) == pytest.approx(1.0)

    def test_close_lines_keep_relative_accuracy(self):
        """Unit pairs at angles 1e-6 to 3e-6, where sqrt(1 - <u, w>^2) is off
        by up to 1e-4 relative."""
        from levyflow.projective import _sine
        rng = np.random.default_rng(6)
        u = rng.standard_normal((2000, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        v = rng.standard_normal((2000, 3))
        v -= np.sum(u * v, axis=1, keepdims=True) * u
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        theta = rng.uniform(1e-6, 3e-6, 2000)
        w = np.cos(theta)[:, None] * u + np.sin(theta)[:, None] * v
        for sign in (1.0, -1.0):
            np.testing.assert_allclose(_sine(u, sign * w), np.sin(theta), rtol=1e-9, atol=0)


class TestProjectChain:
    def test_lognorms_match_recomputation(self):
        path = lf.sample_levy_path(SB2, T=2.0, dt=0.1, seed=6)
        ep = lf.emery_exponential(path)
        y0 = np.array([0.6, 0.8])
        points, lognorms = lf.project_chain(ep, y0)
        assert points.v.shape == (2, len(ep.grid))
        for k in range(len(ep.grid)):
            w = y0 @ ep.X[k]
            assert lognorms[k] == pytest.approx(np.log(np.linalg.norm(w)), abs=1e-12)
            assert lf.angular_distance(points.v[:, k], w) == pytest.approx(0.0, abs=1e-7)

    def test_rotation_moves_direction_at_unit_speed(self):
        rot = _drift_only([[0.0, -1.0], [1.0, 0.0]])
        path = lf.sample_levy_path(rot, T=1.0, dt=0.001, seed=0)
        ep = lf.emery_exponential(path)
        points, lognorms = lf.project_chain(ep, np.array([1.0, 0.0]))
        # y0 @ X_t = (cos t, -sin t): angle -t mod pi, unit norm
        assert points.angle()[-1] == pytest.approx(np.pi - 1.0, abs=1e-2)
        np.testing.assert_allclose(lognorms, np.zeros(len(ep.grid)), atol=1e-3)


class TestInvariantMeasure:
    def test_weights_and_reproducibility(self):
        kw = dict(h=0.2, n_steps=40, burn_in=10, n_chains=5, seed=3)
        m1 = lf.estimate_invariant_measure(SB2, **kw)
        m2 = lf.estimate_invariant_measure(SB2, **kw)
        assert len(m1.points) == 30 * 5
        assert np.all(m1.weights >= 0)
        assert m1.weights.sum() == pytest.approx(1.0)
        np.testing.assert_array_equal(m1.points, m2.points)
        assert m1.meta["burn_in"] == 10

    def test_integrate(self):
        meas = lf.estimate_invariant_measure(SB2, h=0.2, n_steps=40,
                                             burn_in=10, n_chains=5, seed=3)
        assert meas.integrate(lambda p: 1.0) == pytest.approx(1.0)
        val = meas.integrate(lambda p: p.v[0] ** 2 + p.v[1] ** 2)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_bad_burn_in_rejected(self):
        with pytest.raises(ValueError):
            lf.estimate_invariant_measure(SB2, h=0.2, n_steps=10, burn_in=10,
                                          n_chains=2, seed=0)

    @pytest.mark.parametrize("dt", [0.0, -3.0])
    def test_nonpositive_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="need T > 0"):
            lf.estimate_invariant_measure(SB2, h=0.2, n_steps=30, burn_in=10,
                                          n_chains=4, seed=3, dt=dt)

    def test_points_are_a_read_only_canonical_array(self):
        from levyflow.projective import canonical_unit
        meas = lf.estimate_invariant_measure(SB2, h=0.2, n_steps=40,
                                             burn_in=10, n_chains=5, seed=3)
        assert meas.points.shape == (150, 2)
        assert not meas.points.flags.writeable
        # rows are canonical: canonicalizing again moves them by rounding only
        np.testing.assert_allclose(canonical_unit(meas.points.T).T, meas.points,
                                   rtol=0, atol=1e-15)
        with pytest.raises(ValueError):
            meas.points[0, 0] = 1.0

    def test_measure_arrays_validated(self):
        w = np.full(3, 1.0 / 3.0)
        with pytest.raises(ValueError):
            lf.EmpiricalMeasure(points=np.ones(3), weights=w, meta={})
        with pytest.raises(ValueError):
            lf.EmpiricalMeasure(points=np.ones((4, 2)), weights=w, meta={})
        pts = np.eye(3)
        meas = lf.EmpiricalMeasure(points=pts, weights=w, meta={})
        pts[0, 0] = 5.0  # the measure keeps its own read-only copy
        assert meas.points[0, 0] == 1.0


class TestContraction:
    def test_isotropic_flow_contracts(self):
        rep = lf.contraction_estimate(SB2, n=2, gamma=0.5, n_pairs=8,
                                      n_paths=2000, seed=4)
        assert rep.contracting
        assert 0.0 < rep.c_hat < 1.0
        assert rep.gamma == 0.5

    @pytest.mark.parametrize("gamma", [1.0, 0.5])
    def test_rotation_is_an_isometry(self, gamma):
        # the flow of a rotation drift keeps every angle between lines, so
        # each pair's ratio is 1: dist_before and dist_after line up pair by pair
        rot = _drift_only([[0.0, -1.0], [1.0, 0.0]])
        rep = lf.contraction_estimate(rot, n=2, gamma=gamma, n_pairs=16,
                                      n_paths=3, seed=5)
        assert len(rep.per_pair) == 4 + 16
        np.testing.assert_allclose(rep.per_pair, 1.0, rtol=0, atol=1e-12)

    def test_bad_gamma_rejected(self):
        with pytest.raises(ValueError):
            lf.contraction_estimate(SB2, n=1, gamma=1.5, n_pairs=4,
                                    n_paths=100, seed=0)


class TestMixingRate:
    def test_pure_rotation_never_mixes(self):
        rot = _drift_only([[0.0, -1.0], [1.0, 0.0]])
        f = lf.HolderFn(eval=lambda p: p.v[0] ** 2)
        starts = [np.array([1.0, 0.0]), np.array([1.0, 1.0]) / np.sqrt(2.0)]
        rep = lf.mixing_rate(rot, f, starts, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                             n_paths=4, seed=0, dt=0.01)
        assert rep.flagged_no_decay
        assert rep.d_hat <= 0.05

    def test_isotropic_flow_mixes(self):
        f = lf.HolderFn(eval=lambda p: p.v[0] ** 2)
        starts = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        rep = lf.mixing_rate(SB2, f, starts, [0.5, 1.0, 1.5, 2.0, 3.0],
                             n_paths=20000, seed=5, dt=0.05)
        assert not rep.flagged_no_decay
        assert rep.d_hat > 0.5
        assert rep.sup_diffs.shape == (5,)

    def test_f_called_once_per_grid_time(self):
        calls = []

        def f(p):
            calls.append(p.v.shape)
            return p.v[0] ** 2

        starts = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0])]
        rep = lf.mixing_rate(SB2, lf.HolderFn(eval=f), starts, [0.5, 1.0, 0.25],
                             n_paths=50, seed=1)
        assert calls == [(2, 150)] * 3
        # a constant f returns one scalar, broadcast to every sample
        flat = lf.mixing_rate(SB2, lf.HolderFn(eval=lambda p: 1.0), starts,
                              [0.5, 1.0], n_paths=50, seed=1)
        np.testing.assert_array_equal(flat.sup_diffs, 0.0)
        assert rep.sup_diffs.shape == (3,)

    def test_holder_exponent_validated(self):
        with pytest.raises(ValueError):
            lf.HolderFn(eval=lambda p: 0.0, gamma=0.0)

    def test_repeated_horizon_mixing_has_no_fit(self, capfd):
        f = lf.HolderFn(eval=lambda p: p.v[0] ** 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = lf.mixing_rate(SB2, f, np.eye(2), [0.5, 0.5], 2000, 1, dt=0.1)
        assert rep.sup_diffs[0] == rep.sup_diffs[1] > 1e-3
        assert (rep.D_hat, rep.d_hat, rep.r2) == (0.0, 0.0, 0.0)
        assert rep.flagged_no_decay
        assert capfd.readouterr().err == ""


class TestBerryEsseenWithPhi:
    def test_matches_a_per_point_reference(self):
        from scipy import stats

        from levyflow.limits import _terminal_log_samples
        F = lf.FunctionalSpec.vector_norm([1.0, 0.0])
        phi = lf.HolderFn(eval=lambda p: p.v[0] ** 2)
        meas = lf.estimate_invariant_measure(SB2, h=0.2, n_steps=40,
                                             burn_in=10, n_chains=5, seed=3)
        t_grid, n_paths, seed, dt = [1.0, 2.0, 4.0], 2000, 11, 0.1
        rep = lf.berry_esseen_curve(SB2, F, t_grid, n_paths, phi=phi, seed=seed,
                                    measure=meas, dt=dt)

        ts = np.array(t_grid)
        samples, dirs = _terminal_log_samples(SB2, F, ts, n_paths, seed, dt)
        lam = samples[-1].mean() / ts[-1]
        sigma = samples[-1].std(ddof=1) / np.sqrt(ts[-1])
        pi_phi = sum(w * phi.eval(lf.ProjPoint(v))
                     for w, v in zip(meas.weights, meas.points))
        z = np.linspace(-3.0, 3.0, 121)
        for k, t in enumerate(ts):
            u = (samples[k] - t * lam) / (sigma * np.sqrt(t))
            vals = np.array([phi.eval(lf.ProjPoint(v)) for v in dirs[k]])
            joint = np.array([vals[u <= zk].sum() for zk in z]) / n_paths
            dist = np.max(np.abs(joint - pi_phi * stats.norm.cdf(z)))
            assert rep.rows[k][0] == t
            assert rep.rows[k][1] == pytest.approx(dist, abs=1e-12)
