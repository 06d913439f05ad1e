"""Path sampling, product exponentials, logarithm, and reconstruction."""

from __future__ import annotations

import warnings
from itertools import combinations

import numpy as np
import pytest
from scipy.linalg import expm

import levyflow as lf
from levyflow import _engine, _linalg
from levyflow._linalg import OffGrid, grid_indices, line_fit, step_grid

ROT = lf.builtin_triplet("rotation_rank1")
SB2 = lf.builtin_triplet("standard_brownian(2)")


def _drift_only(gamma) -> lf.MatrixLevyTriplet:
    gamma = np.asarray(gamma, dtype=float)
    d = gamma.shape[0]
    return lf.MatrixLevyTriplet(d=d, sigma=np.zeros((d * d, d * d)),
                                gamma=gamma, drift0=gamma)


class TestSampling:
    def test_grid_and_shapes(self):
        path = lf.sample_levy_path(ROT, T=2.0, dt=0.25, seed=0)
        assert path.grid[0] == 0.0
        assert path.grid[-1] == pytest.approx(2.0)
        assert np.all(np.diff(path.grid) > 0)
        assert path.increments.shape == (len(path.grid) - 1, 2, 2)
        grid = set(path.grid.tolist())
        for t, a in path.jumps:
            assert t in grid
            assert a.shape == (2, 2)

    def test_same_seed_reproduces(self):
        p1 = lf.sample_levy_path(SB2, T=1.0, dt=0.1, seed=42)
        p2 = lf.sample_levy_path(SB2, T=1.0, dt=0.1, seed=42)
        np.testing.assert_array_equal(p1.grid, p2.grid)
        np.testing.assert_array_equal(p1.increments, p2.increments)

    def test_different_seeds_differ(self):
        p1 = lf.sample_levy_path(SB2, T=1.0, dt=0.1, seed=1)
        p2 = lf.sample_levy_path(SB2, T=1.0, dt=0.1, seed=2)
        assert np.max(np.abs(p1.increments - p2.increments)) > 1e-3

    def test_drift_only_increments(self):
        gamma = np.array([[0.3, -0.1], [0.2, 0.0]])
        path = lf.sample_levy_path(_drift_only(gamma), T=1.0, dt=0.25, seed=0)
        np.testing.assert_allclose(path.increments,
                                   [0.25 * gamma] * 4, atol=1e-15)
        assert path.jumps == ()

    def test_off_grid_jump_rejected(self):
        with pytest.raises(ValueError):
            lf.LevyPath(grid=[0.0, 1.0], increments=np.zeros((1, 2, 2)),
                        jumps=((0.5, np.eye(2)),))

    def test_jump_index_is_resolved_once_and_read_only(self):
        path = lf.sample_levy_path(ROT, T=3.0, dt=0.25, seed=11)
        assert len(path.jumps) > 0
        times = [t for t, _ in path.jumps]
        np.testing.assert_array_equal(path.jump_index, grid_indices(path.grid, times))
        with pytest.raises(ValueError):
            path.jump_index[0] = 0
        ep = lf.exact_cpp_exponential(path, ROT)
        np.testing.assert_array_equal(ep.jump_index, path.jump_index)
        assert not ep.jump_index.flags.writeable

    def test_jumps_out_of_time_order_rejected(self):
        a = 0.5 * np.eye(2)
        with pytest.raises(ValueError, match="time order"):
            lf.LevyPath(grid=[0.0, 0.5, 1.0], increments=np.zeros((2, 2, 2)),
                        jumps=((1.0, a), (0.5, a)))
        eye, post = np.eye(2), 1.5 * np.eye(2)
        with pytest.raises(ValueError, match="time order"):
            lf.ExpPath(grid=np.array([0.0, 0.5, 1.0]), X=np.array([eye, post, post]),
                       method="hand", jump_times=np.array([1.0, 0.5]),
                       jump_pre=np.array([eye, eye]), jump_post=np.array([post, post]))

    def test_singular_jump_rejected_on_construction(self):
        ok, bad = 0.5 * np.eye(2), np.diag([-1.0, 0.5])
        with pytest.raises(lf.SingularJump, match="t=0.75"):
            lf.LevyPath(grid=[0.0, 0.5, 0.75, 1.0], increments=np.zeros((3, 2, 2)),
                        jumps=((0.5, ok), (0.75, bad), (1.0, bad)))

    def test_sampler_rejects_singular_atom_of_unvalidated_triplet(self):
        jumps = lf.JumpSpec(rate=5.0, atoms=((1.0, -np.eye(2)),))
        trip = lf.MatrixLevyTriplet(d=2, sigma=np.zeros((4, 4)), gamma=np.zeros((2, 2)),
                                    jumps=jumps)
        assert "nonsingular-jump" in lf.validate(trip).rules()
        with pytest.raises(lf.SingularJump):
            lf.sample_levy_path(trip, T=2.0, dt=0.5, seed=0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_marks_are_one_read_only_stack(self, d):
        grid, inc = [0.0, 0.5, 1.0], np.zeros((2, d, d))
        bare = lf.LevyPath(grid=grid, increments=inc)
        assert bare.marks.shape == (0, d, d)
        a, b = 0.5 * np.eye(d), np.full((d, d), 0.1)
        path = lf.LevyPath(grid=grid, increments=inc, jumps=((0.5, a), (0.5, b), (1.0, a)))
        assert path.marks.shape == (3, d, d)
        np.testing.assert_array_equal(path.marks, [a, b, a])
        for (t, m), row in zip(path.jumps, path.marks):
            assert isinstance(t, float)
            np.testing.assert_array_equal(m, row)
        for arr in (bare.marks, path.marks, path.jumps[0][1]):
            with pytest.raises(ValueError):
                arr[...] = 0.0
        with pytest.raises(ValueError, match="shape"):
            lf.LevyPath(grid=grid, increments=inc, jumps=((0.5, np.ones(d * d + 1)),))


@pytest.mark.parametrize("path", [
    lf.sample_levy_path(ROT, 3.0, 0.25, 1),
    lf.sample_levy_path(ROT, 3.0, 0.25, 4),
    lf.LevyPath(grid=[0.0, 0.5, 1.0], increments=np.full((2, 2, 2), 0.1),
                jumps=((0.5, 0.5 * np.eye(2)), (0.5, np.ones((2, 2))), (1.0, -0.25 * np.eye(2)))),
], ids=["sampled_1", "sampled_4", "two_jumps_at_one_time"])
def test_levy_values_add_each_jump_from_its_time(path):
    """L at grid point k is the increments of the first k cells plus every
    mark whose time is at most t_k (cadlag)."""
    assert path.jumps
    want = [path.increments[:k].sum(axis=0) + sum((a for t, a in path.jumps if t <= tk),
                                                  np.zeros((2, 2)))
            for k, tk in enumerate(path.grid)]
    np.testing.assert_allclose(path.levy_values(), want, rtol=0, atol=1e-12)


class TestCoarsen:
    def test_totals_and_jumps_preserved(self):
        fine = lf.sample_levy_path(ROT, T=1.0, dt=1.0 / 64.0, seed=3)
        coarse = lf.coarsen_path(fine, 8)
        np.testing.assert_allclose(coarse.levy_values()[-1],
                                   fine.levy_values()[-1], atol=1e-12)
        assert len(coarse.jumps) == len(fine.jumps)
        for (t1, a1), (t2, a2) in zip(coarse.jumps, fine.jumps):
            assert t1 == t2
            np.testing.assert_array_equal(a1, a2)

    def test_exact_product_is_grid_invariant(self):
        fine = lf.sample_levy_path(ROT, T=1.0, dt=1.0 / 64.0, seed=3)
        coarse = lf.coarsen_path(fine, 8)
        xf = lf.exact_cpp_exponential(fine, ROT).X[-1]
        xc = lf.exact_cpp_exponential(coarse, ROT).X[-1]
        np.testing.assert_allclose(xc, xf, atol=1e-12)

    def test_keeps_jump_point_within_grid_tolerance(self):
        # the jump time is 1e-11 off the grid point 0.375, inside the
        # tolerance of the time -> grid-index map; jump points are not
        # counted among the uniform points, of which every 4th is kept
        a = 0.5 * np.eye(2)
        path = lf.LevyPath(grid=np.linspace(0.0, 1.0, 9), increments=np.zeros((8, 2, 2)),
                           jumps=((0.375 + 1e-11, a),))
        coarse = lf.coarsen_path(path, 4)
        np.testing.assert_array_equal(coarse.grid, [0.0, 0.375, 0.625, 1.0])
        np.testing.assert_array_equal(coarse.jump_index, [1])


class TestExponentials:
    def test_exact_product_matches_hand_product(self):
        gamma = np.array([[0.0, -1.0], [1.0, 0.0]])
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        trip = lf.MatrixLevyTriplet(
            d=2, sigma=np.zeros((4, 4)), gamma=gamma + a, drift0=gamma,
            jumps=lf.JumpSpec(rate=1.0, atoms=((1.0, a),)))
        path = lf.LevyPath(grid=[0.0, 0.5, 1.0],
                           increments=[0.5 * gamma, 0.5 * gamma],
                           jumps=((0.5, a),))
        ep = lf.exact_cpp_exponential(path, trip)
        half = expm(0.5 * gamma)
        np.testing.assert_allclose(ep.X[1], half @ (np.eye(2) + a), atol=1e-14)
        np.testing.assert_allclose(ep.X[2],
                                   half @ (np.eye(2) + a) @ half, atol=1e-14)

    def test_cell_factor_does_not_depend_on_the_other_cells(self):
        """Cell factors are bit for bit the same whatever the number of cells
        in the path: X_1 = f(h) and X_2 = f(h) f(l) of a path whose first
        cells have lengths h (the longest, which sets the scaling) and l are
        the same alone, in 2 cells and in 2002."""
        rng = np.random.default_rng(8)
        for _ in range(40):
            gamma = rng.standard_normal((2, 2))
            trip = _drift_only(gamma)
            h = rng.uniform(0.05, 2.0)
            cells = np.r_[h, h * rng.random(2001) / 1000.0]

            def states(n_cells):
                grid = np.r_[0.0, np.cumsum(cells[:n_cells])]
                path = lf.LevyPath(grid=grid, increments=np.diff(grid)[:, None, None] * gamma)
                return lf.exact_cpp_exponential(path, trip).X
            full = states(cells.size)
            assert states(1)[1].tobytes() == full[1].tobytes()
            assert states(2)[1:3].tobytes() == full[1:3].tobytes()

    def test_emery_product_matches_hand_product(self):
        inc = np.array([[0.1, 0.0], [0.2, -0.1]])
        a = np.array([[0.3, 0.0], [0.0, 0.0]])
        path = lf.LevyPath(grid=[0.0, 0.5, 1.0], increments=[inc, inc],
                           jumps=((0.5, a),))
        ep = lf.emery_exponential(path)
        eye = np.eye(2)
        np.testing.assert_allclose(
            ep.X[2], (eye + inc) @ (eye + a) @ (eye + inc), atol=1e-14)

    def test_emery_converges_to_exact(self):
        fine = lf.sample_levy_path(ROT, T=1.0, dt=1.0 / 512.0, seed=7)
        exact = lf.exact_cpp_exponential(fine, ROT).X[-1]
        approx = lf.emery_exponential(fine).X[-1]
        coarse = lf.coarsen_path(fine, 8)
        worse = lf.emery_exponential(coarse).X[-1]
        assert np.linalg.norm(approx - exact, 2) < np.linalg.norm(worse - exact, 2)
        assert np.linalg.norm(approx - exact, 2) < 1e-2

    def test_inverse_factors(self):
        path = lf.sample_levy_path(ROT, T=2.0, dt=0.125, seed=5)
        ep = lf.exact_cpp_exponential(path, ROT)
        assert ep.Xinv is not None
        prods = np.einsum("tij,tjk->tik", ep.X, ep.Xinv)
        np.testing.assert_allclose(prods, [np.eye(2)] * len(ep.grid), atol=1e-10)

    def test_gaussian_part_rejected(self):
        path = lf.sample_levy_path(SB2, T=1.0, dt=0.5, seed=0)
        with pytest.raises(lf.HasGaussianPart):
            lf.exact_cpp_exponential(path, SB2)

    def test_singular_step_rejected(self):
        path = lf.LevyPath(grid=[0.0, 1.0], increments=[-np.eye(2)])
        with pytest.raises(lf.SingularFactor):
            lf.emery_exponential(path)

    def test_jump_factors_recoverable(self):
        path = lf.sample_levy_path(ROT, T=3.0, dt=0.25, seed=11)
        assert len(path.jumps) > 0
        ep = lf.exact_cpp_exponential(path, ROT)
        assert len(ep.jump_times) == len(path.jumps)
        for k, (_, a) in enumerate(path.jumps):
            factor = np.linalg.solve(ep.jump_pre[k], ep.jump_post[k])
            np.testing.assert_allclose(factor, np.eye(2) + a, atol=1e-10)


class TestStochasticLogarithm:
    def test_round_trip_from_exact_product(self):
        path = lf.sample_levy_path(ROT, T=2.0, dt=0.25, seed=9)
        ep = lf.exact_cpp_exponential(path, ROT)
        rec = lf.stochastic_logarithm(ep)
        np.testing.assert_array_equal(rec.grid, path.grid)
        assert len(rec.jumps) == len(path.jumps)
        for (t1, a1), (t2, a2) in zip(rec.jumps, path.jumps):
            assert t1 == pytest.approx(t2)
            np.testing.assert_allclose(a1, a2, atol=1e-10)

    def test_log_of_emery_recovers_increments(self):
        path = lf.sample_levy_path(SB2, T=1.0, dt=0.05, seed=21)
        ep = lf.emery_exponential(path)
        rec = lf.stochastic_logarithm(ep)
        np.testing.assert_allclose(rec.increments, path.increments, atol=1e-10)

    def test_exponential_of_log_restores_states(self):
        path = lf.sample_levy_path(SB2, T=1.0, dt=0.05, seed=22)
        ep = lf.emery_exponential(path)
        back = lf.emery_exponential(lf.stochastic_logarithm(ep))
        np.testing.assert_allclose(back.X, ep.X, atol=1e-9)

    def test_two_jumps_at_one_point_and_a_jump_at_T(self):
        rng = np.random.default_rng(4)
        a, b, c = (0.3 * rng.standard_normal((2, 2)) for _ in range(3))
        path = lf.LevyPath(grid=np.linspace(0.0, 1.0, 5),
                           increments=0.1 * rng.standard_normal((4, 2, 2)),
                           jumps=((0.5, a), (0.5, b), (1.0, c)))
        ep = lf.emery_exponential(path)
        rec = lf.stochastic_logarithm(ep)
        np.testing.assert_array_equal(rec.jump_index, [2, 2, 4])
        np.testing.assert_allclose(rec.increments, path.increments, atol=1e-12)
        # the batched solves equal the same solves done one cell at a time
        for cell in range(4):
            at_end = np.flatnonzero(ep.jump_index == cell + 1)
            end = ep.jump_pre[at_end[0]] if len(at_end) else ep.X[cell + 1]
            np.testing.assert_array_equal(rec.increments[cell],
                                          np.linalg.solve(ep.X[cell], end - ep.X[cell]))
        for (t1, m1), (t2, m2) in zip(rec.jumps, path.jumps):
            assert t1 == t2
            np.testing.assert_allclose(m1, m2, atol=1e-12)
        back = lf.emery_exponential(rec)
        np.testing.assert_allclose(back.X, ep.X, atol=1e-12)
        np.testing.assert_allclose(back.jump_pre, ep.jump_pre, atol=1e-12)
        np.testing.assert_allclose(back.jump_post, ep.jump_post, atol=1e-12)

    @pytest.mark.parametrize("state", [np.ones((2, 2)), np.array([[1.0, 0.0], [0.0, 1e-320]])])
    def test_singular_state_raises(self, state):
        eye = np.eye(2)
        ep = lf.ExpPath(grid=np.array([0.0, 0.5, 1.0]), X=np.array([eye, state, eye]),
                        method="hand")
        with pytest.raises(lf.SingularState):
            lf.stochastic_logarithm(ep)


class TestSkorokhodReconstruct:
    def test_no_big_jumps_reduces_to_plain_exponential(self):
        path = lf.sample_levy_path(ROT, T=2.0, dt=0.25, seed=13)
        exact = lf.exact_cpp_exponential(path, ROT).X[-1]
        recon = lf.skorokhod_reconstruct(path, eps=100.0, triplet=ROT)
        np.testing.assert_allclose(recon, exact, atol=1e-12)

    def test_all_jumps_big(self):
        path = lf.sample_levy_path(ROT, T=2.0, dt=0.25, seed=13)
        assert len(path.jumps) > 0
        exact = lf.exact_cpp_exponential(path, ROT).X[-1]
        recon = lf.skorokhod_reconstruct(path, eps=1e-9, triplet=ROT)
        np.testing.assert_allclose(recon, exact, atol=1e-12)

    def test_works_without_triplet(self):
        path = lf.sample_levy_path(SB2, T=1.0, dt=0.01, seed=4)
        plain = lf.emery_exponential(path).X[-1]
        recon = lf.skorokhod_reconstruct(path, eps=0.5)
        np.testing.assert_allclose(recon, plain, atol=1e-12)


def _subset_sum_reconstruct(path, eps, triplet):
    """The reconstruction identity evaluated term by term: the sum over all
    2^N subsets of big jumps of Q(0, tau_k1) D_k1 Q(tau_k1, tau_k2) ... Q(tau_kl, T)."""
    big = [(t, a) for t, a in path.jumps if np.linalg.norm(a, 2) >= eps]
    small = tuple((t, a) for t, a in path.jumps if np.linalg.norm(a, 2) < eps)
    trunc = lf.LevyPath(grid=path.grid, increments=path.increments, jumps=small)
    X = lf.exact_cpp_exponential(trunc, triplet).X
    bounds = [0] + [int(np.searchsorted(path.grid, t)) for t, _ in big] + [len(path.grid) - 1]

    def q(i, j):
        return np.linalg.solve(X[bounds[i]], X[bounds[j]])

    n = len(big)
    total = q(0, n + 1)
    for ell in range(1, n + 1):
        for ks in combinations(range(1, n + 1), ell):
            term = q(0, ks[0])
            for i, j in zip(ks, ks[1:] + (n + 1,)):
                term = term @ big[i - 1][1] @ q(i, j)
            total = total + term
    return total


def _random_jump_path(rng, n_big: int, n_small: int, d: int = 2, T: float = 3.0):
    """Drift-only triplet plus a path with n_big marks of norm 0.8 and n_small
    of norm 0.2 at distinct random times; random marks do not commute."""
    gamma = 0.5 * rng.standard_normal((d, d))
    marks = rng.standard_normal((n_big + n_small, d, d))
    marks /= np.linalg.norm(marks, 2, axis=(1, 2))[:, None, None]
    marks *= np.r_[np.full(n_big, 0.8), np.full(n_small, 0.2)][:, None, None]
    times = T * (1.0 - rng.random(n_big + n_small))
    grid = np.unique(np.concatenate([np.linspace(0.0, T, 9), times]))
    order = np.argsort(times)
    path = lf.LevyPath(grid=grid, increments=np.diff(grid)[:, None, None] * gamma,
                       jumps=tuple((float(times[k]), marks[k]) for k in order))
    return path, _drift_only(gamma)


def _rel_err(a, b) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


class TestReconstructionProduct:
    @pytest.mark.parametrize("n_big", [0, 1, 2, 5, 12])
    def test_product_equals_subset_sum(self, n_big):
        rng = np.random.default_rng(100 + n_big)
        for d in (2, 3):
            path, trip = _random_jump_path(rng, n_big, n_small=3, d=d)
            recon = lf.skorokhod_reconstruct(path, 0.5, triplet=trip)
            assert _rel_err(recon, _subset_sum_reconstruct(path, 0.5, trip)) <= 1e-10

    def test_thirty_big_jumps(self):
        path, trip = _random_jump_path(np.random.default_rng(30), n_big=30, n_small=5)
        recon = lf.skorokhod_reconstruct(path, 0.5, triplet=trip)
        exact = lf.exact_cpp_exponential(path, trip).X[-1]
        assert _rel_err(recon, exact) <= 1e-10

    @pytest.mark.parametrize("small_first", [True, False])
    def test_big_and_small_jump_at_one_grid_point(self, small_first):
        big = (0.5, np.array([[0.0, 1.0], [0.0, 0.0]]))
        small = (0.5, np.array([[0.0, 0.0], [0.3, 0.0]]))
        path = lf.LevyPath(grid=[0.0, 0.5, 1.0], increments=[0.5 * ROT.drift()] * 2,
                           jumps=(small, big) if small_first else (big, small))
        if small_first:
            recon = lf.skorokhod_reconstruct(path, 0.5, triplet=ROT)
            exact = lf.exact_cpp_exponential(path, ROT).X[-1]
            np.testing.assert_allclose(recon, exact, rtol=0, atol=1e-14)
        else:
            with pytest.raises(ValueError):
                lf.skorokhod_reconstruct(path, 0.5, triplet=ROT)


# Each caller of the time -> grid-index helper on the grid [0, 0.5, 1],
# returning the grid time that ``t`` was mapped to.

def _jump_time(t):
    path = lf.LevyPath(grid=[0.0, 0.5, 1.0], increments=np.zeros((2, 2, 2)),
                       jumps=((t, 0.5 * np.eye(2)),))
    return lf.emery_exponential(path).jump_times[0]


def _snapshot_vectors(t):
    return _engine.evolve_vectors(SB2, [1.0, 0.0], 1.0, 2, 0, [t], dt=0.5)[0][0]


def _snapshot_matrices(t):
    return _engine.evolve_matrices(SB2, 1.0, 2, 0, [t], dt=0.5)[0][0]


def _log_jump_time(t):
    eye, post = np.eye(2), 1.5 * np.eye(2)
    ep = lf.ExpPath(grid=np.array([0.0, 0.5, 1.0]), X=np.array([eye, post, post]),
                    method="hand", jump_times=np.array([t]),
                    jump_pre=eye[None], jump_post=post[None])
    return lf.stochastic_logarithm(ep).jumps[0][0]


def _log_jump_time_from_2i(t):
    """As _log_jump_time on a path starting at X[0] = 2I, not I."""
    start, post = 2.0 * np.eye(2), 3.0 * np.eye(2)
    ep = lf.ExpPath(grid=np.array([0.0, 0.5, 1.0]), X=np.array([start, post, post]),
                    method="hand", jump_times=np.array([t]),
                    jump_pre=start[None], jump_post=post[None])
    return lf.stochastic_logarithm(ep).jumps[0][0]


CALLERS = [_jump_time, _snapshot_vectors, _snapshot_matrices, _log_jump_time]


@pytest.mark.parametrize("caller, t, expected", [
    (_jump_time, 0.25, ValueError),
    (_jump_time, 0.0, ValueError),
    (_jump_time, 0.5 + 1e-8, ValueError),
    (_snapshot_vectors, 0.3, ValueError),
    (_snapshot_matrices, 0.3, ValueError),
    (_log_jump_time, 0.25, ValueError),
    (_log_jump_time, 0.0, ValueError),
    (_log_jump_time_from_2i, 0.5, ValueError),
    (_jump_time, np.nan, ValueError),
    (_snapshot_vectors, np.nan, ValueError),
    *[(c, 0.5 + 1e-11, 0.5) for c in CALLERS],
    *[(c, 1.0 - 1e-11, 1.0) for c in CALLERS],
], ids=lambda v: getattr(v, "__name__", repr(v)))
def test_grid_indices_through_callers(caller, t, expected):
    if expected is ValueError:
        with pytest.raises(ValueError):
            caller(t)
    else:
        assert caller(t) == expected


@pytest.mark.parametrize("times", [[0.3], [np.nan], [0.5, 0.3]])
def test_off_grid_time_raises_off_grid(times):
    # OffGrid is a ValueError, so the callers' ValueError contract above holds
    assert issubclass(OffGrid, ValueError)
    with pytest.raises(OffGrid, match="not a grid point"):
        grid_indices(np.arange(3) * 0.5, times)


@pytest.mark.parametrize("T, dt, n", [(1.0, 0.3, 3), (1.0, 0.4, 2), (256.16, 0.01, 25616),
                                      (2.0, 2.0 / 49, 49)])
def test_sampler_cells_are_the_engine_steps(T, dt, n, monkeypatch):
    """The path sampler and the engine split (T, dt) by one rule,
    ``step_grid``: a jump-free path has as many cells as the engine takes
    steps, on the same grid points.  T = 256.16, dt = 0.01 is 25616 steps of
    dt, not 25617."""
    gbm = lf.builtin_triplet("gbm1(0.1, 0.2)")
    path = lf.sample_levy_path(gbm, T, dt, seed=0)
    steps = []
    cont_factors = _engine._StepScheme.cont_factors

    def counted(scheme, z, n_paths):
        steps.append(scheme.dt)
        return cont_factors(scheme, z, n_paths)

    monkeypatch.setattr(_engine._StepScheme, "cont_factors", counted)
    times, _, _ = _engine.evolve_matrices(gbm, T, 1, 0, path.grid, dt)
    assert len(path.grid) - 1 == len(steps) == n
    np.testing.assert_array_equal(times, path.grid)
    np.testing.assert_array_equal(path.grid, step_grid(T, dt))
    assert path.grid[-1] == T and steps[0] == T / n


def _positive_cpp() -> lf.MatrixLevyTriplet:
    """Acceptance criterion 08's sigma = 0 triplet: drift0 and one atom with
    nonnegative entries off the diagonal."""
    atom = np.array([[0.5, 0.2], [0.1, 0.3]])
    jumps = lf.JumpSpec(rate=1.0, atoms=((1.0, atom),))
    return lf.MatrixLevyTriplet(d=2, sigma=np.zeros((4, 4)), gamma=np.zeros((2, 2)),
                                drift0=np.array([[0.1, 0.4], [0.3, -0.2]]), jumps=jumps)


def _engine_state(triplet, T, dt, seed):
    """X_T of one engine path, not renormalized."""
    return _engine.evolve_matrices(triplet, T, 1, seed, [T], dt, renormalize=False)[1][0, 0]


# sigma > 0 with jumps and a correlated Gaussian part
_SIGMA_FACTOR = np.array([[0.5, 0.1, 0.0, 0.2], [0.0, 0.4, -0.2, 0.0],
                          [0.1, 0.0, 0.3, 0.1], [0.0, 0.2, 0.0, 0.6]])
_BRIDGED = lf.MatrixLevyTriplet(
    d=2, sigma=_SIGMA_FACTOR @ _SIGMA_FACTOR.T,
    gamma=np.array([[0.1, -0.6], [0.6, 0.0]]), drift0=np.array([[0.1, -0.6], [0.6, 0.0]]),
    jumps=lf.JumpSpec(rate=3.0, atoms=((0.5, 0.4 * np.eye(2)), (0.5, np.diag([0.3, -0.2])))))


def _cells_by_step(path, T, dt):
    """The step grid, each cell's step and whether its step is split."""
    uniform = step_grid(T, dt)
    cell_step = np.searchsorted(uniform, path.grid[:-1], "right") - 1
    return uniform, cell_step, np.bincount(cell_step)[cell_step] > 1


class TestEngineStreams:
    """The path sampler reads the engine's jump and normal streams."""

    @pytest.mark.parametrize("triplet", [
        ROT, lf.builtin_triplet("diagonal_reducible"), _positive_cpp(),
    ], ids=["rotation_rank1", "diagonal_reducible", "positive_cpp"])
    def test_exact_walker_is_the_engine_pathwise(self, triplet):
        """For sigma = 0, the exact product over a sampled path is the
        engine's X_T at the same seed, within 1e-12 relative, on 100 seeds."""
        jumps = 0
        for seed in range(100):
            path = lf.sample_levy_path(triplet, 5.0, 0.1, seed)
            jumps += len(path.jumps)
            got = lf.exact_cpp_exponential(path, triplet).X[-1]
            assert _rel_err(got, _engine_state(triplet, 5.0, 0.1, seed)) <= 1e-12
        assert jumps > 100

    def test_emery_walker_is_the_engine_pathwise_for_brownian_flow(self):
        """With zero drift and no jumps the engine's factors are the Emery
        factors I + sqrt(dt) G z of the same normals."""
        for seed in range(100):
            got = lf.emery_exponential(lf.sample_levy_path(SB2, 5.0, 0.1, seed)).X[-1]
            assert _rel_err(got, _engine_state(SB2, 5.0, 0.1, seed)) <= 1e-12

    def test_jump_at_offset_zero_of_the_first_step(self, monkeypatch):
        """A jump drawn at offset 0 of step 0 sits at the least positive
        double, and the walker still forms the engine's product."""
        draw = _engine.draw_jumps

        def first_at_zero(*args):
            step, path, rnd, offset, atom = draw(*args)
            step[0], offset[0] = 0, 0.0
            return step, path, rnd, offset, atom

        monkeypatch.setattr(_engine, "draw_jumps", first_at_zero)
        path = lf.sample_levy_path(ROT, 5.0, 0.1, 0)
        assert path.jumps[0][0] == path.grid[1] == np.nextafter(0.0, 1.0)
        assert path.jump_index[0] == 1
        got = lf.exact_cpp_exponential(path, ROT).X[-1]
        assert _rel_err(got, _engine_state(ROT, 5.0, 0.1, 0)) <= 1e-12

    def test_split_steps_sum_to_the_engine_step(self):
        """The cells of each step sum, to rounding, to h gamma^0 + sqrt(h) G z
        with z the step's block of the engine's normal stream."""
        T, dt, d = 5.0, 0.1, 2
        g = _BRIDGED.brownian_factor.reshape(d * d, -1)
        split_steps = 0
        for seed in range(20):
            path = lf.sample_levy_path(_BRIDGED, T, dt, seed)
            uniform, cell_step, split = _cells_by_step(path, T, dt)
            split_steps += len(np.unique(cell_step[split]))
            h = np.diff(uniform)
            z = np.random.default_rng(seed).standard_normal((len(h), d * d))
            want = h[:, None, None] * _BRIDGED.drift() + (
                np.sqrt(h)[:, None] * z @ g.T).reshape(-1, d, d)
            got = np.zeros_like(want)
            np.add.at(got, cell_step, path.increments)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)
            whole = ~split
            np.testing.assert_array_equal(
                path.increments[whole],
                np.diff(path.grid)[whole, None, None] * _BRIDGED.drift()
                + ((z[cell_step[whole]] * np.sqrt(np.diff(path.grid)[whole])[:, None])
                   @ g.T).reshape(-1, d, d))
        assert split_steps > 100

    def test_cells_have_the_brownian_law(self):
        """Over 2000 seeds, each cell's Brownian part over sqrt(cell length)
        has covariance G G^T, within |z| <= 3 per entry, in split and in
        unsplit cells alike."""
        T, dt, d = 1.0, 0.25, 2
        parts = {True: [], False: []}
        for seed in range(2000):
            path = lf.sample_levy_path(_BRIDGED, T, dt, seed)
            lens = np.diff(path.grid)
            b = (path.increments - lens[:, None, None] * _BRIDGED.drift()).reshape(-1, d * d)
            split = _cells_by_step(path, T, dt)[2]
            for key in (True, False):
                parts[key].append(b[split == key] / np.sqrt(lens[split == key])[:, None])
        g = _BRIDGED.brownian_factor.reshape(d * d, -1)
        target = g @ g.T
        iu = np.triu_indices(d * d)
        for key, rows in parts.items():
            x = np.concatenate(rows)
            assert len(x) > 3000
            prods = (x[:, :, None] * x[:, None, :])[:, iu[0], iu[1]]
            z = (prods.mean(axis=0) - target[iu]) / (prods.std(axis=0, ddof=1) / np.sqrt(len(x)))
            assert np.max(np.abs(z)) <= 3.0, (key, z)


def test_step_grid_rule():
    """n = round(T / dt) steps of T / n, the last point exactly T; a dt above
    T has no whole step, and a T / dt that overflows no step count, and both
    raise InvalidStep."""
    for T, dt, n in [(1.0, 0.25, 4), (1.0, 0.3, 3), (0.3, 0.5, None), (1.0, 2.0, None),
                     (2.0, 0.75, 3), (1.0, 5e-324, None)]:
        if n is None:
            with pytest.raises(lf.InvalidStep, match="need T > 0"):
                step_grid(T, dt)
            continue
        grid = step_grid(T, dt)
        assert len(grid) == n + 1 and grid[0] == 0.0 and grid[-1] == T
        assert grid[1] == T / n
        np.testing.assert_array_equal(grid[:-1], np.arange(n) * (T / n))


@pytest.mark.parametrize("run", [
    lambda: lf.sample_levy_path(SB2, 1.0, 2.0, 0),
    lambda: _engine.evolve_matrices(SB2, 1.0, 5, 0, [1.0], 2.0),
    lambda: _engine.evolve_vectors(SB2, [1.0, 0.0], 1.0, 5, 0, [1.0], 2.0),
    lambda: lf.lyapunov_estimate(lf.builtin_triplet("gbm1(0.1, 0.2)"),
                                 lf.FunctionalSpec.op_norm(), T=1.0, n_paths=10, seed=0, dt=2.0),
    lambda: lf.estimate_invariant_measure(SB2, 0.1, 30, 10, 4, 0, dt=0.5),
    lambda: lf.estimate_invariant_measure(SB2, float("nan"), 30, 10, 4, 0),
    lambda: lf.mean_check(SB2, 0.0, 10, 0),
    lambda: lf.mean_check(SB2, float("inf"), 10, 0),
], ids=["sample_levy_path", "evolve_matrices", "evolve_vectors", "lyapunov_estimate",
        "invariant_measure_dt_above_h", "invariant_measure_nan_h", "mean_check_zero_t",
        "mean_check_inf_t"])
def test_runs_refuse_their_step_before_any_draw(run, monkeypatch):
    """Every run checks its (T, dt) through step_grid before it makes a
    generator: a dt above T, or a T that is not finite and positive, raises
    InvalidStep, the one class that levyflow and _linalg export."""
    def no_draw(*args):
        raise AssertionError("a generator was made")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(lf.InvalidStep, match="need T > 0"):
        run()
    assert lf.InvalidStep is _linalg.InvalidStep is lf.path_sampler.InvalidStep


class TestLineFit:
    def test_exact_line(self):
        x = np.array([0.0, 1.0, 3.0, 4.5])
        slope, intercept, r2 = line_fit(x, 2.0 - 0.5 * x)
        assert slope == pytest.approx(-0.5, abs=1e-12)
        assert intercept == pytest.approx(2.0, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("x", [[1.0], [1.0, 1.0], [2.0, 2.0, 2.0], []])
    def test_fewer_than_two_distinct_x_is_nan(self, x):
        x = np.array(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(np.isnan(line_fit(x, np.ones_like(x))))


class TestLazyInverse:
    def test_singular_state_raises(self):
        eye = np.eye(2)
        ep = lf.ExpPath(grid=np.array([0.0, 1.0]), X=np.array([eye, np.ones((2, 2))]),
                        method="hand")
        with pytest.raises(lf.SingularState):
            ep.Xinv
        with pytest.raises(lf.SingularState):
            lf.m_statistics(ep, [np.array([1.0, 0.0])])

    def test_inverse_is_computed_once(self):
        ep = lf.exact_cpp_exponential(lf.sample_levy_path(ROT, T=1.0, dt=0.25, seed=2), ROT)
        assert ep.Xinv is ep.Xinv
        np.testing.assert_array_equal(ep.Xinv, np.linalg.inv(ep.X))


class TestMeanCheck:
    def test_deterministic_dynamics_match_exactly(self):
        trip = _drift_only([[0.0, -1.0], [1.0, 0.0]])
        rep = lf.mean_check(trip, t=1.0, n_paths=3, seed=0)
        assert rep.max_abs_z == 0.0
        np.testing.assert_allclose(rep.mc_mean, rep.target, atol=1e-12)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            lf.mean_check(ROT, t=0.0, n_paths=10, seed=0)
        with pytest.raises(ValueError):
            lf.mean_check(ROT, t=1.0, n_paths=1, seed=0)


def test_one_se_floor_for_both_mean_checks(monkeypatch):
    """mean_check and generator_mc_check read the one se floor,
    ``_engine.se_floor``: with a floor above every se, both report se = 0
    and z = 0, each by its own convention."""
    monkeypatch.setattr(_engine, "se_floor", lambda scale: np.full(np.shape(scale), np.inf))
    rep = lf.mean_check(ROT, t=1.0, n_paths=50, seed=0)
    assert np.all(rep.se == 0.0) and np.all(rep.z == 0.0)
    c = np.array([[1.0, -0.5], [0.25, 2.0]])
    f = lf.SmoothFunction(value=lambda x: np.sum(c * x, axis=(-2, -1)),
                          grad=lambda x: c, hess=lambda x: np.zeros((2, 2, 2, 2)))
    rows, _ = lf.generator_mc_check(SB2, f, np.eye(2), [0.01], n_paths=50, seed=0)
    assert rows[0][2:] == (0.0, 0.0)
