"""The batched engine's per-step factors, draw order and row-vector products."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import expm

import levyflow as lf
from levyflow import _engine
from levyflow._linalg import expm_family, psd_factor


def _triplet(d, sigma, drift, jumps=lf.JumpSpec()) -> lf.MatrixLevyTriplet:
    drift = np.asarray(drift, dtype=float)
    return lf.MatrixLevyTriplet(d=d, sigma=sigma, gamma=drift, drift0=drift,
                                jumps=jumps)


def _rank_deficient_3() -> lf.MatrixLevyTriplet:
    rng = np.random.default_rng(5)
    a = rng.standard_normal((9, 4))
    return _triplet(3, a @ a.T / 4, 0.3 * rng.standard_normal((3, 3)))


GAUSSIAN_TRIPLETS = {
    "gbm1": lf.builtin_triplet("gbm1(0.1, 0.2)"),
    "sb2_with_drift": _triplet(2, np.eye(4), [[0.2, -1.0], [0.7, -0.4]]),
    "sl2_conservative_rank2": lf.builtin_triplet("sl2_conservative"),
    "d3_rank4": _rank_deficient_3(),
}

TWO_ATOMS = lf.JumpSpec(rate=3.0, atoms=(
    (0.25, np.array([[0.0, 0.5], [0.0, 0.0]])),
    (0.75, np.array([[-0.3, 0.0], [0.2, 0.1]])),
))
MIXED = _triplet(2, 0.5 * np.eye(4), [[0.1, -0.6], [0.6, 0.0]], TWO_ATOMS)


def _unfolded_factors(triplet, dt, z):
    """D + D @ dB from the column-stacked noise, the factor before folding D
    into the Gaussian part."""
    d = triplet.d
    drift_factor = expm(dt * triplet.drift())
    gauss = psd_factor(triplet.sigma) * np.sqrt(dt)
    b = (z @ gauss.T).reshape(len(z), d, d).transpose(0, 2, 1)
    return drift_factor + drift_factor @ b


class TestContFactors:
    @pytest.mark.parametrize("name", sorted(GAUSSIAN_TRIPLETS))
    def test_folded_factor_matches_unfolded(self, name):
        triplet = GAUSSIAN_TRIPLETS[name]
        d, dt, n = triplet.d, 0.05, 400
        scheme = _engine._StepScheme(triplet, dt)
        f = scheme.cont_factors(np.random.default_rng(3), n)
        z = np.random.default_rng(3).standard_normal((n, d * d))
        np.testing.assert_allclose(f, _unfolded_factors(triplet, dt, z),
                                   rtol=1e-13, atol=1e-13)

    def test_drift_only_factor_is_shared_and_draws_nothing(self):
        triplet = lf.builtin_triplet("rotation_rank1")
        scheme = _engine._StepScheme(triplet, 0.1)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        f = scheme.cont_factors(rng, 50)
        assert f.shape == (2, 2)
        np.testing.assert_array_equal(f, expm(0.1 * triplet.drift()))
        assert rng.bit_generator.state == before


def _random_noncommuting_cpp() -> lf.MatrixLevyTriplet:
    """A sigma = 0 triplet in d = 3 whose drift and atoms do not commute."""
    rng = np.random.default_rng(12)
    atoms = ((0.4, 0.5 * rng.standard_normal((3, 3))),
             (0.6, 0.5 * rng.standard_normal((3, 3))))
    return _triplet(3, np.zeros((9, 9)), 0.8 * rng.standard_normal((3, 3)),
                    lf.JumpSpec(rate=1.5, atoms=atoms))


class TestDrawOrder:
    def test_equal_seeds_consume_identical_draws(self):
        dt, n = 0.1, 300
        schemes = [_engine._StepScheme(MIXED, dt) for _ in range(2)]
        rngs = [np.random.default_rng(11) for _ in range(2)]
        replay = np.random.default_rng(11)
        probs = np.array([0.25, 0.75])
        marks = np.stack([a for _, a in TWO_ATOMS.atoms])
        for _ in range(5):
            factors = [s.cont_factors(r, n) for s, r in zip(schemes, rngs)]
            plans = [s.jump_plan(r, n) for s, r in zip(schemes, rngs)]
            np.testing.assert_array_equal(factors[0], factors[1])
            assert len(plans[0]) == len(plans[1]) > 1
            for (act0, f0), (act1, f1) in zip(*plans):
                np.testing.assert_array_equal(act0, act1)
                np.testing.assert_array_equal(f0, f1)
            # documented order: Gaussians, then jump counts, then per round
            # the atom choices and the offset uniforms
            z = replay.standard_normal((n, 4))
            np.testing.assert_allclose(factors[0], _unfolded_factors(MIXED, dt, z),
                                       rtol=1e-13, atol=1e-13)
            counts = replay.poisson(3.0 * dt, n)
            offset = np.zeros(n)
            for act, f in plans[0]:
                np.testing.assert_array_equal(act, np.flatnonzero(counts > 0))
                choice = replay.choice(2, size=act.size, p=probs)
                u = replay.random(act.size)
                # the next order statistic of counts[act] uniforms on (offset, dt)
                offset[act] += (dt - offset[act]) * (1.0 - u ** (1.0 / counts[act]))
                r = (dt - offset[act])[:, None, None] * MIXED.drift()
                np.testing.assert_allclose(f, expm(-r) @ (np.eye(2) + marks[choice]) @ expm(r),
                                           rtol=1e-12, atol=1e-12)
                counts[act] -= 1
            assert not np.any(counts)
            assert rngs[0].bit_generator.state == replay.bit_generator.state
            assert rngs[1].bit_generator.state == replay.bit_generator.state


class TestJumpAdaptedMean:
    """E[X_t] = expm(t E[L_1]) at coarse steps, where placing a cell's jumps
    after its whole drift factor is first-order biased."""

    @pytest.mark.parametrize("dt", [0.5, 0.25])
    @pytest.mark.parametrize("triplet", [lf.builtin_triplet("rotation_rank1"),
                                         _random_noncommuting_cpp(), MIXED],
                             ids=["rotation_rank1", "random_cpp_d3", "mixed"])
    def test_engine_mean_matches_closed_form(self, triplet, dt):
        t, n = 1.0, 40000
        _, mats, _ = _engine.evolve_matrices(triplet, t, n, 5, [t], dt, renormalize=False)
        se = mats[0].std(axis=0, ddof=1) / np.sqrt(n)
        z = (mats[0].mean(axis=0) - expm(t * triplet.mean_l1())) / se
        assert np.all(se > 0)
        assert np.max(np.abs(z)) <= 3.0


@pytest.mark.parametrize("scale", [0.0, 0.3, 5.0, 40.0])
def test_expm_family_matches_scipy(scale):
    """Drift exponentials of the jump factors, with and without squarings."""
    rng = np.random.default_rng(4)
    for a in (scale * rng.standard_normal((3, 3)), scale * np.array([[0.0, 1.0], [0.0, 0.0]])):
        r = np.r_[0.0, rng.random(20), 1.0]
        expected = expm(r[:, None, None] * a)
        np.testing.assert_allclose(expm_family(a)(r), expected, rtol=1e-12,
                                   atol=1e-12 * np.abs(expected).max())


@pytest.mark.parametrize("triplet", [MIXED, lf.builtin_triplet("rotation_rank1"),
                                     lf.builtin_triplet("gbm1(0.1, 0.2)")],
                         ids=["mixed", "rotation_rank1", "gbm1"])
def test_vectors_and_matrices_give_the_same_states(triplet):
    """The d unit-vector rows, the renormalized states and the raw states are
    one X_t at equal seeds: the noise does not depend on the states."""
    d, n, times = triplet.d, 300, [0.0, 0.5, 2.0]
    _, dirs, vlogs = _engine.evolve_vectors(triplet, np.eye(d), 2.0, n, 8, times)
    _, mats, mlogs = _engine.evolve_matrices(triplet, 2.0, n, 8, times)
    _, raw, zeros = _engine.evolve_matrices(triplet, 2.0, n, 8, times, renormalize=False)
    frob = np.linalg.norm(raw, axis=(-2, -1))
    # the t = 0 snapshot is the identity; every step divides out the norm
    np.testing.assert_allclose(np.linalg.norm(mats[1:], axis=(-2, -1)), 1.0, rtol=1e-14)
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=-1), 1.0, rtol=1e-14)
    assert not np.any(zeros)
    for x in (np.exp(vlogs)[..., None] * dirs, np.exp(mlogs)[..., None, None] * mats):
        assert np.all(np.linalg.norm(x - raw, axis=(-2, -1)) <= 1e-12 * frob)


class TestRowProducts:
    @pytest.mark.parametrize("triplet", [MIXED, GAUSSIAN_TRIPLETS["sb2_with_drift"]],
                             ids=["gaussian_and_jumps", "gaussian_only"])
    def test_single_start_agrees_with_start_batch(self, triplet):
        u = np.array([0.6, -0.8])
        times = [0.5, 2.0]
        _, dirs3, logs3 = _engine.evolve_vectors(
            triplet, [[1.0, 0.0], [0.0, 1.0], u], 2.0, 500, 21, times)
        _, dirs1, logs1 = _engine.evolve_vectors(
            triplet, [[1.0, 0.0]], 2.0, 500, 21, times)
        np.testing.assert_allclose(dirs3[:, :, :1, :], dirs1, rtol=0, atol=1e-12)
        np.testing.assert_allclose(logs3[:, :, :1], logs1, rtol=0, atol=1e-12)

    def test_product_picks_kernel_by_shape_with_equal_results(self):
        rng = np.random.default_rng(2)
        f = rng.standard_normal((40, 3, 3))
        v = rng.standard_normal((40, 4, 3))
        expected = np.stack([v[p] @ f[p] for p in range(40)])
        np.testing.assert_allclose(_engine._rowvec_product(v, f), expected,
                                   rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(_engine._rowvec_product(v[:, :1], f),
                                   expected[:, :1], rtol=1e-13, atol=1e-13)
        shared = f[0]
        np.testing.assert_array_equal(_engine._rowvec_product(v[:, :1], shared),
                                      v[:, :1] @ shared)
