"""Property tests: the batched generator against its per-atom definition,
and the batched engine against a per-path product loop."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import levyflow as lf
from levyflow import _engine
from levyflow._linalg import fro_norm
from levyflow.cli import _gauss_bump


def _generator_per_atom(triplet, f, x):
    """A_X f(x) with one f.value call per atom, and the sum of the absolute
    values of its terms (the scale its rounding error is measured against)."""
    d = triplet.d
    g = f.grad(x)
    ell = x @ triplet.gamma
    for r, a in triplet.jumps.atom_rates():
        xa = x @ a
        ell = ell + r * xa * (float(fro_norm(xa) <= 1.0) - float(fro_norm(a) <= 1.0))
    total = float(np.einsum("ij,ij->", ell, g))
    scale = float(np.einsum("ij,ij->", np.abs(ell), np.abs(g)))
    if triplet.has_gaussian_part():
        sigma4 = triplet.sigma.reshape(d, d, d, d)
        q = np.einsum("im,jmln,kn->ijkl", x, sigma4, x)
        diffusion = 0.5 * float(np.einsum("ijkl,ijkl->", q, f.hess(x)))
        total += diffusion
        scale += abs(diffusion)
    fx = f.value(x)
    for r, a in triplet.jumps.atom_rates():
        xa = x @ a
        term = f.value(x + xa) - fx
        if fro_norm(xa) <= 1.0:
            term -= float(np.einsum("ij,ij->", xa, g))
        total += r * term
        scale += r * (abs(f.value(x + xa)) + abs(fx) + abs(float(np.sum(xa * g))))
    return total, scale


@st.composite
def _cases(draw):
    """A random triplet with 1-3 atoms whose sizes put ||x a_i||_F on both
    sides of 1, a random state x, and a Gaussian bump test function."""
    d = draw(st.integers(1, 3))
    mat = lambda lo, hi: arrays(np.float64, (d, d), elements=st.floats(lo, hi))
    x = draw(mat(-1.5, 1.5))
    atoms = []
    for _ in range(draw(st.integers(1, 3))):
        shape = draw(mat(-1.0, 1.0).filter(lambda a: fro_norm(a) > 0.1))
        size = draw(st.floats(0.05, 2.5))
        atoms.append((draw(st.floats(0.1, 1.0)), size * shape / fro_norm(shape)))
    total = sum(p for p, _ in atoms)
    jumps = lf.JumpSpec(rate=draw(st.floats(0.1, 4.0)),
                        atoms=tuple((p / total, a) for p, a in atoms))
    sigma = draw(st.sampled_from([0.0, 0.3])) * np.eye(d * d)
    triplet = lf.MatrixLevyTriplet(d=d, sigma=sigma, gamma=draw(mat(-1.0, 1.0)),
                                   jumps=jumps)
    bump = _gauss_bump(draw(mat(-1.0, 1.0)), draw(st.floats(0.8, 2.0)))
    return triplet, bump, x


@settings(max_examples=50, deadline=None)
@given(_cases())
def test_generator_apply_matches_per_atom_sum(case):
    triplet, bump, x = case
    want, scale = _generator_per_atom(triplet, bump, x)
    got = lf.generator_apply(triplet, bump, x)
    assert abs(got - want) <= 1e-12 * max(abs(want), scale)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    arrays(np.float64, (d, d), elements=st.floats(-2.0, 2.0)),
    arrays(np.float64, (5, d, d), elements=st.floats(-2.0, 2.0)),
    st.floats(0.1, 3.0))))
def test_gauss_bump_on_a_stack_is_per_matrix(case):
    center, stack, width = case
    bump = _gauss_bump(center, width)
    got = bump.value(stack)
    assert got.shape == (5,)
    np.testing.assert_allclose(got, [bump.value(m) for m in stack], rtol=1e-15, atol=0)


@st.composite
def _engine_cases(draw):
    """A random valid triplet (d in {1, 2, 3}, a Gaussian part of random rank
    or none, 0-2 atoms), m in {1, d} start rows, and a short run."""
    d = draw(st.integers(1, 3))
    mat = lambda shape, lo, hi: arrays(np.float64, shape, elements=st.floats(lo, hi))
    rank = draw(st.integers(0, d * d))
    g = draw(mat((d * d, rank), -0.6, 0.6))
    atoms = [(draw(st.floats(0.1, 1.0)), draw(mat((d, d), -1.2, 1.2)))
             for _ in range(draw(st.integers(0, 2)))]
    total = sum(p for p, _ in atoms)
    jumps = lf.JumpSpec(rate=draw(st.floats(0.5, 5.0)) if atoms else 0.0,
                        atoms=tuple((p / total, a) for p, a in atoms))
    triplet = lf.MatrixLevyTriplet(d=d, sigma=g @ g.T, gamma=draw(mat((d, d), -1.0, 1.0)),
                                   jumps=jumps)
    m = draw(st.sampled_from([1, d]))
    starts = draw(mat((m, d), -2.0, 2.0).filter(
        lambda y: np.all(np.linalg.norm(y, axis=1) > 0.1)))
    return (triplet, starts, draw(st.integers(1, 6)), draw(st.sampled_from([0.1, 0.25])),
            draw(st.integers(1, 6)), draw(st.integers(0, 2 ** 32 - 1)))


def _reference_products(triplet, t, n_steps, n_paths, seed):
    """X at every grid time per path as a plain product, each step's factors
    replayed from cont_factors / jump_plan on a fresh generator, and the
    running product of the factors' Frobenius norms (the scale the rounding
    error of a product is bounded by)."""
    scheme = _engine._StepScheme(triplet, t / n_steps)
    rng = np.random.default_rng(seed)
    x = [np.eye(triplet.d) for _ in range(n_paths)]
    scale = np.ones(n_paths)
    xs, scales = [np.array(x)], [scale.copy()]
    for _ in range(n_steps):
        f = scheme.cont_factors(rng, n_paths)
        for p in range(n_paths):
            fp = f if f.ndim == 2 else f[p]
            x[p] = x[p] @ fp
            scale[p] *= np.linalg.norm(fp)
        for act, fj in scheme.jump_plan(rng, n_paths):
            for k, p in enumerate(act):
                x[p] = x[p] @ fj[k]
                scale[p] *= np.linalg.norm(fj[k])
        xs.append(np.array(x))
        scales.append(scale.copy())
    return np.array(xs), np.array(scales)


def _assert_matches(call, want, scale):
    """The engine's snapshots exp(logs) * states equal ``want`` within 1e-12
    of ``scale`` row by row, or it raises DegenerateNorm where some row of
    ``want`` vanished to rounding."""
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            _, states, logs = call()
    except _engine.DegenerateNorm:
        assert np.any(np.linalg.norm(want, axis=-1) <= 1e-12 * scale)
        return
    while logs.ndim < states.ndim:
        logs = logs[..., None]
    assert np.all(np.linalg.norm(np.exp(logs) * states - want, axis=-1) <= 1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(_engine_cases())
def test_engine_matches_per_path_products(case):
    triplet, starts, n_steps, dt, n_paths, seed = case
    t = n_steps * dt
    times = np.arange(n_steps + 1) * dt
    x, scale = _reference_products(triplet, t, n_steps, n_paths, seed)
    rows = np.linalg.norm(starts, axis=1)
    _assert_matches(lambda: _engine.evolve_vectors(triplet, starts, t, n_paths, seed, times, dt),
                    starts @ x, rows * scale[..., None])
    for renormalize in (True, False):
        # each row of X_t is at most ||I||_F = sqrt(d) times the scale
        _assert_matches(lambda: _engine.evolve_matrices(triplet, t, n_paths, seed, times, dt,
                                                        renormalize),
                        x, scale[..., None] * np.sqrt(triplet.d))
