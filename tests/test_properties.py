"""Property tests: the batched generator and the triplet's atom arrays
against their per-atom definitions, and the batched engine against a
per-path product loop."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import levyflow as lf
from levyflow import _engine
from levyflow._linalg import fro_norm
from levyflow.cli import _gauss_bump


def _atom_rates(triplet):
    """(rate * p_i, a_i) per atom, read from the jump spec itself."""
    return [(triplet.jumps.rate * p, a) for p, a in triplet.jumps.atoms]


def _generator_per_atom(triplet, f, x):
    """A_X f(x) with one f.value call per atom, and the sum of the absolute
    values of its terms (the scale its rounding error is measured against)."""
    d = triplet.d
    g = f.grad(x)
    ell = x @ triplet.gamma
    for r, a in _atom_rates(triplet):
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
    for r, a in _atom_rates(triplet):
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
@given(_cases())
def test_atom_reductions_match_per_atom_loops(case):
    """jump_compensator, mean_l1, the log-determinant triplet and the SL(d)
    jump condition, each against one loop over the atoms."""
    triplet = case[0]
    d, eye = triplet.d, np.eye(triplet.d)
    pairs = _atom_rates(triplet)
    np.testing.assert_array_equal(triplet.rates, [r for r, _ in pairs])
    np.testing.assert_array_equal(triplet.marks, [a for _, a in pairs])
    s2 = sum(triplet.sigma[n * d + m, m * d + n] for m in range(d) for n in range(d))
    base = float(np.trace(triplet.gamma)) - 0.5 * s2
    comp, jump_mean, gamma_d, mean, nu = np.zeros((d, d)), np.zeros((d, d)), base, base, []
    scale = 1.0 + abs(base)
    unimodular = True
    for r, a in pairs:
        small = fro_norm(a) <= 1.0
        if small:
            comp = comp + r * a
        jump_mean = jump_mean + r * a
        sign, v = np.linalg.slogdet(eye + a)
        assert sign != 0.0
        gamma_d += r * (v * (abs(v) <= 1.0) - np.trace(a) * small)
        mean += r * (v - np.trace(a) * small)
        if v != 0.0:
            nu.append((r, v))
        scale += r * (abs(v) + abs(np.trace(a)) + fro_norm(a))
        unimodular &= abs(np.linalg.det(eye + a) - 1.0) <= 1e-12
    tol = 1e-12 * scale
    assert np.max(np.abs(triplet.jump_compensator() - comp)) <= tol
    assert np.max(np.abs(triplet.mean_l1() - (triplet.drift() + jump_mean))) <= tol
    ct = lf.check_characteristics(triplet)
    assert abs(ct.gamma_D - gamma_d) <= tol and abs(ct.mean - mean) <= tol
    assert len(ct.nu_D) == len(nu)
    assert np.max(np.abs(np.subtract(ct.nu_D, nu)), initial=0.0) <= tol
    assert ("jump-det" in lf.sl_membership(triplet)[1]) == (not unimodular)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_atom_arrays_are_read_only_and_empty_without_atoms(d):
    bare = lf.MatrixLevyTriplet(d=d, sigma=np.eye(d * d), gamma=np.zeros((d, d)))
    assert bare.marks.shape == (0, d, d) and bare.rates.shape == (0,)
    jumps = lf.JumpSpec(rate=2.0, atoms=((1.0, 0.5 * np.eye(d)),))
    full = lf.MatrixLevyTriplet(d=d, sigma=np.eye(d * d), gamma=np.zeros((d, d)),
                                jumps=jumps)
    for triplet in (bare, full):
        for arr in (triplet.marks, triplet.rates, triplet.brownian_factor):
            with pytest.raises(ValueError):
                arr[...] = 0.0


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


@settings(max_examples=50, deadline=None)
@given(_engine_cases())
def test_brownian_factor_reproduces_sigma(case):
    """sum_r G[m, j, r] G[n, l, r] = sigma[(j*d+m), (l*d+n)]."""
    triplet = case[0]
    d, g = triplet.d, triplet.brownian_factor
    assert g.shape == (d, d, d * d)
    got = np.einsum("mjr,nlr->jmln", g, g).reshape(d * d, d * d)
    assert np.max(np.abs(got - triplet.sigma)) <= 1e-12 * max(1.0, np.max(np.abs(triplet.sigma)))
