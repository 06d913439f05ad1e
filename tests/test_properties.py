"""Property tests: the batched generator and the triplet's atom arrays
against their per-atom definitions, the batched engine against a per-path
product loop, the path walkers, log-determinant series, reconstruction
and stochastic logarithm against direct products, and every seeded entry
point's reading of a SeedSequence seed."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

import levyflow as lf
from levyflow import _engine
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
        ell = ell + r * xa * (float(np.linalg.norm(xa) <= 1.0) - float(lf.small_jump(a)))
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
        if np.linalg.norm(xa) <= 1.0:
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
        shape = draw(mat(-1.0, 1.0).filter(lambda a: np.linalg.norm(a) > 0.1))
        size = draw(st.floats(0.05, 2.5))
        atoms.append((draw(st.floats(0.1, 1.0)), size * shape / np.linalg.norm(shape)))
    total = sum(p for p, _ in atoms)
    jumps = lf.JumpSpec(rate=draw(st.floats(0.1, 4.0)),
                        atoms=tuple((p / total, a) for p, a in atoms))
    sigma = draw(st.sampled_from([0.0, 0.3])) * np.eye(d * d)
    triplet = lf.MatrixLevyTriplet(d=d, sigma=sigma, gamma=draw(mat(-1.0, 1.0)),
                                   jumps=jumps)
    bump = _gauss_bump(draw(mat(-1.0, 1.0)), draw(st.floats(0.8, 2.0)))
    return triplet, bump, x


# d = 3 and one atom drawn as _cases draws it at size exactly 1.0: the
# flattened norm np.linalg.norm(a) rounds ||vec a|| to 1, the stacked norm of
# the triplet's marks to 1 + ulp, so an oracle that evaluated the cutoff
# itself would disagree with the package on whether gamma compensates it
_UNIT_SHAPE = np.array([[0.4, -0.9, 1.0], [0.9, 0.1, 0.5], [0.1, -0.7, -0.1]])
_UNIT_ATOM_CASE = (
    lf.MatrixLevyTriplet(d=3, sigma=0.3 * np.eye(9),
                         gamma=np.array([[0.2, -0.5, 0.1], [0.0, 0.3, 0.7], [-0.4, 0.6, 0.0]]),
                         jumps=lf.JumpSpec(rate=2.0, atoms=(
                             (1.0, 1.0 * _UNIT_SHAPE / np.linalg.norm(_UNIT_SHAPE)),))),
    _gauss_bump(np.zeros((3, 3)), 1.0),
    np.array([[0.5, -1.0, 0.2], [0.3, 0.8, -0.4], [1.2, 0.0, 0.6]]))


@settings(max_examples=50, deadline=None)
@given(_cases())
@example(_UNIT_ATOM_CASE)
def test_generator_apply_matches_per_atom_sum(case):
    triplet, bump, x = case
    want, scale = _generator_per_atom(triplet, bump, x)
    got = lf.generator_apply(triplet, bump, x)
    assert abs(got - want) <= 1e-12 * max(abs(want), scale)


# d = 1, atom a = -1: I + a = 0 is singular
_SINGULAR_ATOM_CASE = (
    lf.MatrixLevyTriplet(d=1, sigma=np.zeros((1, 1)), gamma=np.zeros((1, 1)),
                         jumps=lf.JumpSpec(rate=1.0, atoms=((1.0, np.array([[-1.0]])),))),
    _gauss_bump(np.zeros((1, 1)), 1.0), np.zeros((1, 1)))


@settings(max_examples=50, deadline=None)
@given(_cases())
@example(_SINGULAR_ATOM_CASE)
@example(_UNIT_ATOM_CASE)
def test_atom_reductions_match_per_atom_loops(case):
    """jump_compensator, mean_l1, the log-determinant triplet and the SL(d)
    jump condition, each against one loop over the atoms.  An atom with
    |det(I + a)| <= DET_TOL counts as singular: check_characteristics raises
    SingularJump."""
    triplet = case[0]
    d, eye = triplet.d, np.eye(triplet.d)
    pairs = _atom_rates(triplet)
    np.testing.assert_array_equal(triplet.rates, [r for r, _ in pairs])
    np.testing.assert_array_equal(triplet.marks, [a for _, a in pairs])
    s2 = sum(triplet.sigma[n * d + m, m * d + n] for m in range(d) for n in range(d))
    base = float(np.trace(triplet.gamma)) - 0.5 * s2
    comp, jump_mean, gamma_d, mean, nu = np.zeros((d, d)), np.zeros((d, d)), base, base, []
    scale = 1.0 + abs(base)
    unimodular, singular = True, False
    for r, a in pairs:
        small = lf.small_jump(a)
        if small:
            comp = comp + r * a
        jump_mean = jump_mean + r * a
        unimodular &= abs(np.linalg.det(eye + a) - 1.0) <= 1e-12
        if abs(np.linalg.det(eye + a)) <= lf.DET_TOL:
            singular = True
            continue
        v = np.linalg.slogdet(eye + a)[1]
        gamma_d += r * (v * (abs(v) <= 1.0) - np.trace(a) * small)
        mean += r * (v - np.trace(a) * small)
        if v != 0.0:
            nu.append((r, v))
        scale += r * (abs(v) + abs(np.trace(a)) + np.linalg.norm(a))
    tol = 1e-12 * scale
    assert np.max(np.abs(triplet.jump_compensator() - comp)) <= tol
    assert np.max(np.abs(triplet.mean_l1() - (triplet.drift() + jump_mean))) <= tol
    assert ("jump-det" in lf.sl_membership(triplet)[1]) == (not unimodular)
    if singular:
        with pytest.raises(lf.SingularJump):
            lf.check_characteristics(triplet)
        return
    ct = lf.check_characteristics(triplet)
    assert abs(ct.gamma_D - gamma_d) <= tol and abs(ct.mean - mean) <= tol
    assert len(ct.nu_D) == len(nu)
    assert np.max(np.abs(np.subtract(ct.nu_D, nu)), initial=0.0) <= tol


@pytest.mark.parametrize("d", [1, 2, 3])
def test_atom_arrays_are_read_only_and_empty_without_atoms(d):
    bare = lf.MatrixLevyTriplet(d=d, sigma=np.eye(d * d), gamma=np.zeros((d, d)))
    assert bare.marks.shape == (0, d, d) and bare.rates.shape == (0,)
    jumps = lf.JumpSpec(rate=2.0, atoms=((1.0, 0.5 * np.eye(d)),))
    full = lf.MatrixLevyTriplet(d=d, sigma=np.eye(d * d), gamma=np.zeros((d, d)),
                                jumps=jumps)
    for triplet in (bare, full):
        for arr in (triplet.marks, triplet.rates, triplet.brownian_factor,
                    triplet.row_covariance):
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
    or none, either general or row-isotropic C kron I_d, 0-2 atoms), m in
    {1, d} start rows, and a short run."""
    d = draw(st.integers(1, 3))
    mat = lambda shape, lo, hi: arrays(np.float64, shape, elements=st.floats(lo, hi))
    if draw(st.booleans()):
        rank = draw(st.integers(0, d * d))
        g = draw(mat((d * d, rank), -0.6, 0.6))
    else:
        c = draw(mat((d, draw(st.integers(0, d))), -0.6, 0.6))
        g = np.kron(c, np.eye(d))
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


def _row_isotropic(sigma, d):
    """sigma[(j*d+m), (l*d+n)] = C[j, l] delta_mn for some C."""
    c = sigma[::d, ::d]
    return np.array_equal(sigma.reshape(d, d, d, d), np.einsum("jl,mn->jmln", c, np.eye(d)))


def _reference_products(triplet, t, n_steps, n_paths, seed, starts=None):
    """X at every grid time per path as a plain product, or with (m, d)
    ``starts`` the rows starts @ X, each step's draw replayed from
    cont_factors on a fresh generator and jump_plan on fresh jump streams of
    the seed, and the running product of the factors' Frobenius norms (the
    scale the rounding error of a product is bounded by; for rows, times
    each start row's norm).  A
    single start row on a row-isotropic Gaussian part in d >= 2 replays the
    short draw the engine takes there: w = y D, y <- w + |w| (A z)."""
    d, dt = triplet.d, t / n_steps
    single = starts is not None and len(starts) == 1
    scheme = _engine._StepScheme(triplet, dt, single_row=single)
    assert scheme.row_noise == (single and d >= 2 and triplet.has_gaussian_part()
                                and _row_isotropic(triplet.sigma, d))
    drift = expm(dt * triplet.drift())
    rng = np.random.default_rng(seed)
    planned = scheme.planned_jumps(seed, n_paths, n_steps) if scheme.jump_rate else None
    x = [np.eye(d) if starts is None else np.array(starts, dtype=float)
         for _ in range(n_paths)]
    scale = np.ones(n_paths)
    xs, scales = [np.array(x)], [scale.copy()]
    for _ in range(n_steps):
        shape = scheme.noise_shape(n_paths)
        f = scheme.cont_factors(None if shape is None else rng.standard_normal(shape), n_paths)
        for p in range(n_paths):
            if scheme.row_noise:
                w = x[p] @ drift
                x[p] = w + np.linalg.norm(w) * f[:, p]
                scale[p] *= np.linalg.norm(drift) * (1.0 + np.linalg.norm(f[:, p]))
                continue
            fp = f if f.ndim == 2 else f[p]
            x[p] = x[p] @ fp
            scale[p] *= np.linalg.norm(fp)
        for act, fj in scheme.jump_plan(planned):
            for k, p in enumerate(act):
                x[p] = x[p] @ fj[:, :, k]
                scale[p] *= np.linalg.norm(fj[:, :, k])
        xs.append(np.array(x))
        scales.append(scale.copy())
    scales = np.array(scales)
    if starts is not None:
        scales = scales[..., None] * np.linalg.norm(starts, axis=1)
    return np.array(xs), scales


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


SINGULAR_D1 = lf.MatrixLevyTriplet(d=1, sigma=np.zeros((1, 1)), gamma=np.array([[0.5]]),
                                  jumps=lf.JumpSpec(rate=2.0, atoms=((1.0, np.array([[-1.0]])),)))


@settings(max_examples=60, deadline=None)
@given(_engine_cases())
@example((SINGULAR_D1, np.ones((1, 1)), 3, 0.25, 4, 0))
def test_engine_matches_per_path_products(case):
    """The engine against per-path products; an atom with |det(I + a)| <=
    DET_TOL (the draw allows one, e.g. a = -1 in d = 1) raises SingularJump
    on every entry point instead."""
    triplet, starts, n_steps, dt, n_paths, seed = case
    t = n_steps * dt
    times = np.arange(n_steps + 1) * dt
    if triplet.jumps.active and np.any(
            np.abs(np.linalg.det(np.eye(triplet.d) + triplet.marks)) <= lf.DET_TOL):
        for run in (lambda: _engine.evolve_vectors(triplet, starts, t, n_paths, seed, times, dt),
                    lambda: _engine.evolve_matrices(triplet, t, n_paths, seed, times, dt)):
            with pytest.raises(lf.SingularJump):
                run()
        return
    rows, row_scale = _reference_products(triplet, t, n_steps, n_paths, seed, starts)
    _assert_matches(lambda: _engine.evolve_vectors(triplet, starts, t, n_paths, seed, times, dt),
                    rows, row_scale)
    x, scale = _reference_products(triplet, t, n_steps, n_paths, seed)
    for renormalize in (True, False):
        # each row of X_t is at most ||I||_F = sqrt(d) times the scale
        _assert_matches(lambda: _engine.evolve_matrices(triplet, t, n_paths, seed, times, dt,
                                                        renormalize),
                        x, scale[..., None] * np.sqrt(triplet.d))


@st.composite
def _row_isotropic_cases(draw):
    """A row-isotropic triplet sigma = C kron I_d with d in {2, 3}, C = c c^T
    of random rank 1..d (rank-deficient unless full), a nonzero drift, a
    start row, a step size and a seed."""
    d = draw(st.integers(2, 3))
    mat = lambda shape, lo, hi: arrays(np.float64, shape, elements=st.floats(lo, hi))
    c = draw(mat((d, draw(st.integers(1, d))), -1.0, 1.0).filter(
        lambda c: np.linalg.norm(c) > 0.3))
    drift = draw(mat((d, d), -1.0, 1.0).filter(lambda g: np.linalg.norm(g) > 0.3))
    y = draw(mat((d,), -2.0, 2.0).filter(lambda y: np.linalg.norm(y) > 0.3))
    triplet = lf.MatrixLevyTriplet(d=d, sigma=np.kron(c @ c.T, np.eye(d)), gamma=drift)
    return (triplet, y, draw(st.sampled_from([0.05, 0.25])),
            draw(st.integers(0, 2 ** 32 - 1)))


def _moments(rows):
    """Sample mean and covariance of (n, d) rows, each with its standard
    error (the covariance entries' from the centred products)."""
    n = len(rows)
    mean = rows.mean(axis=0)
    dev = rows - mean
    prod = dev[:, :, None] * dev[:, None, :]
    return (mean, rows.std(axis=0, ddof=1) / np.sqrt(n),
            prod.mean(axis=0), prod.std(axis=0, ddof=1) / np.sqrt(n))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_row_isotropic_cases())
def test_short_draw_has_the_law_of_the_full_draw(case):
    """One step of a single row: y F from the short draw, w + |w| A z with
    w = y D, and y F from the full factor F = D (I + dB) have the same mean
    and covariance within |z| <= 4.  Perturbing sigma off the C kron I_d
    form sends the row back to the full draw."""
    triplet, y, dt, seed = case
    n = 20000
    short = _engine._StepScheme(triplet, dt, single_row=True)
    full = _engine._StepScheme(triplet, dt)
    assert short.row_noise and not full.row_noise
    rng = np.random.default_rng(seed)
    w = y @ short.drift_factor
    short_rows = w + np.linalg.norm(w) * short.cont_factors(
        rng.standard_normal(short.noise_shape(n)), n).T
    full_rows = np.einsum("j,pjk->pk", y, full.cont_factors(
        rng.standard_normal(full.noise_shape(n)), n))
    m_s, se_s, c_s, cse_s = _moments(short_rows)
    m_f, se_f, c_f, cse_f = _moments(full_rows)
    # entries with no noise (C rank-deficient) differ by rounding only
    floor = 1e-12 * (1.0 + np.abs(w).max() ** 2)
    assert np.all(np.abs(m_s - m_f) <= 4.0 * np.hypot(se_s, se_f) + floor)
    assert np.all(np.abs(c_s - c_f) <= 4.0 * np.hypot(cse_s, cse_f) + floor)

    sigma = triplet.sigma.copy()
    sigma[0, 0] += 0.1
    bent = lf.MatrixLevyTriplet(d=triplet.d, sigma=sigma, gamma=triplet.gamma)
    assert bent.row_covariance is None
    assert not _engine._StepScheme(bent, dt, single_row=True).row_noise


@settings(max_examples=50, deadline=None)
@given(_engine_cases())
def test_brownian_factor_reproduces_sigma(case):
    """sum_r G[m, j, r] G[n, l, r] = sigma[(j*d+m), (l*d+n)]."""
    triplet = case[0]
    d, g = triplet.d, triplet.brownian_factor
    assert g.shape == (d, d, d * d)
    got = np.einsum("mjr,nlr->jmln", g, g).reshape(d * d, d * d)
    assert np.max(np.abs(got - triplet.sigma)) <= 1e-12 * max(1.0, np.max(np.abs(triplet.sigma)))


@st.composite
def _path_cases(draw):
    """A hand-built path (d in {1, 2, 3}, 1-8 random cells, 0-6 jumps, some
    sharing a grid point) with small Emery increments, a drift gamma and a
    truncation level.  A jump is either a mark of norm at most 0.5 or one
    that flips a direction, -(1 + r) u u^T, so det(I + mark) takes both
    signs.  Every factor has condition number at most 3, so a product of all
    of them stays well conditioned."""
    d = draw(st.integers(1, 3))
    mat = lambda shape, lo, hi: arrays(np.float64, shape, elements=st.floats(lo, hi))
    n = draw(st.integers(1, 8))
    grid = np.concatenate([[0.0], np.cumsum(draw(mat((n,), 0.02, 0.125)))])
    at = sorted(draw(st.lists(st.integers(1, n), max_size=6)))
    shapes = draw(mat((len(at), d, d), -1.0, 1.0).filter(
        lambda a: np.all(np.linalg.norm(a, 2, axis=(1, 2)) > 0.1)))
    sizes = draw(mat((len(at),), 0.01, 0.5))
    marks = sizes[:, None, None] * shapes / np.linalg.norm(shapes, 2, axis=(1, 2))[:, None, None]
    u = draw(mat((len(at), d), -1.0, 1.0).filter(
        lambda u: np.all(np.linalg.norm(u, axis=1) > 0.1)))
    u /= np.linalg.norm(u, axis=1)[:, None]
    flips = -(1.0 + draw(mat((len(at),), 0.5, 2.0)))[:, None, None] * u[:, :, None] * u[:, None, :]
    marks = np.where(draw(mat((len(at),), 0.0, 1.0))[:, None, None] < 0.3, flips, marks)
    jumps = tuple((float(grid[k]), a) for k, a in zip(at, marks))
    noise = lf.LevyPath(grid=grid, increments=draw(mat((n, d, d), -0.1, 0.1)), jumps=jumps)
    gamma = draw(mat((d, d), -0.5, 0.5))
    drift = lf.LevyPath(grid=grid, increments=np.diff(grid)[:, None, None] * gamma,
                        jumps=jumps)
    return noise, drift, _drift_only(gamma), draw(st.floats(0.01, 1.0))


def _drift_only(gamma):
    d = gamma.shape[0]
    return lf.MatrixLevyTriplet(d=d, sigma=np.zeros((d * d, d * d)), gamma=gamma,
                                drift0=gamma)


def _reference_walk(path, cell_factors):
    """X, jump_pre and jump_post by the nested loop: each cell's factor, then
    the factors of the jumps at the cell's right end, in list order."""
    d = path.d
    eye = np.eye(d)
    cur, xs, pre, post = eye, [eye], [], []
    for c in range(len(path.grid) - 1):
        cur = cur @ cell_factors[c]
        for t, a in path.jumps:
            if t == path.grid[c + 1]:
                pre.append(cur)
                cur = cur @ (eye + a)
                post.append(cur)
        xs.append(cur)
    return (np.array(xs), np.array(pre).reshape(-1, d, d),
            np.array(post).reshape(-1, d, d))


@settings(max_examples=40, deadline=None)
@given(_path_cases())
def test_walk_equals_nested_loop_reference(case):
    noise = case[0]
    ep = lf.emery_exponential(noise)
    X, pre, post = _reference_walk(noise, np.eye(noise.d) + noise.increments)
    np.testing.assert_array_equal(ep.X, X)
    np.testing.assert_array_equal(ep.jump_pre, pre)
    np.testing.assert_array_equal(ep.jump_post, post)


@settings(max_examples=40, deadline=None)
@given(_path_cases())
def test_det_log_series_is_slogdet_of_the_walk(case):
    _, drift, triplet, _ = case
    sign, logabs = np.linalg.slogdet(lf.exact_cpp_exponential(drift, triplet).X)
    t, got_logabs, got_sign = lf.det_log_series(drift, triplet)
    np.testing.assert_array_equal(t, drift.grid)
    np.testing.assert_array_equal(got_sign, sign)
    assert np.all(np.abs(got_logabs - logabs) <= 1e-9 * np.maximum(1.0, np.abs(logabs)))


@settings(max_examples=40, deadline=None)
@given(_path_cases())
def test_reconstruction_equals_direct_product(case):
    noise, drift, triplet, eps = case
    for path, trip, direct in ((noise, None, lf.emery_exponential(noise).X[-1]),
                               (drift, triplet,
                                lf.exact_cpp_exponential(drift, triplet).X[-1])):
        is_big = [np.linalg.norm(a, 2) >= eps for _, a in path.jumps]
        at = path.jump_index
        if any(b and not b2 and at[k] == at[k + 1]
               for k, (b, b2) in enumerate(zip(is_big, is_big[1:]))):
            with pytest.raises(ValueError, match="small jump follows"):
                lf.skorokhod_reconstruct(path, eps, triplet=trip)
            continue
        got = lf.skorokhod_reconstruct(path, eps, triplet=trip)
        assert np.linalg.norm(got - direct) <= 1e-10 * np.linalg.norm(direct)


@settings(max_examples=40, deadline=None)
@given(_path_cases())
def test_logarithm_inverts_emery_exponential(case):
    noise = case[0]
    back = lf.stochastic_logarithm(lf.emery_exponential(noise))
    np.testing.assert_array_equal(back.grid, noise.grid)
    np.testing.assert_array_equal(back.jump_index, noise.jump_index)
    np.testing.assert_allclose(back.increments, noise.increments, rtol=0, atol=1e-10)
    np.testing.assert_allclose(back.marks, noise.marks, rtol=0, atol=1e-10)


# Gaussian part (row-isotropic, so one-row runs take the short draw) and two
# jump atoms: each run below reads both its normal stream and its jump streams
_SEEDED = lf.MatrixLevyTriplet(
    d=2, sigma=0.5 * np.eye(4), gamma=[[0.1, -0.6], [0.6, 0.0]],
    jumps=lf.JumpSpec(rate=3.0, atoms=((0.25, np.array([[0.0, 0.5], [0.0, 0.0]])),
                                       (0.75, np.array([[-0.3, 0.0], [0.2, 0.1]])))))
_E1 = lf.FunctionalSpec.vector_norm([1.0, 0.0])
_SEEDED_RUNS = {
    "sample_levy_path": lambda s: lf.sample_levy_path(_SEEDED, 1.0, 0.1, s),
    "evolve_vectors": lambda s: _engine.evolve_vectors(
        _SEEDED, np.eye(2), 1.0, 10, s, [0.5, 1.0], 0.1),
    "evolve_matrices": lambda s: _engine.evolve_matrices(_SEEDED, 1.0, 10, s, [0.5, 1.0], 0.1),
    "lyapunov_estimate": lambda s: lf.lyapunov_estimate(
        _SEEDED, lf.FunctionalSpec.op_norm(), 1.0, 10, s, dt=0.1),
    "clt_diagnostic": lambda s: lf.clt_diagnostic(_SEEDED, _E1, 1.0, 10, s, dt=0.1),
    "lambda_moment_function": lambda s: lf.lambda_moment_function(
        _SEEDED, [-1.0, 1.0], 1.0, 10, s, dt=0.1),
    "berry_esseen_curve": lambda s: lf.berry_esseen_curve(
        _SEEDED, _E1, [0.5, 1.0], 10, seed=s, dt=0.1),
    "estimate_invariant_measure": lambda s: lf.estimate_invariant_measure(
        _SEEDED, 0.2, 5, 1, 4, s),
    "contraction_estimate": lambda s: lf.contraction_estimate(_SEEDED, 1, 0.5, 4, 10, s),
    "mixing_rate": lambda s: lf.mixing_rate(
        _SEEDED, lf.HolderFn(eval=lambda p: p.v[0] ** 2), np.eye(2), [0.5, 1.0], 10, s),
    "generator_mc_check": lambda s: lf.generator_mc_check(
        _SEEDED, _gauss_bump(np.eye(2), 1.0), np.eye(2), [0.1, 0.2], 10, s),
    "mean_check": lambda s: lf.mean_check(_SEEDED, 0.5, 10, s),
    "ip_certify": lambda s: lf.ip_certify(lf.builtin_triplet("rotation_rank1"), seed=s),
}


def _result_bytes(x) -> bytes:
    """The bytes of a result: arrays by value, containers and dataclass
    fields in order; a measure's ``meta``, which records the seed object
    itself, is left out."""
    if dataclasses.is_dataclass(x):
        return _result_bytes([getattr(x, f.name) for f in dataclasses.fields(x)
                              if f.name != "meta"])
    if isinstance(x, dict):
        return _result_bytes(list(x.items()))
    if isinstance(x, (tuple, list)):
        return b"(" + b",".join(_result_bytes(v) for v in x) + b")"
    if isinstance(x, np.ndarray):
        return repr((x.dtype, x.shape)).encode() + x.tobytes()
    return repr(x).encode()


@pytest.mark.parametrize("name", sorted(_SEEDED_RUNS))
@settings(max_examples=3, deadline=None)
@given(st.integers(0, 2 ** 64 - 1))
def test_seed_sequence_seed_is_its_int(name, s):
    """A SeedSequence(s) seed gives the bytes of the int seed s and is never
    advanced, so the same object passed again gives the same bytes."""
    run = _SEEDED_RUNS[name]
    want = _result_bytes(run(s))
    seq = np.random.SeedSequence(s)
    assert _result_bytes(run(seq)) == want
    assert seq.n_children_spawned == 0
    assert _result_bytes(run(seq)) == want
