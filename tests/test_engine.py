"""The batched engine's per-step factors, draw order and row-vector products."""

from __future__ import annotations

import inspect
import threading
import warnings
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

import levyflow as lf
from levyflow import _engine, geometry
from levyflow._linalg import expm_pair_last, psd_factor


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
        z = np.random.default_rng(3).standard_normal((n, d * d))
        assert scheme.noise_shape(n) == z.shape
        f = scheme.cont_factors(z, n)
        np.testing.assert_allclose(f, _unfolded_factors(triplet, dt, z),
                                   rtol=1e-13, atol=1e-13)

    def test_drift_only_factor_is_shared_and_draws_nothing(self):
        """D is the run's drift family at r = 1, which a jump at offset 0
        uses, bit for bit, and scipy's expm up to rounding."""
        triplet = lf.builtin_triplet("rotation_rank1")
        scheme = _engine._StepScheme(triplet, 0.1)
        assert scheme.noise_shape(50) is None
        f = scheme.cont_factors(None, 50)
        assert f.shape == (2, 2)
        e, _ = scheme.drift_exp(np.r_[0.3, 1.0, 0.7])
        np.testing.assert_array_equal(f, e[:, :, 1])
        np.testing.assert_allclose(f, expm(0.1 * triplet.drift()), rtol=1e-14, atol=1e-15)


def _random_noncommuting_cpp() -> lf.MatrixLevyTriplet:
    """A sigma = 0 triplet in d = 3 whose drift and atoms do not commute."""
    rng = np.random.default_rng(12)
    atoms = ((0.4, 0.5 * rng.standard_normal((3, 3))),
             (0.6, 0.5 * rng.standard_normal((3, 3))))
    return _triplet(3, np.zeros((9, 9)), 0.8 * rng.standard_normal((3, 3)),
                    lf.JumpSpec(rate=1.5, atoms=atoms))


def _replayed_jumps(seed, scheme, n, k):
    """The documented jump draws of k steps on n paths, in stream order:
    from the children (JUMP_KEY, i) of SeedSequence(seed), the step totals,
    then per jump a path, an offset and an atom, each from its own stream.
    Returns (step, path, offset, atom) and the four generators."""
    streams = [np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(_engine.JUMP_KEY, i))) for i in range(4)]
    totals = streams[0].poisson(scheme.jump_rate * scheme.dt * n, k)
    step = np.repeat(np.arange(k), totals)
    path = streams[1].integers(0, n, step.size)
    offset = streams[2].random(step.size)
    atom = (streams[3].choice(len(scheme.probs), step.size, p=scheme.probs)
            if len(scheme.probs) > 1 else np.zeros(step.size, dtype=int))
    return (step, path, offset, atom), streams


class TestDrawOrder:
    def test_equal_seeds_consume_identical_draws(self):
        """Equal seeds plan equal rounds.  The jumps are the documented draws
        from the run's own streams, (JUMP_KEY, i) under the seed, and leave
        each stream where the replay leaves it; round k of a step holds the
        paths with more than k jumps in it, ascending."""
        dt, n, k, seed = 0.1, 300, 5, 11
        schemes = [_engine._StepScheme(MIXED, dt) for _ in range(2)]
        plans = [s.planned_jumps(seed, n, k) for s in schemes]
        (step, path, _, atom), replay = _replayed_jumps(seed, schemes[0], n, k)
        for s in range(k):
            rounds = [sch.jump_plan(p) for sch, p in zip(schemes, plans)]
            assert len(rounds[0]) == len(rounds[1]) >= 1
            for (act0, f0), (act1, f1) in zip(*rounds):
                assert act0.tobytes() == act1.tobytes() and f0.tobytes() == f1.tobytes()
            counts = np.bincount(path[step == s], minlength=n)
            for j, (act, _) in enumerate(rounds[0]):
                np.testing.assert_array_equal(act, np.flatnonzero(counts > j))
            assert len(rounds[0]) == counts.max()
        with pytest.raises(StopIteration):
            schemes[0].jump_plan(plans[0])

        streams = _engine._jump_streams(seed)
        got = _engine.draw_jumps(streams, MIXED.jumps.rate, dt, MIXED.probs, n, k)
        assert sorted(zip(got[0].tolist(), got[1].tolist(), got[4].tolist())) == sorted(
            zip(step.tolist(), path.tolist(), atom.tolist()))
        for mine, theirs in zip(streams, replay):
            assert mine.bit_generator.state == theirs.bit_generator.state


def _rescanning_rounds(draws, n, s):
    """Step s's jump rounds from the drawn (step, path, offset, atom) arrays,
    by a loop that rescans all n paths every round and takes each path's
    next jump in time order: [(path indices, atom indices, r = 1 - offset)]."""
    step, path, offset, atom = draws
    pending = [sorted((offset[j], atom[j]) for j in np.flatnonzero((step == s) & (path == p)))
               for p in range(n)]
    rounds = []
    while any(pending):
        act = [p for p in range(n) if pending[p]]
        picked = [pending[p].pop(0) for p in act]
        rounds.append((np.array(act), np.array([a for _, a in picked]),
                       1.0 - np.array([o for o, _ in picked])))
    return rounds


@st.composite
def _jump_cases(draw):
    """d in {1, 2, 3}, a nonzero drift, 1-3 atoms with |det(I + a)| well
    above DET_TOL, a jump rate, a step size and a seed."""
    d = draw(st.integers(1, 3))
    mat = lambda lo, hi: arrays(np.float64, (d, d), elements=st.floats(lo, hi))
    drift = draw(mat(-2.0, 2.0).filter(lambda g: np.linalg.norm(g) > 0.1))
    atoms = draw(st.lists(mat(-1.2, 1.2).filter(
        lambda a: np.any(a != 0.0) and abs(np.linalg.det(np.eye(d) + a)) > 1e-6),
        min_size=1, max_size=3))
    jumps = lf.JumpSpec(rate=draw(st.floats(0.5, 40.0)),
                        atoms=tuple((1.0 / len(atoms), a) for a in atoms))
    return (_triplet(d, np.zeros((d * d, d * d)), drift, jumps),
            draw(st.sampled_from([0.05, 0.25])), draw(st.integers(0, 2 ** 32 - 1)))


def _assert_jump_factors(triplet, dt, f, atom, r):
    """(m, d, d) factors equal I + solve(E(r), a E(r)), E(r) = expm(r dt
    gamma^0) from scipy, within 1e-12 relative, with det(I + a)."""
    d = triplet.d
    a = triplet.marks[atom]
    e = expm(r[:, None, None] * dt * triplet.drift())
    want = np.eye(d) + np.linalg.solve(e, a @ e)
    # relative to the summands I and E^{-1} a E: their sum may cancel
    size = np.sqrt(d) + np.linalg.norm(want - np.eye(d), axis=(1, 2))
    assert np.all(np.linalg.norm(f - want, axis=(1, 2)) <= 1e-12 * size)
    assert np.all(np.abs(np.linalg.det(f) - np.linalg.det(np.eye(d) + a))
                  <= 1e-12 * size ** d)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_jump_cases())
def test_jump_rounds_match_the_rescanning_solve_loop(case):
    """Each step's rounds, sliced from a block planned at once, give the
    path sets of a loop that rescans all paths every round over the drawn
    jumps, and each round's factors are those of the jumps it picks (see
    _assert_jump_factors)."""
    triplet, dt, seed = case
    n, k = 60, 3
    scheme = _engine._StepScheme(triplet, dt)
    planned = scheme.planned_jumps(seed, n, k)
    draws, _ = _replayed_jumps(seed, scheme, n, k)
    for s in range(k):
        plan = scheme.jump_plan(planned)
        rounds = _rescanning_rounds(draws, n, s)
        assert [act.tolist() for act, _ in plan] == [act.tolist() for act, _, _ in rounds]
        for (_, f), (_, atom, r) in zip(plan, rounds):
            _assert_jump_factors(triplet, dt, f.transpose(2, 0, 1), atom, r)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_jump_cases())
def test_jump_block_has_the_law_of_per_cell_draws(case):
    """A block's cell (path-step) counts have the mean and variance of
    Poisson(rate dt) and its atoms the frequencies of their probabilities,
    within |z| <= 4; the offsets ascend with the round inside each cell; the
    factors are I + e^{-r gamma^0} a e^{r gamma^0} (_assert_jump_factors)."""
    triplet, dt, seed = case
    n, k = 100, 12
    scheme = _engine._StepScheme(triplet, dt)
    step, path, rnd, offset, atom = _engine.draw_jumps(
        _engine._jump_streams(seed), triplet.jumps.rate, dt, triplet.probs, n, k)
    lam, cells = triplet.jumps.rate * dt, n * k
    counts = np.bincount(step * n + path, minlength=cells)
    assert abs(counts.mean() - lam) <= 4.0 * np.sqrt(lam / cells)
    assert abs(counts.var(ddof=1) - lam) <= 4.0 * np.sqrt((lam + 2.0 * lam ** 2) / cells)
    p, jumps = scheme.probs, step.size
    freq = np.bincount(atom, minlength=len(p))
    assert np.all(np.abs(freq - jumps * p) <= 4.0 * np.sqrt(jumps * p * (1 - p)) + 1e-9)
    by_cell = np.lexsort((rnd, path, step))
    cell, rnd_c, off_c = (step * n + path)[by_cell], rnd[by_cell], offset[by_cell]
    inside = cell[1:] == cell[:-1]
    assert np.all(rnd_c[1:][inside] == rnd_c[:-1][inside] + 1)
    assert np.all(rnd_c[1:][~inside] == 0) and (not rnd.size or rnd_c[0] == 0)
    assert np.all(off_c[1:][inside] >= off_c[:-1][inside])
    f = scheme.jump_factors(offset, atom).transpose(2, 0, 1)
    _assert_jump_factors(triplet, dt, f, atom, 1.0 - offset)


@pytest.mark.parametrize("d, atom", [(1, [[-1.0]]), (2, [[-1.0, 0.0], [0.0, 0.5]]),
                                     (2, [[-1.0 + 1e-13, 0.3], [0.0, 0.5]])],
                         ids=["d1_minus_one", "d2_diagonal", "d2_near_singular"])
def test_singular_atom_is_refused(d, atom):
    """|det(I + a)| <= DET_TOL raises SingularJump before any step runs: the
    jump factors share det(I + a), so no run builds a singular one."""
    jumps = lf.JumpSpec(rate=1.0, atoms=((0.5, np.array(atom)), (0.5, 0.2 * np.eye(d))))
    triplet = _triplet(d, np.zeros((d * d, d * d)), 0.3 * np.eye(d), jumps)
    with pytest.raises(lf.SingularJump):
        _engine.evolve_vectors(triplet, np.eye(d), 1.0, 20, 0, [1.0], 0.1)
    with pytest.raises(lf.SingularJump):
        _engine.evolve_matrices(triplet, 1.0, 20, 0, [1.0], 0.1)


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
    """Both stacks of the one exponential family against scipy's expm, with
    and without squarings, at r in [0, 1] and at r = 1 alone, the single
    matrix that the engine's D and mean_check's target take from it."""
    rng = np.random.default_rng(4)
    for a in (scale * rng.standard_normal((3, 3)), scale * np.array([[0.0, 1.0], [0.0, 0.0]])):
        for r in (np.r_[0.0, rng.random(20), 1.0], np.ones(1)):
            e, e_inv = expm_pair_last(a)(r)
            for got, b in ((e.transpose(2, 0, 1), a), (e_inv.transpose(2, 0, 1), -a)):
                expected = expm(r[:, None, None] * b)
                np.testing.assert_allclose(got, expected, rtol=1e-12,
                                           atol=1e-12 * np.abs(expected).max())


@pytest.mark.parametrize("name", ["rotation_rank1", "irrational_rotation(1.0)",
                                  "diagonal_reducible", "random_d3"])
def test_one_family_covers_the_drift_generator_times(name):
    """ip_certify's drift generators come from one family call over all the
    drift times (a = t_max gamma^0, r = t / t_max): each matches scipy's
    expm(t gamma^0), r = t / t_max going down to about 1/64."""
    triplet = (_triplet(3, np.zeros((9, 9)), 0.8 * np.random.default_rng(2).standard_normal((3, 3)))
               if name == "random_d3" else lf.builtin_triplet(name))
    ts = geometry._drift_times(40, np.random.default_rng(3))
    gens = geometry._generators(triplet, 40, np.random.default_rng(3))
    assert [label for label, _ in gens[:len(ts)]] == [f"drift t={t:.6g}" for t in ts]
    for (_, got), t in zip(gens, ts):
        expected = expm(t * triplet.drift())
        np.testing.assert_allclose(got, expected, rtol=1e-12,
                                   atol=1e-12 * np.abs(expected).max())


@pytest.mark.parametrize("scale", [0.0, 0.3, 5.0, 40.0])
def test_expm_pair_is_two_families_bit_for_bit(scale):
    """The paths-last pair of a is the pair of -a swapped, each stack built
    from its own matrix alone, and each scalar's matrices do not depend on
    the other scalars of the call, one scalar alone included; a = 0 gives
    the identity exactly."""
    rng = np.random.default_rng(6)
    a = scale * rng.standard_normal((3, 3))
    r = np.r_[0.0, rng.random(50), 1.0]
    e, e_inv = expm_pair_last(a)(r)
    f, f_inv = expm_pair_last(-a)(r)
    assert e.tobytes() == f_inv.tobytes() and e_inv.tobytes() == f.tobytes()
    for part in (slice(3, 10), slice(17, 18), slice(50, 52)):
        got, got_inv = expm_pair_last(a)(r[part])
        assert got.tobytes() == e[:, :, part].tobytes()
        assert got_inv.tobytes() == e_inv[:, :, part].tobytes()
    for k in range(r.size):
        got, got_inv = expm_pair_last(a)(r[k:k + 1])
        assert got.tobytes() == e[:, :, k:k + 1].tobytes()
        assert got_inv.tobytes() == e_inv[:, :, k:k + 1].tobytes()
    if scale == 0.0:
        assert np.array_equal(e, np.broadcast_to(np.eye(3)[:, :, None], e.shape))
        assert np.array_equal(e_inv, e)


@pytest.mark.parametrize("scale", [0.0, 0.3, 5.0, 40.0])
def test_forward_only_exponential_is_the_pairs_forward_stack(scale):
    """The readers of the forward stack alone, the engine's D, the exact
    walker's cell factors, mean_check's target and geometry's drift
    generators, each equal expm_pair_last(a)(r)[0] bit for bit."""
    rng = np.random.default_rng(7)
    grid = np.r_[0.0, np.cumsum(rng.uniform(0.1, 1.0, 30))]
    for drift in (scale * rng.standard_normal((3, 3)), scale * rng.standard_normal((2, 2)),
                  scale * np.array([[0.0, 1.0], [0.0, 0.0]])):
        d = len(drift)
        triplet = _triplet(d, np.zeros((d * d, d * d)), drift)
        scheme = _engine._StepScheme(triplet, 0.1)
        want = expm_pair_last(0.1 * triplet.drift())([1.0])[0][:, :, 0]
        assert scheme.drift_factor.tobytes() == want.tobytes()

        lens = np.diff(grid)
        cells = expm_pair_last(lens.max() * triplet.drift())(lens / lens.max())[0]
        path = lf.LevyPath(grid=grid, increments=np.zeros((len(lens), d, d)))
        want = np.array(list(accumulate(cells.transpose(2, 0, 1), np.matmul,
                                        initial=np.eye(d))))
        assert lf.exact_cpp_exponential(path, triplet).X.tobytes() == want.tobytes()

        rep = lf.mean_check(triplet, 0.5, 2, seed=0)
        want = expm_pair_last(0.5 * triplet.mean_l1())([1.0])[0][:, :, 0]
        assert rep.target.tobytes() == want.tobytes()

        gens = geometry._generators(triplet, 8, np.random.default_rng(3))
        ts = np.array(geometry._drift_times(8, np.random.default_rng(3)))
        want = expm_pair_last(ts.max() * triplet.drift())(ts / ts.max())[0]
        assert len(gens) == (len(ts) if scale else 0)
        for k, (_, g) in enumerate(gens):
            assert g.tobytes() == want[:, :, k].tobytes()


def test_every_numeric_dt_default_is_the_default_step():
    """Every public function with a numeric dt default takes the one
    constant, _engine.DEFAULT_DT; estimate_invariant_measure's default
    substep is min(h, DEFAULT_DT)."""
    fns = [_engine.evolve_vectors, _engine.evolve_matrices]
    fns += [getattr(lf, name) for name in lf.__all__ if inspect.isfunction(getattr(lf, name))]
    with_dt = {}
    for fn in fns:
        param = inspect.signature(fn).parameters.get("dt")
        if param is not None and isinstance(param.default, (int, float)):
            with_dt[fn.__name__] = param.default
    assert set(with_dt) == {"evolve_vectors", "evolve_matrices", "lyapunov_estimate",
                            "clt_diagnostic", "lambda_moment_function", "berry_esseen_curve",
                            "contraction_estimate", "mixing_rate"}
    assert all(v is _engine.DEFAULT_DT for v in with_dt.values())
    sb2 = lf.builtin_triplet("standard_brownian(2)")
    for h, dt in ((0.2, _engine.DEFAULT_DT), (0.02, 0.02)):
        args = (sb2, h, 6, 2, 3, 5)
        assert np.array_equal(lf.estimate_invariant_measure(*args).points,
                              lf.estimate_invariant_measure(*args, dt=dt).points)


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


@pytest.mark.parametrize("T, n_paths, dt", [(0.0, 5, 0.1), (-1.0, 5, 0.1),
                                             (1.0, 0, 0.1), (1.0, 5, 0.0),
                                             (1.0, 5, -0.1)],
                         ids=["zero_T", "negative_T", "no_paths", "zero_dt", "negative_dt"])
def test_out_of_range_runs_raise(T, n_paths, dt):
    message = "need n_paths >= 1, got 0" if n_paths == 0 else "need T > 0"
    for run in (lambda: _engine.evolve_vectors(MIXED, [1.0, 0.0], T, n_paths, 0, [0.0], dt),
                lambda: _engine.evolve_matrices(MIXED, T, n_paths, 0, [0.0], dt)):
        with pytest.raises(ValueError, match=message):
            run()


# Column-isotropic (sigma = I_2 kron diag(1, 0.5)), not row-isotropic: the
# rows of dB are correlated, so a single row keeps the full draw.
COLUMN_SIGMA = np.kron(np.eye(2), np.diag([1.0, 0.5]))
FULL_DRAW_TRIPLETS = {
    "gaussian_and_jumps": _triplet(2, COLUMN_SIGMA, [[0.1, -0.6], [0.6, 0.0]], TWO_ATOMS),
    "gaussian_only": _triplet(2, COLUMN_SIGMA, [[0.2, -1.0], [0.7, -0.4]]),
}
ROW_ISOTROPIC = {"gaussian_and_jumps": MIXED,
                 "gaussian_only": GAUSSIAN_TRIPLETS["sb2_with_drift"],
                 "d3_rank_deficient": _triplet(3, np.kron([[1.0, 0.5, 0.0], [0.5, 0.25, 0.0],
                                                           [0.0, 0.0, 0.3]], np.eye(3)),
                                               [[0.1, -0.5, 0.0], [0.5, 0.1, 0.2],
                                                [0.0, -0.2, -0.3]])}


class TestRowProducts:
    @pytest.mark.parametrize("name", sorted(FULL_DRAW_TRIPLETS))
    def test_single_start_agrees_with_start_batch(self, name):
        """A single row on a Gaussian part that is not row-isotropic takes
        the full draw, so it sees the noise of a start batch."""
        triplet = FULL_DRAW_TRIPLETS[name]
        assert triplet.row_covariance is None
        assert not _engine._StepScheme(triplet, 0.05, single_row=True).row_noise
        u = np.array([0.6, -0.8])
        times = [0.5, 2.0]
        _, dirs3, logs3 = _engine.evolve_vectors(
            triplet, [[1.0, 0.0], [0.0, 1.0], u], 2.0, 500, 21, times)
        _, dirs1, logs1 = _engine.evolve_vectors(
            triplet, [[1.0, 0.0]], 2.0, 500, 21, times)
        np.testing.assert_allclose(dirs3[:, :, :1, :], dirs1, rtol=0, atol=1e-12)
        np.testing.assert_allclose(logs3[:, :, :1], logs1, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(ROW_ISOTROPIC))
    def test_start_batches_share_the_noise(self, name):
        """Runs with two or more rows per path keep the full draw: the first
        rows of a larger batch are the rows of a smaller one."""
        triplet = ROW_ISOTROPIC[name]
        d, times = triplet.d, [0.5, 2.0]
        starts = np.vstack([np.eye(d), np.full(d, 0.6)])
        _, dirs_big, logs_big = _engine.evolve_vectors(triplet, starts, 2.0, 500, 21, times)
        _, dirs, logs = _engine.evolve_vectors(triplet, starts[:2], 2.0, 500, 21, times)
        np.testing.assert_allclose(dirs_big[:, :, :2, :], dirs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(logs_big[:, :, :2], logs, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(ROW_ISOTROPIC))
    def test_single_start_replays_short_draw(self, name):
        """One row on a row-isotropic Gaussian part, path by path: w = y D,
        y <- w + |w| A z with z the step's (d, n) normals and A A^T = C dt,
        then the step's jump factors, then the row's norm divided out."""
        triplet = ROW_ISOTROPIC[name]
        d, n, t, dt = triplet.d, 60, 1.0, 0.05
        c = triplet.sigma[::d, ::d]
        np.testing.assert_array_equal(triplet.row_covariance, c)
        y0 = np.full(d, 0.6)
        times = np.arange(21) * dt
        _, dirs, logs = _engine.evolve_vectors(triplet, y0, t, n, 17, times, dt)
        drift, a = expm(dt * triplet.drift()), psd_factor(c) * np.sqrt(dt)
        jumps = _engine._StepScheme(triplet, dt)
        planned = jumps.planned_jumps(17, n, len(times) - 1) if jumps.jump_rate else None
        rng = np.random.default_rng(17)
        y = np.tile(y0 / np.linalg.norm(y0), (n, 1))
        log = np.full(n, np.log(np.linalg.norm(y0)))
        for k in range(1, len(times)):
            z = rng.standard_normal((d, n))
            for p in range(n):
                w = y[p] @ drift
                y[p] = w + np.linalg.norm(w) * (a @ z[:, p])
            for act, f in jumps.jump_plan(planned):
                for j, p in enumerate(act):
                    y[p] = y[p] @ f[:, :, j]
            norms = np.linalg.norm(y, axis=1)
            log += np.log(norms)
            y /= norms[:, None]
            np.testing.assert_allclose(dirs[k, :, 0], y, rtol=0, atol=1e-12)
            np.testing.assert_allclose(logs[k, :, 0], log, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("m", [1, 4])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_paths_last_product_is_per_path_row_product(self, d, m):
        """Paths-last (m, d, p) rows times per-path (p, d, d) or shared (d, d)
        factors equal y @ F path by path."""
        rng = np.random.default_rng(2)
        f = rng.standard_normal((40, d, d))
        v = rng.standard_normal((40, m, d))
        v_last = v.transpose(1, 2, 0).copy()
        got = _engine._rowvec_product(v_last, f)
        assert got.shape == (m, d, 40)
        np.testing.assert_allclose(got.transpose(2, 0, 1),
                                   np.stack([v[p] @ f[p] for p in range(40)]),
                                   rtol=1e-13, atol=1e-13)
        shared = _engine._rowvec_product(v_last, f[0])
        assert shared.shape == (m, d, 40)
        np.testing.assert_allclose(shared.transpose(2, 0, 1),
                                   np.stack([v[p] @ f[0] for p in range(40)]),
                                   rtol=1e-13, atol=1e-13)


def _per_step_normals(rng, shape, n_steps):
    """The reference draw: one standard_normal call per step."""
    for _ in range(n_steps):
        yield None if shape is None else rng.standard_normal(shape)


# Steps per prefetched block in these tests: BLOCK is patched to K steps.
K, N_PATHS, DT = 3, 5, 0.1
PREFETCH_CASES = {  # triplet, starts (None: matrices), renormalize
    "row_noise": (GAUSSIAN_TRIPLETS["sb2_with_drift"], [[1.0, 0.0]], True),
    "full_draw_rows": (GAUSSIAN_TRIPLETS["sb2_with_drift"], np.eye(2), True),
    "full_draw_matrices": (GAUSSIAN_TRIPLETS["d3_rank4"], None, True),
    "d1_rows": (GAUSSIAN_TRIPLETS["gbm1"], [[1.0]], True),
    "d1_matrices": (GAUSSIAN_TRIPLETS["gbm1"], None, True),
    "not_renormalized": (GAUSSIAN_TRIPLETS["sb2_with_drift"], None, False),
    "with_jumps": (MIXED, None, True),
}


def _prefetch_run(case, n_steps):
    """A run of the case, and the doubles one of its steps draws."""
    triplet, starts, renormalize = PREFETCH_CASES[case]
    t, times = n_steps * DT, np.arange(n_steps + 1) * DT
    scheme = _engine._StepScheme(triplet, DT, single_row=starts is not None and len(starts) == 1)
    if starts is None:
        run = lambda: _engine.evolve_matrices(triplet, t, N_PATHS, 4, times, DT, renormalize)
    else:
        run = lambda: _engine.evolve_vectors(triplet, starts, t, N_PATHS, 4, times, DT)
    return run, int(np.prod(scheme.noise_shape(N_PATHS)))


def _worker_threads(monkeypatch, run, fail_at=None):
    """Threads alive at the run's cont_factors calls beyond those alive
    before it (the most seen), checking that none is left when it returns or
    raises; with ``fail_at`` the step loop raises at that call."""
    seen, cont_factors = [], _engine._StepScheme.cont_factors

    def spy(self, z, n):
        seen.append(threading.active_count())
        if len(seen) == fail_at:
            raise RuntimeError("step failed")
        return cont_factors(self, z, n)

    monkeypatch.setattr(_engine._StepScheme, "cont_factors", spy)
    before = threading.active_count()
    if fail_at is None:
        run()
    else:
        with pytest.raises(RuntimeError, match="step failed"):
            run()
    assert threading.active_count() == before
    return max(seen) - before


class TestPrefetch:
    @pytest.mark.parametrize("n_steps", [K - 1, K, K + 1, 2 * K + 1])
    @pytest.mark.parametrize("case", sorted(PREFETCH_CASES))
    def test_outputs_equal_per_step_draws(self, monkeypatch, case, n_steps):
        """Blocks of K steps from one draw, the next drawn on a worker, give
        the bytes of one standard_normal call per step, across block ends
        and in a last partial block."""
        run, size = _prefetch_run(case, n_steps)
        monkeypatch.setattr(_engine, "BLOCK", K * size)
        got = run()
        monkeypatch.setattr(_engine, "_step_normals", _per_step_normals)
        want = run()
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("case, n_steps, block_steps, workers", [
        ("full_draw_matrices", 2 * K + 1, K, 1),
        ("row_noise", K + 1, K, 1),
        ("full_draw_matrices", K, K, 0),
        ("with_jumps", 2 * K + 1, K, 1),
        ("full_draw_matrices", 2 * K + 1, 0.9, 0),
    ], ids=["prefetch", "prefetch_row_noise", "one_block", "jumps", "step_above_block"])
    def test_worker_only_for_runs_longer_than_a_block(self, monkeypatch, case, n_steps,
                                                      block_steps, workers):
        """One worker thread draws ahead in a run longer than a block, with
        or without jumps; a step above BLOCK or a single block draws inline.
        No thread outlives the run."""
        run, size = _prefetch_run(case, n_steps)
        monkeypatch.setattr(_engine, "BLOCK", int(block_steps * size))
        assert _worker_threads(monkeypatch, run) == workers

    @pytest.mark.parametrize("fail_at", [1, K + 1, 2 * K + 1])
    def test_no_thread_outlives_a_raising_run(self, monkeypatch, fail_at):
        """A step loop that raises in the first block, at a block's first
        step or in the last block still joins the worker."""
        run, size = _prefetch_run("full_draw_rows", 2 * K + 1)
        monkeypatch.setattr(_engine, "BLOCK", K * size)
        assert _worker_threads(monkeypatch, run, fail_at) == 1

    def test_no_thread_outlives_a_raising_run_with_jumps(self, monkeypatch):
        """A run with jumps prefetches its normals too, and a step loop that
        raises at a block's first step still joins the worker."""
        run, size = _prefetch_run("with_jumps", 2 * K + 1)
        monkeypatch.setattr(_engine, "BLOCK", K * size)
        assert _worker_threads(monkeypatch, run, K + 1) == 1


JUMP_RUNS = {"with_gaussian": MIXED, "jumps_only": _random_noncommuting_cpp()}


@pytest.mark.parametrize("name", sorted(JUMP_RUNS))
def test_jump_runs_do_not_depend_on_block_or_threads(monkeypatch, name):
    """BLOCK patched so that blocks of 1 to 10 steps' jumps are planned at
    once, with the normals inline or prefetched 1 to 3 steps a block on the
    worker, and a run drawing its normals per step with no worker, all give
    the bytes of a run at the default BLOCK."""
    triplet = JUMP_RUNS[name]
    n_steps = 2 * K + 1
    times = np.arange(n_steps + 1) * DT
    run = lambda: _engine.evolve_matrices(triplet, n_steps * DT, N_PATHS, 4, times, DT)
    want = run()
    blocks, draw_jumps = [], _engine.draw_jumps

    def spy(streams, rate, dt, probs, n, k):
        blocks.append(k)
        return draw_jumps(streams, rate, dt, probs, n, k)

    monkeypatch.setattr(_engine, "draw_jumps", spy)
    for block in (6, 24, 48, 72, 144, 240):
        monkeypatch.setattr(_engine, "BLOCK", block)
        for got, w in zip(run(), want):
            assert got.tobytes() == w.tobytes()
    monkeypatch.setattr(_engine, "_step_normals", _per_step_normals)
    for got, w in zip(run(), want):
        assert got.tobytes() == w.tobytes()
    assert min(blocks) == 1 and max(blocks) > 3


def test_one_seed_sequence_gives_equal_runs():
    """The jump streams come from a fixed spawn key, so a SeedSequence seed
    is left as it was: the same object passed to two runs with jumps (and
    an equal fresh one, and the int it holds) gives the same bytes."""
    seq = np.random.SeedSequence(9)
    child = np.random.SeedSequence(9).spawn(1)[0]
    for triplet in (MIXED, _random_noncommuting_cpp()):
        run = lambda seed: _engine.evolve_matrices(triplet, 1.0, 50, seed, [0.5, 1.0], 0.1)
        want = run(seq)
        for seed in (seq, np.random.SeedSequence(9), 9):
            for got, w in zip(run(seed), want):
                assert got.tobytes() == w.tobytes()
        first = run(child)
        for got, w in zip(run(child), first):
            assert got.tobytes() == w.tobytes()
    assert seq.n_children_spawned == 0 and child.n_children_spawned == 0


@pytest.mark.parametrize("starts", [
    [[0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]], [[np.nan, 1.0]], [[np.inf, 0.0]],
    np.r_[np.ones((4, 1, 2)), np.zeros((1, 1, 2))],
    np.r_[np.ones((4, 1, 2)), np.full((1, 1, 2), np.nan)],
], ids=["shared_zero", "shared_second_zero", "shared_nan", "shared_inf",
        "per_path_zero", "per_path_nan"])
def test_degenerate_start_rows_raise_before_any_step(monkeypatch, starts):
    """A zero or non-finite start row, shared or per path, raises ValueError
    before any step runs and without a floating-point warning."""
    def no_step(*args):
        raise AssertionError("a step ran")

    monkeypatch.setattr(_engine, "_evolve", no_step)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="a direction needs finite entries"):
            _engine.evolve_vectors(lf.builtin_triplet("standard_brownian(2)"), starts, 1.0, 5,
                                   1, [1.0])
