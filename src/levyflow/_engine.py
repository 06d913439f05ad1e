"""Internal vectorized Monte Carlo engine.

Batches of exponential states evolve by right-multiplying, each time step of
length dt, the continuous factor F = D @ (I + dB) with D = expm(dt * gamma^0),
then one jump-adapted factor per jump in the cell (Bruti-Liberati & Platen
2007).  Jump offsets s are drawn in continuous time inside the cell, and a
jump with mark a at offset s, r = dt - s, applies I + e^{-r gamma^0} a
e^{r gamma^0} = e^{-r gamma^0} (I + a) e^{r gamma^0}, built from one pair of
exponential families fixed per run (of gamma^0 and of -gamma^0, so no round
solves a system); it has the determinant of I + a, so a run whose atoms all
have |det(I + a)| > DET_TOL never builds a singular factor, and any other
raises SingularJump before its first step.  In time order these factors
multiply out to
D e^{-r_1 gamma^0}(I + a_1) e^{r_1 gamma^0} ... = e^{s_1 gamma^0}(I + a_1)
e^{(s_2 - s_1) gamma^0} ... (I + a_k) e^{(dt - s_k) gamma^0}, the exact
product, so the scheme is exact for sigma = 0 at any dt; with sigma > 0,
E[D (I + dB)] = D and the noise is independent of the jumps, so E[X_t] is
exact too.  D is the forward stack of the same pair at r = 1 (the pair is
built with or without jumps), so it is bit for bit the exponential of a jump
at offset 0.
A run on [0, T] takes the steps of ``_linalg.step_grid(T, dt)``, called
before any draw, so dt there is T / n for a whole number n of steps.
D is folded once into the triplet's Brownian factor G, which gives dB = G @ z
for standard normals z: with G'[m, j] = sum_k D[m, k] G[k, j],
F = D + G' @ z.  Inside the step loop the state is paths-last: m rows
of length d are a C-contiguous (m, d, n_paths) array, their log-scales
(m, n_paths) or (n_paths,), and the Gaussian factors (d, d, n_paths).
Paths-first, the 1- to 3-element d axis would be innermost and every product,
norm and division would loop over it; paths-last, each is a few unit-stride
passes over all paths, the row product v @ F being sum_k v[:, k] F[k, :].
A run with one row per path and a row-isotropic Gaussian part (sigma =
C kron I_d: the rows of dB are independent, each N(0, C dt)) in d >= 2 takes
a short draw.  For a row w = y D, w dB ~ |w| N(0, C dt), so y D (I + dB) has
the law of w + |w| A z with A A^T = C dt and d standard normals z per path,
not d^2; the jump factors act on the row as before.  Every other run keeps
the full dB: other sigmas have no such form, several rows of a path must
share one dB, and for d = 1 both draws take one normal, where the full one
measured faster.
Snapshots are stored paths-first, as the public arrays.  One step loop
serves both entry points, with one of three norm modes: evolve_vectors
divides out each row's Euclidean norm every step, evolve_matrices each
state's Frobenius norm, or nothing with renormalize=False.  The log-scale is
accumulated separately, so long-horizon norm statistics are exact at
snapshot times and never overflow.

A run draws from its own generators.  A seed is an int, a sequence of ints or
a SeedSequence, which is never advanced: ``child_seeds`` is the package's one
rule for a seed's child streams.  A run's normals (d^2 per path-step, or d
in the short draw) are the one stream of default_rng(seed), and nothing else
draws from it: the step loop in _evolve takes each step's normals from
_step_normals and hands them to cont_factors, which draws nothing.  K =
BLOCK // (normals per step) steps come from one standard_normal call, the
same stream as K calls, and a worker thread fills the next block while the
loop steps through the current one; a step larger than BLOCK or a run of at
most one block draws inline.  BLOCK = 2^17 doubles holds a step of 2 * 10^4
paths of d^2 = 4 normals each (the rows of a path share them), the size of a
mixing run's step, so those steps are drawn ahead too.  Its jumps come from
four more streams, child_seeds(seed, 4, (JUMP_KEY,)), planned a block of
steps at a time (in about BLOCK doubles of memory): each step's total from
the count stream, then per jump a path, an offset and an atom, each from its
own stream (``draw_jumps``); a sort by (step, path, offset) gives each jump
its round, and one elementwise pass builds all of the block's factors.  Each
stream is read in step order, and a factor depends on its own jump only, so
no result depends on the block sizes or on thread timing: only one normal
draw runs at a time and the blocks are taken in order.  The worker is joined
before the run returns or raises.  Results are deterministic given the seed,
independent of BLAS threading.  ``draw_jumps`` is the package's one jump
law: ``path_sampler.sample_levy_path`` reads it, and the normal stream, as a
run of one path does, so the two kernels share their noise at a seed.
"""
from __future__ import annotations

import contextlib
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ._linalg import expm_pair_last, grid_indices, matmul_last, psd_factor, step_grid, unit_vectors
from .levy_model import MatrixLevyTriplet, refuse_singular_atoms


# The default time step dt of every Monte Carlo estimator: the engine's
# entry points, the limits and projective estimators and the CLI runners.
DEFAULT_DT = 0.05
# Doubles per block of prefetched normals (two blocks are kept, 2 MB), and
# about the doubles a planned block of jumps works in (see planned_jumps).
BLOCK = 2 ** 17
# Spawn keys, under a run's seed, of its jump streams (the bytes "jump") and
# of the path sampler's Brownian-bridge stream (the bytes "brdg").
JUMP_KEY = 0x6A756D70
BRIDGE_KEY = 0x62726467


class DegenerateNorm(ArithmeticError):
    """A norm statistic vanished, lost all fluctuation, or is not finite."""


def need_two_paths(n: int) -> None:
    """The two-path floor of every estimator that reports a Monte Carlo
    spread: fewer than two paths raise ValueError."""
    if n < 2:
        raise ValueError(f"a variance needs two or more paths, got {n}")


def se_floor(scale):
    """1e-9 max(1, |scale|), elementwise: a Monte Carlo standard error at or
    below it is rounding jitter in identical samples (deterministic
    dynamics), not a usable se.  Each estimator passes the scale of what it
    estimates and keeps its own z-score for such a sample."""
    return 1e-9 * np.maximum(1.0, np.abs(scale))


class _StepScheme:
    """Per-step factor generator for one (triplet, dt) pair.  With
    ``single_row`` (the run carries one row per path) it takes the short
    draw where it applies; ``row_noise`` tells whether it does."""

    def __init__(self, triplet: MatrixLevyTriplet, dt: float, single_row: bool = False):
        self.d = triplet.d
        self.dt = float(dt)
        self.drift_exp = expm_pair_last(self.dt * triplet.drift())
        self.drift_factor = self.drift_exp([1.0])[0][:, :, 0].copy()
        self.row_noise = (single_row and self.d >= 2 and triplet.has_gaussian_part()
                          and triplet.row_covariance is not None)
        if self.row_noise:
            self.gauss = psd_factor(triplet.row_covariance) * np.sqrt(self.dt)
        elif triplet.has_gaussian_part():
            g = np.einsum("mk,kjl->mjl", self.drift_factor, triplet.brownian_factor)
            self.gauss = g.reshape(self.d ** 2, -1) * np.sqrt(self.dt)
        else:
            self.gauss = None
        if triplet.jumps.active:
            refuse_singular_atoms(triplet)
            self.jump_rate = triplet.jumps.rate
            self.probs = triplet.probs
            self.marks_last = triplet.marks.transpose(1, 2, 0)
        else:
            self.jump_rate = 0.0

    def noise_shape(self, n: int):
        """Shape of one step's standard normals for n paths: (d, n) with
        ``row_noise``, else (n, d^2); None when there is no Gaussian part."""
        if self.gauss is None:
            return None
        return (self.d, n) if self.row_noise else (n, self.d * self.d)

    def cont_factors(self, z, n: int):
        """(n, d, d) per-path factors D @ (I + dB) from the step's standard
        normals z of shape ``noise_shape(n)``, or the (d, d) drift factor D
        shared by the whole batch when there is no Gaussian part (z is None).
        The per-path factors are a view of a paths-last (d, d, n) array.  With
        ``row_noise``, the paths-last (d, n) row noise A @ z instead."""
        if self.gauss is None:
            return self.drift_factor
        if self.row_noise:
            return self.gauss @ z
        f = (self.gauss @ z.T).reshape(self.d, self.d, n)
        f += self.drift_factor[:, :, None]
        return f.transpose(2, 0, 1)

    def jump_factors(self, offset, atom):
        """Paths-last (d, d, J) factors I + e^{-r gamma^0} a e^{r gamma^0},
        r = 1 - offset in units of dt, of J jumps in one elementwise pass."""
        e, e_inv = self.drift_exp(1.0 - offset)
        a = self.marks_last if len(self.probs) == 1 else self.marks_last[:, :, atom]
        f = matmul_last(e_inv, a)
        del e_inv, a
        f = matmul_last(f, e)
        for i in range(self.d):
            f[i, i] += 1.0
        return f

    def planned_jumps(self, seed, n: int, n_steps: int):
        """Each step's jump rounds, in step order, for ``jump_plan``: the
        jumps of a block of K steps are drawn (``draw_jumps``) and their
        factors built (``jump_factors``) at once, and each step's rounds are
        slices of the block's arrays.  K steps are expected to hold BLOCK / 4
        doubles of factors, so that the block's whole working set (with the
        two exponential families, a product's temporary and the sort keys)
        stays near BLOCK doubles.  A step expected to hold more is a block
        of its own."""
        streams = _jump_streams(seed)
        per_step = 4 * self.d * self.d * max(1.0, self.jump_rate * self.dt * n)
        k = max(1, min(n_steps, int(BLOCK // per_step)))
        for first in range(0, n_steps, k):
            # no name outlives the block, so its arrays go before the next
            yield from self._block_rounds(streams, n, min(k, n_steps - first))

    def _block_rounds(self, streams, n: int, k: int):
        """The rounds of each of k steps, slices of one block's arrays."""
        step, path, rnd, offset, atom = draw_jumps(streams, self.jump_rate, self.dt,
                                                   self.probs, n, k)
        f = self.jump_factors(offset, atom)
        rounds = [[] for _ in range(k)]
        if step.size:
            lo = np.flatnonzero(np.r_[True, (step[1:] != step[:-1]) | (rnd[1:] != rnd[:-1])])
            hi = np.r_[lo[1:], step.size]
            for s, a, b in zip(step[lo].tolist(), lo.tolist(), hi.tolist()):
                rounds[s].append((path[a:b], f[:, :, a:b]))
        return rounds

    def jump_plan(self, planned):
        """[(path indices, paths-last (d, d, m) factors)] rounds covering all
        jumps this step: the next item of the run's ``planned_jumps``, which
        draws and builds a block of steps' jumps at a time; [] for a
        jump-free scheme.

        Round k gives each path with at least k jumps in the step its k-th
        jump in time order: an atom a and an offset s, with factor
        I + e^{-r gamma^0} a e^{r gamma^0}, r = dt - s.  Each round's paths
        are ascending and a subset of the previous round's; its factors are a
        view of the block's array.
        """
        return next(planned) if self.jump_rate else []


def child_seeds(seed, k: int, key: tuple = ()) -> list:
    """The k children (*spawn_key, *key, i) of the seed's SeedSequence; for
    an int seed and no key, those of SeedSequence(seed).spawn(k).  Unlike
    spawn, it never advances a SeedSequence seed, so reusing one is safe."""
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.SeedSequence(seq.entropy, spawn_key=(*seq.spawn_key, *key, i),
                                   pool_size=seq.pool_size) for i in range(k)]


def draw_jumps(streams, rate: float, dt: float, probs, n: int, k: int):
    """The jumps of k steps of length dt on n paths, as arrays ordered by
    (step, round, path): each jump's step, path, round (the rank of its
    offset in its cell), offset in units of dt and atom index.  This is the
    package's one jump law: the engine's rounds and ``sample_levy_path``
    (at n = 1) both read it.

    ``streams`` are the run's four jump generators (``_jump_streams``).
    Each step's total is Poisson(rate dt n), and each jump takes a uniform
    path, a uniform offset in [0, 1) and an atom, by the law ``probs``, from
    its own stream; by Poisson splitting, each cell (path-step) then holds
    an independent Poisson(rate dt) count of jumps with i.i.d. uniform
    offsets and atoms, the law of per-cell draws.  Each stream is read in
    step order, so the arrays do not depend on how a run's steps are split
    into blocks.
    """
    counts, paths, offsets, atoms = streams
    totals = counts.poisson(rate * dt * n, k)
    size = int(totals.sum())
    step = np.repeat(np.arange(k), totals)
    path = paths.integers(0, n, size)
    offset = offsets.random(size)
    atom = (atoms.choice(len(probs), size, p=probs) if len(probs) > 1
            else np.zeros(size, dtype=np.intp))
    if size == 0:  # every array is empty, the rounds too
        return step, path, step, offset, atom
    # group by cell, then order offsets inside the cells holding several
    cell = step * n + path
    order = np.argsort(cell, kind="stable")
    cell = cell[order]
    same = cell[1:] == cell[:-1]
    if same.any():
        multi = np.flatnonzero(np.r_[same, False] | np.r_[False, same])
        order[multi] = order[multi[np.lexsort((offset[order[multi]], cell[multi]))]]
    del cell
    rnd = np.arange(size)
    rnd -= np.maximum.accumulate(np.where(np.r_[True, ~same], rnd, 0))
    # a stable sort on (step, round) keeps each round's paths ascending
    by_round = np.argsort(step[order] * (rnd.max() + 1) + rnd, kind="stable")
    order = order[by_round]
    return step[order], path[order], rnd[by_round], offset[order], atom[order]


def _jump_streams(seed):
    """The run's four jump generators, of counts, paths, offsets and atoms."""
    return [np.random.default_rng(s) for s in child_seeds(seed, 4, (JUMP_KEY,))]


def _rowvec_product(v: np.ndarray, f: np.ndarray) -> np.ndarray:
    """v @ f per path for paths-last (m, d, p) rows and (p, d, d) per-path
    or shared (d, d) factors; the result is paths-last (m, d, p)."""
    if f.ndim == 2:
        return np.matmul(f.T, v)
    return matmul_last(v, f.transpose(1, 2, 0))


def _step_normals(rng, shape, n_steps: int):
    """Each step's standard normals of ``shape`` (None for no draw), in the
    order of the stream, which nothing else draws from during the run.
    Blocks of K = BLOCK // size steps alternate between two buffers, a
    worker thread filling the next while this one is used; a step's normals
    are then a view, valid until the next step's are taken.  A step larger
    than BLOCK, or a run of at most one block, draws inline.  Close the
    generator to join the worker."""
    k = BLOCK // math.prod(shape) if shape is not None else 0
    if not 0 < k < n_steps:
        for _ in range(n_steps):
            yield None if shape is None else rng.standard_normal(shape)
        return
    n_blocks = -(-n_steps // k)
    bufs = np.empty((2, k) + shape)

    def fill(b):
        return rng.standard_normal(out=bufs[b % 2, :min(k, n_steps - b * k)])

    with ThreadPoolExecutor(max_workers=1) as pool:
        nxt = pool.submit(fill, 0)
        for b in range(n_blocks):
            block = nxt.result()
            if b + 1 < n_blocks:
                nxt = pool.submit(fill, b + 1)
            yield from block


def _snapshot_indices(snapshot_times, grid: np.ndarray):
    """Snapshot times on the run's ``step_grid``, and step -> snapshot
    positions."""
    idx = grid_indices(grid, snapshot_times)
    by_step: dict[int, list[int]] = {}
    for pos, k in enumerate(idx.tolist()):
        by_step.setdefault(k, []).append(pos)
    return grid[idx], by_step


def _evolve(triplet, T, seed, snapshot_times, dt, states, logs, norm):
    """The step loop: (times, states, logs) snapshots of (n_paths, m, d) row
    vectors (a matrix is its d rows) and their accumulated log-scales, of
    shape (n_paths, m) or (n_paths,).  ``norm`` holds the paths-last axes
    summed for the norm divided out each step: (1,) one per row, (0, 1) one
    Frobenius norm per path, None for none.  ``evolve_matrices`` keeps no
    name for ``states``, so that taking the paths-last copy frees it.
    A snapshot that is not finite raises DegenerateNorm; a (T, dt) that
    ``step_grid`` refuses raises InvalidStep, and no paths ValueError.
    """
    grid = step_grid(T, dt)
    if len(states) < 1:
        raise ValueError("need n_paths >= 1, got 0")
    n_steps = len(grid) - 1
    times, by_step = _snapshot_indices(snapshot_times, grid)
    scheme = _StepScheme(triplet, grid[1], single_row=states.shape[1] == 1)
    rng = np.random.default_rng(seed)
    n_paths = len(states)
    out_states = np.empty((len(times),) + states.shape)
    out_logs = np.empty((len(times),) + logs.shape)
    states = states.transpose(1, 2, 0).copy()
    logs = logs.T.copy()

    def record(step):
        for pos in by_step.get(step, ()):
            out_states[pos] = states.transpose(2, 0, 1)
            out_logs[pos] = logs.T

    record(0)
    planned = scheme.planned_jumps(seed, n_paths, n_steps) if scheme.jump_rate else None
    normals = _step_normals(rng, scheme.noise_shape(n_paths), n_steps)
    with contextlib.closing(normals):
        for step in range(1, n_steps + 1):
            if scheme.row_noise:
                states = np.matmul(scheme.drift_factor.T, states)
                states += (np.sqrt((states * states).sum(axis=1, keepdims=True))
                           * scheme.cont_factors(next(normals), n_paths))
            else:
                states = _rowvec_product(states, scheme.cont_factors(next(normals), n_paths))
            for act, f in scheme.jump_plan(planned):
                states[:, :, act] = matmul_last(states.take(act, axis=2), f)
            if norm is not None:
                norms = np.sqrt((states * states).sum(axis=norm, keepdims=True))
                logs = logs + np.log(norms).reshape(logs.shape)
                states /= norms
            record(step)
    if not (np.all(np.isfinite(out_states)) and np.all(np.isfinite(out_logs))):
        raise DegenerateNorm("engine state is not finite on some path")
    return times, out_states, out_logs


def evolve_vectors(triplet: MatrixLevyTriplet, starts, T: float, n_paths: int,
                   seed, snapshot_times, dt: float = DEFAULT_DT):
    """Evolve row vectors y -> y @ X_t for a batch of paths.

    ``starts`` is (m, d): all m start vectors share the same noise within a
    path (common-random-number coupling); paths are independent.  A
    (n_paths, m, d) array gives each path its own start vectors instead.
    Returns (times, dirs, logs) with dirs of shape (k, n_paths, m, d) holding
    unit vectors and logs of shape (k, n_paths, m) holding log ||y @ X_t||.
    A start row that is not a direction (``_linalg.unit_vectors``) raises
    ValueError; any other starts with the log-norm that it returns, which is
    finite also for a row whose norm exceeds the float range.
    """
    starts, logs = unit_vectors(np.atleast_2d(starts))
    if starts.ndim == 2:  # shared rows: scaled once, then broadcast to every path
        starts = np.broadcast_to(starts, (n_paths,) + starts.shape)
        logs = np.broadcast_to(logs, starts.shape[:2])
    if starts.shape[0] != n_paths:
        raise ValueError("per-path starts must have leading dimension n_paths")
    return _evolve(triplet, T, seed, snapshot_times, dt, starts, logs, (1,))


def evolve_matrices(triplet: MatrixLevyTriplet, T: float, n_paths: int, seed,
                    snapshot_times, dt: float = DEFAULT_DT, renormalize: bool = True):
    """Evolve full states X_t for a batch of independent paths.

    Returns (times, mats, logs): mats is (k, n_paths, d, d); with
    ``renormalize`` the states are unit Frobenius norm and logs holds the
    accumulated log-scale (X_t = exp(logs) * mats), otherwise logs is zero.
    """
    return _evolve(triplet, T, seed, snapshot_times, dt,
                   np.tile(np.eye(triplet.d), (n_paths, 1, 1)), np.zeros(n_paths),
                   (0, 1) if renormalize else None)
