"""Sampling of matrix Levy paths and their stochastic exponentials.

A path of the driving process L is a grid of times, the continuous (drift +
Brownian) increment per cell, and time-sorted jumps whose marks it stacks once,
refusing those that ``singular_step`` calls singular.  Jump times are grid
points: the sampler merges them into ``_linalg.step_grid``, the uniform grid
whose steps the engine takes too and whose ``InvalidStep`` this module
re-exports, and hand-built paths must do the same.  The sampler has no draw
rule of its own: its jumps are ``_engine.draw_jumps`` on the engine's jump
streams and its step normals the engine's normal stream, both as an engine
run of one path reads them, so a sampled path and that run share their
noise; only the Brownian bridge that splits a step at its jumps draws from
a stream of its own.  The exponential walkers
form one time-ordered product: each cell's factor, then at a grid point
carrying jumps their exact factors (I + mark) in list order;
``auto_exponential`` picks the walker.  The exact walker's cell factors and
the mean check's target are the forward stack of ``_linalg.expm_pair_last``,
the package's one matrix exponential, which is elementwise: a cell's factor
depends on its own length and the longest cell's, not on how many cells the
path has.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np

from . import _engine
from ._linalg import InvalidStep, expm_pair_last, grid_indices, step_grid
from .levy_model import DET_TOL, MatrixLevyTriplet, SingularJump, singular_step

__all__ = [
    "LevyPath", "ExpPath", "MeanCheckReport",
    "InvalidStep", "HasGaussianPart", "SingularFactor", "SingularState",
    "sample_levy_path", "exact_cpp_exponential", "emery_exponential",
    "auto_exponential", "skorokhod_reconstruct", "stochastic_logarithm", "mean_check",
    "coarsen_path",
]


class HasGaussianPart(ValueError):
    """Operation requires sigma = 0 but the triplet has a Gaussian part."""


class SingularFactor(ArithmeticError):
    """An Emery cell factor (I + increment) is numerically singular."""


class SingularState(ArithmeticError):
    """A state X_t is singular where an inverse is required."""


_EMPTY = np.empty((0,))
_EMPTY3 = np.empty((0, 1, 1))


@dataclass(frozen=True, eq=False)
class LevyPath:
    """Driving-process path: grid, per-cell continuous increments, jumps.

    ``grid`` is strictly increasing with grid[0] = 0; every jump time must be
    a grid point in (0, T].  ``increments[c]`` is the drift+Brownian part of
    the increment over (grid[c], grid[c+1]].  ``jumps`` is time-sorted
    (time, mark), whose marks are the rows of the read-only ``marks``
    (k, d, d); |det(I + mark)| <= DET_TOL raises ``SingularJump``.  The
    read-only ``jump_index[k]`` is the grid index of jump k.
    """

    grid: np.ndarray
    increments: np.ndarray
    jumps: tuple[tuple[float, np.ndarray], ...] = ()
    marks: np.ndarray = field(init=False, repr=False)
    jump_index: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        inc = np.asarray(self.increments, dtype=float)
        if grid.ndim != 1 or len(grid) < 2:
            raise ValueError("grid must contain at least the two times 0 and T")
        if grid[0] != 0.0 or np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing and start at 0")
        if inc.ndim != 3 or inc.shape[0] != len(grid) - 1 or inc.shape[1] != inc.shape[2]:
            raise ValueError("increments must have shape (len(grid)-1, d, d)")
        grid = grid.copy(); grid.setflags(write=False)
        inc = inc.copy(); inc.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "increments", inc)
        d = inc.shape[1]
        times = [float(t) for t, _ in self.jumps]
        marks = np.array([a for _, a in self.jumps] or np.empty((0, d, d)), dtype=float)
        if marks.shape[1:] != (d, d):
            raise ValueError("jump marks must have shape (d, d)")
        marks.setflags(write=False)
        singular = singular_step(marks)
        if singular.any():
            raise SingularJump(f"jump at t={times[np.argmax(singular)]}: "
                               f"|det(I + mark)| <= {DET_TOL}")
        object.__setattr__(self, "marks", marks)
        object.__setattr__(self, "jumps", tuple(zip(times, marks)))
        _set_jump_index(self, times)

    @property
    def d(self) -> int:
        return self.increments.shape[1]

    @property
    def T(self) -> float:
        return float(self.grid[-1])

    def levy_values(self) -> np.ndarray:
        """L at every grid point (cadlag: jump included at its own time)."""
        n = len(self.grid)
        vals = np.zeros((n, self.d, self.d))
        vals[1:] = np.cumsum(self.increments, axis=0)
        for k, a in zip(self.jump_index.tolist(), self.marks):
            vals[k:] += a
        return vals


@dataclass(frozen=True, eq=False)
class ExpPath:
    """Stochastic exponential along a grid: X[0] = I, all X_t invertible.

    At a grid point carrying jumps, ``X`` holds the post-jump value; the
    pre/post states around each individual jump factor are recorded in
    ``jump_pre``/``jump_post`` (aligned with ``jump_times``) so that marks can
    be recovered exactly.  Shapes, X[0] = I and time-sorted jump times in
    (0, T] are checked on construction; ``jump_index`` holds their grid
    indices and ``Xinv`` is computed on first use.
    """

    grid: np.ndarray
    X: np.ndarray
    method: str
    jump_times: np.ndarray = field(default_factory=lambda: _EMPTY)
    jump_pre: np.ndarray = field(default_factory=lambda: _EMPTY3)
    jump_post: np.ndarray = field(default_factory=lambda: _EMPTY3)
    jump_index: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n, d = len(self.grid), self.X.shape[-1]
        if self.X.shape != (n, d, d) or not np.array_equal(self.X[0], np.eye(d)):
            raise ValueError("X must have shape (len(grid), d, d) with X[0] = I")
        k = len(self.jump_times)
        if any(len(a) != k or (k and a.shape[1:] != (d, d))
               for a in (self.jump_pre, self.jump_post)):
            raise ValueError("jump_pre and jump_post must be (len(jump_times), d, d)")
        _set_jump_index(self, self.jump_times)

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def T(self) -> float:
        return float(self.grid[-1])

    @cached_property
    def Xinv(self) -> np.ndarray:
        """X_t^{-1} at every grid point."""
        try:
            return np.linalg.inv(self.X)
        except np.linalg.LinAlgError:
            raise SingularState("a state on the path is singular") from None


@dataclass(frozen=True)
class MeanCheckReport:
    """Monte Carlo mean of X_t against the matrix-exponential identity."""

    t: float
    n_paths: int
    mc_mean: np.ndarray
    target: np.ndarray
    se: np.ndarray
    z: np.ndarray

    @property
    def max_abs_z(self) -> float:
        return float(np.max(np.abs(self.z)))


# -- helpers ------------------------------------------------------------------

def _set_jump_index(path: LevyPath | ExpPath, times) -> None:
    """Set ``path.jump_index``, the grid index of each jump time; the times
    must be grid points in (0, T] and in time order (``ValueError``)."""
    idx = grid_indices(path.grid, times)
    if np.any(idx == 0):
        raise ValueError("jump times must lie in (0, T]")
    if np.any(np.diff(np.asarray(times, dtype=float)) < 0):
        raise ValueError("jumps must be in time order")
    idx.setflags(write=False)
    object.__setattr__(path, "jump_index", idx)


def _walk(path: LevyPath, cell_factors, method: str) -> ExpPath:
    """Multiply out the time-ordered factors, cell c's then those of the jumps
    at grid point c + 1: jump k is factor jump_index[k] + k, and P[m] the
    product of the first m."""
    idx, eye = path.jump_index, np.eye(path.d)
    factors = np.insert(cell_factors, idx, eye + path.marks, axis=0)
    P = np.fromiter(accumulate(factors, np.matmul, initial=eye), (float, eye.shape),
                    len(factors) + 1)
    g = np.arange(len(path.grid))
    at = idx + np.arange(len(idx))
    return ExpPath(grid=path.grid, X=P[g + np.searchsorted(idx, g, "right")], method=method,
                   jump_times=path.grid[idx], jump_pre=P[at], jump_post=P[at + 1])


# -- operations ----------------------------------------------------------------

def sample_levy_path(triplet: MatrixLevyTriplet, T: float, dt: float, seed) -> LevyPath:
    """Draw one path of L on [0, T] from the noise of an engine run of one
    path at the same (T, dt, seed).

    The grid is ``_linalg.step_grid(T, dt)``, of step h = grid[1], merged
    with the jumps that ``_engine.draw_jumps`` draws on the engine's jump
    streams: a jump at offset o of step s sits at grid[s] + o h, capped at
    grid[s + 1], which the sum can round past.  An offset of 0 in step 0
    would put a jump at t = 0, where a path carries none; that jump sits at
    the least positive double instead, after a first cell 5e-324 long.  The
    drift adds (cell length) * gamma^0, and step s's Brownian part, G
    sqrt(h) z_s with z_s the s-th d^2 block of the engine's normal stream,
    is shared among the step's cells by ``_bridge``.  So for sigma = 0 the
    exact walker forms the engine's product pathwise.  A (T, dt) that
    ``step_grid`` refuses raises ``InvalidStep`` before any draw.
    """
    uniform = step_grid(T, dt)
    h, n, d = uniform[1], len(uniform) - 1, triplet.d
    jumps: tuple[tuple[float, np.ndarray], ...] = ()
    jump_times = np.empty(0)
    if triplet.jumps.active:
        step, _, _, offset, atom = _engine.draw_jumps(
            _engine._jump_streams(seed), triplet.jumps.rate, h, triplet.probs, 1, n)
        jump_times = np.maximum(np.minimum(uniform[step] + offset * h, uniform[step + 1]),
                                np.nextafter(0.0, 1.0))
        jumps = tuple(zip(jump_times.tolist(), triplet.marks[atom]))

    grid = np.unique(np.concatenate([uniform, jump_times]))
    inc = np.diff(grid)[:, None, None] * triplet.drift()
    if triplet.has_gaussian_part():
        g = triplet.brownian_factor.reshape(d * d, -1)
        z = np.random.default_rng(seed).standard_normal((n, d * d))
        inc = inc + (_bridge(grid, uniform, z, seed) @ g.T).reshape(-1, d, d)

    return LevyPath(grid=grid, increments=inc, jumps=jumps)


def _bridge(grid, uniform, z, seed) -> np.ndarray:
    """Each cell's standard Brownian increment, in d^2 coordinates, on
    ``grid``, the ``uniform`` step grid split at jump times, where step s's
    total is sqrt(h) z_s.  A cell that is a whole step takes it as is.  The
    cells c of a split step take sqrt(l_c) xi_c + (l_c / h)(sqrt(h) z_s -
    sum_c sqrt(l_c) xi_c), l_c their lengths and xi_c normals from the
    seed's child (BRIDGE_KEY, 0) in cell order: a Brownian motion minus its
    chord plus the chord to the total.  They are independent N(0, l_c I)
    and sum to the total to rounding."""
    lens = np.diff(grid)
    cell_step = np.searchsorted(uniform, grid[:-1], "right") - 1
    w = z[cell_step] * np.sqrt(lens)[:, None]
    split = np.flatnonzero(np.bincount(cell_step)[cell_step] > 1)
    if split.size:
        rng = np.random.default_rng(_engine.child_seeds(seed, 1, (_engine.BRIDGE_KEY,))[0])
        free = rng.standard_normal((split.size, z.shape[1])) * np.sqrt(lens[split])[:, None]
        steps, first, k = np.unique(cell_step[split], return_index=True, return_inverse=True)
        h = np.diff(uniform)[steps]
        gap = np.sqrt(h)[:, None] * z[steps] - np.add.reduceat(free, first)
        w[split] = free + (lens[split] / h[k])[:, None] * gap[k]
    return w


def coarsen_path(path: LevyPath, factor: int) -> LevyPath:
    """Aggregate a path onto the subgrid keeping every ``factor``-th uniform
    point while preserving all jump times — the two paths then share the same
    underlying noise (common-random-number coupling across step sizes)."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    # keep jump points and every factor-th point of the original uniform layout
    is_jump = np.zeros(len(path.grid), dtype=bool)
    is_jump[path.jump_index] = True
    uniform = ~is_jump
    uniform[0] = False
    keep = is_jump | (uniform & (np.cumsum(uniform) % factor == 0))
    keep[0] = keep[-1] = True
    idx = np.flatnonzero(keep)
    grid = path.grid[idx]
    inc = np.add.reduceat(path.increments, idx[:-1], axis=0)
    return LevyPath(grid=grid, increments=inc, jumps=path.jumps)


def exact_cpp_exponential(path: LevyPath, triplet: MatrixLevyTriplet) -> ExpPath:
    """Exponential via the exact product of drift exponentials and jump factors.

    X_t = e^{tau_1 gamma^0}(I + dL_{tau_1}) e^{(tau_2-tau_1) gamma^0} ... —
    exact up to matrix-exponential evaluation; requires sigma = 0.  The cell
    factors are the forward stack of one ``expm_pair_last`` family of h
    gamma^0, h the longest cell, at r = (cell length) / h.
    """
    if triplet.has_gaussian_part():
        raise HasGaussianPart("exact product requires a triplet with sigma = 0")
    lens = np.diff(path.grid)
    h = lens.max()
    factors = expm_pair_last(h * triplet.drift())(lens / h)[0]
    return _walk(path, factors.transpose(2, 0, 1), "exact_cpp")


def emery_exponential(path: LevyPath) -> ExpPath:
    """Exponential via the ordered product of (I + cell increment) factors,
    with jumps inserted exactly at their times as separate (I + mark) factors."""
    singular = singular_step(path.increments)
    if singular.any():
        raise SingularFactor(f"cell {np.argmax(singular)}: "
                             f"|det(I + increment)| <= {DET_TOL}")
    return _walk(path, np.eye(path.d) + path.increments, "emery")


def auto_exponential(path: LevyPath, triplet: MatrixLevyTriplet | None = None) -> ExpPath:
    """The walker a path gets unless one is named: the exact product when
    ``triplet`` is given and has sigma = 0, otherwise the Emery product."""
    if triplet is not None and not triplet.has_gaussian_part():
        return exact_cpp_exponential(path, triplet)
    return emery_exponential(path)


def skorokhod_reconstruct(path: LevyPath, eps: float,
                          triplet: MatrixLevyTriplet | None = None) -> np.ndarray:
    """X_T reassembled from the big-jump-truncated exponential.

    Jumps with operator norm >= eps are removed from the path and the
    exponential X^eps of the truncated path is computed; with Q(s, t) =
    (X^eps_s)^{-1} X^eps_t its two-sided transitions and tau_1 < ... < tau_N
    the removed jump times with marks D_k, the reconstruction identity is

        X_T = sum over subsets {k_1 < ... < k_l} of {1..N} of
              Q(0, tau_{k_1}) D_{k_1} Q(tau_{k_1}, tau_{k_2}) ... D_{k_l} Q(tau_{k_l}, T)

    (the empty subset contributing Q(0, T) = X^eps_T).  The sum telescopes to
    the interlaced product Q(0,tau_1)(I+D_1)Q(tau_1,tau_2)...(I+D_N)Q(tau_N,T),
    which the code computes directly with N + 1 solves against the truncated
    states at the big-jump grid points; its agreement with the full-path
    evaluation is exact factor algebra.  A small jump listed after a big jump
    at the same grid point would be applied before it by the truncated walk,
    so such a path raises ``ValueError``.  The truncated exponential is
    ``auto_exponential(truncated path, triplet)``.
    """
    is_big = np.linalg.norm(path.marks, 2, axis=(1, 2)) >= eps
    idx = path.jump_index
    follows = is_big[:-1] & ~is_big[1:] & (idx[:-1] == idx[1:])
    if follows.any():
        raise ValueError("a small jump follows a big jump at "
                         f"t={path.grid[idx[np.argmax(follows)]]}")
    small = tuple(ta for ta, b in zip(path.jumps, is_big) if not b)
    trunc = LevyPath(grid=path.grid, increments=path.increments, jumps=small)
    X = auto_exponential(trunc, triplet).X

    big = idx[is_big].tolist()
    ends = big + [len(path.grid) - 1]
    total = np.linalg.solve(X[0], X[ends[0]])
    for k, a, end in zip(big, path.marks[is_big], ends[1:]):
        total = total @ (np.eye(path.d) + a) @ np.linalg.solve(X[k], X[end])
    return total


def stochastic_logarithm(exp_path: ExpPath) -> LevyPath:
    """Recover the driving path: increment over a cell is X_{t-}^{-1} dX, and
    each recorded jump yields its mark exactly as X_{tau-}^{-1} (X_tau - X_tau-)."""
    grid, X = exp_path.grid, exp_path.X
    pre, post = exp_path.jump_pre, exp_path.jump_post
    # a cell ends at the state before the first jump at its end point
    cells, first = np.unique(exp_path.jump_index, return_index=True)
    end = X[1:].copy()
    end[cells - 1] = pre[first]
    try:
        increments = np.linalg.solve(X[:-1], end - X[:-1])
        marks = np.linalg.solve(pre, post - pre)
    except np.linalg.LinAlgError:
        raise SingularState("state X_t is singular; cannot invert") from None
    if not (np.all(np.isfinite(increments)) and np.all(np.isfinite(marks))):
        raise SingularState("state X_t is numerically singular")
    times = grid[exp_path.jump_index].tolist()
    return LevyPath(grid=grid, increments=increments, jumps=tuple(zip(times, marks)))


def mean_check(triplet: MatrixLevyTriplet, t: float, n_paths: int, seed) -> MeanCheckReport:
    """Monte Carlo test of E[X_t] = exp(t E[L_1]), componentwise z-scores;
    the target is the forward ``expm_pair_last`` of t E[L_1] at r = 1.

    One engine run of X_t over n_paths paths.  Its jump-adapted factors make
    the mean exact at any step, so sigma = 0 takes one step of length t (the
    samples are then exact products); otherwise steps of t/256 keep the
    samples' spread, which sets the standard errors, close to that of X_t.
    Fewer than two paths raise ValueError; t <= 0 or not finite, InvalidStep.
    """
    _engine.need_two_paths(n_paths)
    dt = t / 256.0 if triplet.has_gaussian_part() else t
    samples = _engine.evolve_matrices(triplet, t, n_paths, seed, [t], dt,
                                      renormalize=False)[1][0]
    mc = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / np.sqrt(n_paths)
    target = expm_pair_last(t * triplet.mean_l1())([1.0])[0][:, :, 0]
    diff = mc - target
    # an se under the floor is no usable standard error: such entries get
    # se = 0 and z = 0 (or inf when the means disagree beyond the floor too)
    floor = _engine.se_floor(target)
    degenerate = se <= floor
    se = np.where(degenerate, 0.0, se)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(~degenerate, diff / np.where(degenerate, 1.0, se),
                     np.where(np.abs(diff) <= floor, 0.0, np.inf))
    return MeanCheckReport(t=float(t), n_paths=n_paths, mc_mean=mc,
                           target=target, se=se, z=z)
