"""One-point motion on projective space.

Directions are stored as canonical unit vectors (first coordinate of modulus
above 1e-12 made positive), which works uniformly in any dimension; for d = 2
the angle in [0, pi) is exposed as well.  The chain Z_t = direction of
y0 @ X_t is read off an explicit exponential path, or simulated through the
vectorized engine for the Monte Carlo estimators below.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _engine
from ._linalg import line_fit, step_grid, unit_vectors
from .levy_model import MatrixLevyTriplet
from .path_sampler import ExpPath

__all__ = [
    "ProjPoint", "EmpiricalMeasure", "HolderFn",
    "ContractionReport", "MixingReport",
    "canonical_unit", "angular_distance", "project_chain",
    "estimate_invariant_measure", "contraction_estimate", "mixing_rate",
]

_SIGN_TOL = 1e-12


def canonical_unit(v) -> np.ndarray:
    """Unit representative (``unit_vectors``) with its first coordinate of
    modulus > 1e-12 made positive; idempotent, and identical for v and -v.
    A (d, n) array is n vectors along its second axis, each as if alone."""
    v = np.asarray(v, dtype=float)
    u = unit_vectors(v.reshape(len(v), -1), axis=0)[0]
    big = np.abs(u) > _SIGN_TOL
    lead = u[np.argmax(big, axis=0), np.arange(u.shape[1])]
    return np.where(lead < 0, -u, u).reshape(v.shape)


@dataclass(frozen=True, eq=False)
class ProjPoint:
    """A line through the origin, or n lines at once, stored as canonical unit
    vectors: ``v`` has shape (d,) or (d, n), coordinates first, so ``v[i]`` is
    coordinate i of every line."""

    v: np.ndarray

    def __post_init__(self):
        u = canonical_unit(self.v)
        u.setflags(write=False)
        object.__setattr__(self, "v", u)

    @property
    def d(self) -> int:
        return len(self.v)

    def angle(self) -> float | np.ndarray:
        """Representative angle in [0, pi), one per line; d = 2 only."""
        if self.d != 2:
            raise ValueError("angle is defined for d = 2 only")
        return np.arctan2(self.v[1], self.v[0]) % np.pi


def _eval_lines(fn, v: np.ndarray) -> np.ndarray:
    """fn on the lines along the second axis of the (d, n) array v, called
    once on them as one ProjPoint; a scalar result is broadcast to (n,)."""
    vals = np.asarray(fn(ProjPoint(v)), dtype=float)
    return np.broadcast_to(vals, v.shape[1:])


@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
    """Weighted sample approximation of a measure on projective space;
    ``points`` is an (n, d) array of canonical unit rows."""

    points: np.ndarray
    weights: np.ndarray
    meta: dict

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("points must be an (n, d) array")
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1 or len(w) != len(pts):
            raise ValueError("weights must align with points")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    def integrate(self, fn: Callable[[ProjPoint], np.ndarray | float]) -> float:
        """sum_i w_i fn(p_i); fn is called once, on all points as one ProjPoint."""
        return float(self.weights @ _eval_lines(fn, self.points.T))

    def angles(self) -> np.ndarray:
        return ProjPoint(self.points.T).angle()


@dataclass(frozen=True)
class HolderFn:
    """Test function on projective space with a Holder exponent in (0, 1].

    ``eval`` takes a ProjPoint holding n lines (``p.v`` of shape (d, n)) and
    returns their n values, or one scalar shared by all of them.
    """

    eval: Callable[[ProjPoint], np.ndarray | float]
    gamma: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError("gamma must lie in (0, 1]")


@dataclass(frozen=True)
class ContractionReport:
    """Worst sampled pair-contraction ratio of the skeleton chain."""

    c_hat: float
    contracting: bool
    n: int
    gamma: float
    per_pair: np.ndarray


@dataclass(frozen=True)
class MixingReport:
    """Sup over start pairs of |E f(Z_t^y) - E f(Z_t^z)| with a decay fit."""

    t_grid: np.ndarray
    sup_diffs: np.ndarray
    D_hat: float
    d_hat: float
    r2: float
    flagged_no_decay: bool


def _as_unit(p) -> np.ndarray:
    return p.v if isinstance(p, ProjPoint) else canonical_unit(p)


def _sine(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """|sin| of the angle between unit vectors u and w along the last axis,
    as ||u - w|| ||u + w|| / 2 = 2 sin(theta/2) cos(theta/2).  Close lines
    keep full relative accuracy here, where sqrt(1 - <u, w>^2) loses it."""
    s = np.linalg.norm(u - w, axis=-1) * np.linalg.norm(u + w, axis=-1) / 2.0
    return np.minimum(s, 1.0)


def angular_distance(a, b) -> float:
    """|sin(angle between the lines)|; a metric on projective space with
    values in [0, 1]."""
    return float(_sine(_as_unit(a), _as_unit(b)))


def project_chain(exp_path: ExpPath, y0):
    """Directions and radial cocycle of Y_t = y0 @ X_t along a path.

    Returns (points, lognorms): points is one ProjPoint whose line k
    (``points.v[:, k]``) is the direction at grid time t_k, and lognorms[k] =
    log ||y0 @ X_{t_k}||.
    """
    y = _as_unit(y0)
    w = np.einsum("i,tij->tj", y, exp_path.X)
    norms = np.linalg.norm(w, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("one-point motion hit the origin")
    return ProjPoint(w.T), np.log(norms)


def _uniform_starts(d: int, n: int, rng) -> np.ndarray:
    """n points from the rotation-invariant measure: normalized Gaussians."""
    g = rng.standard_normal((n, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def estimate_invariant_measure(triplet: MatrixLevyTriplet, h: float,
                               n_steps: int, burn_in: int, n_chains: int,
                               seed, dt: float | None = None) -> EmpiricalMeasure:
    """Pool post-burn-in states of independent skeleton chains Z_{nh}.

    Chains start from the rotation-invariant measure; each skeleton step is
    simulated with the substeps of ``step_grid(h, dt)`` (default dt =
    min(h, _engine.DEFAULT_DT)), which refuses an (h, dt) before any draw.
    Weights are uniform over the pooled states, which are serially
    correlated along each chain — thin before applying tests that assume
    independent samples.
    """
    if not 0 <= burn_in < n_steps:
        raise ValueError("need 0 <= burn_in < n_steps")
    substep = step_grid(h, min(h, _engine.DEFAULT_DT) if dt is None else dt)[1]
    s_start, s_engine = _engine.child_seeds(seed, 2)
    starts = _uniform_starts(triplet.d, n_chains, np.random.default_rng(s_start))

    snap_times = np.arange(burn_in + 1, n_steps + 1) * h
    _, dirs, _ = _engine.evolve_vectors(
        triplet, starts[:, None, :], n_steps * h, n_chains, s_engine, snap_times, dt=substep)
    points = canonical_unit(dirs[:, :, 0, :].reshape(-1, triplet.d).T).T
    weights = np.full(len(points), 1.0 / len(points))
    meta = {
        "h": h, "n_steps": n_steps, "burn_in": burn_in,
        "n_chains": n_chains, "seed": seed, "d": triplet.d,
    }
    return EmpiricalMeasure(points=points, weights=weights, meta=meta)


def _pair_grid(d: int, n_pairs: int, rng) -> np.ndarray:
    """(P, 2, d) test pairs: random uniform pairs plus, for d = 2, a fixed
    well-spread grid of orthogonal pairs (the worst case for contraction)."""
    pairs = []
    if d == 2:
        for theta in np.linspace(0.0, math.pi / 2, 4, endpoint=False):
            u = np.array([math.cos(theta), math.sin(theta)])
            w = np.array([-math.sin(theta), math.cos(theta)])
            pairs.append((u, w))
    g = _uniform_starts(d, 2 * n_pairs, rng).reshape(n_pairs, 2, d)
    g = g[_sine(g[:, 0], g[:, 1]) > 1e-6]
    return np.concatenate([np.reshape(pairs, (-1, 2, d)), g])


def contraction_estimate(triplet: MatrixLevyTriplet, n: int, gamma: float,
                         n_pairs: int, n_paths: int, seed,
                         dt: float = _engine.DEFAULT_DT) -> ContractionReport:
    """Monte Carlo estimate of max over sampled pairs (u, w) of
    E[d^gamma(u.X_n, w.X_n) / d^gamma(u, w)] for the time-n skeleton.

    Descriptive only: no closed form checks it, and its samples carry the
    step scheme's dt-bias as well as Monte Carlo error, so ``c_hat`` and
    ``contracting`` describe the simulated chain, not a certified bound."""
    if not (0.0 < gamma <= 1.0):
        raise ValueError("gamma must lie in (0, 1]")
    s_pairs, s_engine = _engine.child_seeds(seed, 2)
    pairs = _pair_grid(triplet.d, n_pairs, np.random.default_rng(s_pairs))
    flat = pairs.reshape(-1, triplet.d)
    _, dirs, _ = _engine.evolve_vectors(
        triplet, flat, float(n), n_paths, s_engine, [float(n)], dt=dt)
    moved = dirs[0].reshape(n_paths, len(pairs), 2, triplet.d)
    dist_after = _sine(moved[:, :, 0, :], moved[:, :, 1, :])
    dist_before = _sine(pairs[:, 0], pairs[:, 1])
    ratios = (dist_after ** gamma) / (dist_before ** gamma)[None, :]
    per_pair = ratios.mean(axis=0)
    c_hat = float(per_pair.max())
    return ContractionReport(c_hat=c_hat, contracting=c_hat < 1.0, n=n,
                             gamma=gamma, per_pair=per_pair)


def mixing_rate(triplet: MatrixLevyTriplet, f: HolderFn, starts, t_grid,
                n_paths: int, seed, dt: float = _engine.DEFAULT_DT) -> MixingReport:
    """Coupled estimate of sup over start pairs of |E f(Z_t^y) - E f(Z_t^z)|
    on a time grid, with a log-linear decay fit (rate d_hat, prefactor D_hat).

    All starts evolve under common noise within each path.  At large times the
    pairwise mean difference falls below the Monte Carlo resolution of the
    estimator (its error is dominated by the rare paths whose directions have
    not yet coupled), so each grid point comes with a standard error for the
    realized extreme pair and only points resolving their own noise
    (sup_diff > 3 se) enter the decay fit; the full table is still reported.
    Fewer than two paths raise ValueError.
    """
    _engine.need_two_paths(n_paths)
    start_arr = np.array([_as_unit(p) for p in starts])
    t_grid = np.asarray(t_grid, dtype=float)
    _, dirs, _ = _engine.evolve_vectors(
        triplet, start_arr, float(t_grid.max()), n_paths, seed, t_grid, dt=dt)

    m, d = start_arr.shape
    sup_diffs = np.empty(len(t_grid))
    ses = np.empty(len(t_grid))
    for k in range(len(t_grid)):
        vals = _eval_lines(f.eval, dirs[k].reshape(-1, d).T).reshape(n_paths, m)
        means = vals.mean(axis=0)
        hi, lo = int(np.argmax(means)), int(np.argmin(means))
        sup_diffs[k] = float(means[hi] - means[lo])
        gap = vals[:, hi] - vals[:, lo]
        ses[k] = float(gap.std(ddof=1) / np.sqrt(n_paths)) if hi != lo else 0.0

    resolved = sup_diffs > np.maximum(3.0 * ses, 1e-14)
    if not np.any(resolved):
        return MixingReport(t_grid=t_grid, sup_diffs=sup_diffs, D_hat=0.0,
                            d_hat=np.inf, r2=1.0, flagged_no_decay=False)
    slope, intercept, r2 = line_fit(t_grid[resolved], np.log(sup_diffs[resolved]))
    if np.isnan(slope):
        # fewer than two distinct resolved horizons: no decay rate to fit
        return MixingReport(t_grid=t_grid, sup_diffs=sup_diffs, D_hat=0.0,
                            d_hat=0.0, r2=0.0,
                            flagged_no_decay=bool(np.max(sup_diffs) > 1e-3))
    d_hat = -slope
    flagged = bool(np.max(sup_diffs) > 1e-3 and (d_hat <= 1e-2 or r2 < 0.5))
    return MixingReport(t_grid=t_grid, sup_diffs=sup_diffs,
                        D_hat=float(np.exp(intercept)), d_hat=d_hat, r2=r2,
                        flagged_no_decay=flagged)
