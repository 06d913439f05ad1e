"""Shared linear-algebra helpers for the column-stacking (vec) convention.

Throughout the package ``vec`` stacks matrix columns, so entry (m, j) of a
d x d matrix sits at flat index ``j*d + m``.  The d^2 x d^2 covariance of
vec(L) therefore holds the covariance between components L^(m,j) and
L^(n,l) at position (j*d+m, l*d+n).

``step_grid`` is the package's one rule for splitting a horizon T into steps
of about dt, read by the engine, the path sampler and the invariant-measure
skeleton, and its one check of (T, dt), made before a run's first draw;
``grid_indices`` is its one map from times to grid indices.

``unit_vectors`` is the package's one rule for a direction: every start row,
functional vector, probe and projective point is checked and scaled by it.

``expm_pair_last`` is the package's one matrix exponential: the engine's
drift factor and jump rounds, the exact walker's cell factors, the target of
``mean_check`` and the drift generators of ``geometry`` all come from it, so
importing the package does not load ``scipy.linalg``.  All but the jump
rounds read only the first, forward stack of its pair.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "psd_factor", "InvalidStep", "OffGrid", "step_grid", "grid_indices", "line_fit",
    "unit_vectors", "expm_pair_last", "matmul_last",
]


class InvalidStep(ValueError):
    """A horizon T and step dt that are not finite with 0 < dt <= T."""


class OffGrid(ValueError):
    """A requested time is not a point of the time grid."""


def psd_factor(sigma: np.ndarray) -> np.ndarray:
    """A factor A with A @ A.T = sigma for symmetric PSD sigma.

    Uses a symmetric eigendecomposition with negative eigenvalues clipped at
    zero, so rank-deficient covariances (common here: pure-drift and
    trace-constrained Gaussian parts) are handled exactly.
    """
    w, v = np.linalg.eigh(np.asarray(sigma, dtype=float))
    w = np.clip(w, 0.0, None)
    return v * np.sqrt(w)


def step_grid(T: float, dt: float) -> np.ndarray:
    """The step grid of a horizon T at step about dt: the package's one rule
    for splitting (T, dt) into steps.  It has n = round(T / dt) steps,
    points k * (T / n) with the last set to T, so grid[1] is the step T / n
    and a T that is n steps of dt gives n steps, not n + 1.  T and dt must
    be finite with 0 < dt <= T (so n >= 1) and a finite T / dt, else
    ``InvalidStep``."""
    if not (math.isfinite(T) and 0.0 < dt <= T and math.isfinite(float(T) / float(dt))):
        raise InvalidStep(f"need T > 0 and 0 < dt <= T with T / dt finite, got T={T}, dt={dt}")
    n = int(round(T / dt))
    grid = np.arange(n + 1) * (T / n)
    grid[-1] = T
    return grid


def grid_indices(grid: np.ndarray, times) -> np.ndarray:
    """Index of the nearest point of the increasing ``grid`` for each time.

    A time farther than 1e-9 * max(1, grid[-1]) from every grid point, or
    NaN, raises ``OffGrid``.
    """
    grid = np.asarray(grid, dtype=float)
    times = np.asarray(times, dtype=float).reshape(-1)
    # k in [1, len(grid) - 1] with grid[k - 1] < t <= grid[k] for t inside
    # the grid, then one step back where grid[k - 1] is the nearer point
    k = np.searchsorted(grid[1:-1], times) + 1
    k -= times - grid[k - 1] < grid[k] - times
    off = ~(np.abs(grid[k] - times) <= 1e-9 * max(1.0, float(grid[-1])))
    if off.any():
        raise OffGrid(f"time {times[off][0]} is not a grid point")
    return k


def unit_vectors(v, axis: int = -1):
    """(v / |v|, log |v|) for the vectors along ``axis`` of v: the package's
    one rule for a direction.  A vector with a non-finite entry, or no
    nonzero entry, raises ValueError.  |v|^2 is summed coordinate by
    coordinate, so a vector rounds the same in any batch; where that sum
    overflows or is not a normal number, it is taken again on w = v 2^k, k
    the power of two that brings v's largest entry into [1/2, 1).  That
    scaling is exact, so v 2^k has bit for bit the unit vector of v, and
    log |v| is log |w| - k log 2, finite also where |v| is beyond the float
    range."""
    coords = np.moveaxis(np.asarray(v, dtype=float), axis, 0)
    with np.errstate(over="ignore", under="ignore"):
        s = sum(x * x for x in coords)
        scale = None
        ok = (s >= np.finfo(float).tiny) & (s < np.inf)  # False for NaN
        if not np.all(ok):
            if not np.all(np.isfinite(coords).all(axis=0) & (coords != 0.0).any(axis=0)):
                raise ValueError("a direction needs finite entries, not all zero")
            scale = np.where(ok, 0, -np.frexp(np.abs(coords).max(axis=0))[1])
            coords = np.ldexp(coords, scale)
            s = sum(x * x for x in coords)
        norms = np.sqrt(s)
        unit = np.moveaxis(coords / norms, 0, axis)
        logs = np.log(norms)
        return unit, logs if scale is None else logs - scale * math.log(2.0)


def line_fit(x, y) -> tuple[float, float, float]:
    """(slope, intercept, r^2) of the least-squares line through the points
    of the float arrays (x, y); all three are NaN when x has fewer than two
    distinct values."""
    if np.unique(x).size < 2:
        return np.nan, np.nan, np.nan
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    total = y - y.mean()
    r2 = 1.0 - float((resid ** 2).sum()) / max(float((total ** 2).sum()), 1e-300)
    return float(slope), float(intercept), r2


def matmul_last(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for paths-last stacks: out[i, j, p] = sum_k a[i, k, p] b[k, j, p]
    for a of shape (m, d, p) and b of shape (d, l, p), a last axis of 1
    broadcasting.  Each term is one unit-stride pass over the paths, where a
    stacked matmul of 2 x 2 matrices would loop over the tiny axes."""
    out = a[:, 0, None] * b[0]
    for k in range(1, a.shape[1]):
        out += a[:, k, None] * b[k]
    return out


def expm_pair_last(a: np.ndarray):
    """r -> the paths-last (d, d, m) stacks (expm(r_i * a), expm(-r_i * a))
    for m scalars 0 <= r_i <= 1: the package's one matrix exponential
    (scaling and squaring, Moler & Van Loan's method 3).

    With q the least integer giving ||a||_1 / 2^q <= 1/2, the degree-16
    Taylor polynomial P of r_i * a / 2^q (truncation error below 1e-19) is
    split into its even and odd powers, P(r) = E(r^2) + r O(r^2), each by
    Horner's rule, so the pair is (E + r O, E - r O): one polynomial pass
    serves both signs; each is then squared q times.  Everything is
    elementwise (the squarings are ``matmul_last``): no per-element ``pow``,
    no stacked matmul of tiny matrices, and each r_i's matrices are bit for
    bit the same whatever other scalars share the call (a BLAS product's
    rounding may depend on a column's place in a block).  Negating a
    negates exactly the odd terms, so the pair of -a is the pair of a
    swapped, bit for bit.  A zero a gives the identity exactly.
    """
    q = max(0, int(np.ceil(np.log2(2.0 * np.linalg.norm(a, 1) + 1e-300))))
    table = np.stack([np.linalg.matrix_power(a / 2.0 ** q, k).ravel() / math.factorial(k)
                      for k in range(17)])

    def horner(terms, x):
        p = np.repeat(terms[-1][:, None], x.size, axis=1)
        for t in terms[-2::-1]:
            p *= x
            p += t[:, None]
        return p

    def at(r):
        r = np.asarray(r, dtype=float)
        s = r * r
        even, odd = horner(table[0::2], s), horner(table[1::2], s)
        odd *= r
        pair = [e.reshape(*a.shape, r.size) for e in (even + odd, even - odd)]
        for _ in range(q):
            pair = [matmul_last(e, e) for e in pair]
        return tuple(pair)
    return at

