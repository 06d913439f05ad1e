"""Shared linear-algebra helpers for the column-stacking (vec) convention.

Throughout the package ``vec`` stacks matrix columns, so entry (m, j) of a
d x d matrix sits at flat index ``j*d + m``.  The d^2 x d^2 covariance of
vec(L) therefore holds the covariance between components L^(m,j) and
L^(n,l) at position (j*d+m, l*d+n).
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "op_norm", "fro_norm", "psd_factor", "OffGrid", "grid_indices", "line_fit",
    "expm_family",
]


class OffGrid(ValueError):
    """A requested time is not a point of the time grid."""


def op_norm(a: np.ndarray) -> float:
    """Operator (spectral) 2-norm."""
    return float(np.linalg.norm(a, 2))


def fro_norm(a: np.ndarray) -> float:
    """Frobenius norm, i.e. the Euclidean norm of vec(a)."""
    return float(np.linalg.norm(a))


def psd_factor(sigma: np.ndarray) -> np.ndarray:
    """A factor A with A @ A.T = sigma for symmetric PSD sigma.

    Uses a symmetric eigendecomposition with negative eigenvalues clipped at
    zero, so rank-deficient covariances (common here: pure-drift and
    trace-constrained Gaussian parts) are handled exactly.
    """
    w, v = np.linalg.eigh(np.asarray(sigma, dtype=float))
    w = np.clip(w, 0.0, None)
    return v * np.sqrt(w)


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


def expm_family(a: np.ndarray, inverse: bool = False):
    """r -> the (m, d, d) stack of expm(r_i * a) for m scalars 0 <= r_i <= 1;
    with ``inverse``, r -> the pair (expm(r_i * a), expm(-r_i * a)).

    Each call is one vectorized pass (scipy's ``expm`` loops over a stack in
    Python): the degree-16 Taylor polynomial of r_i * a / 2^q, with q the
    least integer giving ||a||_1 / 2^q <= 1/2 (truncation error below
    1e-19), squared q times.  The scaled powers of ``a`` (and of -a) are
    computed once, and a pair shares one table of the powers r_i^k, so each
    of its stacks is bit for bit the stack of a family of a or of -a alone.
    The domain is r in [0, 1], the range the scaling q is chosen for; for
    expm(-r_i * a) take the pair (or a family of -a) rather than passing
    negative r (a negative base makes the powers r ** k far slower).
    """
    q = max(0, int(np.ceil(np.log2(2.0 * np.linalg.norm(a, 1) + 1e-300))))
    terms = [np.stack([np.linalg.matrix_power(b / 2.0 ** q, k).ravel() / math.factorial(k)
                       for k in range(17)]) for b in ((a, -a) if inverse else (a,))]

    def at(r):
        r = np.asarray(r, dtype=float)
        powers = r[:, None] ** np.arange(17)
        out = []
        for t in terms:
            e = (powers @ t).reshape(len(r), *a.shape)
            for _ in range(q):
                e = e @ e
            out.append(e)
        return tuple(out) if inverse else out[0]
    return at
