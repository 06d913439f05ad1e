"""Limit-theorem estimators and diagnostics for the exponential.

Covers the almost-sure growth rate of log F(X_t), its central limit behavior,
the moment function Lambda(s) = lim n^{-1} log E||X_n||^s with its first two
derivatives at 0, Berry-Esseen-type convergence rates, and the pathwise
M-statistics bound |log ||y X_t|| | <= log M(X_t).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from . import _engine
from ._engine import DegenerateNorm
from .levy_model import MatrixLevyTriplet
from .path_sampler import ExpPath
from .projective import EmpiricalMeasure, HolderFn, _eval_lines

__all__ = [
    "FunctionalSpec", "CltReport", "MomentFunctionReport", "BerryEsseenReport",
    "DegenerateNorm", "RequiresInvariantMeasure",
    "lyapunov_estimate", "clt_diagnostic", "lambda_moment_function",
    "berry_esseen_curve", "m_statistics",
]


class RequiresInvariantMeasure(ValueError):
    """The joint Berry-Esseen statistic needs an invariant-measure estimate."""


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("zero vector is not a direction")
    return v / n


@dataclass(frozen=True, eq=False)
class FunctionalSpec:
    """Which scalar functional of X_t a limit theorem refers to.

    Kinds: ``op_norm`` F(a) = ||a||; ``vector_norm`` F(a) = ||y a||;
    ``entry`` F(a) = |a_{ij}| (0-based); ``abs_inner`` F(a) = |<y a, z>|.
    """

    kind: str
    y: np.ndarray | None = None
    z: np.ndarray | None = None
    i: int | None = None
    j: int | None = None

    @classmethod
    def op_norm(cls) -> "FunctionalSpec":
        return cls(kind="op_norm")

    @classmethod
    def vector_norm(cls, y) -> "FunctionalSpec":
        return cls(kind="vector_norm", y=_unit(y))

    @classmethod
    def entry(cls, i: int, j: int) -> "FunctionalSpec":
        if i < 0 or j < 0:
            raise ValueError("entry indices must be nonnegative")
        return cls(kind="entry", i=int(i), j=int(j))

    @classmethod
    def abs_inner(cls, y, z) -> "FunctionalSpec":
        return cls(kind="abs_inner", y=_unit(y), z=_unit(z))

    def vectors(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        """The (y, z) pair realizing F(a) = |<y a, z>| for the inner kinds."""
        if self.kind == "entry":
            if self.i >= d or self.j >= d:
                raise ValueError(f"entry ({self.i},{self.j}) out of range for d={d}")
            y = np.zeros(d); y[self.i] = 1.0
            z = np.zeros(d); z[self.j] = 1.0
            return y, z
        if self.kind == "abs_inner":
            return self.y, self.z
        raise ValueError(f"kind {self.kind!r} has no (y, z) form")


@dataclass(frozen=True)
class CltReport:
    """Estimated (lambda, sigma^2) with a KS normality check of the
    standardized samples of log F(X_T).

    ``sigma2_se`` is the Monte Carlo standard error only; it leaves out the
    O(dt) bias of the engine's product scheme (sigma^2 of log ||y X_t|| on
    standard_brownian(2) is 1.0589 at dt = 0.05 and 1.1229 at dt = 0.1, not 1).
    """

    lambda_hat: float
    lambda_se: float
    sigma2_hat: float
    sigma2_se: float
    ks_stat: float
    ks_p: float
    n_paths: int
    T: float
    degenerate: bool


@dataclass(frozen=True)
class MomentFunctionReport:
    """Lambda(s) on a grid with delta-method SEs and central-difference
    derivatives at 0 (lambda = deriv1, sigma^2 = deriv2)."""

    s_grid: np.ndarray
    values: np.ndarray
    ses: np.ndarray
    deriv1: float
    deriv2: float
    fd_step: float
    n: float
    n_paths: int


@dataclass(frozen=True)
class BerryEsseenReport:
    """Normal-approximation sup-distance per horizon plus a log-log fit."""

    rows: tuple[tuple[float, float, int], ...]
    slope: float
    intercept: float
    lambda_hat: float
    sigma_hat: float


def _terminal_log_samples(triplet, F: FunctionalSpec, ts, n_paths, seed, dt):
    """log F(X_t) samples at each requested time, one engine pass.

    Returns (times, samples (k, n_paths), dirs) where dirs is the (k, n_paths,
    d) array of directions of y @ X_t for the vector kinds, else None.
    """
    ts = np.asarray(ts, dtype=float)
    if F.kind == "op_norm":
        _, states, logs = _engine.evolve_matrices(
            triplet, float(ts.max()), n_paths, seed, ts, dt=dt)
    else:
        y, z = (F.y, None) if F.kind == "vector_norm" else F.vectors(triplet.d)
        _, states, logs = _engine.evolve_vectors(
            triplet, y, float(ts.max()), n_paths, seed, ts, dt=dt)
        states, logs = states[:, :, 0, :], logs[:, :, 0]
    if F.kind == "op_norm":
        return ts, logs + np.log(np.linalg.svd(states, compute_uv=False)[..., 0]), None
    if F.kind == "vector_norm":
        return ts, logs, states
    overlap = np.abs(np.einsum("knd,d->kn", states, z))
    return ts, logs + np.log(np.maximum(overlap, 1e-300)), states


def lyapunov_estimate(triplet: MatrixLevyTriplet, F: FunctionalSpec, T: float,
                      n_paths: int, seed, dt: float = 0.05):
    """(lambda_hat, se): Monte Carlo mean of T^{-1} log F(X_T)."""
    if F.kind not in ("op_norm", "vector_norm"):
        raise ValueError("growth-rate estimation needs an op_norm or vector_norm functional")
    _, samples, _ = _terminal_log_samples(triplet, F, [T], n_paths, seed, dt)
    s = samples[0]
    lam = float(s.mean() / T)
    se = float(s.std(ddof=1) / (T * np.sqrt(n_paths)))
    return lam, se


def clt_diagnostic(triplet: MatrixLevyTriplet, F: FunctionalSpec, T: float,
                   n_paths: int, seed, dt: float = 0.05) -> CltReport:
    """Standardize log F(X_T) by estimated (lambda, sigma) and KS-test
    against the standard normal.

    When the sample variance is below 1e-10 * T the statistic carries no
    usable fluctuation (bounded-group situations); the report then sets
    degenerate=True with the convention ks_stat = 1.0, ks_p = 0.0.
    ``sigma2_se`` is the Monte Carlo standard error of sigma2_hat alone: it
    does not cover the scheme's O(dt) bias in sigma^2 (see :class:`CltReport`).
    """
    _, samples, _ = _terminal_log_samples(triplet, F, [T], n_paths, seed, dt)
    s = samples[0]
    var = float(s.var(ddof=1))
    lam = float(s.mean() / T)
    lam_se = float(s.std(ddof=1) / (T * np.sqrt(n_paths)))
    sigma2 = var / T
    sigma2_se = sigma2 * float(np.sqrt(2.0 / (n_paths - 1)))
    if var < 1e-10 * T:
        return CltReport(lambda_hat=lam, lambda_se=lam_se, sigma2_hat=sigma2,
                         sigma2_se=sigma2_se, ks_stat=1.0, ks_p=0.0,
                         n_paths=n_paths, T=float(T), degenerate=True)
    u = (s - s.mean()) / s.std(ddof=1)
    ks = stats.kstest(u, "norm")
    return CltReport(lambda_hat=lam, lambda_se=lam_se, sigma2_hat=sigma2,
                     sigma2_se=sigma2_se, ks_stat=float(ks.statistic),
                     ks_p=float(ks.pvalue), n_paths=n_paths, T=float(T),
                     degenerate=False)


def lambda_moment_function(triplet: MatrixLevyTriplet, s_grid, n: float,
                           n_paths: int, seed, dt: float = 0.05) -> MomentFunctionReport:
    """Lambda_hat(s) = n^{-1} log mean ||X_n||^s on a grid of exponents.

    All exponents reuse the same log-norm samples, so empirical midpoint
    convexity holds exactly (Cauchy-Schwarz on the sample measure).
    Derivatives at 0 come from central differences at 0.1 * max|s|.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    ell = _terminal_log_samples(triplet, FunctionalSpec.op_norm(), [float(n)],
                                n_paths, seed, dt)[1][0]

    def lam_and_se(s: float) -> tuple[float, float]:
        w = np.exp(s * ell)
        m = float(w.mean())
        lam = float(np.log(m) / n)
        se = float(w.std(ddof=1) / (np.sqrt(n_paths) * m * n))
        return lam, se

    values = np.empty(len(s_grid))
    ses = np.empty(len(s_grid))
    for k, s in enumerate(s_grid):
        values[k], ses[k] = lam_and_se(float(s))

    h = 0.1 * float(np.max(np.abs(s_grid))) if np.any(s_grid != 0) else 0.1
    lp, _ = lam_and_se(h)
    lm, _ = lam_and_se(-h)
    deriv1 = (lp - lm) / (2.0 * h)
    deriv2 = (lp + lm) / (h * h)  # Lambda(0) = 0 exactly
    return MomentFunctionReport(s_grid=s_grid, values=values, ses=ses,
                                deriv1=float(deriv1), deriv2=float(deriv2),
                                fd_step=h, n=float(n), n_paths=n_paths)


def berry_esseen_curve(triplet: MatrixLevyTriplet, F: FunctionalSpec, t_grid,
                       n_paths: int, phi: HolderFn | None = None,
                       z_grid=None, seed=None,
                       measure: EmpiricalMeasure | None = None,
                       dt: float = 0.05) -> BerryEsseenReport:
    """Sup-distance to the normal limit per horizon, with a log-log slope fit.

    Without phi: sup_z |P((log||yX_t|| - t lambda)/(sigma sqrt(t)) <= z) - Phi(z)|.
    With phi:    sup_z |E[phi(Z_t) 1{... <= z}] - pi(phi) Phi(z)|, pi(phi)
    integrated against ``measure``.  (lambda, sigma) are estimated from the
    largest-horizon samples.
    """
    if F.kind != "vector_norm":
        raise ValueError("the joint statistic is defined for vector_norm functionals")
    if phi is not None and measure is None:
        raise RequiresInvariantMeasure(
            "phi given: supply measure=estimate_invariant_measure(...)")
    t_grid = np.sort(np.asarray(t_grid, dtype=float))
    if z_grid is None:
        z_grid = np.linspace(-3.0, 3.0, 121)
    z_grid = np.asarray(z_grid, dtype=float)

    ts, samples, dirs = _terminal_log_samples(triplet, F, t_grid, n_paths, seed, dt)
    ell_last = samples[-1]
    lam = float(ell_last.mean() / ts[-1])
    sigma = float(ell_last.std(ddof=1) / np.sqrt(ts[-1]))
    if sigma < 1e-12:
        raise DegenerateNorm("no fluctuation in log ||y X_t||; sigma estimate vanished")
    pi_phi = measure.integrate(phi.eval) if phi is not None else None

    phi_cdf = stats.norm.cdf(z_grid)
    rows = []
    for k, t in enumerate(ts):
        u = (samples[k] - t * lam) / (sigma * np.sqrt(t))
        order = np.argsort(u)
        u_sorted = u[order]
        pos = np.searchsorted(u_sorted, z_grid, side="right")
        if phi is None:
            emp = pos / n_paths
            dist = float(np.max(np.abs(emp - phi_cdf)))
        else:
            phi_vals = _eval_lines(phi.eval, dirs[k].T)
            csum = np.concatenate([[0.0], np.cumsum(phi_vals[order])]) / n_paths
            dist = float(np.max(np.abs(csum[pos] - pi_phi * phi_cdf)))
        rows.append((float(t), dist, n_paths))

    log_d = np.log(np.maximum([r[1] for r in rows], 1e-12))
    if len(rows) >= 2:
        slope, intercept = np.polyfit(np.log(ts), log_d, 1)
    else:
        # a one-point curve has no decay rate
        slope, intercept = np.nan, np.nan
    return BerryEsseenReport(rows=tuple(rows), slope=float(slope),
                             intercept=float(intercept), lambda_hat=lam,
                             sigma_hat=sigma)


def m_statistics(exp_path: ExpPath, probes):
    """M(X_t) = max(||X_t||, ||X_t^{-1}||) per grid point, and the count of
    probe violations of |log ||y X_t|| | <= log M(X_t) (expected 0)."""
    X = exp_path.X
    sv_x = np.linalg.svd(X, compute_uv=False)[:, 0]
    sv_xi = np.linalg.svd(exp_path.Xinv, compute_uv=False)[:, 0]
    m_series = np.maximum(sv_x, sv_xi)

    ys = np.asarray(probes, dtype=float).reshape(-1, X.shape[1])
    scale = np.linalg.norm(ys, axis=1, keepdims=True)
    if np.any(scale == 0.0):
        raise ValueError("zero vector is not a direction")
    norms = np.linalg.norm(np.einsum("pi,tij->ptj", ys / scale, X), axis=2)
    if np.any(norms == 0.0):
        raise DegenerateNorm("||y X_t|| vanished on the path")
    return m_series, int(np.sum(np.abs(np.log(norms)) > np.log(m_series) + 1e-9))
