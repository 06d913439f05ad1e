"""Limit-theorem estimators and diagnostics for the exponential.

Covers the almost-sure growth rate of log F(X_t), its central limit behavior,
the moment function Lambda(s) = lim n^{-1} log E||X_n||^s with its first two
derivatives at 0, Berry-Esseen-type convergence rates, and the pathwise
M-statistics bound |log ||y X_t|| | <= log M(X_t).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _engine
from ._engine import DegenerateNorm, need_two_paths
from ._linalg import line_fit, unit_vectors
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


@dataclass(frozen=True, eq=False)
class FunctionalSpec:
    """Which scalar functional of X_t a limit theorem refers to.

    Kinds: ``op_norm`` F(a) = ||a||; ``vector_norm`` F(a) = ||y a||;
    ``entry`` F(a) = |a_{ij}| (0-based); ``abs_inner`` F(a) = |<y a, z>|.
    y and z are stored as unit vectors (``_linalg.unit_vectors``).
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
        return cls(kind="vector_norm", y=unit_vectors(y)[0])

    @classmethod
    def entry(cls, i: int, j: int) -> "FunctionalSpec":
        if i < 0 or j < 0:
            raise ValueError("entry indices must be nonnegative")
        return cls(kind="entry", i=int(i), j=int(j))

    @classmethod
    def abs_inner(cls, y, z) -> "FunctionalSpec":
        return cls(kind="abs_inner", y=unit_vectors(y)[0], z=unit_vectors(z)[0])

    def vectors(self, d: int) -> tuple[np.ndarray, np.ndarray | None]:
        """The (y, z) pair with F(a) = |<y a, z>|, or F(a) = ||y a|| where z
        is None (``vector_norm``).  A y or z whose length is not d, an entry
        index out of range, or ``op_norm`` raise ValueError."""
        if self.kind == "entry":
            if self.i >= d or self.j >= d:
                raise ValueError(f"entry ({self.i},{self.j}) out of range for d={d}")
            return np.eye(d)[self.i], np.eye(d)[self.j]
        if self.kind not in ("vector_norm", "abs_inner"):
            raise ValueError(f"kind {self.kind!r} has no (y, z) form")
        bad = [len(v) for v in (self.y, self.z) if v is not None and len(v) != d]
        if bad:
            raise ValueError(f"{self.kind} vector of length {bad[0]} does not fit d={d}")
        return self.y, self.z


@dataclass(frozen=True)
class CltReport:
    """Estimated (lambda, sigma^2) with a KS normality check of the
    standardized samples of log F(X_T).  The field order is the CLI's CSV
    column order.

    ``degenerate`` is the one degeneracy rule of the limit estimators: the
    sample variance of log F(X_T) is below 1e-10 * T, so the statistic
    carries no usable fluctuation (bounded-group situations).  The report
    then has ks_stat = 1.0 and ks_p = 0.0, and ``berry_esseen_curve`` raises
    DegenerateNorm on the same samples.

    ``sigma2_se`` is the Monte Carlo standard error only; it leaves out the
    O(dt) bias of the engine's product scheme (sigma^2 of log ||y X_t|| on
    standard_brownian(2) is 1.0589 at the default dt = 0.05,
    ``_engine.DEFAULT_DT``, and 1.1229 at dt = 0.1, not 1).
    """

    lambda_hat: float
    lambda_se: float
    sigma2_hat: float
    sigma2_se: float
    ks_stat: float
    ks_p: float
    degenerate: bool
    T: float
    n_paths: int


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
    """log F(X_t) samples (k, n_paths) at each of the k requested times, from
    one engine pass, and the (k, n_paths, d) directions of y X_t for the
    vector kinds (None for ``op_norm``).  An overlap |<y X_t, z>| that is 0
    or not finite has no logarithm and raises DegenerateNorm."""
    ts = np.asarray(ts, dtype=float)
    if F.kind == "op_norm":
        _, states, logs = _engine.evolve_matrices(
            triplet, float(ts.max()), n_paths, seed, ts, dt=dt)
        return logs + np.log(np.linalg.svd(states, compute_uv=False)[..., 0]), None
    y, z = F.vectors(triplet.d)
    _, states, logs = _engine.evolve_vectors(
        triplet, y, float(ts.max()), n_paths, seed, ts, dt=dt)
    dirs, logs = states[:, :, 0, :], logs[:, :, 0]
    if z is None:
        return logs, dirs
    overlap = np.abs(np.einsum("knd,d->kn", dirs, z))
    if not np.all(np.isfinite(overlap) & (overlap > 0.0)):
        raise DegenerateNorm("|<y X_t, z>| is 0 or not finite on some path")
    return logs + np.log(overlap), dirs


def _growth(samples: np.ndarray, T: float):
    """(lambda_hat, lambda_se, sigma2_hat, sigma2_se, sigma_hat, flat) of n
    samples of log F(X_T): lambda_hat and sigma2_hat are their mean and
    variance over T, each with its Monte Carlo standard error, and sigma_hat
    = sqrt(sigma2_hat).  ``flat`` is the degeneracy rule of every limit
    estimator: a sample variance below 1e-10 * T.  Fewer than two samples
    raise ValueError."""
    n = len(samples)
    need_two_paths(n)
    var = float(samples.var(ddof=1))
    sd = np.sqrt(var)
    sigma2 = var / T
    return (float(samples.mean() / T), float(sd / (T * np.sqrt(n))),
            sigma2, sigma2 * float(np.sqrt(2.0 / (n - 1))),
            float(sd / np.sqrt(T)), bool(var < 1e-10 * T))


def lyapunov_estimate(triplet: MatrixLevyTriplet, F: FunctionalSpec, T: float,
                      n_paths: int, seed, dt: float = _engine.DEFAULT_DT):
    """(lambda_hat, se): Monte Carlo mean of T^{-1} log F(X_T)."""
    if F.kind not in ("op_norm", "vector_norm"):
        raise ValueError("growth-rate estimation needs an op_norm or vector_norm functional")
    samples, _ = _terminal_log_samples(triplet, F, [T], n_paths, seed, dt)
    return _growth(samples[0], T)[:2]


def clt_diagnostic(triplet: MatrixLevyTriplet, F: FunctionalSpec, T: float,
                   n_paths: int, seed, dt: float = _engine.DEFAULT_DT) -> CltReport:
    """KS-test log F(X_T) against the normal law N(T lambda_hat, T sigma2_hat).

    Degeneracy (ks_stat = 1.0, ks_p = 0.0) and the scope of ``sigma2_se``
    are as :class:`CltReport` states.
    """
    from scipy import stats  # here only, so that importing levyflow skips scipy.stats

    samples, _ = _terminal_log_samples(triplet, F, [T], n_paths, seed, dt)
    lam, lam_se, sigma2, sigma2_se, sigma, flat = _growth(samples[0], T)
    ks_stat, ks_p = 1.0, 0.0
    if not flat:
        ks = stats.kstest(samples[0], "norm", args=(T * lam, sigma * np.sqrt(T)))
        ks_stat, ks_p = float(ks.statistic), float(ks.pvalue)
    return CltReport(lambda_hat=lam, lambda_se=lam_se, sigma2_hat=sigma2,
                     sigma2_se=sigma2_se, ks_stat=ks_stat, ks_p=ks_p,
                     degenerate=flat, T=float(T), n_paths=n_paths)


def lambda_moment_function(triplet: MatrixLevyTriplet, s_grid, n: float, n_paths: int,
                           seed, dt: float = _engine.DEFAULT_DT) -> MomentFunctionReport:
    """Lambda_hat(s) = n^{-1} log mean ||X_n||^s on a grid of exponents.

    All exponents reuse the same log-norm samples, so empirical midpoint
    convexity holds exactly (Cauchy-Schwarz on the sample measure).
    Derivatives at 0 come from central differences at h = 0.1 * max|s|.
    Means of ||X_n||^s are taken in log space (logsumexp, and SEs from weights
    scaled by their largest), so no exponent overflows.  Fewer than two
    paths raise ValueError.
    """
    from scipy.special import logsumexp  # here only, so that importing levyflow skips scipy
    need_two_paths(n_paths)
    s_grid = np.asarray(s_grid, dtype=float)
    ell = _terminal_log_samples(triplet, FunctionalSpec.op_norm(), [float(n)],
                                n_paths, seed, dt)[0][0]
    h = 0.1 * float(np.max(np.abs(s_grid))) if np.any(s_grid != 0) else 0.1
    log_w = np.concatenate([s_grid, [h, -h]])[:, None] * ell
    lam = (logsumexp(log_w, axis=1) - np.log(n_paths)) / n
    w = np.exp(log_w - log_w.max(axis=1, keepdims=True))
    ses = w.std(axis=1, ddof=1) / (np.sqrt(n_paths) * w.mean(axis=1) * n)
    lp, lm = lam[-2:]
    deriv1 = (lp - lm) / (2.0 * h)
    deriv2 = (lp + lm) / (h * h)  # Lambda(0) = 0 exactly
    return MomentFunctionReport(s_grid=s_grid, values=lam[:-2], ses=ses[:-2],
                                deriv1=float(deriv1), deriv2=float(deriv2),
                                fd_step=h, n=float(n), n_paths=n_paths)


def berry_esseen_curve(triplet: MatrixLevyTriplet, F: FunctionalSpec, t_grid,
                       n_paths: int, phi: HolderFn | None = None,
                       z_grid=None, seed=None,
                       measure: EmpiricalMeasure | None = None,
                       dt: float = _engine.DEFAULT_DT) -> BerryEsseenReport:
    """Sup-distance to the normal limit per horizon, with a log-log slope fit.

    Without phi: sup_z |P((log||yX_t|| - t lambda)/(sigma sqrt(t)) <= z) - Phi(z)|.
    With phi:    sup_z |E[phi(Z_t) 1{... <= z}] - pi(phi) Phi(z)|, pi(phi)
    integrated against ``measure``.  (lambda, sigma) are estimated from the
    largest-horizon samples; where ``clt_diagnostic`` would report them
    ``degenerate`` (variance below 1e-10 * t) this raises DegenerateNorm.
    Slope and intercept are NaN with fewer than two distinct horizons.
    """
    from scipy.special import ndtr  # here only, so that importing levyflow skips scipy
    if F.kind != "vector_norm":
        raise ValueError("the joint statistic is defined for vector_norm functionals")
    if phi is not None and measure is None:
        raise RequiresInvariantMeasure(
            "phi given: supply measure=estimate_invariant_measure(...)")
    t_grid = np.sort(np.asarray(t_grid, dtype=float))
    if z_grid is None:
        z_grid = np.linspace(-3.0, 3.0, 121)
    z_grid = np.asarray(z_grid, dtype=float)

    samples, dirs = _terminal_log_samples(triplet, F, t_grid, n_paths, seed, dt)
    lam, _, _, _, sigma, flat = _growth(samples[-1], t_grid[-1])
    if flat:
        raise DegenerateNorm("no fluctuation in log ||y X_t||: variance below 1e-10 t")
    pi_phi = measure.integrate(phi.eval) if phi is not None else None

    phi_cdf = ndtr(z_grid)
    rows = []
    for k, t in enumerate(t_grid):
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
    slope, intercept, _ = line_fit(np.log(t_grid), log_d)
    return BerryEsseenReport(rows=tuple(rows), slope=slope, intercept=intercept,
                             lambda_hat=lam, sigma_hat=sigma)


def m_statistics(exp_path: ExpPath, probes):
    """M(X_t) = max(||X_t||, ||X_t^{-1}||) per grid point, and the count of
    violations of |log ||y X_t|| | <= log M(X_t) (expected 0) by probe directions y."""
    X = exp_path.X
    sv_x = np.linalg.svd(X, compute_uv=False)[:, 0]
    sv_xi = np.linalg.svd(exp_path.Xinv, compute_uv=False)[:, 0]
    m_series = np.maximum(sv_x, sv_xi)

    ys = unit_vectors(np.asarray(probes, dtype=float).reshape(-1, X.shape[1]))[0]
    norms = np.linalg.norm(np.einsum("pi,tij->ptj", ys, X), axis=2)
    if np.any(norms == 0.0):
        raise DegenerateNorm("||y X_t|| vanished on the path")
    return m_series, int(np.sum(np.abs(np.log(norms)) > np.log(m_series) + 1e-9))
