"""The log-determinant of the stochastic exponential, in closed form.

D_t = det(X_t) is a scalar stochastic exponential whose logarithm is the
additive process

    log|D_t| = trace(continuous part of L_t) - (s2/2) t
               + sum_{jumps s <= t} log|det(I + dL_s)|,

with s2 = sum_{m,n} sigma_{(m,n),(n,m)}.  All jump integrals reduce to exact
atom sums for finite-activity specifications.  Long-horizon statistics track
log|D| (never D itself) to avoid overflow; the sign is carried separately.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .levy_model import MatrixLevyTriplet, refuse_singular_atoms
from .path_sampler import LevyPath

__all__ = [
    "CheckTriplet", "check_characteristics", "det_closed_form",
    "det_log_series", "det_growth_mean", "det_clt_params", "sl_membership",
]


@dataclass(frozen=True)
class CheckTriplet:
    """Characteristic triplet of the scalar process log|D_t|.

    nu_D lists (rate_i, log|det(I + a_i)|) with zero values dropped;
    mean is E[log|D_1|] (always defined for finite activity).
    """

    sigma_D: float
    gamma_D: float
    nu_D: tuple[tuple[float, float], ...]
    mean: float


def _sigma_d(triplet: MatrixLevyTriplet) -> float:
    """sum_{m,n} sigma_{(m,m),(n,n)} — variance rate of the Brownian trace."""
    m, n = np.ogrid[:triplet.d, :triplet.d]
    return float(triplet.entry_covariance[m, m, n, n].sum())


def _s2(triplet: MatrixLevyTriplet) -> float:
    """sum_{m,n} sigma_{(m,n),(n,m)} — the Ito correction in log det."""
    m, n = np.ogrid[:triplet.d, :triplet.d]
    return float(triplet.entry_covariance[m, n, n, m].sum())


def check_characteristics(triplet: MatrixLevyTriplet) -> CheckTriplet:
    """Characteristic triplet and mean of log|D| from the driving triplet."""
    refuse_singular_atoms(triplet)
    r = triplet.rates
    v = np.linalg.slogdet(np.eye(triplet.d) + triplet.marks)[1]
    base = float(np.trace(triplet.drift())) - 0.5 * _s2(triplet)
    gamma_d = base + float(r @ (v * (np.abs(v) <= 1.0)))
    mean = base + float(r @ v)
    nu = tuple((float(ri), float(vi)) for ri, vi in zip(r, v) if vi != 0.0)
    return CheckTriplet(sigma_D=_sigma_d(triplet), gamma_D=gamma_d, nu_D=nu,
                        mean=mean)


def det_log_series(path: LevyPath, triplet: MatrixLevyTriplet):
    """(t, log|D_t|, sign(D_t)) at every grid point of the path."""
    d = path.d
    s2 = _s2(triplet)
    n = len(path.grid)
    tr = np.zeros(n)
    tr[1:] = np.cumsum(np.trace(path.increments, axis1=1, axis2=2))
    logabs = tr - 0.5 * s2 * path.grid
    sign = np.ones(n)
    # added jump by jump, not by a cumsum, which would reassociate the sums
    signs, logdets = np.linalg.slogdet(np.eye(d) + path.marks)
    for k, s, la in zip(path.jump_index.tolist(), signs.tolist(), logdets.tolist()):
        logabs[k:] += la
        sign[k:] *= s
    return path.grid.copy(), logabs, sign


def det_closed_form(path: LevyPath, triplet: MatrixLevyTriplet) -> np.ndarray:
    """Sequence of (t, D_t) rows along the path, by the explicit formula."""
    t, logabs, sign = det_log_series(path, triplet)
    return np.column_stack([t, sign * np.exp(logabs)])


def det_growth_mean(triplet: MatrixLevyTriplet) -> float:
    """lim t^{-1} log|D_t| = E[log|D_1|]."""
    return float(check_characteristics(triplet).mean)


def det_clt_params(triplet: MatrixLevyTriplet, T: float):
    """Centering and scale normalizing log|D_T|, plus applicability.

    With finitely many atoms the tail function T1 vanishes beyond the largest
    |log det| value, so the Gaussian-regime normalization applies whenever
    sigma_D > 0: centering = T*(gamma_D + T2(1) + int_1^inf T2), scale =
    sqrt(sigma_D * T).
    """
    ct = check_characteristics(triplet)
    t2_at_1 = 0.0
    t2_tail = 0.0
    for r, v in ct.nu_D:
        s = np.sign(v)
        t2_at_1 += r * s * (abs(v) > 1.0)
        t2_tail += r * s * max(abs(v) - 1.0, 0.0)
    centering = T * (ct.gamma_D + t2_at_1 + t2_tail)
    applicable = ct.sigma_D > 0.0
    scale = float(np.sqrt(ct.sigma_D * T)) if applicable else 0.0
    return float(centering), scale, applicable


def sl_membership(triplet: MatrixLevyTriplet):
    """Does X stay in SL(d)?  Three conditions, each reported on failure:

    - "brownian-trace": the Brownian trace variance rate sigma_D must vanish;
    - "drift-trace":    2 trace(gamma^0) must equal s2;
    - "jump-det":       every atom needs det(I + a) = 1.
    """
    d = triplet.d
    failed = []
    if _sigma_d(triplet) > 1e-12:
        failed.append("brownian-trace")
    s2 = _s2(triplet)
    drift_trace = 2.0 * float(np.trace(triplet.drift()))
    if abs(drift_trace - s2) > 1e-12 * max(1.0, abs(s2), abs(drift_trace)):
        failed.append("drift-trace")
    if np.any(np.abs(np.linalg.det(np.eye(d) + triplet.marks) - 1.0) > 1e-12):
        failed.append("jump-det")
    return (not failed), failed
