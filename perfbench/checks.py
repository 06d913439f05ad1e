"""Output checks against closed forms and properties the method must have.

Every expected value here is computed by the benchmark itself, from the model
definitions (drift, covariance, jump atoms), never from levyflow.  Each check
returns a list of failure messages; an empty list means the output passed.

Monte Carlo tolerances are ``Z`` standard errors, with standard errors from
closed forms or from bounds on the sampled quantity, plus a discretization
allowance ``C * dt`` where the scheme is first order.  The constants are
derived in ``calibrate.py`` and explained in README.md.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import stats
from scipy.linalg import expm

Z = 5.0                 # Monte Carlo standard errors allowed
KS_P_MIN = 1e-6         # smallest KS p-value accepted
U = float(np.finfo(float).eps)

# Discretization allowances |bias| <= C * dt of the engine's product scheme,
# valid for dt <= 0.1 (quadrature of one scheme step; see calibrate.py).
SB2_C_LAMBDA = 0.06     # lambda of log||y X_t|| on standard_brownian(2)
SB2_C_SIGMA2 = 1.25     # sigma^2 of log||y X_t|| on standard_brownian(2)
GBM_C_LAMBDA = 0.002    # lambda of log|X_t| on gbm1(0.1, 0.2)
GBM_C_SIGMA2 = 0.005    # sigma^2 of log|X_t| on gbm1(0.1, 0.2)
MIX_C_RATE = 1.1        # decay rate 2 of sup_diff becomes 2 (1 + c dt)
GEN_C_H = 2.0           # generator difference quotient bias per unit h
GEN_SD_BOUND = 2.0      # bound on the sd of (f(X_h) - f(I)) / h for the bump (1.44 measured)

# Model definitions used by the closed forms (levyflow's builtin catalog).
ROT_DRIFT = np.array([[0.0, -1.0], [1.0, 0.0]])     # rotation_rank1 drift
ROT_ATOM = np.array([[1.0, 0.0], [0.0, 0.0]])       # its single atom, rate 1
IP_EXPECTED = {                                       # acceptance criterion 13
    "standard_brownian(2)": "certified",
    "rotation_rank1": "certified",
    "irrational_rotation(1.0)": "certified",
    "diagonal_reducible": "falsified_irreducibility",
}


def _within(label: str, value, target: float, tol: float) -> list[str]:
    value = float(value)
    if abs(value - target) <= tol:      # False for NaN
        return []
    return [f"{label} = {value:.6g}, expected {target:.6g} +- {tol:.3g}"]


def _rotation(theta) -> np.ndarray:
    """(n, 2, 2) rotation matrices, the exponential of theta * ROT_DRIFT."""
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)


def jump_rows(t: np.ndarray, T: float, dt: float) -> np.ndarray:
    """True where a path grid time is not a point of the uniform partition,
    i.e. where the sampler merged a jump time into the grid."""
    h = T / round(T / dt)
    return np.abs(t / h - np.round(t / h)) > 1e-9


def exp_moments(drift, sigma, rate: float, atoms, t: float):
    """Mean and entrywise variance of X_t for dX = X dL in closed form.

    E[X_t] = expm(t E[L_1]) and E[X_t (x) X_t] = expm(t G2) with
    G2 = D(x)I + I(x)D + S + rate * sum_i p_i ((I+a_i)(x)(I+a_i) - I), where
    S[m*d+n, j*d+l] = Cov(B_mj, B_nl) per unit time (sigma in vec order).
    """
    drift = np.asarray(drift, dtype=float)
    d = drift.shape[0]
    eye, eye2 = np.eye(d), np.eye(d * d)
    sigma = np.asarray(sigma, dtype=float)
    m1 = drift + rate * sum(p * a for p, a in atoms)
    S = np.empty((d * d, d * d))
    for m in range(d):
        for n in range(d):
            for j in range(d):
                for l in range(d):
                    S[m * d + n, j * d + l] = sigma[j * d + m, l * d + n]
    g2 = np.kron(drift, eye) + np.kron(eye, drift) + S
    g2 += rate * sum(p * (np.kron(eye + a, eye + a) - eye2) for p, a in atoms)
    mean = expm(t * m1)
    second = expm(t * g2)
    idx = np.arange(d)
    e2 = second[np.ix_(idx * d + idx, idx * d + idx)]
    return mean, np.maximum(e2 - mean ** 2, 0.0)


# -- gaussian_limits ------------------------------------------------------------

def check_lyapunov(summary, lam: float, sigma2: float, T: float, n_paths: int,
                   dt: float, c_lambda: float, c_sigma2: float) -> list[str]:
    """lambda_hat = mean(log F(X_T)) / T against the exact growth rate."""
    sd = math.sqrt(sigma2 + c_sigma2 * dt)
    return _within("lambda_hat", summary["lambda_hat"], lam,
                   Z * sd / math.sqrt(n_paths * T) + c_lambda * dt)


def check_clt(summary, lam: float, sigma2: float, T: float, n_paths: int,
              dt: float, c_lambda: float, c_sigma2: float) -> list[str]:
    """lambda_hat, sigma2_hat against the exact (lambda, sigma^2); a KS p-value
    that rules out normality fails too."""
    out = check_lyapunov(summary, lam, sigma2, T, n_paths, dt, c_lambda, c_sigma2)
    s2_hi = sigma2 + c_sigma2 * dt
    out += _within("sigma2_hat", summary["sigma2_hat"], sigma2,
                   Z * s2_hi * math.sqrt(2.0 / (n_paths - 1)) + c_sigma2 * dt)
    if summary["degenerate"] or not summary["ks_p"] >= KS_P_MIN:
        out.append(f"normality rejected: ks_p = {summary['ks_p']:.3g}, "
                   f"degenerate = {summary['degenerate']}")
    return out


def check_berry_esseen(summary, rows: np.ndarray, t_grid, n_paths: int,
                       dt: float) -> list[str]:
    """On standard_brownian(2): sigma_hat = 1 and lambda_hat = 0 up to Monte
    Carlo error and the scheme's C*dt; one row per horizon, distances in [0, 1]."""
    t_max = max(t_grid)
    s_hi = math.sqrt(1.0 + SB2_C_SIGMA2 * dt)
    out = _within("sigma_hat", summary["sigma_hat"], 1.0,
                  Z * s_hi / math.sqrt(2.0 * (n_paths - 1)) + (s_hi - 1.0))
    out += _within("lambda_hat", summary["lambda_hat"], 0.0,
                   Z * s_hi / math.sqrt(n_paths * t_max) + SB2_C_LAMBDA * dt)
    rows = np.atleast_2d(rows)
    if not np.array_equal(rows[:, 0], np.sort(np.asarray(t_grid, dtype=float))):
        out.append(f"horizons {rows[:, 0].tolist()} != {sorted(t_grid)}")
    if not np.all((rows[:, 1] >= 0.0) & (rows[:, 1] <= 1.0)):
        out.append("a sup distance lies outside [0, 1]")
    return out


def check_generator(summary, rows: np.ndarray, n_paths: int) -> list[str]:
    """Gaussian bump at I on standard_brownian(2): A f(I) = -2 exactly, and
    the difference quotient at h matches it up to Monte Carlo error (sd of
    (f(X_h) - f(I))/h is below GEN_SD_BOUND) plus a GEN_C_H * h bias."""
    out = _within("generator_value", summary["generator_value"], -2.0, 1e-12)
    for h, q, _se, _z in np.atleast_2d(rows):
        out += _within(f"quotient at h={h:g}", q, -2.0,
                       Z * GEN_SD_BOUND / math.sqrt(n_paths) + GEN_C_H * h)
    return out


# -- jump_paths -----------------------------------------------------------------

def check_determinant(summary, rows: np.ndarray, T: float, dt: float) -> list[str]:
    """rotation_rank1: det X_t = 2^{N_t}, since the drift is a rotation and
    det(I + a) = 2.  N_t counts the jump times merged into the grid.

    The direct determinant det_state must match by relative error within
    16 u k cond(X_t) after k factors; cond(X_t) comes from the benchmark's own
    product of rotations and diag(2, 1) factors.
    """
    t, closed, state = rows[:, 0], rows[:, 1], rows[:, 2]
    jumps = jump_rows(t, T, dt)
    n_t = np.cumsum(jumps)
    out = []
    if t[0] != 0.0 or closed[0] != 1.0 or state[0] != 1.0:
        out.append("first row is not t = 0, det = 1")
    with np.errstate(divide="ignore", invalid="ignore"):
        log2_closed = np.log2(closed)
    bad = ~(np.abs(log2_closed - n_t) <= 1e-9)
    if np.any(bad):
        k = int(np.argmax(bad))
        out.append(f"closed form at t={t[k]:.6g} is {closed[k]:.6g}, "
                   f"expected 2^{n_t[k]}")
    X = np.eye(2)
    conds = np.empty(len(t))
    rot = _rotation(np.diff(t, prepend=0.0))
    jump = np.diag([2.0, 1.0])
    for k in range(len(t)):
        X = X @ rot[k]
        if jumps[k]:
            X = X @ jump
        conds[k] = np.linalg.cond(X)
    tol = 16.0 * U * np.arange(1, len(t) + 1) * conds
    rel = np.abs(state - closed) / np.abs(closed)
    bad = ~(rel <= tol)
    if np.any(bad):
        k = int(np.argmax(bad))
        out.append(f"direct determinant at t={t[k]:.6g} off by relative "
                   f"{rel[k]:.3g} > {tol[k]:.3g} (cond {conds[k]:.3g})")
    out += _within("growth_mean", summary["growth_mean"], math.log(2.0), 1e-12)
    out += _within("sigma_D", summary["sigma_D"], 0.0, 0.0)
    out += _within("jump count N_T", n_t[-1], T, 6.0 * math.sqrt(T))
    if summary["sl_member"]:
        out.append("sl_member is true, but det X_t = 2^{N_t}")
    return out


def check_simulate(summary, rows: np.ndarray, T: float, dt: float) -> list[str]:
    """rotation_rank1, exact product: X_0 = I and every grid step satisfies
    X_k = X_{k-1} R(t_k - t_{k-1}) (I + a)^{jump at t_k} to 1e-12 relative."""
    t = rows[:, 0]
    X = rows[:, 1:].reshape(-1, 2, 2)
    jumps = jump_rows(t, T, dt)
    out = []
    if t[0] != 0.0 or not np.array_equal(X[0], np.eye(2)):
        out.append("first row is not t = 0, X = I")
    step = _rotation(np.diff(t))
    step[jumps[1:]] = step[jumps[1:]] @ (np.eye(2) + ROT_ATOM)
    pred = X[:-1] @ step
    res = (np.linalg.norm(X[1:] - pred, axis=(1, 2))
           / np.linalg.norm(X[1:], axis=(1, 2)))
    bad = ~(res <= 1e-12)
    if np.any(bad):
        k = int(np.argmax(bad)) + 1
        out.append(f"step to t={t[k]:.6g} has relative residual {res[k - 1]:.3g}")
    if summary["n_grid"] != len(t):
        out.append(f"n_grid {summary['n_grid']} != {len(t)} rows")
    out += _within("jump count N_T", jumps.sum(), T, 6.0 * math.sqrt(T))
    return out


def check_mean(rows: np.ndarray, moments, n_paths: int) -> list[str]:
    """mean_check rows (i, j, mc_mean, target, z) against the closed-form
    mean expm(t E[L_1]), within Z closed-form standard errors; ``moments`` is
    exp_moments(...) at the scenario's t."""
    mean, var = moments
    out = []
    for i, j, mc, target, _z in np.atleast_2d(rows):
        a, b = int(i) - 1, int(j) - 1
        out += _within(f"target[{a},{b}]", target, mean[a, b], 1e-12)
        out += _within(f"mc_mean[{a},{b}]", mc, mean[a, b],
                       Z * math.sqrt(var[a, b] / n_paths))
    return out


def check_op_norm_rotation(summary, T: float, n_paths: int) -> list[str]:
    """rotation_rank1: N_T log2 / 2 <= log||X_T|| <= N_T log2 on every path
    (det X_T = 2^{N_T}, ||R|| = 1, ||I + a|| = 2), so lambda_1 lies in
    [log2 / 2, log2] up to the Monte Carlo error of the mean jump count."""
    slack = Z / math.sqrt(n_paths * T)
    lam = float(summary["lambda_hat"])
    lo, hi = (1.0 - slack) * math.log(2.0) / 2.0, (1.0 + slack) * math.log(2.0)
    if lo <= lam <= hi:
        return []
    return [f"lambda_hat = {lam:.6g} outside [{lo:.6g}, {hi:.6g}]"]


def check_ip(name: str, summary) -> list[str]:
    want = IP_EXPECTED[name]
    if summary["status"] == want:
        return []
    return [f"ip_certify({name}) = {summary['status']}, expected {want}"]


def check_reconstruct(recon: np.ndarray, exact: np.ndarray) -> list[str]:
    """Big-jump reconstruction equals the exact product, relative 1e-10."""
    rel = float(np.linalg.norm(recon - exact, 2) / np.linalg.norm(exact, 2))
    if rel <= 1e-10:
        return []
    return [f"reconstruction off by relative {rel:.3g}"]


# -- projective_chain -----------------------------------------------------------

def check_measure_rows(rows: np.ndarray, n_points: int) -> list[str]:
    """invariant_measure rows (angle, v1, v2, weight): unit vectors with
    v1 >= 0, the angle of v in [0, pi), weights summing to 1."""
    out = []
    if len(rows) != n_points:
        out.append(f"{len(rows)} rows, expected {n_points}")
    angle, v, w = rows[:, 0], rows[:, 1:3], rows[:, 3]
    norm_err = np.abs(np.linalg.norm(v, axis=1) - 1.0)
    if not np.all(norm_err <= 1e-12):
        out.append(f"a direction has norm error {norm_err.max():.3g}")
    if not np.all(v[:, 0] >= -1e-12):
        out.append(f"a direction has first component {v[:, 0].min():.3g} < 0")
    gap = np.abs(np.arctan2(v[:, 1], v[:, 0]) % np.pi - angle)
    gap = np.minimum(gap, np.pi - gap)
    if not (np.all(gap <= 1e-12) and np.all((angle >= 0) & (angle < np.pi))):
        out.append(f"an angle disagrees with its vector by {gap.max():.3g}")
    if not (np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-9):
        out.append(f"weights sum to {w.sum():.17g}")
    return out


def check_uniform_angles(rows: np.ndarray, n_chains: int, stride: int) -> list[str]:
    """standard_brownian(2) is isotropic, so its direction chain (also under
    the product scheme) has the uniform invariant law on [0, pi).  Every
    ``stride``-th skeleton state of each chain is KS-tested."""
    angles = rows[:, 0].reshape(-1, n_chains)[::stride].ravel()
    p = float(stats.kstest(angles, "uniform", args=(0.0, math.pi)).pvalue)
    if p >= KS_P_MIN:
        return []
    return [f"angles not uniform: KS p = {p:.3g} on {angles.size} samples"]


def check_positive(rows: np.ndarray) -> list[str]:
    """Nonnegative dynamics: every sampled direction lies in the open
    positive orthant, so its components share one sign."""
    low = float(rows[:, 1:3].min())
    if low > 0.0:
        return []
    return [f"a direction leaves the positive orthant (component {low:.3g})"]


def check_mixing(rows: np.ndarray, n_paths: int, dt: float,
                 t_max: float = 1.0) -> list[str]:
    """standard_brownian(2), f = cos^2: the angle is a Brownian motion, so
    E f(Z_t^y) = (1 + cos(2 theta_y) e^{-2t}) / 2 and the starts e1, e2 give
    sup_diff(t) = e^{-2t}.  Checked where t <= t_max; the pairwise gap lies
    in [-1, 1], so 1/sqrt(n) bounds its standard error."""
    out = []
    for t, s in np.atleast_2d(rows):
        if t > t_max:
            continue
        exact = math.exp(-2.0 * t)
        bias = exact - math.exp(-2.0 * t * (1.0 + MIX_C_RATE * dt))
        out += _within(f"sup_diff({t:g})", s, exact, Z / math.sqrt(n_paths) + bias)
    return out
