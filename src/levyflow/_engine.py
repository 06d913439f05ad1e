"""Internal vectorized Monte Carlo engine.

Batches of exponential states evolve by right-multiplying, each time step of
length dt, the continuous factor F = D @ (I + dB) with D = expm(dt * gamma^0),
then one jump-adapted factor per jump in the cell (Bruti-Liberati & Platen
2007).  Jump offsets s are drawn in continuous time inside the cell, and a
jump with mark a at offset s, r = dt - s, applies e^{-r gamma^0} (I + a)
e^{r gamma^0}.  In time order these factors multiply out to
D e^{-r_1 gamma^0}(I + a_1) e^{r_1 gamma^0} ... = e^{s_1 gamma^0}(I + a_1)
e^{(s_2 - s_1) gamma^0} ... (I + a_k) e^{(dt - s_k) gamma^0}, the exact
product, so the scheme is exact for sigma = 0 at any dt; with sigma > 0,
E[D (I + dB)] = D and the noise is independent of the jumps, so E[X_t] is
exact too.  D is folded into the Gaussian factor G of vec(dB) once:
vec(D @ B) = (I kron D) vec(B), so G' = Pi (I kron D) G, with Pi taking
column-stacked to row-major order, gives F = D + (z @ G'.T).reshape(n, d, d)
for standard normals z.  A product of (p, m, d) row vectors with per-path
factors uses einsum for one row (m = 1) and stacked matmul for several, the
faster of the two at each shape.  One step loop serves both entry points,
with one of three norm modes: evolve_vectors divides out each row's Euclidean
norm every step, evolve_matrices each state's Frobenius norm, or nothing with
renormalize=False.  The log-scale is accumulated separately, so long-horizon
norm statistics are exact at snapshot times and never overflow.

A single batched RNG stream with a fixed per-step draw order drives each run:
Gaussians, then jump counts, then per jump round the atom choices and the
offset uniforms.  Results are deterministic given the seed, independent of
BLAS threading.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from ._linalg import expm_family, grid_indices, psd_factor
from .levy_model import MatrixLevyTriplet


class DegenerateNorm(ArithmeticError):
    """A norm statistic vanished, lost all fluctuation, or is not finite."""


class _StepScheme:
    """Per-step factor generator for one (triplet, dt) pair."""

    def __init__(self, triplet: MatrixLevyTriplet, dt: float):
        self.d = triplet.d
        self.dt = float(dt)
        self.drift_factor = expm(self.dt * triplet.drift())
        if triplet.has_gaussian_part():
            # row j*d+k of G is entry (k, j) of dB; row m*d+j of G' is (D @ dB)[m, j]
            g = np.einsum("mk,jkl->mjl", self.drift_factor,
                          psd_factor(triplet.sigma).reshape(self.d, self.d, -1))
            self.gauss = g.reshape(self.d ** 2, -1) * np.sqrt(self.dt)
        else:
            self.gauss = None
        j = triplet.jumps
        if j.active:
            self.jump_rate = float(j.rate)
            probs = np.array([p for p, _ in j.atoms])
            self.probs = probs / probs.sum()
            self.marks = np.stack([a for _, a in j.atoms])
            self.drift_exp = expm_family(self.dt * triplet.drift())
        else:
            self.jump_rate = 0.0

    def cont_factors(self, rng, n: int):
        """(n, d, d) per-path factors D @ (I + dB), or the (d, d) drift factor
        D shared by the whole batch when there is no Gaussian part."""
        if self.gauss is None:
            return self.drift_factor
        z = rng.standard_normal((n, self.d * self.d))
        return self.drift_factor + (z @ self.gauss.T).reshape(n, self.d, self.d)

    def jump_plan(self, rng, n: int):
        """[(path indices, (m, d, d) factors)] rounds covering all jumps this step.

        Round k gives each path with at least k jumps its k-th jump: an atom a
        and an offset s, the next order statistic of the path's jump times in
        the cell, with factor e^{-r gamma^0} (I + a) e^{r gamma^0}, r = dt - s.
        Offsets are kept in units of dt.
        """
        if self.jump_rate == 0.0:
            return []
        counts = rng.poisson(self.jump_rate * self.dt, n)
        s = np.zeros(n)
        plan = []
        while True:
            act = np.flatnonzero(counts > 0)
            if act.size == 0:
                break
            if len(self.probs) > 1:
                choice = rng.choice(len(self.probs), size=act.size, p=self.probs)
            else:
                choice = np.zeros(act.size, dtype=int)
            u = rng.random(act.size)
            s[act] += (1.0 - s[act]) * (1.0 - u ** (1.0 / counts[act]))
            e = self.drift_exp(1.0 - s[act])
            plan.append((act, np.eye(self.d) + np.linalg.solve(e, self.marks[choice] @ e)))
            counts[act] -= 1
        return plan


def _rowvec_product(v: np.ndarray, f: np.ndarray) -> np.ndarray:
    """v @ f per path for (p, m, d) rows and (p, d, d) or shared (d, d) factors."""
    if v.shape[1] == 1 and f.ndim == 3:
        return np.einsum("pmi,pij->pmj", v, f)
    return v @ f


def _snapshot_indices(snapshot_times, n_steps: int, dt: float):
    """Snapshot times on the step grid k * dt, and step -> snapshot positions."""
    grid = np.arange(n_steps + 1) * dt
    idx = grid_indices(grid, snapshot_times)
    by_step: dict[int, list[int]] = {}
    for pos, k in enumerate(idx.tolist()):
        by_step.setdefault(k, []).append(pos)
    return grid[idx], by_step


def _evolve(triplet, T, seed, snapshot_times, dt, states, logs, norm):
    """The step loop: (times, states, logs) snapshots of (n_paths, m, d) row
    vectors (a matrix is its d rows) and their accumulated log-scales.
    ``norm`` is the einsum output subscript of the norm divided out each step:
    "pm" one per row, "p" one Frobenius norm per path, None for none.  Callers
    keep no name for ``states``, so that the first step frees the start buffer.
    A snapshot that is not finite raises DegenerateNorm.
    """
    n_steps = max(1, int(round(T / dt)))
    dt_eff = T / n_steps
    times, by_step = _snapshot_indices(snapshot_times, n_steps, dt_eff)
    scheme = _StepScheme(triplet, dt_eff)
    rng = np.random.default_rng(seed)
    n_paths = len(states)
    out_states = np.empty((len(times),) + states.shape)
    out_logs = np.empty((len(times),) + logs.shape)

    def record(step):
        for pos in by_step.get(step, ()):
            out_states[pos] = states
            out_logs[pos] = logs

    record(0)
    for step in range(1, n_steps + 1):
        states = _rowvec_product(states, scheme.cont_factors(rng, n_paths))
        for act, f in scheme.jump_plan(rng, n_paths):
            states[act] = _rowvec_product(states[act], f)
        if norm is not None:
            norms = np.sqrt(np.einsum(f"pmi,pmi->{norm}", states, states))
            logs = logs + np.log(norms)
            states /= norms.reshape(norms.shape + (1,) * (3 - norms.ndim))
        record(step)
    if not (np.all(np.isfinite(out_states)) and np.all(np.isfinite(out_logs))):
        raise DegenerateNorm("engine state is not finite on some path")
    return times, out_states, out_logs


def evolve_vectors(triplet: MatrixLevyTriplet, starts, T: float, n_paths: int,
                   seed, snapshot_times, dt: float = 0.05):
    """Evolve row vectors y -> y @ X_t for a batch of paths.

    ``starts`` is (m, d): all m start vectors share the same noise within a
    path (common-random-number coupling); paths are independent.  A
    (n_paths, m, d) array gives each path its own start vectors instead.
    Returns (times, dirs, logs) with dirs of shape (k, n_paths, m, d) holding
    unit vectors and logs of shape (k, n_paths, m) holding log ||y @ X_t||.
    """
    starts = np.asarray(starts, dtype=float)
    if starts.ndim == 1:
        starts = starts[None, :]
    if starts.ndim == 2:
        starts = np.broadcast_to(starts, (n_paths,) + starts.shape)
    if starts.shape[0] != n_paths:
        raise ValueError("per-path starts must have leading dimension n_paths")
    v = starts.astype(float)
    norms = np.sqrt(np.einsum("pmi,pmi->pm", v, v))
    del v  # only the unit rows below stay alive during the loop
    return _evolve(triplet, T, seed, snapshot_times, dt, starts / norms[..., None],
                   np.log(norms), "pm")


def evolve_matrices(triplet: MatrixLevyTriplet, T: float, n_paths: int, seed,
                    snapshot_times, dt: float = 0.05, renormalize: bool = True):
    """Evolve full states X_t for a batch of independent paths.

    Returns (times, mats, logs): mats is (k, n_paths, d, d); with
    ``renormalize`` the states are unit Frobenius norm and logs holds the
    accumulated log-scale (X_t = exp(logs) * mats), otherwise logs is zero.
    """
    return _evolve(triplet, T, seed, snapshot_times, dt,
                   np.tile(np.eye(triplet.d), (n_paths, 1, 1)), np.zeros(n_paths),
                   "p" if renormalize else None)
