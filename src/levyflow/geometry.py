"""Irreducibility-proximality certification and the generator of X.

Certifying condition (i-p) — strong irreducibility plus a proximal element of
the generated semigroup — is a semi-decision procedure: a positive-definite
Gaussian covariance certifies outright; for pure-jump-plus-drift
specifications a word search over sampled semigroup generators looks for a
proximal element while rotation-density patterns certify irreducibility and a
finite invariant family of subspaces falsifies it.  Everything else reports
"unknown".

The generator A_X of the exponential acts on C^2 test functions of the matrix
state; its jump integral is an exact atom sum for finite-activity
specifications, and a short-time Monte Carlo difference quotient provides an
independent numerical check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import expm

from . import _engine
from ._linalg import fro_norm
from .levy_model import MatrixLevyTriplet
from .projective import canonical_unit

__all__ = [
    "SmoothFunction", "IpCertificate", "InconsistentDerivatives",
    "is_proximal", "ip_certify", "generator_apply", "generator_mc_check",
]


class InconsistentDerivatives(ValueError):
    """Supplied gradient/Hessian disagree with finite differences of f."""


@dataclass(frozen=True)
class SmoothFunction:
    """Twice-differentiable test function of a d x d matrix state.

    ``value`` takes a stack of matrices (shape (..., d, d)) and returns their
    values, shape (...).  ``grad`` and ``hess`` take one matrix x:
    ``grad(x)[i, j]`` is df/dx_{ij}; ``hess(x)[i, j, k, l]`` is
    d^2 f / dx_{ij} dx_{kl}.
    """

    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class IpCertificate:
    """Outcome of the (i-p) semi-decision.

    status: certified | falsified_irreducibility | unknown.
    route:  brownian_full_rank | cpp_semigroup | truncated_semigroup | search.
    witness (certified searches): word over the generator list whose product
    is proximal.  counterexample (falsified): invariant family of subspaces.
    """

    status: str
    route: str
    witness: dict | None = None
    counterexample: dict | None = None


def is_proximal(a: np.ndarray, tol: float = 1e-9) -> bool:
    """True iff the largest-modulus eigenvalue is unique, real, and separated
    from the rest by a relative gap above tol."""
    a = np.asarray(a, dtype=float)
    eig = np.linalg.eigvals(a)
    mods = np.abs(eig)
    top = int(np.argmax(mods))
    lam = eig[top]
    if abs(lam) <= tol:
        return False
    if abs(lam.imag) > tol * abs(lam):
        return False
    if len(eig) == 1:
        return True
    rest = np.delete(mods, top)
    return bool(abs(lam) - rest.max() > tol * abs(lam))


# -- (i-p) certification -------------------------------------------------------

def _drift_times(n_samples: int, rng) -> list[float]:
    """Sample times for drift exponentials: dyadic fractions of pi (to catch
    rotation-density phenomena) topped up with uniform draws."""
    ts = [math.pi * 2.0 ** (-k) for k in range(6)] + [1.0]
    while len(ts) < max(n_samples, 8):
        ts.append(float(rng.uniform(0.05, 2.0 * math.pi)))
    return ts


def _generators(triplet: MatrixLevyTriplet, n_samples: int, rng):
    """[(label, matrix)] spanning the reachable semigroup directions."""
    gens: list[tuple[str, np.ndarray]] = []
    g0 = triplet.drift()
    if np.any(g0 != 0.0):
        for t in _drift_times(n_samples, rng):
            gens.append((f"drift t={t:.6g}", expm(t * g0)))
    eye = np.eye(triplet.d)
    for i, (_, a) in enumerate(triplet.jumps.atoms):
        gens.append((f"jump atom {i}", eye + a))
    return gens


def _proximal_word(gens, search_depth: int, n_samples: int, rng, tol: float = 1e-9):
    """Breadth-first over short words, then random longer words; returns the
    first (word index tuple, product) whose product is proximal."""
    mats = [m for _, m in gens]
    frontier: list[tuple[tuple[int, ...], np.ndarray]] = [((), np.eye(mats[0].shape[0]))]
    for depth in range(1, min(search_depth, 2) + 1):
        nxt = []
        for word, prod in frontier:
            for i, m in enumerate(mats):
                w = word + (i,)
                p = prod @ m
                if is_proximal(p, tol):
                    return w, p
                nxt.append((w, p))
        frontier = nxt
    for _ in range(max(n_samples, 16) * search_depth):
        length = int(rng.integers(3, search_depth + 1)) if search_depth >= 3 else search_depth
        word = tuple(int(k) for k in rng.integers(0, len(mats), size=length))
        p = np.eye(mats[0].shape[0])
        for k in word:
            p = p @ mats[k]
        if is_proximal(p, tol):
            return word, p
    return None


def _real_eigvecs(a: np.ndarray, tol: float = 1e-9) -> list[np.ndarray]:
    vals, vecs = np.linalg.eig(a)
    out = []
    for k, lam in enumerate(vals):
        if abs(lam.imag) <= tol * max(1.0, abs(lam)):
            v = vecs[:, k]
            if np.max(np.abs(v.imag)) <= tol * max(1.0, float(np.max(np.abs(v)))):
                out.append(canonical_unit(v.real))
    return out


def _orbit_closure(start: np.ndarray, mats, act, cap: int):
    """Close {start} under the maps act(v, m); None when the family exceeds cap."""
    family = [start]
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for m in mats:
                w = act(v, m)
                if all(abs(abs(float(np.dot(w, u))) - 1.0) > 1e-9 for u in family):
                    if len(family) >= cap:
                        return None
                    family.append(w)
                    nxt.append(w)
        frontier = nxt
    return family


def _find_invariant_family(gens, d: int, cap: int):
    """Finite invariant family of lines (or planes for d = 3) if one closes."""
    mats = [m for _, m in gens]

    def act_line(v, m):
        return canonical_unit(v @ m)

    def act_normal(n, m):
        return canonical_unit(np.linalg.solve(m, n))

    candidates_lines: list[np.ndarray] = []
    candidates_normals: list[np.ndarray] = []
    for m in mats:
        candidates_lines.extend(_real_eigvecs(m.T))
        if d == 3:
            candidates_normals.extend(_real_eigvecs(m))
    for start in candidates_lines:
        family = _orbit_closure(start, mats, act_line, cap)
        if family is not None:
            return {"kind": "lines", "vectors": np.array(family)}
    for start in candidates_normals:
        family = _orbit_closure(start, mats, act_normal, cap)
        if family is not None:
            return {"kind": "planes", "normals": np.array(family)}
    return None


def _rotation_angle(g: np.ndarray) -> float | None:
    """Angle of g when g is a positive multiple of a rotation, else None."""
    d = g.shape[0]
    if d != 2:
        return None
    gtg = g.T @ g
    c2 = 0.5 * float(np.trace(gtg))
    if c2 <= 0:
        return None
    if np.max(np.abs(gtg - c2 * np.eye(2))) > 1e-9 * max(1.0, c2):
        return None
    if np.linalg.det(g) <= 0:
        return None
    return math.atan2(g[1, 0], g[0, 0])


def _irrationalish(phi: float, q_max: int = 64, tol: float = 1e-3) -> bool:
    """No multiple q*phi (q <= q_max) returns to within tol of a full turn."""
    two_pi = 2.0 * math.pi
    for q in range(1, q_max + 1):
        r = (q * phi) % two_pi
        if min(r, two_pi - r) <= tol:
            return False
    return True


def _rotation_density(triplet: MatrixLevyTriplet, gens) -> bool:
    """d = 2 sufficient patterns for strong irreducibility: the drift flow is
    projectively a full rotation family (complex eigenvalues), or some jump
    factor is projectively a rotation by an irrational-ish angle."""
    if triplet.d != 2:
        return False
    g0 = triplet.drift()
    tr = float(np.trace(g0))
    disc = tr * tr - 4.0 * float(np.linalg.det(g0))
    scale = max(1.0, float(np.max(np.abs(g0))) ** 2)
    if np.any(g0 != 0.0) and disc < -1e-12 * scale:
        return True
    eye = np.eye(2)
    for _, a in triplet.jumps.atoms:
        phi = _rotation_angle(eye + a)
        if phi is not None and _irrationalish(phi):
            return True
    return False


def ip_certify(triplet: MatrixLevyTriplet, search_depth: int = 6,
               n_samples: int = 32, seed=0) -> IpCertificate:
    """Semi-decide condition (i-p).

    Positive-definite sigma certifies immediately.  With sigma = 0 the
    semigroup generated by drift exponentials and jump factors is searched
    for a proximal word, invariant line/plane families (d <= 3) falsify
    strong irreducibility, and the rotation-density patterns certify it.  A
    Gaussian part that is neither zero nor full rank leaves both halves
    undecided (its reachable directions are not captured by the generator
    set), so the result is "unknown".
    """
    d = triplet.d
    sym = (triplet.sigma + triplet.sigma.T) / 2.0
    if triplet.has_gaussian_part():
        ev = np.linalg.eigvalsh(sym)
        if ev.min() > 1e-10 * max(1.0, ev.max()):
            return IpCertificate(status="certified", route="brownian_full_rank")
        return IpCertificate(status="unknown", route="search")

    rng = np.random.default_rng(seed)
    gens = _generators(triplet, n_samples, rng)
    if not gens:
        return IpCertificate(status="unknown", route="search")

    if d <= 3:
        family = _find_invariant_family(gens, d, cap=max(search_depth, d))
        if family is not None:
            return IpCertificate(status="falsified_irreducibility",
                                 route="search", counterexample=family)

    found = _proximal_word(gens, search_depth, n_samples, rng)
    if found is not None and _rotation_density(triplet, gens):
        word, prod = found
        witness = {
            "word": word,
            "labels": tuple(gens[k][0] for k in word),
            "generators": tuple(m for _, m in gens),
            "matrix": prod,
        }
        route = ("truncated_semigroup" if triplet.jumps.truncation_note is not None
                 else "cpp_semigroup")
        return IpCertificate(status="certified", route=route, witness=witness)
    return IpCertificate(status="unknown", route="search")


# -- generator -----------------------------------------------------------------

def _spot_check_derivatives(f: SmoothFunction, x: np.ndarray):
    d = x.shape[0]
    scale = max(1.0, fro_norm(x))
    g = np.asarray(f.grad(x), dtype=float)
    h1 = 1e-5 * scale
    e = h1 * np.eye(d * d).reshape(d * d, d, d)  # e[i * d + j] = h1 at (i, j)
    fd = ((f.value(x + e) - f.value(x - e)) / (2.0 * h1)).reshape(d, d)
    tol = 1e-4 * max(1.0, fro_norm(g), fro_norm(fd))
    if fro_norm(fd - g) > tol:
        raise InconsistentDerivatives(
            f"gradient disagrees with finite differences by {fro_norm(fd - g):.3e}")

    hess = np.asarray(f.hess(x), dtype=float)
    h2 = 1e-3 * scale
    v = np.random.default_rng(12345).standard_normal((3, d, d))
    v = v / np.linalg.norm(v, axis=(1, 2), keepdims=True)
    quad = np.einsum("nij,ijkl,nkl->n", v, hess, v)
    fd2 = (f.value(x + h2 * v) - 2.0 * f.value(x) + f.value(x - h2 * v)) / (h2 * h2)
    for q, f2 in zip(quad, fd2):
        if abs(f2 - q) > 1e-4 * max(1.0, abs(q), abs(f2)):
            raise InconsistentDerivatives(
                f"Hessian disagrees with finite differences: {q:.6g} vs {f2:.6g}")


def generator_apply(triplet: MatrixLevyTriplet, f: SmoothFunction,
                    x: np.ndarray) -> float:
    """A_X f(x): drift/diffusion terms plus the exact jump atom sum.

    First-order coefficient ell(x) = x gamma_L + sum_i r_i x a_i
    (1{||x a_i||_F <= 1} - 1{||a_i||_F <= 1}); diffusion Q(x)^{(i,j,k,l)} =
    sum_{m,n} x^{(i,m)} sigma_{(m,j),(n,l)} x^{(k,n)}; jumps move x to
    x + x a_i with the small-jump gradient compensation under ||.||_F <= 1.
    The atoms are one (k, d, d) stack, so f.value is called once on all of
    the post-jump states.
    """
    x = np.asarray(x, dtype=float)
    d = triplet.d
    _spot_check_derivatives(f, x)
    g = np.asarray(f.grad(x), dtype=float)

    rates = np.array([r for r, _ in triplet.jumps.atom_rates()])
    marks = np.array([a for _, a in triplet.jumps.atoms]).reshape(-1, d, d)
    xa = x @ marks
    small = np.linalg.norm(xa, axis=(1, 2)) <= 1.0
    compensated = np.linalg.norm(marks, axis=(1, 2)) <= 1.0
    weights = rates * (small.astype(float) - compensated)
    ell = x @ triplet.gamma + np.einsum("k,kij->ij", weights, xa)
    total = float(np.einsum("ij,ij->", ell, g))

    if triplet.has_gaussian_part():
        hess = np.asarray(f.hess(x), dtype=float)
        sigma4 = triplet.sigma.reshape(d, d, d, d)  # [j, m, l, n] = sigma_{(m,j),(n,l)}
        q = np.einsum("im,jmln,kn->ijkl", x, sigma4, x)
        total += 0.5 * float(np.einsum("ijkl,ijkl->", q, hess))

    jump = f.value(x + xa) - f.value(x) - small * np.einsum("kij,ij->k", xa, g)
    return total + float(rates @ jump)


def generator_mc_check(triplet: MatrixLevyTriplet, f: SmoothFunction,
                       x: np.ndarray, h_grid, n_paths: int, seed,
                       n_substeps: int = 8):
    """Difference quotient (E f(x X_h) - f(x))/h against A_X f(x) per h.

    Returns (rows, generator_value) with rows of (h, quotient, se, z); the
    z-score is 0 by convention when the Monte Carlo SE vanishes
    (deterministic dynamics).
    """
    x = np.asarray(x, dtype=float)
    a_val = generator_apply(triplet, f, x)
    fx = f.value(x)
    h_grid = [float(h) for h in h_grid]
    children = np.random.SeedSequence(seed).spawn(len(h_grid))
    rows = []
    for h, child in zip(h_grid, children):
        _, mats, _ = _engine.evolve_matrices(
            triplet, float(h), n_paths, child, [float(h)],
            dt=float(h) / n_substeps, renormalize=False)
        vals = f.value(x @ mats[0])
        q = (vals.mean() - fx) / h
        se = float(vals.std(ddof=1) / (h * np.sqrt(n_paths)))
        # deterministic dynamics: rounding noise in identical samples is not
        # a usable standard error, so the z-score is 0 by convention
        if se <= 1e-9 * max(1.0, abs(q), abs(a_val)):
            se, z = 0.0, 0.0
        else:
            z = float((q - a_val) / se)
        rows.append((float(h), float(q), se, z))
    return rows, a_val
