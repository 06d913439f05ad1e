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

from . import _engine
from ._linalg import expm_pair_last
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
    """max(7, n_samples) drift exponential times: dyadic fractions of pi
    (to catch rotation-density phenomena) topped up with uniform draws."""
    ts = [math.pi * 2.0 ** (-k) for k in range(6)] + [1.0]
    while len(ts) < n_samples:
        ts.append(float(rng.uniform(0.05, 2.0 * math.pi)))
    return ts


def _generators(triplet: MatrixLevyTriplet, n_samples: int, rng):
    """[(label, matrix)] spanning the reachable semigroup directions."""
    gens: list[tuple[str, np.ndarray]] = []
    g0 = triplet.drift()
    if np.any(g0 != 0.0):
        ts = np.array(_drift_times(n_samples, rng))
        # one family over all the times: a = t_max g0 at r = t / t_max
        e = expm_pair_last(ts.max() * g0)(ts / ts.max())[0]
        gens.extend((f"drift t={t:.6g}", e[:, :, k]) for k, t in enumerate(ts))
    jump_factors = np.eye(triplet.d) + triplet.marks
    gens.extend((f"jump atom {i}", g) for i, g in enumerate(jump_factors))
    return gens


def _proximal_word(gens, search_depth: int, n_samples: int, rng):
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
                if is_proximal(p):
                    return w, p
                nxt.append((w, p))
        frontier = nxt
    for _ in range(max(n_samples, 16) * search_depth):
        length = int(rng.integers(3, search_depth + 1)) if search_depth >= 3 else search_depth
        word = tuple(int(k) for k in rng.integers(0, len(mats), size=length))
        p = np.eye(mats[0].shape[0])
        for k in word:
            p = p @ mats[k]
        if is_proximal(p):
            return word, p
    return None


def _real_eigvecs(a: np.ndarray) -> list[np.ndarray]:
    """The canonical units of a's real eigenvectors, in one call: those whose
    eigenvalue, and largest imaginary part of an entry, are at most 1e-9
    max(1, modulus) off the real line."""
    vals, vecs = np.linalg.eig(a)
    size = np.abs(vecs).max(axis=0)
    real = ((np.abs(vals.imag) <= 1e-9 * np.maximum(1.0, np.abs(vals)))
            & (np.abs(vecs.imag).max(axis=0) <= 1e-9 * np.maximum(1.0, size)))
    return list(canonical_unit(vecs[:, real].real).T)


def _orbit_closure(start: np.ndarray, act, cap: int):
    """Close {start} under ``act``, which maps a (d, n) frontier of unit
    columns to their (d, n * k) images under the k generators, frontier line
    by generator in nested-loop order.  An image joins the family unless
    |<w, u>| is within 1e-9 of 1 for a member u; None when the family
    exceeds cap."""
    family = [start]
    frontier = start[:, None]
    while frontier.size:
        images = act(frontier)
        size = len(family)
        fresh = np.all(np.abs(np.abs(np.array(family) @ images) - 1.0) > 1e-9, axis=0)
        for w in images.T[fresh]:
            if all(abs(abs(float(np.dot(w, u))) - 1.0) > 1e-9 for u in family[size:]):
                if len(family) >= cap:
                    return None
                family.append(w)
        frontier = np.array(family[size:]).T
    return family


def _find_invariant_family(gens, d: int, cap: int):
    """Finite invariant family of lines (or planes for d = 3) if one closes."""
    mats = np.array([m for _, m in gens])

    def act_line(vs):
        return canonical_unit(np.einsum("if,kij->jfk", vs, mats).reshape(d, -1))

    def act_normal(ns):
        images = np.linalg.solve(mats, np.broadcast_to(ns, (len(mats),) + ns.shape))
        return canonical_unit(images.transpose(1, 2, 0).reshape(d, -1))

    candidates_lines: list[np.ndarray] = []
    candidates_normals: list[np.ndarray] = []
    for m in mats:
        candidates_lines.extend(_real_eigvecs(m.T))
        if d == 3:
            candidates_normals.extend(_real_eigvecs(m))
    for start in candidates_lines:
        family = _orbit_closure(start, act_line, cap)
        if family is not None:
            return {"kind": "lines", "vectors": np.array(family)}
    for start in candidates_normals:
        family = _orbit_closure(start, act_normal, cap)
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


def _irrationalish(phi: float) -> bool:
    """No multiple q*phi (q <= 64) returns to within 1e-3 of a full turn."""
    two_pi = 2.0 * math.pi
    for q in range(1, 65):
        r = (q * phi) % two_pi
        if min(r, two_pi - r) <= 1e-3:
            return False
    return True


def _rotation_density(triplet: MatrixLevyTriplet) -> bool:
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
    for g in np.eye(2) + triplet.marks:
        phi = _rotation_angle(g)
        if phi is not None and _irrationalish(phi):
            return True
    return False


def ip_certify(triplet: MatrixLevyTriplet, search_depth: int = 6,
               n_samples: int = 32, seed=0) -> IpCertificate:
    """Semi-decide condition (i-p).

    Positive-definite sigma certifies immediately.  With sigma = 0,
    invariant line/plane families (d <= 3) of the semigroup generated by
    drift exponentials and jump factors falsify strong irreducibility; where
    none closes and a rotation-density pattern certifies it, the semigroup
    is searched for a proximal word, which completes the certificate.  A
    Gaussian part that is neither zero nor full rank leaves both halves
    undecided (its reachable directions are not captured by the generator
    set), so the result is "unknown".  ``n_samples`` below 8 raises
    ValueError; the random word search tries max(n_samples, 16) *
    search_depth words.
    """
    if n_samples < 8:
        raise ValueError(f"n_samples must be at least 8, got {n_samples}")
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

    # a proximal word certifies only with the density pattern beside it
    found = (_proximal_word(gens, search_depth, n_samples, rng)
             if _rotation_density(triplet) else None)
    if found is not None:
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
    scale = max(1.0, np.linalg.norm(x))
    g = np.asarray(f.grad(x), dtype=float)
    h1 = 1e-5 * scale
    e = h1 * np.eye(d * d).reshape(d * d, d, d)  # e[i * d + j] = h1 at (i, j)
    fd = ((f.value(x + e) - f.value(x - e)) / (2.0 * h1)).reshape(d, d)
    tol = 1e-4 * max(1.0, np.linalg.norm(g), np.linalg.norm(fd))
    if np.linalg.norm(fd - g) > tol:
        raise InconsistentDerivatives(
            f"gradient disagrees with finite differences by {np.linalg.norm(fd - g):.3e}")

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

    First-order coefficient ell(x) = x gamma^0, the triplet's ``drift()``;
    diffusion Q(x)^{(i,j,k,l)} = sum_{m,n} x^{(i,m)} C[m, j, n, l] x^{(k,n)}
    with C the triplet's ``entry_covariance``; jumps add sum_i r_i (f(x +
    x a_i) - f(x)).  The atoms are one (k, d, d) stack, so f.value is called
    once on all of the post-jump states.
    """
    x = np.asarray(x, dtype=float)
    _spot_check_derivatives(f, x)
    g = np.asarray(f.grad(x), dtype=float)

    total = float(np.einsum("ij,ij->", x @ triplet.drift(), g))

    if triplet.has_gaussian_part():
        hess = np.asarray(f.hess(x), dtype=float)
        q = np.einsum("im,mjnl,kn->ijkl", x, triplet.entry_covariance, x)
        total += 0.5 * float(np.einsum("ijkl,ijkl->", q, hess))

    return total + float(triplet.rates @ (f.value(x + x @ triplet.marks) - f.value(x)))


def generator_mc_check(triplet: MatrixLevyTriplet, f: SmoothFunction,
                       x: np.ndarray, h_grid, n_paths: int, seed,
                       n_substeps: int = 8):
    """Difference quotient (E f(x X_h) - f(x))/h against A_X f(x) per h.

    Returns (rows, generator_value) with rows of (h, quotient, se, z); the
    z-score is 0 by convention when the Monte Carlo SE vanishes
    (deterministic dynamics).  Fewer than two paths raise ValueError.
    """
    _engine.need_two_paths(n_paths)
    x = np.asarray(x, dtype=float)
    a_val = generator_apply(triplet, f, x)
    fx = f.value(x)
    h_grid = [float(h) for h in h_grid]
    children = _engine.child_seeds(seed, len(h_grid))
    rows = []
    for h, child in zip(h_grid, children):
        _, mats, _ = _engine.evolve_matrices(
            triplet, float(h), n_paths, child, [float(h)],
            dt=float(h) / n_substeps, renormalize=False)
        vals = f.value(x @ mats[0])
        q = (vals.mean() - fx) / h
        se = float(vals.std(ddof=1) / (h * np.sqrt(n_paths)))
        # an se under the floor is no usable standard error: z = 0 by convention
        if se <= _engine.se_floor(max(abs(q), abs(a_val))):
            se, z = 0.0, 0.0
        else:
            z = float((q - a_val) / se)
        rows.append((float(h), float(q), se, z))
    return rows, a_val
