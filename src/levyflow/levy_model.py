"""Matrix-valued Levy process specifications.

A process L in R^{d x d} is described by the characteristic triplet of
vec(L): a Gaussian covariance ``sigma`` (d^2 x d^2), a location matrix
``gamma``, and a finite-activity jump specification (total rate plus a
discrete list of mark atoms).  Because jumps are finite activity, the drift
``drift0`` (the location with the small-jump compensation removed) is always
defined and the two are linked by

    gamma = drift0 + rate * sum_i p_i * a_i * 1{ ||vec a_i|| <= 1 }.

Cutoff indicators use the Euclidean norm of vec(.), i.e. the Frobenius norm,
and ``small_jump`` alone evaluates them; free-standing matrix norms (moment
integrals, jump thresholds) use the operator 2-norm.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._linalg import psd_factor

__all__ = [
    "PSD_TOL", "DET_TOL",
    "JumpSpec", "MatrixLevyTriplet", "ValidationReport", "MomentReport",
    "UnknownName", "SingularJump",
    "singular_step", "small_jump", "refuse_singular_atoms", "validate", "moment_check",
    "builtin_triplet", "triplet_to_config", "triplet_from_config",
]

PSD_TOL = 1e-10      # relative floor for sigma eigenvalues
DET_TOL = 1e-12      # |det(I + a)| below this counts as singular


class UnknownName(ValueError):
    """Requested builtin specification does not exist."""


class SingularJump(ValueError):
    """A jump mark a has |det(I + a)| <= DET_TOL (``singular_step``), so I + a
    counts as not invertible."""


def singular_step(a) -> np.ndarray:
    """Where the step factor I + a counts as singular, |det(I + a)| <=
    DET_TOL: the one rule for jump atoms and marks and for Emery cell
    increments.  ``a`` is one (d, d) matrix or a (k, d, d) stack; the result
    is a boolean of shape () or (k,)."""
    a = np.asarray(a, dtype=float)
    return np.abs(np.linalg.det(np.eye(a.shape[-1]) + a)) <= DET_TOL


def small_jump(a) -> np.ndarray:
    """1{||vec a|| <= 1}, the jumps that gamma compensates (the truncation
    of the triplet): the one evaluation of the cutoff.  ``a`` is one (d, d)
    matrix or a (k, d, d) stack; the result is a boolean of shape () or
    (k,)."""
    return np.linalg.norm(np.asarray(a, dtype=float), axis=(-2, -1)) <= 1.0


def refuse_singular_atoms(triplet: MatrixLevyTriplet) -> None:
    """Raise SingularJump, naming the first, if ``singular_step`` calls any
    of the triplet's atoms singular: the one refusal of a triplet's atoms."""
    singular = singular_step(triplet.marks)
    if singular.any():
        raise SingularJump(f"|det(I + a)| <= {DET_TOL} for atom "
                           f"{triplet.marks[np.argmax(singular)]!r}")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _matrix(x, shape, what: str) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {a.shape}")
    return _frozen(a.copy())


@dataclass(frozen=True, eq=False)
class JumpSpec:
    """Finite-activity jump part: total intensity plus discrete mark atoms.

    ``truncation_note`` records the epsilon of a user-built truncation when
    this spec stands in for an infinite-activity measure with its jumps of
    size below epsilon discarded.
    """

    rate: float = 0.0
    atoms: tuple[tuple[float, np.ndarray], ...] = ()
    truncation_note: float | None = None

    def __post_init__(self):
        atoms = tuple(
            (float(p), np.asarray(a, dtype=float)) for p, a in self.atoms
        )
        for _, a in atoms:
            a.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "rate", float(self.rate))

    @property
    def active(self) -> bool:
        return self.rate > 0.0 and len(self.atoms) > 0


_NO_JUMPS = JumpSpec()


@dataclass(frozen=True, eq=False)
class MatrixLevyTriplet:
    """Characteristic triplet of a matrix-valued Levy process.

    sigma follows the vec-index convention of :mod:`levyflow._linalg`:
    sigma[(j*d+m, l*d+n)] is the Gaussian covariance between components
    L^(m,j) and L^(n,l) (0-based indices).  Other modules read it through
    ``entry_covariance``, in matrix indices, or ``brownian_factor``.

    The jump atoms and the Gaussian part are resolved once, on first use
    (so :func:`validate` can still report a misshapen atom), to read-only
    arrays that every consumer reads: ``marks`` (k, d, d), ``rates`` (k,),
    ``probs`` (k,), ``compensated`` (k,), ``entry_covariance`` (d, d, d, d),
    ``brownian_factor`` (d, d, d^2) and ``row_covariance`` (d, d) or None.
    """

    d: int
    sigma: np.ndarray
    gamma: np.ndarray
    drift0: np.ndarray | None = None
    jumps: JumpSpec = _NO_JUMPS

    def __post_init__(self):
        d = int(self.d)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "sigma", _matrix(self.sigma, (d * d, d * d), "sigma"))
        object.__setattr__(self, "gamma", _matrix(self.gamma, (d, d), "gamma"))
        if self.drift0 is not None:
            object.__setattr__(self, "drift0", _matrix(self.drift0, (d, d), "drift0"))

    # -- derived quantities -------------------------------------------------

    @cached_property
    def marks(self) -> np.ndarray:
        """The jump atoms a_i as one (k, d, d) stack; (0, d, d) without atoms."""
        marks = np.array([a for _, a in self.jumps.atoms])
        return _frozen(marks.reshape(-1, self.d, self.d))

    @cached_property
    def rates(self) -> np.ndarray:
        """The atom intensities rate * p_i, shape (k,)."""
        return _frozen(self.jumps.rate * np.array([p for p, _ in self.jumps.atoms]))

    @cached_property
    def probs(self) -> np.ndarray:
        """The atom law rate_i / sum rate, shape (k,), by which
        ``_engine.draw_jumps`` draws a jump's atom.  Defined where the rates
        have a positive sum (an active jump part), the only place it is read."""
        return _frozen(self.rates / self.rates.sum())

    @cached_property
    def compensated(self) -> np.ndarray:
        """``small_jump`` per atom, shape (k,): the atoms whose jumps gamma
        compensates (the truncation of the triplet)."""
        return _frozen(small_jump(self.marks))

    @cached_property
    def entry_covariance(self) -> np.ndarray:
        """sigma in matrix indices: the read-only (d, d, d, d) view whose
        [m, j, n, l] is sigma[(j*d+m), (l*d+n)], the covariance rate of the
        entries L^(m,j) and L^(n,l)."""
        d = self.d
        return self.sigma.reshape(d, d, d, d).transpose(1, 0, 3, 2)

    @cached_property
    def brownian_factor(self) -> np.ndarray:
        """G of shape (d, d, d^2) with dB = G @ z for z ~ N(0, I): entry
        (m, j) of dB is row j*d+m of a factor of sigma, so sum_r G[m, j, r]
        G[n, l, r] = entry_covariance[m, j, n, l]."""
        g = psd_factor(self.sigma).reshape(self.d, self.d, -1)
        return _frozen(g.transpose(1, 0, 2))

    @cached_property
    def row_covariance(self) -> np.ndarray | None:
        """C of shape (d, d) when the Gaussian part is row-isotropic, sigma =
        C kron I_d exactly, so that cov(dB_kj, dB_lm) = delta_kl C_jm dt:
        the rows of dB are independent, each with covariance C dt.  None for
        any other sigma.  A zero sigma gives C = 0."""
        cov = self.entry_covariance
        c = cov[0, :, 0, :]
        if not np.array_equal(cov, np.einsum("mn,jl->mjnl", np.eye(self.d), c)):
            return None
        return _frozen(c.copy())

    def jump_compensator(self) -> np.ndarray:
        """rate * sum p_i a_i 1{||vec a_i|| <= 1}; difference gamma - drift0."""
        return np.einsum("k,kij->ij", self.rates * self.compensated, self.marks)

    def drift(self) -> np.ndarray:
        """The drift gamma^0 (location minus small-jump compensation)."""
        if self.drift0 is not None:
            return self.drift0
        return self.gamma - self.jump_compensator()

    def mean_l1(self) -> np.ndarray:
        """E[L_1] = drift + rate * sum p_i a_i (finite activity)."""
        return self.drift() + np.einsum("k,kij->ij", self.rates, self.marks)

    def has_gaussian_part(self) -> bool:
        return bool(np.any(self.sigma != 0.0))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`: violations are data, not exceptions."""

    valid: bool
    violations: tuple[tuple[str, str, int | None], ...]

    def rules(self) -> set[str]:
        return {rule for rule, _, _ in self.violations}


@dataclass(frozen=True)
class MomentReport:
    """Finite-sum evaluations of the jump moment integrals at exponent epsilon."""

    epsilon: float
    integral_big: float
    integral_inv: float
    sufficient_small_jump_bound: float | None


def validate(triplet: MatrixLevyTriplet) -> ValidationReport:
    """Check all structural invariants of a triplet; never raises."""
    bad: list[tuple[str, str, int | None]] = []
    d = triplet.d
    if d < 1:  # no other rule applies to an empty sigma
        return ValidationReport(valid=False,
                                violations=(("dimension", f"d must be >= 1, got {d}", None),))

    sigma = triplet.sigma
    scale = max(float(np.linalg.norm((sigma + sigma.T) / 2.0, 2)), 1e-300)
    asym = float(np.max(np.abs(sigma - sigma.T)))
    if asym > 1e-10 * max(scale, 1.0):
        bad.append(("sigma-symmetric", f"sigma asymmetry {asym:.3e}", None))
    else:
        lo = float(np.min(np.linalg.eigvalsh((sigma + sigma.T) / 2.0)))
        if lo < -PSD_TOL * scale:
            bad.append(("sigma-psd", f"least eigenvalue {lo:.3e} below tolerance", None))

    j = triplet.jumps
    if j.rate < 0:
        bad.append(("rate-nonnegative", f"jump rate {j.rate} < 0", None))
    if j.active:
        psum = sum(p for p, _ in j.atoms)
        if abs(psum - 1.0) > 1e-12:
            bad.append(("jump-prob-sum", f"atom probabilities sum to {psum!r}", None))
    for i, (p, a) in enumerate(j.atoms):
        if a.shape != (d, d):
            bad.append(("jump-atom-shape", f"atom {i} has shape {a.shape}", i))
            continue
        if p <= 0:
            bad.append(("jump-prob-positive", f"atom {i} has probability {p}", i))
        if not np.any(a != 0.0):
            bad.append(("jump-atom-nonzero", f"atom {i} is the zero matrix", i))
        if singular_step(a):
            bad.append(("nonsingular-jump", f"atom {i}: |det(I + a)| <= {DET_TOL}", i))
        for k in range(i):
            if j.atoms[k][1].shape == a.shape and np.max(np.abs(j.atoms[k][1] - a)) <= 1e-12:
                bad.append(("jump-atoms-distinct", f"atoms {k} and {i} coincide", i))

    # the compensator stacks the atoms, so it waits for their shapes to hold
    if triplet.drift0 is not None and all(a.shape == (d, d) for _, a in j.atoms):
        want = triplet.drift0 + triplet.jump_compensator()
        err = float(np.max(np.abs(triplet.gamma - want)))
        ref = max(1.0, float(np.max(np.abs(want))))
        if err > 1e-9 * ref:
            bad.append(
                ("drift-consistency",
                 f"gamma differs from drift0 + compensated atoms by {err:.3e}", None)
            )

    return ValidationReport(valid=not bad, violations=tuple(bad))


def moment_check(triplet: MatrixLevyTriplet, epsilon: float) -> MomentReport:
    """Evaluate the jump moment integrals as exact atom sums.

    integral_big  = rate * sum_{||a||>1} p ||a||^eps
    integral_inv  = same with a replaced by (I+a)^{-1} - I
    and, when atoms with ||a|| < 1 exist, the sufficient small-jump bound
    rate * sum_{0<||a||<1} p (1/(1-||a||))^eps.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    refuse_singular_atoms(triplet)
    eye = np.eye(triplet.d)
    r, marks = triplet.rates, triplet.marks
    na = np.linalg.norm(marks, 2, axis=(1, 2))
    nu = np.linalg.norm(np.linalg.inv(eye + marks) - eye, 2, axis=(1, 2))
    big = float(r @ np.where(na > 1.0, na ** epsilon, 0.0))
    inv = float(r @ np.where(nu > 1.0, nu ** epsilon, 0.0))
    has_small = (na > 0.0) & (na < 1.0)
    small = (float(r[has_small] @ (1.0 / (1.0 - na[has_small])) ** epsilon)
             if has_small.any() else None)
    return MomentReport(
        epsilon=float(epsilon),
        integral_big=big,
        integral_inv=inv,
        sufficient_small_jump_bound=small,
    )


# -- builtin catalog ---------------------------------------------------------

def _from_drift(d: int, sigma, drift0, jumps: JumpSpec = _NO_JUMPS) -> MatrixLevyTriplet:
    """Build a triplet from its drift, deriving the consistent location gamma."""
    t0 = MatrixLevyTriplet(d=d, sigma=sigma, gamma=np.zeros((d, d)),
                           drift0=np.zeros((d, d)), jumps=jumps)
    gamma = np.asarray(drift0, dtype=float) + t0.jump_compensator()
    return MatrixLevyTriplet(d=d, sigma=sigma, gamma=gamma, drift0=drift0, jumps=jumps)


def _rotation(phi: float) -> np.ndarray:
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


def _builtin_standard_brownian(d: int) -> MatrixLevyTriplet:
    d = int(d)
    return MatrixLevyTriplet(d=d, sigma=np.eye(d * d), gamma=np.zeros((d, d)),
                             drift0=np.zeros((d, d)))


def _builtin_rotation_rank1() -> MatrixLevyTriplet:
    drift0 = np.array([[0.0, -1.0], [1.0, 0.0]])
    atom = np.array([[1.0, 0.0], [0.0, 0.0]])
    return _from_drift(2, np.zeros((4, 4)), drift0,
                       JumpSpec(rate=1.0, atoms=((1.0, atom),)))


def _builtin_irrational_rotation(phi: float) -> MatrixLevyTriplet:
    drift0 = np.array([[1.0, 0.0], [0.0, 0.0]])
    atom = _rotation(float(phi)) - np.eye(2)
    return _from_drift(2, np.zeros((4, 4)), drift0,
                       JumpSpec(rate=1.0, atoms=((1.0, atom),)))


def _builtin_sl2_conservative() -> MatrixLevyTriplet:
    # Gaussian part (W1, W3, W2, -W1) in vec order: trace of the Brownian
    # matrix is identically zero.  Drift trace 1 balances the Ito correction
    # (sum sigma_{(m,n),(n,m)} = 2) and the single nilpotent atom has
    # det(I + a) = 1, so det X_t = 1 for all t.
    sigma = np.array([
        [1.0, 0.0, 0.0, -1.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [-1.0, 0.0, 0.0, 1.0],
    ])
    drift0 = np.array([[1.0, 0.0], [0.0, 0.0]])
    atom = np.array([[0.0, 1.0], [0.0, 0.0]])
    return _from_drift(2, sigma, drift0, JumpSpec(rate=1.0, atoms=((1.0, atom),)))


def _builtin_diagonal_reducible() -> MatrixLevyTriplet:
    drift0 = np.array([[0.5, 0.0], [0.0, -0.5]])
    a1 = np.array([[1.0, 0.0], [0.0, 0.0]])
    a2 = np.array([[0.0, 0.0], [0.0, -0.5]])
    return _from_drift(2, np.zeros((4, 4)), drift0,
                       JumpSpec(rate=1.0, atoms=((0.5, a1), (0.5, a2))))


def _builtin_gbm1(mu: float, sigma_vol: float) -> MatrixLevyTriplet:
    return MatrixLevyTriplet(d=1, sigma=np.array([[float(sigma_vol) ** 2]]),
                             gamma=np.array([[float(mu)]]),
                             drift0=np.array([[float(mu)]]))


_BUILTIN_PARSERS = {
    "standard_brownian": (_builtin_standard_brownian, 1),
    "rotation_rank1": (_builtin_rotation_rank1, 0),
    "irrational_rotation": (_builtin_irrational_rotation, 1),
    "sl2_conservative": (_builtin_sl2_conservative, 0),
    "diagonal_reducible": (_builtin_diagonal_reducible, 0),
    "gbm1": (_builtin_gbm1, 2),
}


def builtin_triplet(name: str) -> MatrixLevyTriplet:
    """Look up a named example triplet, e.g. ``standard_brownian(2)`` or
    ``gbm1(0.1, 0.2)``."""
    m = re.fullmatch(r"\s*([a-z0-9_]+)\s*(?:\((.*)\))?\s*", name)
    if not m:
        raise UnknownName(f"cannot parse builtin name {name!r}")
    base, argstr = m.group(1), m.group(2)
    if base not in _BUILTIN_PARSERS:
        known = ", ".join(sorted(_BUILTIN_PARSERS))
        raise UnknownName(f"unknown builtin {base!r}; known: {known}")
    fn, n_args = _BUILTIN_PARSERS[base]
    args: list[float] = []
    if argstr is not None and argstr.strip():
        try:
            args = [float(tok) for tok in argstr.split(",")]
        except ValueError as exc:
            raise UnknownName(f"bad arguments in {name!r}: {exc}") from None
    if len(args) != n_args:
        raise UnknownName(f"{base} takes {n_args} argument(s), got {len(args)}")
    if base == "standard_brownian":
        if args[0] != int(args[0]) or args[0] < 1:
            raise UnknownName("standard_brownian takes a positive integer dimension")
        return fn(int(args[0]))
    return fn(*args)


# -- config (de)serialization ------------------------------------------------

def triplet_to_config(triplet: MatrixLevyTriplet) -> dict:
    """Nested key-value document with exact decimal round-trip."""
    doc: dict = {
        "d": triplet.d,
        "sigma": [float(x) for x in triplet.sigma.ravel()],
        "gamma": [float(x) for x in triplet.gamma.ravel()],
    }
    if triplet.drift0 is not None:
        doc["drift0"] = [float(x) for x in triplet.drift0.ravel()]
    if triplet.jumps.rate != 0.0 or triplet.jumps.atoms:
        jd: dict = {
            "rate": float(triplet.jumps.rate),
            "atoms": [
                {"prob": float(p), "matrix": [float(x) for x in a.ravel()]}
                for p, a in triplet.jumps.atoms
            ],
        }
        if triplet.jumps.truncation_note is not None:
            jd["truncation_eps"] = float(triplet.jumps.truncation_note)
        doc["jumps"] = jd
    return doc


def triplet_from_config(doc: dict) -> MatrixLevyTriplet:
    """Inverse of :func:`triplet_to_config`.  A ``d`` that is not a positive
    integer (2.5, true, "2", 0) raises ValueError."""
    if "d" not in doc:
        raise ValueError("config missing key 'd'")
    d = doc["d"]
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 1:
        raise ValueError(f"key 'd' must be a positive integer, got {d!r}")
    def grid(key, rows, cols, required=True):
        if key not in doc:
            if required:
                raise ValueError(f"config missing key {key!r}")
            return None
        vals = np.asarray(doc[key], dtype=float)
        if vals.size != rows * cols:
            raise ValueError(f"key {key!r} must list {rows * cols} numbers")
        return vals.reshape(rows, cols)

    sigma = grid("sigma", d * d, d * d)
    gamma = grid("gamma", d, d)
    drift0 = grid("drift0", d, d, required=False)
    jumps = _NO_JUMPS
    if "jumps" in doc and doc["jumps"] is not None:
        jd = doc["jumps"]
        atoms = []
        for i, ad in enumerate(jd.get("atoms", [])):
            mat = np.asarray(ad["matrix"], dtype=float)
            if mat.size != d * d:
                raise ValueError(f"jumps.atoms[{i}].matrix must list {d * d} numbers")
            atoms.append((float(ad["prob"]), mat.reshape(d, d)))
        jumps = JumpSpec(rate=float(jd.get("rate", 0.0)), atoms=tuple(atoms),
                         truncation_note=(float(jd["truncation_eps"])
                                          if jd.get("truncation_eps") is not None else None))
    return MatrixLevyTriplet(d=d, sigma=sigma, gamma=gamma, drift0=drift0, jumps=jumps)
