"""Proximality, irreducibility certificates, and the generator."""

from __future__ import annotations

import numpy as np
import pytest

import levyflow as lf
from levyflow import geometry
from levyflow.cli import _gauss_bump

SB2 = lf.builtin_triplet("standard_brownian(2)")
ROT = lf.builtin_triplet("rotation_rank1")


def _cpp_triplet(d, drift, jumps=lf.JumpSpec()) -> lf.MatrixLevyTriplet:
    drift = np.asarray(drift, dtype=float)
    zero = np.zeros((d * d, d * d))
    t0 = lf.MatrixLevyTriplet(d=d, sigma=zero, gamma=np.zeros((d, d)),
                              drift0=np.zeros((d, d)), jumps=jumps)
    return lf.MatrixLevyTriplet(d=d, sigma=zero,
                                gamma=drift + t0.jump_compensator(),
                                drift0=drift, jumps=jumps)


class TestIsProximal:
    def test_simple_dominant_eigenvalue(self):
        assert lf.is_proximal(np.diag([2.0, 1.0, 1.0]))
        assert lf.is_proximal(np.diag([-3.0, 1.0]))

    def test_tied_modulus_is_not_proximal(self):
        assert not lf.is_proximal(np.diag([2.0, 2.0, 1.0]))
        assert not lf.is_proximal(np.diag([2.0, -2.0, 1.0]))
        assert not lf.is_proximal(np.eye(2))

    @pytest.mark.parametrize("a, proximal", [
        (np.zeros((2, 2)), False), ([[0.0, 1.0], [0.0, 0.0]], False),
        ([[0.0]], False), ([[2.0]], True), ([[-0.5]], True),
    ], ids=["zero", "nilpotent", "d1_zero", "d1_positive", "d1_negative"])
    def test_zero_spectrum_and_scalars(self, a, proximal):
        """A spectrum of zeros has no dominant eigenvalue; a nonzero 1 x 1
        matrix is proximal."""
        assert lf.is_proximal(np.array(a)) is proximal

    def test_rotation_is_not_proximal(self):
        c, s = np.cos(0.7), np.sin(0.7)
        assert not lf.is_proximal(np.array([[c, -s], [s, c]]))

    def test_conjugation_invariant(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            lam = np.sort(rng.uniform(0.5, 3.0, 3))
            lam[-1] += 0.5  # force a clear spectral gap
            a = np.diag(lam)
            g = rng.standard_normal((3, 3))
            while abs(np.linalg.det(g)) < 0.1:
                g = rng.standard_normal((3, 3))
            conj = g @ a @ np.linalg.inv(g)
            assert lf.is_proximal(conj) == lf.is_proximal(a)


class TestIpCertify:
    def test_full_rank_gaussian_certifies(self):
        cert = lf.ip_certify(SB2, seed=0)
        assert cert.status == "certified"
        assert cert.route == "brownian_full_rank"

    def test_degenerate_gaussian_is_unknown(self):
        cert = lf.ip_certify(lf.builtin_triplet("sl2_conservative"), seed=0)
        assert cert.status == "unknown"

    def test_witness_is_replayable(self):
        for name in ("rotation_rank1", "irrational_rotation(1.0)"):
            cert = lf.ip_certify(lf.builtin_triplet(name), seed=0)
            assert cert.status == "certified"
            assert cert.route == "cpp_semigroup"
            w = cert.witness
            prod = np.eye(2)
            for k in w["word"]:
                prod = prod @ w["generators"][k]
            np.testing.assert_allclose(prod, w["matrix"], atol=1e-12)
            assert lf.is_proximal(prod)
            assert len(w["labels"]) == len(w["word"])

    def test_diagonal_family_falsifies(self):
        cert = lf.ip_certify(lf.builtin_triplet("diagonal_reducible"), seed=0)
        assert cert.status == "falsified_irreducibility"
        assert cert.counterexample["kind"] == "lines"
        vecs = cert.counterexample["vectors"]
        assert len(vecs) >= 1

    def test_quarter_turn_jump_falsifies(self):
        # diagonalizable drift with a 90-degree rotation atom: the axis pair
        # {e1, e2} is a finite invariant family of lines
        drift = np.array([[1.0, 0.0], [0.0, 0.0]])
        atom = np.array([[0.0, -1.0], [1.0, 0.0]]) - np.eye(2)
        trip = _cpp_triplet(2, drift, lf.JumpSpec(rate=1.0, atoms=((1.0, atom),)))
        cert = lf.ip_certify(trip, seed=0)
        assert cert.status == "falsified_irreducibility"
        assert cert.counterexample["kind"] == "lines"

    # sigma = 0 route: no generator at all; a quarter-turn drift whose words
    # are all rotations, searched through random words of length 3..6 and of
    # length 2 (search depth 2) without a proximal one; and atoms R_1 (a
    # rotation by 1 radian, the density pattern) and B, every word of length
    # <= 2 elliptic but R_1 B B hyperbolic, so the random words find it
    _R1 = np.array([[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]])
    _B = np.array([[0.975, 1.0167], [-0.0486, 0.975]])

    @pytest.mark.parametrize("triplet, depth, status, route", [
        (_cpp_triplet(2, np.zeros((2, 2))), 6, "unknown", "search"),
        (_cpp_triplet(2, [[0.0, -1.0], [1.0, 0.0]]), 6, "unknown", "search"),
        (_cpp_triplet(2, [[0.0, -1.0], [1.0, 0.0]]), 2, "unknown", "search"),
        (_cpp_triplet(2, np.zeros((2, 2)), lf.JumpSpec(
            rate=1.0, atoms=((0.5, _R1 - np.eye(2)), (0.5, _B - np.eye(2))))), 3,
         "certified", "cpp_semigroup"),
    ], ids=["no_generators", "rotations_random_words", "rotations_depth_2",
            "random_word_witness"])
    def test_search_route(self, triplet, depth, status, route):
        cert = lf.ip_certify(triplet, search_depth=depth, seed=0)
        assert (cert.status, cert.route) == (status, route)
        if cert.witness is not None:
            word = cert.witness["word"]
            assert len(word) >= 3  # past the breadth-first words of length <= 2
            prod = np.eye(2)
            for k in word:
                prod = prod @ cert.witness["generators"][k]
            assert lf.is_proximal(prod)

    def test_no_word_search_without_a_density_pattern(self, monkeypatch):
        """d = 3 has no rotation-density pattern, so no proximal word could
        certify: the search is not run and the result is unknown."""
        def no_search(*args, **kwargs):
            raise AssertionError("the word search ran")

        rng = np.random.default_rng(3)
        atoms = tuple((0.5, rng.normal(0.0, 0.5, (3, 3))) for _ in range(2))
        trip = _cpp_triplet(3, np.zeros((3, 3)), lf.JumpSpec(rate=1.0, atoms=atoms))
        monkeypatch.setattr(geometry, "_proximal_word", no_search)
        cert = lf.ip_certify(trip, seed=0)
        assert (cert.status, cert.route) == ("unknown", "search")

    @pytest.mark.parametrize("n_samples", [-3, 0, 7])
    def test_too_few_samples_raise(self, n_samples):
        with pytest.raises(ValueError, match="n_samples"):
            lf.ip_certify(ROT, n_samples=n_samples, seed=0)


def _closure_per_line(start, mats, act, cap):
    """The orbit closure one frontier line and one generator at a time."""
    family, frontier = [start], [start]
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


def _family_per_line(gens, d, cap):
    """_find_invariant_family with the per-line closure: lines v -> v m,
    then (d = 3) plane normals n -> m^{-1} n."""
    mats = [m for _, m in gens]
    starts = [(s, lambda v, m: lf.canonical_unit(v @ m), "lines", "vectors")
              for m in mats for s in geometry._real_eigvecs(m.T)]
    if d == 3:
        starts += [(s, lambda n, m: lf.canonical_unit(np.linalg.solve(m, n)), "planes",
                    "normals") for m in mats for s in geometry._real_eigvecs(m)]
    for start, act, kind, key in starts:
        family = _closure_per_line(start, mats, act, cap)
        if family is not None:
            return {"kind": kind, key: np.array(family)}
    return None


def _random_generator_sets(n_sets):
    """Generator sets in d = 1..3 of general, diagonal, signed-permutation
    and triangular matrices; d = 2, 3 sets of signed permutations (a finite
    group, so orbits close after several passes with several new lines per
    pass); and d = 3 sets that fix a plane but no line."""
    rng = np.random.default_rng(3)
    for _ in range(n_sets // 2):
        d = int(rng.integers(2, 4))
        yield d, [np.eye(d)[rng.permutation(d)] * rng.choice([-1.0, 1.0], d)
                  for _ in range(rng.integers(2, 5))]
    for _ in range(n_sets):
        d = int(rng.integers(1, 4))
        kinds = [lambda: rng.standard_normal((d, d)),
                 lambda: np.diag(rng.standard_normal(d)),
                 lambda: np.eye(d)[rng.permutation(d)] * rng.choice([-1.0, 1.0], d),
                 lambda: np.triu(rng.standard_normal((d, d)))]
        yield d, [kinds[rng.integers(4)]() for _ in range(rng.integers(1, 5))]
    for _ in range(n_sets // 2):
        mats = []
        for _ in range(rng.integers(1, 4)):
            th = rng.uniform(0.0, 2.0 * np.pi)
            m = np.zeros((3, 3))
            m[:2, :2] = rng.uniform(0.5, 2.0) * np.array([[np.cos(th), -np.sin(th)],
                                                          [np.sin(th), np.cos(th)]])
            m[2] = [*rng.standard_normal(2), rng.uniform(0.5, 2.0)]
            mats.append(m)
        yield 3, mats


class TestOrbitSearch:
    """The batched orbit search finds the per-line loop's family, bit for
    bit, or None with it."""

    @staticmethod
    def _assert_same(gens, d, cap):
        got, want = geometry._find_invariant_family(gens, d, cap), _family_per_line(gens, d, cap)
        assert (got is None) == (want is None)
        if want is not None:
            assert got.keys() == want.keys() and got["kind"] == want["kind"]
            key = "vectors" if want["kind"] == "lines" else "normals"
            np.testing.assert_array_equal(got[key], want[key])
        return want

    @pytest.mark.parametrize("name", ["rotation_rank1", "irrational_rotation(1.0)",
                                      "diagonal_reducible", "sl2_conservative"])
    @pytest.mark.parametrize("cap", [2, 6, 12])
    def test_builtin_catalog(self, name, cap):
        triplet = lf.builtin_triplet(name)
        gens = geometry._generators(triplet, 32, np.random.default_rng(0))
        self._assert_same(gens, triplet.d, cap)

    def test_random_generator_sets(self):
        found = set()
        for k, (d, mats) in enumerate(_random_generator_sets(120)):
            want = self._assert_same([(str(i), m) for i, m in enumerate(mats)], d, 1 + k % 13)
            found.add(None if want is None else want["kind"])
        assert found == {None, "lines", "planes"}


class TestGeneratorApply:
    def test_scalar_quadratic(self):
        trip = lf.builtin_triplet("gbm1(0.1, 0.2)")
        f = lf.SmoothFunction(
            value=lambda x: x[..., 0, 0] ** 2,
            grad=lambda x: np.array([[2.0 * x[0, 0]]]),
            hess=lambda x: np.full((1, 1, 1, 1), 2.0))
        # drift part 2*mu*x^2, diffusion part vol^2 * x^2, at x = 1
        val = lf.generator_apply(trip, f, np.array([[1.0]]))
        assert val == pytest.approx(0.24, abs=1e-12)
        val2 = lf.generator_apply(trip, f, np.array([[2.0]]))
        assert val2 == pytest.approx(4.0 * 0.24, abs=1e-12)

    def test_linear_function_sees_mean_dynamics(self):
        # for linear f the compensation cutoffs cancel: A f(x) = <x E[L_1], C>
        C = np.array([[1.0, -0.5], [0.25, 2.0]])
        zero4 = np.zeros((2, 2, 2, 2))
        f = lf.SmoothFunction(value=lambda x: np.sum(C * x, axis=(-2, -1)),
                              grad=lambda x: C, hess=lambda x: zero4)
        rng = np.random.default_rng(3)
        for trip in (ROT, SB2):
            for _ in range(3):
                x = np.eye(2) + 0.3 * rng.standard_normal((2, 2))
                want = float(np.sum((x @ trip.mean_l1()) * C))
                assert lf.generator_apply(trip, f, x) == pytest.approx(want, abs=1e-9)

    def test_linearity_in_f(self):
        b1 = _gauss_bump(np.eye(2), 1.0)
        b2 = _gauss_bump(0.5 * np.eye(2), 0.7)
        combo = lf.SmoothFunction(
            value=lambda x: 2.0 * b1.value(x) + 3.0 * b2.value(x),
            grad=lambda x: 2.0 * b1.grad(x) + 3.0 * b2.grad(x),
            hess=lambda x: 2.0 * b1.hess(x) + 3.0 * b2.hess(x))
        x = np.array([[1.1, 0.2], [-0.1, 0.9]])
        got = lf.generator_apply(ROT, combo, x)
        want = (2.0 * lf.generator_apply(ROT, b1, x)
                + 3.0 * lf.generator_apply(ROT, b2, x))
        assert got == pytest.approx(want, abs=1e-10)

    def test_bump_value_scales_with_width(self):
        # at the bump center the drift and jump terms vanish to first order
        # only for zero-jump models; isotropic Brownian gives -d^2 / (2 w^2)
        for w, want in ((1.0, -2.0), (0.5, -8.0), (2.0, -0.5)):
            f = _gauss_bump(np.eye(2), w)
            assert lf.generator_apply(SB2, f, np.eye(2)) == pytest.approx(want, abs=1e-9)

    def test_inconsistent_gradient_rejected(self):
        f = lf.SmoothFunction(
            value=lambda x: x[..., 0, 0] ** 2,
            grad=lambda x: np.array([[1.0]]),  # wrong: should be 2x
            hess=lambda x: np.full((1, 1, 1, 1), 2.0))
        with pytest.raises(lf.InconsistentDerivatives):
            lf.generator_apply(lf.builtin_triplet("gbm1(0.1, 0.2)"), f,
                               np.array([[1.0]]))

    def test_inconsistent_hessian_rejected(self):
        f = lf.SmoothFunction(
            value=lambda x: x[..., 0, 0] ** 2,
            grad=lambda x: np.array([[2.0 * x[0, 0]]]),
            hess=lambda x: np.full((1, 1, 1, 1), 5.0))
        with pytest.raises(lf.InconsistentDerivatives):
            lf.generator_apply(lf.builtin_triplet("gbm1(0.1, 0.2)"), f,
                               np.array([[1.0]]))


class TestGeneratorMcCheck:
    def test_value_is_called_on_stacks_not_per_path(self):
        bump = _gauss_bump(np.eye(2), 1.0)
        shapes = []

        def value(x):
            shapes.append(np.shape(x))
            return bump.value(x)

        f = lf.SmoothFunction(value=value, grad=bump.grad, hess=bump.hess)
        counts = []
        for n_paths in (10, 1000):
            shapes.clear()
            lf.generator_mc_check(SB2, f, np.eye(2), [1e-2, 5e-3], n_paths, seed=0)
            counts.append(len(shapes))
            assert (n_paths, 2, 2) in shapes
        assert counts[0] == counts[1]

    def test_deterministic_dynamics_use_zero_se_convention(self):
        drift = np.array([[0.1, 0.3], [0.0, -0.2]])
        trip = _cpp_triplet(2, drift)
        C = np.array([[1.0, -0.5], [0.25, 2.0]])
        zero4 = np.zeros((2, 2, 2, 2))
        f = lf.SmoothFunction(value=lambda x: np.sum(C * x, axis=(-2, -1)),
                              grad=lambda x: C, hess=lambda x: zero4)
        rows, a_val = lf.generator_mc_check(trip, f, np.eye(2), [1e-2],
                                            n_paths=6, seed=0)
        (h, q, se, z), = rows
        assert se == 0.0 and z == 0.0
        assert q == pytest.approx(a_val, abs=0.05)
