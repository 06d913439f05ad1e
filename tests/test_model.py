"""Triplet construction, validation, builtins, and config round-trip."""

from __future__ import annotations

import math

import numpy as np
import pytest

import levyflow as lf
from levyflow import _engine


class TestBuiltinCatalog:
    NAMES = ["standard_brownian(2)", "standard_brownian(3)", "rotation_rank1",
             "irrational_rotation(1.0)", "sl2_conservative",
             "diagonal_reducible", "gbm1(0.1, 0.2)"]

    @pytest.mark.parametrize("name", NAMES)
    def test_builtins_validate(self, name):
        trip = lf.builtin_triplet(name)
        rep = lf.validate(trip)
        assert rep.valid, rep.violations

    def test_unknown_name(self):
        with pytest.raises(lf.UnknownName):
            lf.builtin_triplet("not_a_model")

    def test_wrong_arity(self):
        with pytest.raises(lf.UnknownName):
            lf.builtin_triplet("gbm1(0.1)")

    def test_fractional_dimension(self):
        with pytest.raises(lf.UnknownName):
            lf.builtin_triplet("standard_brownian(2.5)")

    def test_rotation_rank1_derived_quantities(self):
        trip = lf.builtin_triplet("rotation_rank1")
        # the single atom has Frobenius norm 1, so it is compensated
        np.testing.assert_allclose(trip.jump_compensator(),
                                   [[1.0, 0.0], [0.0, 0.0]], atol=0)
        np.testing.assert_allclose(trip.drift(), [[0.0, -1.0], [1.0, 0.0]], atol=0)
        np.testing.assert_allclose(trip.gamma, [[1.0, -1.0], [1.0, 0.0]], atol=0)
        np.testing.assert_allclose(trip.mean_l1(), [[1.0, -1.0], [1.0, 0.0]], atol=0)
        assert not trip.has_gaussian_part()

    def test_gbm_is_one_dimensional(self):
        trip = lf.builtin_triplet("gbm1(0.1, 0.2)")
        assert trip.d == 1
        assert trip.sigma[0, 0] == pytest.approx(0.04)
        assert trip.has_gaussian_part()


_ZERO_2 = {"d": 2, "sigma": [0.0] * 16, "gamma": [0.0] * 4}


@pytest.mark.parametrize("call, error, message", [
    (lambda: lf.builtin_triplet("rotation rank1"), lf.UnknownName, "cannot parse"),
    (lambda: lf.builtin_triplet("gbm1(0.1, x)"), lf.UnknownName, "bad arguments"),
    (lambda: lf.builtin_triplet("standard_brownian(0)"), lf.UnknownName, "positive integer"),
    (lambda: lf.triplet_from_config({"d": 2, "gamma": [0.0] * 4}), ValueError,
     "missing key 'sigma'"),
    (lambda: lf.triplet_from_config({**_ZERO_2, "sigma": [0.0] * 4}), ValueError,
     "'sigma' must list 16 numbers"),
    (lambda: lf.triplet_from_config({"d": 2, "sigma": [0.0] * 16}), ValueError,
     "missing key 'gamma'"),
    (lambda: lf.triplet_from_config({**_ZERO_2, "gamma": [0.0] * 3}), ValueError,
     "'gamma' must list 4 numbers"),
    (lambda: lf.triplet_from_config(
        {**_ZERO_2, "jumps": {"rate": 1.0, "atoms": [{"prob": 1.0, "matrix": [0.5]}]}}),
     ValueError, r"jumps\.atoms\[0\]\.matrix must list 4 numbers"),
    (lambda: lf.moment_check(lf.builtin_triplet("rotation_rank1"), 0.0), ValueError,
     "epsilon must be positive"),
    (lambda: lf.moment_check(lf.builtin_triplet("rotation_rank1"), -1.0), ValueError,
     "epsilon must be positive"),
], ids=["unparsable_name", "non_numeric_argument", "zero_dimension", "no_sigma",
        "sigma_size", "no_gamma", "gamma_size", "atom_matrix_size", "zero_epsilon",
        "negative_epsilon"])
def test_refusal(call, error, message):
    """The catalog, the config reader and the moment check refuse a bad
    input with a message naming what is wrong."""
    with pytest.raises(error, match=message):
        call()


class TestRowCovariance:
    @pytest.mark.parametrize("name, c", [("standard_brownian(3)", np.eye(3)),
                                         ("gbm1(0.1, 0.2)", [[0.2 ** 2]]),
                                         ("rotation_rank1", np.zeros((2, 2)))])
    def test_builtins(self, name, c):
        np.testing.assert_array_equal(lf.builtin_triplet(name).row_covariance, c)

    def test_kron_form_gives_c_back(self):
        c = np.array([[1.0, 0.5, 0.0], [0.5, 0.25, 0.0], [0.0, 0.0, 0.3]])
        trip = lf.MatrixLevyTriplet(d=3, sigma=np.kron(c, np.eye(3)), gamma=np.zeros((3, 3)))
        np.testing.assert_array_equal(trip.row_covariance, c)
        with pytest.raises(ValueError):
            trip.row_covariance[0, 0] = 2.0

    @pytest.mark.parametrize("sigma", [np.kron(np.eye(2), np.diag([1.0, 0.5])),
                                       np.diag([1.0, 1.0, 1.0, 1.0 + 1e-12]),
                                       lf.builtin_triplet("sl2_conservative").sigma],
                             ids=["column_isotropic", "nearly_isotropic", "sl2_conservative"])
    def test_other_sigma_has_none(self, sigma):
        trip = lf.MatrixLevyTriplet(d=2, sigma=sigma, gamma=np.zeros((2, 2)))
        assert trip.row_covariance is None


def _jump_triplet(rate, *atoms) -> lf.MatrixLevyTriplet:
    """d = 2, no Gaussian part or drift, and the given (prob, atom) pairs."""
    return lf.MatrixLevyTriplet(d=2, sigma=np.zeros((4, 4)), gamma=np.zeros((2, 2)),
                                jumps=lf.JumpSpec(rate=rate, atoms=atoms))


class TestEntryCovariance:
    """sigma read in matrix indices: [m, j, n, l] = sigma[j*d+m, l*d+n]."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_layout_is_the_vec_convention(self, d):
        g = np.random.default_rng(d).standard_normal((d * d, d * d))
        trip = lf.MatrixLevyTriplet(d=d, sigma=g @ g.T, gamma=np.zeros((d, d)))
        cov = trip.entry_covariance
        assert cov.shape == (d, d, d, d) and np.shares_memory(cov, trip.sigma)
        for m, j, n, l in np.ndindex(d, d, d, d):
            assert cov[m, j, n, l] == trip.sigma[j * d + m, l * d + n]
        with pytest.raises(ValueError):
            cov[0, 0, 0, 0] = 1.0
        # the Brownian factor reproduces it: sum_r G[m, j, r] G[n, l, r]
        G = trip.brownian_factor
        np.testing.assert_allclose(np.einsum("mjr,nlr->mjnl", G, G), cov,
                                   rtol=0, atol=1e-12 * np.abs(cov).max())

    def test_sl2_conservative_reads_its_trace_free_part(self):
        # dB = [[W1, W2], [W3, -W1]]: cov(B^(0,0), B^(1,1)) = -1
        cov = lf.builtin_triplet("sl2_conservative").entry_covariance
        assert cov[0, 0, 1, 1] == -1.0 and cov[0, 1, 0, 1] == 1.0
        assert cov[1, 0, 1, 0] == 1.0 and cov[0, 1, 1, 0] == 0.0


def test_atom_law_is_one_read_only_array():
    """probs = rates / rates.sum(): the law the engine draws atoms by."""
    trip = lf.builtin_triplet("diagonal_reducible")
    np.testing.assert_array_equal(trip.probs, trip.rates / trip.rates.sum())
    assert _engine._StepScheme(trip, 0.1).probs is trip.probs
    with pytest.raises(ValueError):
        trip.probs[0] = 1.0


def test_one_cutoff_for_an_atom_and_a_stack():
    """small_jump gives an atom of ||vec a|| next to 1 the same answer alone
    and in the triplet's stack; np.linalg.norm(a) <= 1, the flattened sum,
    and the stacked norm round this atom to opposite sides of 1."""
    shape = np.array([[0.4, -0.9, 1.0], [0.9, 0.1, 0.5], [0.1, -0.7, -0.1]])
    a = shape / np.linalg.norm(shape)
    trip = lf.MatrixLevyTriplet(d=3, sigma=np.zeros((9, 9)), gamma=np.zeros((3, 3)),
                                jumps=lf.JumpSpec(rate=1.0, atoms=((1.0, a),)))
    assert lf.small_jump(a) == lf.small_jump(a[None])[0] == trip.compensated[0]


class TestValidate:
    def test_asymmetric_sigma(self):
        sigma = np.zeros((4, 4))
        sigma[0, 1] = 1.0
        trip = lf.MatrixLevyTriplet(d=2, sigma=sigma, gamma=np.zeros((2, 2)))
        assert "sigma-symmetric" in lf.validate(trip).rules()

    def test_indefinite_sigma(self):
        sigma = np.diag([1.0, -1.0, 1.0, 1.0])
        trip = lf.MatrixLevyTriplet(d=2, sigma=sigma, gamma=np.zeros((2, 2)))
        assert "sigma-psd" in lf.validate(trip).rules()

    def test_probabilities_must_sum_to_one(self):
        jumps = lf.JumpSpec(rate=1.0, atoms=((0.4, np.eye(2)),))
        trip = lf.MatrixLevyTriplet(d=2, sigma=np.zeros((4, 4)),
                                    gamma=np.zeros((2, 2)), jumps=jumps)
        assert "jump-prob-sum" in lf.validate(trip).rules()

    def test_singular_jump_atom(self):
        jumps = lf.JumpSpec(rate=1.0, atoms=((1.0, -np.eye(2)),))
        trip = lf.MatrixLevyTriplet(d=2, sigma=np.zeros((4, 4)),
                                    gamma=np.zeros((2, 2)), jumps=jumps)
        assert "nonsingular-jump" in lf.validate(trip).rules()

    def test_drift_consistency(self):
        jumps = lf.JumpSpec(rate=2.0, atoms=((1.0, 0.1 * np.eye(2)),))
        trip = lf.MatrixLevyTriplet(d=2, sigma=np.zeros((4, 4)),
                                    gamma=np.zeros((2, 2)),
                                    drift0=np.zeros((2, 2)), jumps=jumps)
        rep = lf.validate(trip)
        assert "drift-consistency" in rep.rules()
        # fixing gamma = drift0 + compensator clears the report
        good = lf.MatrixLevyTriplet(d=2, sigma=np.zeros((4, 4)),
                                    gamma=0.2 * np.eye(2),
                                    drift0=np.zeros((2, 2)), jumps=jumps)
        assert lf.validate(good).valid

    @pytest.mark.parametrize("rule, triplet, index", [
        ("dimension", lf.MatrixLevyTriplet(d=0, sigma=np.zeros((0, 0)),
                                           gamma=np.zeros((0, 0))), None),
        ("rate-nonnegative", _jump_triplet(-1.0, (1.0, 0.5 * np.eye(2))), None),
        ("jump-atom-shape", _jump_triplet(1.0, (1.0, 0.5 * np.eye(3))), 0),
        ("jump-prob-positive", _jump_triplet(1.0, (1.0, 0.5 * np.eye(2)),
                                             (0.0, -0.5 * np.eye(2))), 1),
        ("jump-atom-nonzero", _jump_triplet(1.0, (1.0, np.zeros((2, 2)))), 0),
        ("jump-atoms-distinct", _jump_triplet(1.0, (0.5, 0.5 * np.eye(2)),
                                              (0.5, 0.5 * np.eye(2))), 1),
    ], ids=["dimension", "rate-nonnegative", "jump-atom-shape", "jump-prob-positive",
            "jump-atom-nonzero", "jump-atoms-distinct"])
    def test_structural_rule(self, rule, triplet, index):
        """Each rule names its violation, and the atom rules the atom; a
        triplet with d = 0 reports only its dimension."""
        rep = lf.validate(triplet)
        assert not rep.valid
        assert (rule, index) in [(r, i) for r, _, i in rep.violations]
        if rule == "dimension":
            assert rep.rules() == {"dimension"}

    def test_big_atoms_are_not_compensated(self):
        # Frobenius norm 3 > 1: no compensation, so gamma = drift0
        jumps = lf.JumpSpec(rate=1.0, atoms=((1.0, 3.0 * np.eye(2) / np.sqrt(2)),))
        trip = lf.MatrixLevyTriplet(d=2, sigma=np.zeros((4, 4)),
                                    gamma=np.zeros((2, 2)),
                                    drift0=np.zeros((2, 2)), jumps=jumps)
        assert lf.validate(trip).valid
        np.testing.assert_array_equal(trip.jump_compensator(), np.zeros((2, 2)))


class TestMomentCheck:
    def test_small_atoms_contribute_nothing(self):
        trip = lf.builtin_triplet("rotation_rank1")
        rep = lf.moment_check(trip, 1.0)
        assert rep.integral_big == 0.0
        assert rep.integral_inv == 0.0

    def test_big_atom_moment(self):
        a = 9.0 * np.eye(2)
        jumps = lf.JumpSpec(rate=2.0, atoms=((1.0, a),))
        trip = lf.MatrixLevyTriplet(d=2, sigma=np.zeros((4, 4)),
                                    gamma=np.zeros((2, 2)),
                                    drift0=np.zeros((2, 2)), jumps=jumps)
        rep = lf.moment_check(trip, 2.0)
        assert rep.integral_big == pytest.approx(2.0 * 81.0)
        # (I + a)^{-1} - I has operator norm 0.9 < 1: no inverse-side mass
        assert rep.integral_inv == 0.0


class TestSingularStep:
    """One rule, |det(I + a)| <= DET_TOL, at every site that needs I + a
    invertible.  a = diag(-1 + 1e-13, 0) has det(I + a) = 1e-13, not zero:
    an exact-zero test would pass it, and log|det(I + a)| = -29.9."""

    A = np.diag([-1.0 + 1e-13, 0.0])

    def _triplet(self, a):
        jumps = lf.JumpSpec(rate=1.0, atoms=((0.5, a), (0.5, 0.2 * np.eye(2))))
        return lf.MatrixLevyTriplet(d=2, sigma=np.zeros((4, 4)), gamma=np.zeros((2, 2)),
                                    jumps=jumps)

    def test_rule(self):
        assert lf.singular_step(self.A) and not lf.singular_step(0.2 * np.eye(2))
        np.testing.assert_array_equal(
            lf.singular_step(np.stack([self.A, np.zeros((2, 2)), -np.eye(2)])),
            [True, False, True])
        assert lf.singular_step(np.empty((0, 3, 3))).shape == (0,)

    def test_every_site_refuses_the_atom(self):
        trip = self._triplet(self.A)
        assert "nonsingular-jump" in lf.validate(trip).rules()
        for call in (lambda: lf.moment_check(trip, 1.0),
                     lambda: lf.check_characteristics(trip),
                     lambda: lf.det_growth_mean(trip),
                     lambda: lf.mean_check(trip, 1.0, 10, 0),
                     lambda: lf.LevyPath(grid=[0.0, 1.0], increments=np.zeros((1, 2, 2)),
                                         jumps=((1.0, self.A),))):
            with pytest.raises(lf.SingularJump, match=r"\|det\(I \+ (a|mark)\)\| <= 1e-12"):
                call()
        path = lf.LevyPath(grid=[0.0, 1.0], increments=self.A[None])
        with pytest.raises(lf.SingularFactor, match=r"<= 1e-12"):
            lf.emery_exponential(path)

    def test_triplet_sites_give_one_message(self):
        """Every refusal of a triplet's atoms is refuse_singular_atoms'."""
        trip = self._triplet(self.A)
        with pytest.raises(lf.SingularJump) as want:
            lf.refuse_singular_atoms(trip)
        for call in (lambda: lf.moment_check(trip, 1.0),
                     lambda: lf.check_characteristics(trip),
                     lambda: lf.mean_check(trip, 1.0, 10, 0)):
            with pytest.raises(lf.SingularJump) as got:
                call()
            assert str(got.value) == str(want.value)

    def test_atom_just_outside_the_rule_is_accepted(self):
        trip = self._triplet(np.diag([-1.0 + 1e-11, 0.0]))
        assert lf.validate(trip).valid
        assert np.isfinite(lf.check_characteristics(trip).mean)
        lf.moment_check(trip, 1.0)


class TestCompensatedMask:
    """The truncation 1{||vec a|| <= 1} of the triplet is one cached mask,
    read by jump_compensator, and through drift() by generator_apply and
    check_characteristics.  The atoms have ||vec a|| exactly 1 and one ulp
    below and above it; the triplet has no drift0, so its drift is gamma
    minus the compensation the mask selects."""

    ATOMS = (np.diag([1.0, 0.0, 0.0]), np.diag([0.0, np.nextafter(1.0, 0.0), 0.0]),
             np.diag([0.0, 0.0, np.nextafter(1.0, 2.0)]))
    RATES = (0.5, 1.25, 2.0)

    def _triplet(self):
        jumps = lf.JumpSpec(rate=sum(self.RATES),
                            atoms=tuple((r / sum(self.RATES), a)
                                        for r, a in zip(self.RATES, self.ATOMS)))
        gamma = np.array([[0.3, -0.2, 0.1], [0.0, 0.4, 0.2], [0.5, 0.0, -0.1]])
        return lf.MatrixLevyTriplet(d=3, sigma=np.zeros((9, 9)), gamma=gamma, jumps=jumps)

    def _loop(self, trip):
        """[(rate, atom, compensated)] per atom, the norm summed in Python."""
        return [(r, a, math.sqrt(sum(x * x for x in a.ravel().tolist())) <= 1.0)
                for r, a in zip(trip.rates.tolist(), trip.marks)]

    def test_mask_at_the_boundary(self):
        trip = self._triplet()
        assert trip.compensated.tolist() == [c for _, _, c in self._loop(trip)]
        assert trip.compensated.tolist() == [True, True, False]
        with pytest.raises(ValueError):
            trip.compensated[2] = True

    def test_compensator_agrees_with_a_loop(self):
        trip = self._triplet()
        want = sum(r * a for r, a, c in self._loop(trip) if c)
        np.testing.assert_allclose(trip.jump_compensator(), want, rtol=1e-15, atol=0.0)

    def test_generator_first_order_term_agrees_with_a_loop(self):
        trip = self._triplet()
        c = np.arange(9.0).reshape(3, 3) - 4.0
        f = lf.SmoothFunction(value=lambda x: np.sum(c * x, axis=(-2, -1)),
                              grad=lambda x: c, hess=lambda x: np.zeros((3, 3, 3, 3)))
        x = np.eye(3) + 0.1 * np.arange(9.0).reshape(3, 3)
        ell = x @ trip.gamma - sum(r * x @ a for r, a, comp in self._loop(trip) if comp)
        jumps = sum(r * (f.value(x + x @ a) - f.value(x)) for r, a, _ in self._loop(trip))
        assert lf.generator_apply(trip, f, x) == pytest.approx(np.sum(ell * c) + jumps,
                                                              rel=1e-13)

    def test_log_det_gamma_agrees_with_a_loop(self):
        trip = self._triplet()
        want = float(np.trace(trip.gamma))
        for r, a, comp in self._loop(trip):
            v = math.log(abs(np.linalg.det(np.eye(3) + a)))
            want += r * (v * (abs(v) <= 1.0) - np.trace(a) * comp)
        assert lf.check_characteristics(trip).gamma_D == pytest.approx(want, rel=1e-13)


def test_closed_forms_read_the_drift_once():
    """Where drift0 is set it is the drift: changing gamma alone (a triplet
    that ``validate`` would refuse) moves neither check_characteristics nor
    generator_apply, which read ``drift()`` as the engine does."""
    from levyflow.cli import _gauss_bump

    jumps = lf.JumpSpec(rate=1.5, atoms=((0.5, [[0.2, 0.1], [0.0, -0.3]]),
                                         (0.5, [[1.5, 0.0], [0.4, 0.2]])))
    drift0 = np.array([[0.1, -0.2], [0.3, 0.05]])
    x = np.array([[1.0, 0.2], [-0.1, 0.9]])
    f = _gauss_bump(np.eye(2), 1.0)
    seen = []
    for gamma in (np.zeros((2, 2)), np.array([[5.0, 1.0], [-2.0, 3.0]])):
        trip = lf.MatrixLevyTriplet(d=2, sigma=0.1 * np.eye(4), gamma=gamma, drift0=drift0,
                                    jumps=jumps)
        seen.append((lf.check_characteristics(trip), lf.generator_apply(trip, f, x)))
    assert seen[0] == seen[1]


class TestConfigRoundTrip:
    def test_exact_round_trip(self):
        jumps = lf.JumpSpec(rate=1.5,
                            atoms=((0.25, [[0.1, 0.2], [0.3, 0.4]]),
                                   (0.75, [[-0.3, 0.0], [0.0, 0.7]])),
                            truncation_note=0.05)
        trip = lf.MatrixLevyTriplet(d=2, sigma=np.diag([0.1, 0.2, 0.2, 0.3]),
                                    gamma=[[0.8125, 0.05], [0.075, 0.625]],
                                    drift0=[[0.5, 0.0], [0.0, 0.1]], jumps=jumps)
        doc = lf.triplet_to_config(trip)
        back = lf.triplet_from_config(doc)
        np.testing.assert_array_equal(back.sigma, trip.sigma)
        np.testing.assert_array_equal(back.gamma, trip.gamma)
        np.testing.assert_array_equal(back.drift0, trip.drift0)
        assert back.jumps.rate == trip.jumps.rate
        assert back.jumps.truncation_note == trip.jumps.truncation_note
        for (p1, a1), (p2, a2) in zip(back.jumps.atoms, trip.jumps.atoms):
            assert p1 == p2
            np.testing.assert_array_equal(a1, a2)

    def test_round_trip_survives_json(self):
        import json
        trip = lf.builtin_triplet("sl2_conservative")
        doc = json.loads(json.dumps(lf.triplet_to_config(trip)))
        back = lf.triplet_from_config(doc)
        np.testing.assert_array_equal(back.sigma, trip.sigma)
        np.testing.assert_array_equal(back.gamma, trip.gamma)

    def test_missing_dimension(self):
        with pytest.raises(ValueError, match="'d'"):
            lf.triplet_from_config({"sigma": [0.0], "gamma": [0.0]})

    @pytest.mark.parametrize("d", [2.5, 2.0, True, "2", None, 0, -1])
    def test_non_integer_dimension(self, d):
        """d = 2.5 would otherwise become 2, d = true a sigma-length error and
        d = 0 an error about an empty reduction."""
        with pytest.raises(ValueError, match="'d' must be a positive integer"):
            lf.triplet_from_config({"d": d, "sigma": [0.0] * 16, "gamma": [0.0] * 4})


class TestImmutability:
    def test_arrays_are_frozen(self):
        trip = lf.builtin_triplet("rotation_rank1")
        with pytest.raises(ValueError):
            trip.gamma[0, 0] = 99.0
        with pytest.raises(ValueError):
            trip.jumps.atoms[0][1][0, 0] = 99.0
