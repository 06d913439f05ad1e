"""Determinant process: characteristics, closed form, CLT scaling, SL(d)."""

from __future__ import annotations

import numpy as np
import pytest

import levyflow as lf

SB2 = lf.builtin_triplet("standard_brownian(2)")
ROT = lf.builtin_triplet("rotation_rank1")


class TestCharacteristics:
    def test_isotropic_brownian(self):
        ct = lf.check_characteristics(SB2)
        # sigma = I_{d^2}: trace variance rate d, Ito correction d
        assert ct.sigma_D == pytest.approx(2.0, abs=1e-14)
        assert ct.gamma_D == pytest.approx(-1.0, abs=1e-14)
        assert ct.nu_D == ()
        assert ct.mean == pytest.approx(-1.0, abs=1e-14)

    def test_rank_one_jump_model(self):
        ct = lf.check_characteristics(ROT)
        assert ct.sigma_D == 0.0
        # trace(gamma) = 1, no Ito term; the unit-Frobenius atom contributes
        # log det(I + a) = log 2 inside and +trace(a) = 1 back out
        assert ct.gamma_D == pytest.approx(np.log(2.0), abs=1e-14)
        assert len(ct.nu_D) == 1
        rate, v = ct.nu_D[0]
        assert rate == pytest.approx(1.0)
        assert v == pytest.approx(np.log(2.0), abs=1e-14)
        assert ct.mean == pytest.approx(np.log(2.0), abs=1e-14)

    def test_scalar_geometric_model(self):
        trip = lf.builtin_triplet("gbm1(0.1, 0.2)")
        ct = lf.check_characteristics(trip)
        assert ct.sigma_D == pytest.approx(0.04, abs=1e-14)
        assert ct.gamma_D == pytest.approx(0.08, abs=1e-14)
        assert ct.mean == pytest.approx(0.08, abs=1e-14)

    def test_volume_conserving_model(self):
        trip = lf.builtin_triplet("sl2_conservative")
        ct = lf.check_characteristics(trip)
        assert ct.sigma_D == 0.0
        assert ct.mean == pytest.approx(0.0, abs=1e-14)
        assert lf.det_growth_mean(trip) == pytest.approx(0.0, abs=1e-14)

    def test_zero_log_det_atoms_dropped(self):
        # nilpotent atom: det(I + a) = 1 contributes nothing to nu_D
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        trip = lf.MatrixLevyTriplet(d=2, sigma=np.zeros((4, 4)),
                                    gamma=np.zeros((2, 2)),
                                    drift0=np.zeros((2, 2)),
                                    jumps=lf.JumpSpec(rate=1.0, atoms=((1.0, a),)))
        assert lf.check_characteristics(trip).nu_D == ()


class TestLogSeries:
    def test_matches_direct_determinant(self):
        path = lf.sample_levy_path(ROT, T=4.0, dt=0.2, seed=17)
        X = lf.exact_cpp_exponential(path, ROT).X
        _, logabs, sign = lf.det_log_series(path, ROT)
        direct_sign, direct_log = np.linalg.slogdet(X)
        np.testing.assert_allclose(logabs, direct_log, atol=1e-10)
        np.testing.assert_array_equal(sign, direct_sign)

    def test_negative_determinant_sign(self):
        # det(I + a) = -1: each jump flips the sign of D_t
        a = np.array([[-2.0, 0.0], [0.0, 0.0]])
        trip = lf.MatrixLevyTriplet(d=2, sigma=np.zeros((4, 4)),
                                    gamma=np.zeros((2, 2)),
                                    drift0=np.zeros((2, 2)),
                                    jumps=lf.JumpSpec(rate=2.0, atoms=((1.0, a),)))
        path = lf.sample_levy_path(trip, T=3.0, dt=0.5, seed=2)
        n_jumps = len(path.jumps)
        assert n_jumps > 0
        _, _, sign = lf.det_log_series(path, trip)
        assert sign[-1] == (-1.0) ** n_jumps

    def test_closed_form_rows(self):
        path = lf.sample_levy_path(SB2, T=1.0, dt=0.25, seed=0)
        rows = lf.det_closed_form(path, SB2)
        assert rows.shape == (len(path.grid), 2)
        np.testing.assert_array_equal(rows[:, 0], path.grid)
        assert rows[0, 1] == pytest.approx(1.0)

    def test_singular_jump_rejected(self):
        # the path itself refuses the jump, before any series is formed
        with pytest.raises(lf.SingularJump):
            lf.LevyPath(grid=[0.0, 1.0], increments=[np.zeros((2, 2))],
                        jumps=((1.0, np.diag([-1.0 + 1e-16, 0.0])),))


class TestCltParams:
    def test_centering_is_t_times_mean(self):
        # one compensated small-log-det atom, one big one
        big = 9.0 * np.eye(2)       # log det(I + a) = log 100 > 1
        small = 0.2 * np.eye(2)     # log det(I + a) = log 1.44 < 1
        jumps = lf.JumpSpec(rate=2.0, atoms=((0.5, big), (0.5, small)))
        trip = lf.MatrixLevyTriplet(d=2, sigma=np.eye(4),
                                    gamma=0.2 * np.eye(2),
                                    drift0=0.2 * np.eye(2) - small * 1.0,
                                    jumps=jumps)
        ct = lf.check_characteristics(trip)
        for T in (1.0, 7.5):
            centering, scale, applicable = lf.det_clt_params(trip, T)
            assert applicable
            assert centering == pytest.approx(T * ct.mean, rel=1e-12)
            assert scale == pytest.approx(np.sqrt(ct.sigma_D * T), rel=1e-12)

    def test_pure_jump_not_applicable(self):
        centering, scale, applicable = lf.det_clt_params(ROT, 10.0)
        assert not applicable
        assert scale == 0.0
        assert centering == pytest.approx(10.0 * np.log(2.0), rel=1e-12)


class TestSlMembership:
    def test_volume_conserving_member(self):
        member, failed = lf.sl_membership(lf.builtin_triplet("sl2_conservative"))
        assert member
        assert failed == []

    def test_isotropic_brownian_fails_both_gaussian_rules(self):
        member, failed = lf.sl_membership(SB2)
        assert not member
        assert set(failed) == {"brownian-trace", "drift-trace"}

    def test_jump_rule(self):
        member, failed = lf.sl_membership(ROT)
        assert not member
        assert "jump-det" in failed
