"""Tests for the spin-1/2 magnetometry example against the generic machinery."""

import numpy as np
import pytest

from su2qfi import (
    FieldPoint,
    UnphysicalStateError,
    characterize,
    closed_form_generator,
    density,
    field_coefficients,
    generators_controlled,
    generators_no_control,
    magnetometry_scheme,
    numeric_generator,
    off_diagonal_check,
    precision_curves,
    qfi_max,
    qfim_controlled,
    qfim_no_control,
    su2_element,
    weak_comm_example,
    weak_comm_residual,
)
from su2qfi.magnetometry import field_axes, orthogonality_frame
from su2qfi.oracles import entangled_qfim_fd, qfim_trace_oracle, weak_comm_trace_oracle
from su2qfi.qfi import BELL_PHI_PLUS

RNG = np.random.default_rng(505)

POINT = FieldPoint(3.0, np.pi / 6, 0.0)


def random_unit(rng=RNG):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_point(rng=RNG, theta_margin=0.05):
    return FieldPoint(
        rng.uniform(0.1, 5.0),
        rng.uniform(theta_margin, np.pi - theta_margin),
        rng.uniform(0.0, 2 * np.pi),
    )


class TestFieldPoint:
    def test_validation(self):
        with pytest.raises(UnphysicalStateError):
            FieldPoint(0.0, 0.5, 0.5)
        with pytest.raises(UnphysicalStateError):
            FieldPoint(1.0, -0.1, 0.5)
        with pytest.raises(UnphysicalStateError):
            FieldPoint(1.0, 0.5, 7.0)

    def test_axes_geometry(self):
        for _ in range(200):
            p = random_point()
            n0, n0_theta, n0_phi = field_axes(p)
            assert abs(np.linalg.norm(n0) - 1) < 1e-14
            assert abs(np.linalg.norm(n0_theta) - 1) < 1e-14
            assert abs(np.linalg.norm(n0_phi) - np.sin(p.theta)) < 1e-12
            assert abs(np.dot(n0, n0_theta)) < 1e-12
            assert abs(np.dot(n0, n0_phi)) < 1e-12
            assert abs(np.dot(n0_theta, n0_phi)) < 1e-12

    def test_axis_cross_relations(self):
        for _ in range(100):
            p = random_point()
            n0, n0_theta, n0_phi = field_axes(p)
            st = np.sin(p.theta)
            assert np.abs(np.cross(n0, n0_theta) - n0_phi / st).max() < 1e-12
            assert np.abs(np.cross(n0, n0_phi) - (-st) * n0_theta).max() < 1e-12
            assert np.abs(np.cross(n0_theta, n0_phi) - st * n0).max() < 1e-12


class TestFieldCoefficients:
    def test_reference_point(self):
        x, db, dtheta, dphi = field_coefficients(POINT)
        assert np.allclose(x, [3.0, 0.0, 3.0 * np.sqrt(3)], atol=1e-14)
        assert np.allclose(db, x / 3.0, atol=1e-14)
        del dtheta, dphi

    def test_pole_kills_azimuth_partial(self):
        p = FieldPoint(2.0, 0.0, 0.3)
        _, _, _, dphi = field_coefficients(p)
        assert np.allclose(dphi, [0, 0, 0])

    def test_characterization_angles(self):
        x, db, dtheta, dphi = field_coefficients(POINT)
        alphas = characterize(x, [db, dtheta, dphi])
        assert np.allclose(alphas, [0.0, np.pi / 2, np.pi / 2], atol=1e-12)

    def test_scheme_partials_agree_with_finite_differences(self):
        # construction-time validation runs on the field point
        scheme = magnetometry_scheme(random_point(), 0.5, 4)
        assert scheme.n_params == 3


class TestGenerators:
    def test_field_magnitude_generator(self):
        gen_b, _, _ = generators_no_control(POINT, 2.5)
        n0 = field_axes(POINT)[0]
        assert np.linalg.norm(gen_b) == pytest.approx(5.0, rel=1e-15)
        assert np.allclose(gen_b / np.linalg.norm(gen_b), -n0, atol=1e-14)

    def test_colatitude_magnitude(self):
        _, gen_theta, _ = generators_no_control(POINT, 1.0)
        assert np.linalg.norm(gen_theta) == pytest.approx(2 * np.sin(3.0), abs=1e-14)

    def test_magnitude_triple(self):
        for _ in range(50):
            p = random_point()
            t = RNG.uniform(0.1, 5.0)
            gens = generators_no_control(p, t)
            bt = p.B * t
            expected = (2 * t, 2 * abs(np.sin(bt)), 2 * abs(np.sin(bt)) * np.sin(p.theta))
            for gen, mag in zip(gens, expected):
                assert np.linalg.norm(gen) == pytest.approx(mag, abs=1e-12)

    def test_zero_time_all_vanish(self):
        assert all(np.linalg.norm(g) == 0.0 for g in generators_no_control(POINT, 0.0))

    def test_against_generic_closed_form_on_grid(self):
        # >= 10^4 (B, theta, phi, T) points
        worst = 0.0
        bs = np.linspace(0.2, 4.8, 10)
        thetas = np.linspace(0.05, np.pi - 0.05, 10)
        phis = np.linspace(0.0, 2 * np.pi, 10, endpoint=False)
        ts = np.linspace(0.1, 5.0, 10)
        for b in bs:
            for theta in thetas:
                for phi in phis:
                    for t in ts:
                        p = FieldPoint(b, theta, phi)
                        x, db, dtheta, dphi = field_coefficients(p)
                        example = generators_no_control(p, t)
                        generic = [
                            closed_form_generator(x, d, t) for d in (db, dtheta, dphi)
                        ]
                        for ge, gg in zip(example, generic):
                            worst = max(worst, np.abs(su2_element(ge) - su2_element(gg)).max())
        assert worst < 1e-12

    def test_controlled_generators_match_generic(self):
        for _ in range(200):
            p = random_point()
            t = RNG.uniform(0.1, 5.0)
            x, db, dtheta, dphi = field_coefficients(p)
            example = generators_controlled(p, t)
            for gen, d in zip(example, (db, dtheta, dphi)):
                generic = closed_form_generator(np.zeros(3), d, t)
                assert np.abs(su2_element(gen) - su2_element(generic)).max() < 1e-12

    def test_direction_cross_relations(self):
        # the closed-form signed axes satisfy a right-handed frame relation
        for _ in range(200):
            p = random_point()
            t = RNG.uniform(0.1, 5.0)
            bt = p.B * t
            n0, n0_theta, _ = field_axes(p)
            m = np.array([-np.sin(p.phi), np.cos(p.phi), 0.0])
            e_b = -n0
            e_theta = -np.cos(bt) * n0_theta + np.sin(bt) * m
            e_phi = -np.cos(bt) * m - np.sin(bt) * n0_theta
            assert np.abs(np.cross(e_b, e_theta) + e_phi).max() < 1e-12
            assert np.abs(np.cross(e_b, e_phi) - e_theta).max() < 1e-12
            assert np.abs(np.cross(e_theta, e_phi) + e_b).max() < 1e-12

    def test_numeric_oracle_agrees(self):
        for controlled in (False, True):
            p = POINT
            scheme = magnetometry_scheme(
                p, 1.0, 2, control="optimal" if controlled else "none"
            )
            gens = (
                generators_controlled(p, 2.0) if controlled else generators_no_control(p, 2.0)
            )
            for ell in range(3):
                num = numeric_generator(scheme, p.as_array(), ell, h=1e-6)
                assert np.abs(num - su2_element(gens[ell])).max() < 1e-6


class TestQfims:
    def test_no_control_reference(self):
        qfim = qfim_no_control(POINT, 1.0)
        expected = np.diag([4.0, 4 * np.sin(3.0) ** 2, np.sin(3.0) ** 2])
        assert np.abs(qfim - expected).max() < 1e-10

    def test_oscillation_null(self):
        p = FieldPoint(np.pi, np.pi / 3, 0.0)
        qfim = qfim_no_control(p, 1.0)  # BT = pi
        assert qfim[1, 1] < 1e-28
        assert qfim[2, 2] < 1e-28

    def test_equator_equalizes_angles(self):
        p = FieldPoint(2.0, np.pi / 2, 0.7)
        qfim = qfim_no_control(p, 1.3)
        assert qfim[1, 1] == pytest.approx(qfim[2, 2], rel=1e-12)

    def test_controlled_reference(self):
        assert np.allclose(np.diag(qfim_controlled(POINT, 5.0)), [100.0, 900.0, 225.0], atol=1e-10)

    def test_control_does_not_touch_field_magnitude_entry(self):
        for t in (0.5, 1.0, 3.7, 10.0):
            assert qfim_controlled(POINT, t)[0, 0] == qfim_no_control(POINT, t)[0, 0]

    def test_zero_time_zero_information(self):
        assert np.abs(qfim_controlled(POINT, 0.0)).max() == 0.0

    def test_diagonals_equal_generic_maxima(self):
        for _ in range(100):
            p = random_point()
            t = RNG.uniform(0.1, 5.0)
            x, db, dtheta, dphi = field_coefficients(p)
            unc = np.diag(qfim_no_control(p, t))
            con = np.diag(qfim_controlled(p, t))
            for k, d in enumerate((db, dtheta, dphi)):
                assert unc[k] == pytest.approx(qfi_max(x, d, t), abs=1e-12 * max(1, unc[k]))
                assert con[k] == pytest.approx(
                    qfi_max(np.zeros(3), d, t), abs=1e-12 * max(1, con[k])
                )

    def test_against_entangled_fd_oracle(self):
        scheme_nc = magnetometry_scheme(POINT, 1.0, 3)
        fd = entangled_qfim_fd(scheme_nc, POINT.as_array())
        assert np.abs(fd - qfim_no_control(POINT, 3.0)).max() < 1e-6
        scheme_c = magnetometry_scheme(POINT, 1.0, 3, control="optimal")
        fd_c = entangled_qfim_fd(scheme_c, POINT.as_array())
        assert np.abs(fd_c - qfim_controlled(POINT, 3.0)).max() < 1e-6


class TestWeakCommExample:
    def test_mixed_probe_origin_kills_everything(self):
        res = weak_comm_example(POINT, 2.0, [0, 0, 0])
        assert res.as_tuple() == (0.0, 0.0, 0.0)

    def test_probe_along_field_generator_axis(self):
        # r on the -n0 axis leaves only the (theta, phi) residual
        gens = generators_no_control(POINT, 1.0)
        r = gens[0] / np.linalg.norm(gens[0])  # e_B = -n0
        res = weak_comm_example(POINT, 1.0, r)
        expected = -2j * np.sin(POINT.theta) * np.sin(3.0) ** 2
        assert res.theta_phi == pytest.approx(expected, abs=1e-13)
        oracle = weak_comm_trace_oracle(
            su2_element(gens[1]), su2_element(gens[2]), density(r)
        )
        assert res.theta_phi == pytest.approx(oracle, abs=1e-13)

    def test_controlled_probe_along_field_axis(self):
        n0 = field_axes(POINT)[0]
        res = weak_comm_example(POINT, 2.0, n0, controlled=True)
        assert abs(res.b_theta) < 1e-13
        assert abs(res.b_phi) < 1e-13
        expected = 2j * 4.0 * 9.0 * np.sin(POINT.theta)
        assert res.theta_phi == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("controlled", [False, True])
    def test_matches_generic_and_trace_oracle(self, controlled):
        for _ in range(150):
            p = random_point()
            t = RNG.uniform(0.1, 5.0)
            r = random_unit() * RNG.uniform(0.0, 1.0)
            res = weak_comm_example(p, t, r, controlled=controlled)
            gens = generators_controlled(p, t) if controlled else generators_no_control(p, t)
            pairs = ((0, 1), (0, 2), (1, 2))
            rho = density(r)
            for value, (a, b) in zip(res.as_tuple(), pairs):
                generic = weak_comm_residual(gens[a], gens[b], r)
                oracle = weak_comm_trace_oracle(su2_element(gens[a]), su2_element(gens[b]), rho)
                assert abs(value - generic) < 1e-12
                assert abs(value - oracle) < 1e-12

    def test_rejects_overlong_bloch_vector(self):
        with pytest.raises(UnphysicalStateError):
            weak_comm_example(POINT, 1.0, [2.0, 0, 0])


class TestPrecisionCurves:
    def test_controlled_reference_row(self):
        table = precision_curves(POINT, 1.0, 5, controlled=True)
        assert table.delta_theta[4] == pytest.approx(1 / 30, abs=1e-15)
        assert table.delta_phi[4] == pytest.approx(1 / 15, abs=1e-15)
        assert table.delta_b[4] == pytest.approx(0.1, abs=1e-15)

    def test_uncontrolled_first_row(self):
        table = precision_curves(POINT, 1.0, 1, controlled=False)
        assert table.delta_theta[0] == pytest.approx(1 / (2 * abs(np.sin(3.0))), rel=1e-13)

    def test_heisenberg_halving(self):
        table = precision_curves(POINT, 1.0, 40, controlled=True)
        by_n = {int(n): k for k, n in enumerate(table.n_segments)}
        for n in (1, 2, 5, 10, 20):
            k, k2 = by_n[n], by_n[2 * n]
            assert table.delta_theta[k2] == pytest.approx(table.delta_theta[k] / 2, rel=1e-12)
            assert table.delta_phi[k2] == pytest.approx(table.delta_phi[k] / 2, rel=1e-12)

    def test_uncontrolled_angles_bounded_below(self):
        table = precision_curves(POINT, 1.0, 100, controlled=False)
        for k in range(len(table.n_segments)):
            assert table.delta_theta[k] >= 0.5
            assert table.delta_phi[k] >= 0.5 / np.sin(POINT.theta)

    def test_pole_reports_infinite_azimuth_deviation(self):
        p = FieldPoint(2.0, 0.0, 0.0)
        table = precision_curves(p, 1.0, 3, controlled=True)
        assert all(np.isinf(table.delta_phi[k]) for k in range(3))
        assert all(np.isfinite(table.delta_theta[k]) for k in range(3))

    def test_probe_sets_attainable_flag(self):
        assert precision_curves(POINT, 1.0, 3, True, "entangled").attainable is True
        assert precision_curves(POINT, 1.0, 3, True, "pure").attainable is False

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            precision_curves(POINT, 1.0, 0, True)
        with pytest.raises(ValueError):
            precision_curves(POINT, 1.0, 3, True, probe="ghz")


class TestOffDiagonal:
    def test_origin_probe(self):
        res = off_diagonal_check(POINT, 1.5, [0, 0, 0])
        assert np.abs(np.array(res.as_tuple())).max() < 1e-13

    def test_entangled_probe_via_4x4_trace(self):
        # two-qubit covariances with the Bell probe vanish for every pair
        rho4 = np.outer(BELL_PHI_PLUS, BELL_PHI_PLUS.conj())
        eye = np.eye(2)
        for controlled in (False, True):
            gens = (
                generators_controlled(POINT, 2.0)
                if controlled
                else generators_no_control(POINT, 2.0)
            )
            mats = [np.kron(su2_element(g), eye) for g in gens]
            qfim4 = qfim_trace_oracle(mats, rho4)
            off = qfim4 - np.diag(np.diag(qfim4))
            assert np.abs(off).max() < 1e-11

    @pytest.mark.parametrize("controlled", [False, True])
    def test_violating_probe_is_generically_nonzero(self, controlled):
        r = random_unit()
        frame = orthogonality_frame(POINT, 2.0, controlled)
        # make sure the sampled r genuinely violates orthogonality
        assert max(abs(np.dot(f, r)) for f in frame) > 1e-3
        res = off_diagonal_check(POINT, 2.0, r, controlled=controlled)
        assert np.abs(np.array(res.as_tuple())).max() > 1e-6

    @pytest.mark.parametrize("controlled", [False, True])
    def test_projection_enforces_the_assumption(self, controlled):
        res = off_diagonal_check(
            POINT, 2.0, random_unit(), controlled=controlled, project=True
        )
        assert np.abs(np.array(res.as_tuple())).max() < 1e-11
