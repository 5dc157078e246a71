"""Tests for the spin-1/2 magnetometry example.

The example's generators, QFIMs and residuals come from the generic path
(``scheme_generators``, ``build_report``, ``weak_comm_matrix``); the paper's
closed forms appear here as expected values.
"""

import numpy as np
import pytest

from su2qfi import (
    ENTANGLED_WITH_ANCILLA,
    FieldPoint,
    UnphysicalStateError,
    build_report,
    characterize,
    closed_form_generator,
    density,
    magnetometry_scheme,
    numeric_generator,
    precision_curves,
    qfi_max,
    qfim_pure,
    su2_element,
)
from su2qfi.magnetometry import _axes, _coefficients, _partials, _qfim_diagonal
from su2qfi.oracles import entangled_qfim_fd, qfim_trace_oracle, weak_comm_trace_oracle
from su2qfi.qfi import BELL_PHI_PLUS, scheme_generators, weak_comm_matrix

RNG = np.random.default_rng(505)

POINT = FieldPoint(3.0, np.pi / 6, 0.0)

PAIRS = ((0, 1), (0, 2), (1, 2))


def field_coefficients(p):
    """(X, dX/dB, dX/dtheta, dX/dphi) read off the scheme at the field point."""
    scheme = magnetometry_scheme(p)
    return (scheme.coefficients_at(p.as_array()), *scheme.partials_at(p.as_array()))


def scheme_at(p, total_time, controlled=False):
    return magnetometry_scheme(p, total_time, 1, control="optimal" if controlled else "none")


def generators(p, total_time, controlled=False):
    """Y_B, Y_theta, Y_phi through the generic closed form, one row each."""
    return scheme_generators(scheme_at(p, total_time, controlled), p.as_array())


def entangled_qfim(p, total_time, controlled=False):
    scheme = scheme_at(p, total_time, controlled)
    return build_report(scheme, p.as_array(), ENTANGLED_WITH_ANCILLA).qfim


def residuals(p, total_time, r, controlled=False):
    """Tr[[H_a, H_b] rho] for the pairs (B, theta), (B, phi), (theta, phi)."""
    w = weak_comm_matrix(generators(p, total_time, controlled), r)
    return tuple(1j * w[a, b] for a, b in PAIRS)


def paper_residuals(p, total_time, r, controlled):
    """The paper's closed-form residuals: r projected on the rotating generator
    axes without control, on the fixed frame (n0, n0', m) with it."""
    n0, n0_theta, _ = _axes(p.theta, p.phi)
    m = np.array([-np.sin(p.phi), np.cos(p.phi), 0.0])
    st = np.sin(p.theta)
    t = total_time
    if controlled:
        b = p.B
        return (
            2j * t**2 * b * np.dot(m, r),
            -2j * t**2 * b * st * np.dot(n0_theta, r),
            2j * t**2 * b**2 * st * np.dot(n0, r),
        )
    bt = p.B * t
    cbt, sbt = np.cos(bt), np.sin(bt)
    e_theta = -cbt * n0_theta + sbt * m
    e_phi = -cbt * m - sbt * n0_theta
    return (
        -2j * t * sbt * np.dot(e_phi, r),
        2j * t * st * sbt * np.dot(e_theta, r),
        2j * st * sbt**2 * np.dot(n0, r),
    )


def off_diagonal(p, total_time, r, controlled=False):
    """Off-diagonal QFIM entries 4 Cov(H_a, H_b) by the matrix-trace oracle."""
    mats = [su2_element(g) for g in generators(p, total_time, controlled)]
    full = qfim_trace_oracle(mats, density(r))
    return np.array([full[a, b] for a, b in PAIRS])


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
            n0, n0_theta, n0_phi = _axes(p.theta, p.phi)
            assert abs(np.linalg.norm(n0) - 1) < 1e-14
            assert abs(np.linalg.norm(n0_theta) - 1) < 1e-14
            assert abs(np.linalg.norm(n0_phi) - np.sin(p.theta)) < 1e-12
            assert abs(np.dot(n0, n0_theta)) < 1e-12
            assert abs(np.dot(n0, n0_phi)) < 1e-12
            assert abs(np.dot(n0_theta, n0_phi)) < 1e-12

    def test_axis_cross_relations(self):
        for _ in range(100):
            p = random_point()
            n0, n0_theta, n0_phi = _axes(p.theta, p.phi)
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
        # central differences of the coefficient map, poles included
        worst = 0.0
        for b in (0.1, 1.0, 3.0, 50.0):
            for theta in (0.0, 0.3, np.pi / 2, 2.9, np.pi):
                for phi in (0.0, 1.0, 4.0):
                    x = np.array([b, theta, phi])
                    exact = _partials(x)
                    for ell in range(3):
                        h = 1e-6 * max(1.0, abs(x[ell]))
                        step = h * np.eye(3)[ell]
                        fd = (_coefficients(x + step) - _coefficients(x - step)) / (2 * h)
                        scale = max(1.0, np.linalg.norm(exact[ell]))
                        worst = max(worst, np.linalg.norm(fd - exact[ell]) / scale)
        assert worst < 1e-6


class TestGenerators:
    def test_field_magnitude_generator(self):
        gen_b, _, _ = generators(POINT, 2.5)
        n0 = _axes(POINT.theta, POINT.phi)[0]
        assert np.linalg.norm(gen_b) == pytest.approx(5.0, rel=1e-15)
        assert np.allclose(gen_b / np.linalg.norm(gen_b), -n0, atol=1e-14)

    def test_colatitude_magnitude(self):
        _, gen_theta, _ = generators(POINT, 1.0)
        assert np.linalg.norm(gen_theta) == pytest.approx(2 * np.sin(3.0), abs=1e-14)

    def test_magnitude_triple(self):
        for _ in range(50):
            p = random_point()
            t = RNG.uniform(0.1, 5.0)
            gens = generators(p, t)
            bt = p.B * t
            expected = (2 * t, 2 * abs(np.sin(bt)), 2 * abs(np.sin(bt)) * np.sin(p.theta))
            for gen, mag in zip(gens, expected):
                assert np.linalg.norm(gen) == pytest.approx(mag, abs=1e-12)

    def test_zero_time_all_vanish(self):
        # a scheme needs t > 0, so take the generic closed form at T = 0 directly
        x, *partials = field_coefficients(POINT)
        gens = closed_form_generator(x, np.array(partials), 0.0)
        assert all(np.linalg.norm(g) == 0.0 for g in gens)

    def test_against_generic_closed_form_on_grid(self):
        # >= 10^4 (B, theta, phi, T) points; the paper's generators
        # Y_B = -2T n0, Y_theta = 2 sin(BT) (-cos(BT) n0' + sin(BT) m) and
        # Y_phi = 2 sin(theta) sin(BT) (-cos(BT) m - sin(BT) n0')
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
                        n0, n0_theta, _ = _axes(theta, phi)
                        m = np.array([-np.sin(phi), np.cos(phi), 0.0])
                        cbt, sbt = np.cos(b * t), np.sin(b * t)
                        paper = (
                            -2.0 * t * n0,
                            2.0 * sbt * (-cbt * n0_theta + sbt * m),
                            2.0 * np.sin(theta) * sbt * (-cbt * m - sbt * n0_theta),
                        )
                        generic = generators(p, t)
                        for ge, gg in zip(paper, generic):
                            worst = max(worst, np.abs(su2_element(ge) - su2_element(gg)).max())
        assert worst < 1e-12

    def test_controlled_generators_match_generic(self):
        for _ in range(200):
            p = random_point()
            t = RNG.uniform(0.1, 5.0)
            _, db, dtheta, dphi = field_coefficients(p)
            generic = generators(p, t, controlled=True)
            for gen, d in zip(generic, (db, dtheta, dphi)):
                paper = -t * d
                assert np.abs(su2_element(gen) - su2_element(paper)).max() < 1e-12

    def test_direction_cross_relations(self):
        # the closed-form signed axes satisfy a right-handed frame relation
        for _ in range(200):
            p = random_point()
            t = RNG.uniform(0.1, 5.0)
            bt = p.B * t
            n0, n0_theta, _ = _axes(p.theta, p.phi)
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
            gens = scheme_generators(scheme, p.as_array())
            for ell in range(3):
                num = numeric_generator(scheme, p.as_array(), ell, h=1e-6)
                assert np.abs(num - su2_element(gens[ell])).max() < 1e-6


class TestQfims:
    def test_no_control_reference(self):
        qfim = entangled_qfim(POINT, 1.0)
        expected = np.diag([4.0, 4 * np.sin(3.0) ** 2, np.sin(3.0) ** 2])
        assert np.abs(qfim - expected).max() < 1e-10

    def test_oscillation_null(self):
        p = FieldPoint(np.pi, np.pi / 3, 0.0)
        qfim = entangled_qfim(p, 1.0)  # BT = pi
        assert qfim[1, 1] < 1e-28
        assert qfim[2, 2] < 1e-28

    def test_equator_equalizes_angles(self):
        p = FieldPoint(2.0, np.pi / 2, 0.7)
        qfim = entangled_qfim(p, 1.3)
        assert qfim[1, 1] == pytest.approx(qfim[2, 2], rel=1e-12)

    def test_controlled_reference(self):
        qfim = entangled_qfim(POINT, 5.0, controlled=True)
        assert np.allclose(np.diag(qfim), [100.0, 900.0, 225.0], atol=1e-10)

    def test_control_does_not_touch_field_magnitude_entry(self):
        # exact on the diagonal behind the curves; the generic closed form
        # rounds the colinear entry, so it gets a last-bits tolerance
        for t in (0.5, 1.0, 3.7, 10.0):
            assert _qfim_diagonal(POINT, t, True)[0] == _qfim_diagonal(POINT, t, False)[0]
            controlled = entangled_qfim(POINT, t, controlled=True)
            assert controlled[0, 0] == pytest.approx(entangled_qfim(POINT, t)[0, 0], rel=1e-15)

    def test_zero_time_zero_information(self):
        # a scheme needs t > 0: S = 0 under optimal control, T = 0 by hand
        _, *partials = field_coefficients(POINT)
        gens = closed_form_generator(np.zeros(3), np.array(partials), 0.0)
        assert np.abs(qfim_pure(gens, np.zeros(3))).max() == 0.0

    def test_diagonals_equal_generic_maxima(self):
        for _ in range(100):
            p = random_point()
            t = RNG.uniform(0.1, 5.0)
            x, db, dtheta, dphi = field_coefficients(p)
            unc = _qfim_diagonal(p, t, controlled=False)
            con = _qfim_diagonal(p, t, controlled=True)
            for k, d in enumerate((db, dtheta, dphi)):
                assert unc[k] == pytest.approx(qfi_max(x, d, t), abs=1e-12 * max(1, unc[k]))
                assert con[k] == pytest.approx(
                    qfi_max(np.zeros(3), d, t), abs=1e-12 * max(1, con[k])
                )

    def test_against_entangled_fd_oracle(self):
        scheme_nc = magnetometry_scheme(POINT, 1.0, 3)
        fd = entangled_qfim_fd(scheme_nc, POINT.as_array())
        assert np.abs(fd - entangled_qfim(POINT, 3.0)).max() < 1e-6
        scheme_c = magnetometry_scheme(POINT, 1.0, 3, control="optimal")
        fd_c = entangled_qfim_fd(scheme_c, POINT.as_array())
        assert np.abs(fd_c - entangled_qfim(POINT, 3.0, controlled=True)).max() < 1e-6


class TestWeakCommExample:
    def test_mixed_probe_origin_kills_everything(self):
        res = residuals(POINT, 2.0, [0, 0, 0])
        assert res == (0.0, 0.0, 0.0)

    def test_probe_along_field_generator_axis(self):
        # r on the -n0 axis leaves only the (theta, phi) residual
        gens = generators(POINT, 1.0)
        r = gens[0] / np.linalg.norm(gens[0])  # e_B = -n0
        theta_phi = residuals(POINT, 1.0, r)[2]
        expected = -2j * np.sin(POINT.theta) * np.sin(3.0) ** 2
        assert theta_phi == pytest.approx(expected, abs=1e-13)
        oracle = weak_comm_trace_oracle(
            su2_element(gens[1]), su2_element(gens[2]), density(r)
        )
        assert theta_phi == pytest.approx(oracle, abs=1e-13)

    def test_controlled_probe_along_field_axis(self):
        n0 = _axes(POINT.theta, POINT.phi)[0]
        b_theta, b_phi, theta_phi = residuals(POINT, 2.0, n0, controlled=True)
        assert abs(b_theta) < 1e-13
        assert abs(b_phi) < 1e-13
        expected = 2j * 4.0 * 9.0 * np.sin(POINT.theta)
        assert theta_phi == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("controlled", [False, True])
    def test_matches_generic_and_trace_oracle(self, controlled):
        for _ in range(150):
            p = random_point()
            t = RNG.uniform(0.1, 5.0)
            r = random_unit() * RNG.uniform(0.0, 1.0)
            paper = paper_residuals(p, t, r, controlled)
            gens = generators(p, t, controlled)
            rho = density(r)
            for value, generic, (a, b) in zip(paper, residuals(p, t, r, controlled), PAIRS):
                oracle = weak_comm_trace_oracle(su2_element(gens[a]), su2_element(gens[b]), rho)
                assert abs(value - generic) < 1e-12
                assert abs(generic - oracle) < 1e-12

    def test_rejects_overlong_bloch_vector(self):
        with pytest.raises(UnphysicalStateError):
            residuals(POINT, 1.0, [2.0, 0, 0])


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
        assert np.abs(off_diagonal(POINT, 1.5, [0, 0, 0])).max() < 1e-13

    def test_entangled_probe_via_4x4_trace(self):
        # two-qubit covariances with the Bell probe vanish for every pair
        rho4 = np.outer(BELL_PHI_PLUS, BELL_PHI_PLUS.conj())
        eye = np.eye(2)
        for controlled in (False, True):
            gens = generators(POINT, 2.0, controlled)
            mats = [np.kron(su2_element(g), eye) for g in gens]
            qfim4 = qfim_trace_oracle(mats, rho4)
            off = qfim4 - np.diag(np.diag(qfim4))
            assert np.abs(off).max() < 1e-11

    @pytest.mark.parametrize("controlled", [False, True])
    def test_violating_probe_is_generically_nonzero(self, controlled):
        r = random_unit()
        # a Bloch vector orthogonal to every generator would zero all covariances
        frame = generators(POINT, 2.0, controlled)
        # make sure the sampled r genuinely violates orthogonality
        assert max(abs(np.dot(f, r)) for f in frame) > 1e-3
        assert np.abs(off_diagonal(POINT, 2.0, r, controlled)).max() > 1e-6
