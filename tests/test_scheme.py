"""Tests for scheme construction, total unitaries and control design."""

from dataclasses import replace

import numpy as np
import pytest

from su2qfi import (
    DegenerateVectorError,
    FieldPoint,
    SchemeConfig,
    build_total_unitary,
    characterize,
    design_control,
    gap_profile,
    magnetometry_scheme,
    qfi_max,
)
from su2qfi.scheme import MERGED, PRODUCT

RNG = np.random.default_rng(303)


def linear_scheme(x0, grad, t=1.0, n=1, control=np.zeros(3), mode=MERGED, validate=()):
    grad = np.atleast_2d(np.asarray(grad, dtype=float))
    return SchemeConfig(
        coefficients=lambda xp: np.asarray(x0, dtype=float) + grad.T @ xp,
        partials=lambda xp: grad,
        n_params=grad.shape[0],
        control=control,
        segment_time=t,
        segment_count=n,
        mode=mode,
        validation_points=validate,
    )


class TestSchemeConfig:
    def test_total_time_is_exact_product(self):
        scheme = linear_scheme([1, 0, 0], [0, 1, 0], t=0.25, n=12)
        assert scheme.total_time == 3.0

    def test_rejects_bad_numbers(self):
        with pytest.raises(ValueError):
            linear_scheme([1, 0, 0], [0, 1, 0], t=0.0)
        with pytest.raises(ValueError):
            linear_scheme([1, 0, 0], [0, 1, 0], n=0)
        with pytest.raises(ValueError):
            linear_scheme([1, 0, 0], [0, 1, 0], mode="interleaved")

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_segment_time(self, t):
        with pytest.raises(ValueError, match="segment_time must be finite and positive"):
            linear_scheme([1, 0, 0], [0, 1, 0], t=t)

    def test_partials_validated_on_sample_grid(self):
        good = linear_scheme([1, 0, 0], [0, 1, 0], validate=([0.0], [0.5], [1e12]))
        assert good.n_params == 1
        with pytest.raises(ValueError):
            SchemeConfig(
                coefficients=lambda xp: np.array([xp[0] ** 2, 0.0, 0.0]),
                partials=lambda xp: np.array([[1.0, 0.0, 0.0]]),  # wrong: should be 2x
                n_params=1,
                validation_points=([1.0],),
            )

    def test_effective_coefficients_add_control(self):
        scheme = linear_scheme([1, 2, 3], [0, 1, 0], control=np.array([-1, -2, -3.0]))
        assert np.allclose(scheme.effective_coefficients([0.0]), [0, 0, 0])


class TestTotalUnitary:
    def test_no_control_modes_coincide(self):
        x0 = RNG.normal(size=3)
        merged = linear_scheme(x0, [1, 0, 0], t=0.5, n=8, mode=MERGED)
        product = linear_scheme(x0, [1, 0, 0], t=0.5, n=8, mode=PRODUCT)
        x = [0.3]
        assert np.abs(
            build_total_unitary(merged, x) - build_total_unitary(product, x)
        ).max() < 1e-13

    def test_exact_cancellation_gives_identity(self):
        x0 = np.array([1.5, -0.7, 2.2])
        for mode in (MERGED, PRODUCT):
            scheme = linear_scheme(x0, [0, 1, 0], t=0.5, n=6, control=-x0, mode=mode)
            u = build_total_unitary(scheme, [0.0])
            assert np.abs(u - np.eye(2)).max() < 1e-13

    def test_unitarity(self):
        for mode in (MERGED, PRODUCT):
            scheme = linear_scheme(
                RNG.normal(size=3), RNG.normal(size=3), t=0.7, n=5,
                control=RNG.normal(size=3), mode=mode,
            )
            u = build_total_unitary(scheme, [0.4])
            assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-12

    def test_product_merged_distance_linear_in_t(self):
        # negating control designed off the true point: first-order splitting
        # error, so halving t halves the operator-norm distance
        point = FieldPoint(3.0, np.pi / 6, 0.0)
        x = point.as_array() + np.array([0.0, 0.1, 0.0])
        total_time = 5.0
        distances = []
        for t in (0.5, 0.25, 0.125, 0.0625):
            n = int(round(total_time / t))
            merged = magnetometry_scheme(point, t, n, control="optimal", mode=MERGED)
            product = magnetometry_scheme(point, t, n, control="optimal", mode=PRODUCT)
            distances.append(
                np.linalg.norm(build_total_unitary(product, x) - build_total_unitary(merged, x), 2)
            )
        ratios = [distances[i] / distances[i + 1] for i in range(len(distances) - 1)]
        assert all(1.8 <= r <= 2.2 for r in ratios), ratios


class TestDesignControl:
    def test_negates_coefficients_at_the_estimate(self):
        point = FieldPoint(3.0, np.pi / 6, 0.0)
        scheme = magnetometry_scheme(point, 1.0, 5)
        control = design_control(scheme, [3.0, np.pi / 6, 0.0])
        assert np.allclose(control, [-3.0, 0.0, -3.0 * np.sqrt(3)], atol=1e-12)

    def test_zero_field_estimate_gives_zero_control(self):
        point = FieldPoint(3.0, np.pi / 6, 0.0)
        scheme = magnetometry_scheme(point, 1.0, 5)
        control = design_control(scheme, [0.0, np.pi / 6, 0.0])
        assert np.allclose(control, [0, 0, 0])

    def test_design_then_build_reaches_the_ceiling(self):
        point = FieldPoint(2.0, 1.1, 0.4)
        scheme = magnetometry_scheme(point, 1.0, 5)
        controlled = replace(scheme, control=design_control(scheme, point.as_array()))
        s = controlled.effective_coefficients(point.as_array())
        assert np.linalg.norm(s) < 1e-12
        # with |S| = 0 every parameter's maximum is T^2 |dX|^2
        partials = controlled.partials_at(point.as_array())
        for d in partials:
            ceiling = controlled.total_time**2 * np.linalg.norm(d) ** 2
            assert qfi_max(s, d, controlled.total_time) == pytest.approx(ceiling, rel=1e-12)


class TestCharacterize:
    def test_magnetometry_angles(self):
        point = FieldPoint(3.0, np.pi / 6, 0.0)
        scheme = magnetometry_scheme(point)
        x = scheme.coefficients_at(point.as_array())
        db, dtheta, dphi = scheme.partials_at(point.as_array())
        alphas = characterize(x, [db, dtheta, dphi])
        assert alphas[0] == pytest.approx(0.0, abs=1e-12)
        assert alphas[1] == pytest.approx(np.pi / 2, abs=1e-12)
        assert alphas[2] == pytest.approx(np.pi / 2, abs=1e-12)

    def test_identical_vectors(self):
        v = RNG.normal(size=3)
        assert characterize(v, [v]) == [pytest.approx(0.0, abs=1e-7)]

    def test_dot_product_arithmetic(self):
        assert characterize([1, 1, 0], [[1, 0, 0]])[0] == pytest.approx(np.pi / 4, abs=1e-14)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateVectorError):
            characterize([0, 0, 0], [[1, 0, 0]])


class TestGapProfile:
    def test_reference_row(self):
        table = gap_profile([5], [np.pi / 2], t=1.0, x_norm=2.0, dx_norm=1.0)
        assert table.uncontrolled_max[0] == pytest.approx(np.sin(5.0) ** 2, abs=1e-13)
        assert table.controlled_limit[0] == 25.0
        assert table.gap[0] == pytest.approx(25.0 - np.sin(5.0) ** 2, abs=1e-12)

    def test_colinear_angle_has_no_gap(self):
        table = gap_profile([3, 5, 10], [0.0])
        for k in range(len(table.gap)):
            assert table.gap[k] == 0.0

    def test_symmetry_about_right_angle(self):
        alphas = np.linspace(0.0, np.pi, 33)
        for n in (3, 5, 10):
            gaps = gap_profile([n], alphas).gap
            for k in range(len(gaps)):
                assert abs(gaps[k] - gaps[len(gaps) - 1 - k]) < 1e-12

    def test_controlled_limit_dominates(self):
        table = gap_profile([3, 5, 10], np.linspace(0, np.pi, 41))
        for k in range(len(table.gap)):
            assert table.uncontrolled_max[k] <= table.controlled_limit[k] + 1e-12

    def test_gap_nondecreasing_in_segments(self):
        alphas = np.linspace(0.0, np.pi, 41)[1:-1]
        by_n = {n: gap_profile([n], alphas).gap for n in (3, 5, 10)}
        for k in range(len(alphas)):
            assert by_n[3][k] <= by_n[5][k] + 1e-12
            assert by_n[5][k] <= by_n[10][k] + 1e-12

    def test_row_order_is_segment_major(self):
        table = gap_profile([5, 3], [0.0, 1.0])
        assert list(zip(table.n_segments, table.alpha)) == [(5, 0.0), (5, 1.0), (3, 0.0), (3, 1.0)]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            gap_profile([], [0.1])

    def test_matches_direct_maximum(self):
        # table entries agree with the generic maximum on explicit vectors
        alphas = np.linspace(0.1, np.pi - 0.1, 7)
        table = gap_profile([4], alphas, t=0.5, x_norm=1.5, dx_norm=2.0)
        for k in range(len(table.alpha)):
            x = 1.5 * np.array([0.0, 0.0, 1.0])
            d = 2.0 * np.array([np.sin(table.alpha[k]), 0.0, np.cos(table.alpha[k])])
            assert table.uncontrolled_max[k] == pytest.approx(qfi_max(x, d, 2.0), rel=1e-12)
