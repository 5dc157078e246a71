"""Tests for scheme construction, total unitaries and control design."""

import math
from dataclasses import replace
from fractions import Fraction

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
    su2_exp,
)
from su2qfi.generators import numeric_generator
from su2qfi.oracles import entangled_qfim_fd
from su2qfi.qfi import ENTANGLED_WITH_ANCILLA, PURE_QUBIT, build_report, scheme_generators
from su2qfi.scheme import MERGED, PRODUCT, affine_scheme, unitary_derivatives

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
        with pytest.raises(ValueError, match="at least one parameter"):
            replace(linear_scheme([1, 0, 0], [0, 1, 0]), n_params=0)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, "3", -3, 0])
    def test_rejects_non_integer_segment_count(self, n):
        with pytest.raises(ValueError, match="segment_count must be a positive integer"):
            linear_scheme([1, 0, 0], [0, 1, 0], n=n)

    def test_accepts_numpy_integer_segment_count(self):
        scheme = linear_scheme([1, 0, 0], [0, 1, 0], t=0.5, n=np.int64(3))
        assert scheme.total_time == 1.5

    @pytest.mark.parametrize("d", [2.5, 3.0, True, "3"])
    def test_rejects_non_integer_n_params(self, d):
        with pytest.raises(ValueError, match="n_params must be a positive integer"):
            replace(linear_scheme([1, 0, 0], [0, 1, 0]), n_params=d)

    def test_accepts_numpy_integer_n_params(self):
        scheme = replace(linear_scheme([1, 0, 0], [[0, 1, 0], [0, 0, 1]]), n_params=np.int64(2))
        assert unitary_derivatives(scheme, [0.1, 0.2])[1].shape == (2, 2, 2)

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_segment_time(self, t):
        with pytest.raises(ValueError, match="segment_time must be finite and positive"):
            linear_scheme([1, 0, 0], [0, 1, 0], t=t)

    @pytest.mark.parametrize("t", ["1", None, True, np.array(1.0), 1j])
    def test_rejects_a_segment_time_that_is_not_a_number(self, t):
        with pytest.raises(ValueError, match="segment_time must be a number"):
            linear_scheme([1, 0, 0], [0, 1, 0], t=t)

    @pytest.mark.parametrize("t", [np.float64(0.5), np.float32(0.5), np.int64(2), 2])
    def test_accepts_numpy_and_integer_segment_times(self, t):
        assert linear_scheme([1, 0, 0], [0, 1, 0], t=t, n=3).total_time == 3 * float(t)

    @pytest.mark.parametrize("n", [10, np.int64(10)])
    def test_rejects_overflowing_total_time(self, n):
        # each factor is finite, their product is not
        with pytest.raises(OverflowError, match="total time"):
            linear_scheme([1, 0, 0], [0, 1, 0], t=1e308, n=n)

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

    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_partials_check_refuses_an_error_of_1e_5(self, scale):
        """At |x| ~ 1e3 the step is relative, h = 1e-3, and the check still tells
        the right partials from partials off by 1e-5 of their size."""

        def coefficients(xp):
            return np.array([xp[0] ** 2, xp[0] * xp[1], xp[1] ** 3 / 3.0])

        def partials(xp):
            return np.array([[2.0 * xp[0], xp[1], 0.0], [0.0, xp[0], xp[1] ** 2]])

        point = (scale * 1.1, -scale * 1.2)
        SchemeConfig(coefficients, partials, 2, validation_points=(point,))
        with pytest.raises(ValueError, match="analytic partial 0 disagrees"):
            SchemeConfig(
                coefficients,
                lambda xp: partials(xp) * (1.0 + 1e-5),
                2,
                validation_points=(point,),
            )

    def test_partials_check_floors_its_scale_at_one(self):
        """Small partials are held to 1e-6 absolute, not 1e-6 of their size."""

        def scheme(error):
            return SchemeConfig(
                lambda xp: np.array([0.01 * xp[0], 0.0, 0.0]),
                lambda xp: np.array([[0.01 + error, 0.0, 0.0]]),
                1,
                validation_points=([0.3],),
            )

        scheme(5e-7)
        with pytest.raises(ValueError, match="analytic partial 0 disagrees"):
            scheme(5e-6)

    def test_effective_coefficients_add_control(self):
        scheme = linear_scheme([1, 2, 3], [0, 1, 0], control=np.array([-1, -2, -3.0]))
        assert np.allclose(scheme.effective_coefficients([0.0]), [0, 0, 0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_a_non_finite_control(self, bad):
        with pytest.raises(ValueError, match="control"):
            linear_scheme([1, 0, 0], [0, 1, 0], control=[bad, 0.0, 0.0])
        with pytest.raises(ValueError, match="control"):
            replace(linear_scheme([1, 0, 0], [0, 1, 0]), control=np.array([0.0, 0.0, bad]))


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


class TestUnitaryDerivatives:
    @staticmethod
    def per_point_differences(scheme, x):
        """(U(x + h e_ell) - U(x - h e_ell)) / 2h for each ell, one point at a time,
        with h = 1e-6 * max(1, |x_ell|)."""
        out = []
        for ell in range(scheme.n_params):
            h = 1e-6 * max(1.0, abs(float(x[ell])))
            xp, xm = x.copy(), x.copy()
            xp[ell] += h
            xm[ell] -= h
            u_plus, u_minus = build_total_unitary(scheme, xp), build_total_unitary(scheme, xm)
            out.append((u_plus - u_minus) / (2.0 * h))
        return np.array(out)

    @pytest.mark.parametrize(
        "mode, d",
        [pytest.param(MERGED, d, id=str(d)) for d in (1, 2, 3)]
        + [pytest.param(PRODUCT, d, id=f"product-{d}") for d in (1, 2, 3)],
    )
    def test_merged_stack_equals_the_per_point_differences(self, mode, d):
        """One stacked composition gives what central differences of
        build_total_unitary give point by point, bit for bit, in both modes,
        including steps relative to a large x_ell."""
        rng = np.random.default_rng(1800 + d + (10 if mode == PRODUCT else 0))
        for _ in range(300 if mode == MERGED else 150):
            grads = rng.uniform(-2.0, 2.0, (d, 3)) * 10.0 ** rng.uniform(-3, 3)
            control = rng.uniform(-2.0, 2.0, 3) if rng.random() < 0.5 else np.zeros(3)
            n = 1 if mode == MERGED else int(rng.integers(1, 91))
            scheme = affine_scheme(
                rng.uniform(-2.0, 2.0, 3), grads, control, rng.uniform(0.1, 5.0) / n, n, mode
            )
            x = rng.normal(size=d) * 10.0 ** rng.uniform(-3, 3)
            u, du = unitary_derivatives(scheme, x)
            assert u.tobytes() == build_total_unitary(scheme, x).tobytes()
            assert du.shape == (d, 2, 2)
            assert du.tobytes() == self.per_point_differences(scheme, x).tobytes()

    @pytest.mark.parametrize(
        "scheme, x",
        [
            (affine_scheme([1, 0, 0], [[0, 1, 0], [0, 0, 1]], np.zeros(3), 0.5, 3, MERGED), [0.1]),
            (magnetometry_scheme(FieldPoint(3.0, np.pi / 6, 0.0)), [3.0, 0.5, 0.0, 1.0]),
        ],
        ids=["affine-d2-short", "magnetometry-long"],
    )
    def test_refuses_a_point_of_the_wrong_length(self, scheme, x):
        lengths = rf"shape \({len(x)},\).* {scheme.n_params} parameters"
        for call in (
            lambda: unitary_derivatives(scheme, x),
            lambda: numeric_generator(scheme, x, 0),
            lambda: entangled_qfim_fd(scheme, x),
            lambda: build_total_unitary(scheme, x),
            lambda: scheme_generators(scheme, x),
            lambda: build_report(scheme, x, ENTANGLED_WITH_ANCILLA),
            lambda: build_report(scheme, x, PURE_QUBIT, r=[0.0, 0.0, 1.0]),
        ):
            with pytest.raises(ValueError, match=lengths):
                call()

    @pytest.mark.parametrize("mode", [MERGED, PRODUCT])
    @pytest.mark.parametrize("k", [530, -530])
    def test_oracles_scale_exactly_with_the_coefficients(self, mode, k):
        """X and X_c times 2^k with the time times 2^-k leave every phase as it
        was, so the finite-difference oracles agree bit for bit, including where
        |X|^2 would overflow (k = 530) or underflow (k = -530)."""
        rng = np.random.default_rng(2100)
        for _ in range(40):
            d = int(rng.integers(1, 4))
            x0, grads = rng.uniform(-2.0, 2.0, 3), rng.uniform(-2.0, 2.0, (d, 3))
            control = rng.uniform(-2.0, 2.0, 3) if rng.random() < 0.5 else np.zeros(3)
            n = 1 if mode == MERGED else int(rng.integers(1, 41))
            t = rng.uniform(0.1, 5.0) / n
            x = rng.uniform(-1.0, 1.0, d)
            plain = affine_scheme(x0, grads, control, t, n, mode)
            scaled = affine_scheme(
                np.ldexp(x0, k), np.ldexp(grads, k), np.ldexp(control, k), math.ldexp(t, -k), n, mode
            )
            for oracle in (entangled_qfim_fd, lambda s, p: numeric_generator(s, p, d - 1)):
                assert oracle(scaled, x).tobytes() == oracle(plain, x).tobytes()

    def test_product_mode_segment_equals_two_one_vector_exponentials(self):
        """A product-mode total unitary is the matrix power of the control exponential
        times the encoding one, each a one-vector call, bit for bit."""
        rng = np.random.default_rng(1805)
        for _ in range(300):
            d = int(rng.integers(1, 4))
            control = rng.uniform(-2.0, 2.0, 3) if rng.random() < 0.7 else np.zeros(3)
            t, n = rng.uniform(0.01, 2.0), int(rng.integers(1, 90))
            grads = rng.normal(size=(d, 3))
            scheme = affine_scheme(rng.uniform(-2, 2, 3), grads, control, t, n, PRODUCT)
            x = rng.normal(size=d)
            segment = su2_exp(control, t) @ su2_exp(scheme.coefficients_at(x), t)
            expected = np.linalg.matrix_power(segment, n)
            assert build_total_unitary(scheme, x).tobytes() == expected.tobytes()


class TestDesignControl:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_a_non_finite_estimate(self, bad):
        point = FieldPoint(3.0, np.pi / 6, 0.0)
        with pytest.raises(ValueError, match="x_tilde"):
            magnetometry_scheme(point, 1.0, 5, control="optimal", x_tilde=[1.0, bad, 0.0])
        with pytest.raises(ValueError, match="x_tilde"):
            design_control(magnetometry_scheme(point).coefficients, [bad, 0.0, 0.0])

    def test_a_control_that_overflows_is_refused(self):
        # a finite estimate whose coefficients 2B n0 overflow
        point = FieldPoint(3.0, np.pi / 6, 0.0)
        with pytest.raises(OverflowError, match="2B"):
            magnetometry_scheme(point, 1.0, 5, control="optimal", x_tilde=[1e308, 0.5, 0.0])

    def test_negates_coefficients_at_the_estimate(self):
        point = FieldPoint(3.0, np.pi / 6, 0.0)
        scheme = magnetometry_scheme(point, 1.0, 5)
        control = design_control(scheme.coefficients, [3.0, np.pi / 6, 0.0])
        assert np.allclose(control, [-3.0, 0.0, -3.0 * np.sqrt(3)], atol=1e-12)

    def test_zero_field_estimate_gives_zero_control(self):
        point = FieldPoint(3.0, np.pi / 6, 0.0)
        scheme = magnetometry_scheme(point, 1.0, 5)
        control = design_control(scheme.coefficients, [0.0, np.pi / 6, 0.0])
        assert np.allclose(control, [0, 0, 0])

    def test_design_then_build_reaches_the_ceiling(self):
        point = FieldPoint(2.0, 1.1, 0.4)
        scheme = magnetometry_scheme(point, 1.0, 5)
        controlled = replace(scheme, control=design_control(scheme.coefficients, point.as_array()))
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

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf, "1", True])
    def test_bad_segment_time_rejected(self, t):
        with pytest.raises(ValueError, match="segment_time"):
            gap_profile([1, 2], [0.5], t=t)

    @pytest.mark.parametrize("n", [2.5, -3, 0, True, np.float64(2.0), "3"])
    def test_bad_segment_count_rejected(self, n):
        with pytest.raises(ValueError, match="segment_count must be a positive integer"):
            gap_profile([1, n], [0.5])

    def test_accepts_numpy_integer_segment_counts(self):
        table = gap_profile(np.array([3, 5]), [0.0, 1.0])
        assert table.n_segments.tolist() == [3, 3, 5, 5]
        assert gap_profile([np.int32(5)], [1.0]).gap[0] == gap_profile([5], [1.0]).gap[0]

    @pytest.mark.parametrize(
        "kwargs", [dict(t=1e300), dict(dx_norm=1e300), dict(x_norm=1e308, t=1e10)]
    )
    def test_overflowing_information_raises_without_a_warning(self, kwargs):
        # RuntimeWarnings are errors in this suite, so a warning would fail the test;
        # a |dX| whose square overflows gets the table's message, not Python's errno
        with pytest.raises(OverflowError, match=r"the information \(T \|dX\|\)\^2"):
            gap_profile([10], [0.5], **kwargs)

    @pytest.mark.parametrize(
        "t, dx_norm, alpha",
        [(1e-200, 1e200, 0.5), (1e-160, 1e150, 0.0), (1e-170, 3e160, 1.2), (1e200, 1e-200, 0.5)],
    )
    def test_information_whose_squared_factors_leave_the_normal_range(self, t, dx_norm, alpha):
        # T^2 or |dX|^2 overflows or turns subnormal while (T |dX|)^2 is a normal
        # double: neither a refusal nor the few bits of a subnormal square
        table = gap_profile([1], [alpha], t=t, dx_norm=dx_norm)
        exact = float(Fraction(t) ** 2 * Fraction(dx_norm) ** 2)
        assert table.controlled_limit[0] == pytest.approx(exact, rel=1e-15, abs=0.0)
        # |X| = 2: the phase T|X|/2 is T
        factor = math.cos(alpha) ** 2 + math.sin(alpha) ** 2 * float(np.sinc(t / np.pi)) ** 2
        assert table.uncontrolled_max[0] == pytest.approx(exact * factor, rel=1e-15, abs=0.0)

    def test_matches_direct_maximum(self):
        # table entries agree with the generic maximum on explicit vectors
        alphas = np.linspace(0.1, np.pi - 0.1, 7)
        table = gap_profile([4], alphas, t=0.5, x_norm=1.5, dx_norm=2.0)
        for k in range(len(table.alpha)):
            x = 1.5 * np.array([0.0, 0.0, 1.0])
            d = 2.0 * np.array([np.sin(table.alpha[k]), 0.0, np.cos(table.alpha[k])])
            assert table.uncontrolled_max[k] == pytest.approx(qfi_max(x, d, 2.0), rel=1e-12)
