"""Tests for the three generator routes and their mutual agreement."""

import re
from math import factorial

import numpy as np
import pytest

from su2qfi import (
    SeriesDepthError,
    StepSizeError,
    closed_form_generator,
    nested_cross,
    numeric_generator,
    series_generator,
    su2_element,
)
from su2qfi.generators import SERIES_TERM_CAP
from su2qfi.scheme import MERGED, PRODUCT, SchemeConfig

RNG = np.random.default_rng(202)


def random_unit(rng=RNG):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def linear_scheme(x0, grad, total_time, control=np.zeros(3), segments=1, mode=MERGED):
    grad = np.atleast_2d(np.asarray(grad, dtype=float))
    return SchemeConfig(
        coefficients=lambda xp: np.asarray(x0, dtype=float) + grad.T @ xp,
        partials=lambda xp: grad,
        n_params=grad.shape[0],
        control=control,
        segment_time=total_time / segments,
        segment_count=segments,
        mode=mode,
    )


def expected_term_count(z, t_nd, tol):
    """Independent factorial-tail oracle for the series term count.

    Term n is bounded by T^(n+1) |X|^n |dX| / (n+1)! = T|dX| z^n / (n+1)!
    with z = T|X|; the linear term is always summed, and the series stops at
    the first later term whose bound is below ``tol``.
    """
    count = 1
    while t_nd * z**count / factorial(count + 1) >= tol:
        count += 1
    return count


def magnitude(gen):
    return float(np.linalg.norm(gen))


def axis(gen):
    return gen / np.linalg.norm(gen)


class TestClosedForm:
    def test_overflowing_phase_raises_overflow_error(self):
        # T|X| = inf has no sine; the CLI maps OverflowError to error[overflow]
        with pytest.raises(OverflowError):
            closed_form_generator([1.6e262, 0, 0], [0, 1, 0], 1.1e46)

    def test_colinear_only_linear_term_survives(self):
        gen = closed_form_generator([0, 0, 2], [0, 0, 1], 5.0)
        assert magnitude(gen) == pytest.approx(5.0, abs=1e-15)
        assert np.allclose(axis(gen), [0, 0, -1])

    def test_anticolinear_matches_series_sign(self):
        gen = closed_form_generator([0, 0, 2], [0, 0, -1], 5.0)
        series = series_generator([0, 0, 2], [0, 0, -1], 5.0)
        assert np.abs(su2_element(gen) - series).max() < 1e-14
        assert np.allclose(axis(gen), [0, 0, 1])

    def test_orthogonal_oscillating_magnitude(self):
        gen = closed_form_generator([0, 0, 2], [1, 0, 0], 5.0)
        assert magnitude(gen) == pytest.approx(abs(np.sin(5.0)), abs=1e-14)

    def test_zero_time(self):
        gen = closed_form_generator(RNG.normal(size=3), RNG.normal(size=3), 0.0)
        assert magnitude(gen) == 0.0

    def test_zero_field_branch(self):
        d = np.array([0.3, -1.2, 0.8])
        gen = closed_form_generator([0, 0, 0], d, 4.0)
        assert magnitude(gen) == pytest.approx(4.0 * np.linalg.norm(d), rel=1e-15)
        assert np.allclose(axis(gen), -d / np.linalg.norm(d))

    def test_zero_derivative_gives_zero_generator(self):
        assert not closed_form_generator([1, 0, 0], [0, 0, 0], 1.0).any()

    def test_stacked_partials_match_one_at_a_time(self):
        # a (d, 3) stack is evaluated row by row, so it rounds like its rows
        rng = np.random.default_rng(7)
        for _ in range(100):
            x = rng.uniform(0.0, 5.0) * random_unit(rng)
            stack = rng.uniform(-2.0, 2.0, (3, 3))
            t = rng.uniform(0.0, 5.0)
            rows = [closed_form_generator(x, d, t) for d in stack]
            assert np.array_equal(closed_form_generator(x, stack, t), rows)

    def test_direction_is_unit_and_matrix_traceless_hermitian(self):
        for _ in range(300):
            gen = closed_form_generator(
                RNG.uniform(0.1, 5) * random_unit(),
                RNG.uniform(0.1, 5) * random_unit(),
                RNG.uniform(0, 5),
            )
            mat = su2_element(gen)
            # a unit direction e has e.J with eigenvalues -1/2 and 1/2
            spectrum = np.linalg.eigvalsh(mat)
            assert np.abs(spectrum - np.array([-0.5, 0.5]) * magnitude(gen)).max() < 1e-12
            assert np.abs(mat - mat.conj().T).max() < 1e-12
            assert abs(np.trace(mat)) < 1e-12

    def test_magnitude_bound(self):
        # magnitude^2 never exceeds (T |dX|)^2; the ceiling needs sin(a) = 0
        for _ in range(500):
            d = RNG.uniform(0.1, 5) * random_unit()
            t = RNG.uniform(0, 5)
            gen = closed_form_generator(RNG.uniform(0.1, 5) * random_unit(), d, t)
            assert magnitude(gen) ** 2 <= (t * np.linalg.norm(d)) ** 2 + 1e-12


class TestSeries:
    def test_colinear_truncates_after_first_term(self):
        x = np.array([0, 0, 2.0])
        d = np.array([0, 0, 0.5])
        series = series_generator(x, d, 3.0)
        assert np.abs(series - (-3.0) * su2_element(d)).max() == 0.0

    def test_refuses_beyond_cap(self):
        # T|X| = 10 with T|dX| = 10 needs more terms than the default cap admits
        x = np.array([0, 0, 2.0])
        d = np.array([2.0, 0, 0])
        assert expected_term_count(10.0, 10.0, 1e-14) > SERIES_TERM_CAP
        with pytest.raises(SeriesDepthError):
            series_generator(x, d, 5.0)
        # a raised cap converges and still matches the closed form
        series = series_generator(x, d, 5.0, max_terms=128)
        closed = su2_element(closed_form_generator(x, d, 5.0))
        assert np.abs(series - closed).max() < 1e-11

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            series_generator([1, 0, 0], [0, 1, 0], 1.0, tol=0.0)

    def test_zero_field_keeps_the_linear_term(self):
        # the term bound vanishes with |X|, but the n = 0 term must survive
        d = np.array([0.3, -1.2, 0.8])
        series = series_generator([0, 0, 0], d, 4.0)
        assert np.abs(series - (-4.0) * su2_element(d)).max() == 0.0

    def test_tiny_field_matches_closed_form(self):
        d = np.array([0.3, -1.2, 0.8])
        x = np.array([1e-9, 0.0, 0.0])
        closed = su2_element(closed_form_generator(x, d, 4.0))
        assert np.abs(series_generator(x, d, 4.0) - closed).max() < 1e-13

    @pytest.mark.parametrize("a", [1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11])
    def test_near_colinear_matches_closed_form(self, a):
        # dX at angle a from X: both routes must keep the terms of order sin(a)
        d = np.array([np.sin(a), 0.0, np.cos(a)])
        closed = su2_element(closed_form_generator([0, 0, 2], d, 2.0))
        assert np.abs(series_generator([0, 0, 2], d, 2.0) - closed).max() < 1e-12

    def test_zero_time_sums_to_zero(self):
        assert np.abs(series_generator([0, 0, 2], [1, 0, 0], 0.0)).max() == 0.0

    @pytest.mark.parametrize(
        "x,d,t",
        [
            ([0.0, 0.0, 2.0], [1.0, 0.0, 0.0], 1.5),
            ([0.3, -1.1, 0.7], [0.9, 0.4, -2.0], 2.0),
            ([-1.7, 0.2, 0.5], [0.05, 1.3, 0.6], 0.4),
            ([1e-9, 0.0, 0.0], [0.3, -1.2, 0.8], 4.0),
            # the small-field regime that control produces, S = X + X_c -> 0
            *(([0.0, 0.0, 10.0**-k], [1.0, 0.0, 0.0], 1.0) for k in range(1, 13)),
        ],
    )
    def test_equals_explicit_sum_of_nested_crosses(self, x, d, t):
        # 45 factorial terms: the last one is below 1e-30 on every row
        terms = [
            (-t) ** (n + 1) / factorial(n + 1) * nested_cross(x, d, n) for n in range(45)
        ]
        assert np.linalg.norm(terms[-1]) < 1e-30
        series = series_generator(x, d, t)
        # the terms the series admits: it updates its coefficients
        # multiplicatively, so each may differ from the factorial form by a few ulps
        z, t_nd = t * np.linalg.norm(x), t * np.linalg.norm(d)
        admitted = terms[: expected_term_count(z, t_nd, 1e-14)]
        slack = 8 * np.finfo(float).eps * np.abs(admitted).sum()
        assert np.abs(series - su2_element(np.sum(admitted, axis=0))).max() <= slack
        # both routes against the converged sum
        expected = su2_element(np.sum(terms, axis=0))
        assert np.abs(series - expected).max() <= 1e-12
        assert np.abs(su2_element(closed_form_generator(x, d, t)) - expected).max() <= 1e-12

    @pytest.mark.parametrize(
        "x,d,t",
        [
            ([0.0, 0.0, 2.0], [0.0, 0.0, -0.7], 25.0),
            ([3.0, -4.0, 12.0], [-1.5, 2.0, -6.0], 50 / 13),
        ],
    )
    def test_colinear_far_beyond_the_cap_returns_the_linear_term(self, x, d, t):
        # T|X| = 50 needs far more than SERIES_TERM_CAP terms, but the nested
        # cross vanishes exactly after the linear term
        assert np.linalg.norm(x) * t == pytest.approx(50.0)
        assert np.array_equal(series_generator(x, d, t), -t * su2_element(d))

    def test_non_colinear_beyond_the_cap_refuses(self):
        message = (
            f"series not converged in {SERIES_TERM_CAP} terms (T|X| = 50); use the closed form"
        )
        with pytest.raises(SeriesDepthError, match=re.escape(message)):
            series_generator([0, 0, 2], [1, 0, 0], 25.0)

    def test_matches_closed_form_over_random_samples(self):
        # |X| <= 2, T <= 5 keeps T|X| inside the series' accuracy domain
        worst = 0.0
        for _ in range(1000):
            x = RNG.uniform(0.1, 2.0) * random_unit()
            d = RNG.uniform(0.1, 5.0) * random_unit()
            t = RNG.uniform(0.0, 5.0)
            series = series_generator(x, d, t, tol=1e-14)
            closed = su2_element(closed_form_generator(x, d, t))
            worst = max(worst, np.abs(series - closed).max())
        assert worst < 1e-12


class TestNumericOracle:
    def test_matches_closed_form(self):
        worst = 0.0
        for _ in range(300):
            x0 = RNG.uniform(0.1, 5) * random_unit()
            d = RNG.uniform(0.1, 5) * random_unit()
            t = RNG.uniform(0.01, 5)
            scheme = linear_scheme(x0, d, t)
            num = numeric_generator(scheme, [0.0], 0, h=1e-6)
            closed = su2_element(closed_form_generator(x0, d, t))
            worst = max(worst, np.abs(num - closed).max())
        assert worst < 1e-6

    def test_negating_control_leaves_linear_response(self):
        # with the control cancelling the coefficients, the generator is -T dX.J
        x0 = np.array([1.0, -2.0, 0.5])
        d = np.array([0.4, 1.1, -0.3])
        t = 3.0
        scheme = linear_scheme(x0, d, t, control=-x0)
        num = numeric_generator(scheme, [0.0], 0, h=1e-6)
        assert np.abs(num - (-t) * su2_element(d)).max() < 1e-6

    def test_constant_scheme_gives_zero(self):
        scheme = SchemeConfig(
            coefficients=lambda xp: np.array([1.0, 0.5, -0.2]),
            partials=lambda xp: np.zeros((1, 3)),
            n_params=1,
            segment_time=2.0,
        )
        num = numeric_generator(scheme, [0.3], 0, h=1e-6)
        assert np.abs(num).max() < 1e-8

    def test_step_size_validation(self):
        scheme = linear_scheme([1, 0, 0], [0, 1, 0], 1.0)
        with pytest.raises(StepSizeError):
            numeric_generator(scheme, [0.0], 0, h=1e-13)
        with pytest.raises(StepSizeError):
            numeric_generator(scheme, [0.0], 0, h=0.1)

    def test_hermitian_output(self):
        scheme = linear_scheme([0.5, 0.5, 1.0], [1.0, 0, 0], 2.0)
        num = numeric_generator(scheme, [0.2], 0)
        assert np.abs(num - num.conj().T).max() < 1e-12

    def test_product_mode_generator_gap_scales_linearly(self):
        # at the design point the merged generator is exactly -T dX.J; the
        # segment-product generator differs by O(t): halving t halves the gap
        x0 = np.array([2.0, 1.0, -0.5])
        d = np.array([0.3, -0.8, 1.2])
        total_time = 4.0
        gaps = []
        for segments in (16, 32, 64, 128, 256):
            kwargs = dict(control=-x0, segments=segments)
            merged = linear_scheme(x0, d, total_time, mode=MERGED, **kwargs)
            product = linear_scheme(x0, d, total_time, mode=PRODUCT, **kwargs)
            gap = np.abs(
                numeric_generator(merged, [0.0], 0, h=1e-6)
                - numeric_generator(product, [0.0], 0, h=1e-6)
            ).max()
            gaps.append(gap)
        ratios = [gaps[i] / gaps[i + 1] for i in range(len(gaps) - 1)]
        assert all(1.8 <= r <= 2.2 for r in ratios), ratios


class TestControlledGenerator:
    def test_direct_values(self):
        gen = closed_form_generator(np.zeros(3), [1, 0, 0], 5.0)
        assert magnitude(gen) == pytest.approx(5.0, abs=1e-15)
        assert np.allclose(axis(gen), [-1, 0, 0])

    def test_zero_time(self):
        assert magnitude(closed_form_generator(np.zeros(3), [0, 1, 0], 0.0)) == 0.0

    def test_zero_derivative_gives_zero_generator(self):
        assert not closed_form_generator(np.zeros(3), [0, 0, 0], 1.0).any()

    def test_small_residual_coefficient_limit(self):
        # closed form at |S| = 1e-4 sits within 1e-6 of the controlled limit
        d = random_unit()
        s = 1e-4 * random_unit()
        closed = closed_form_generator(s, d, 5.0)
        limit = closed_form_generator(np.zeros(3), d, 5.0)
        assert abs(magnitude(closed) - magnitude(limit)) < 1e-6


class TestThreeWayAgreement:
    def test_pairwise_agreement(self):
        worst_cs, worst_cn, worst_sn = 0.0, 0.0, 0.0
        evaluated = 0
        for _ in range(300):
            x = RNG.uniform(0.1, 5.0) * random_unit()
            d = RNG.uniform(0.1, 5.0) * random_unit()
            t = RNG.uniform(0.01, 5.0)
            closed = su2_element(closed_form_generator(x, d, t))
            numeric = numeric_generator(linear_scheme(x, d, t), [0.0], 0, h=1e-6)
            worst_cn = max(worst_cn, np.abs(closed - numeric).max())
            try:
                series = series_generator(x, d, t, tol=1e-14)
            except SeriesDepthError:
                continue
            evaluated += 1
            worst_cs = max(worst_cs, np.abs(closed - series).max())
            worst_sn = max(worst_sn, np.abs(series - numeric).max())
        assert evaluated > 150
        assert worst_cs < 1e-12
        assert worst_cn < 1e-6
        assert worst_sn < 1e-6
