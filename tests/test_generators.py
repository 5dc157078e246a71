"""Tests for the three generator routes and their mutual agreement."""

import itertools
import math
import re
import warnings
from math import factorial

import numpy as np
import pytest

from su2qfi import (
    DegenerateVectorError,
    SeriesDepthError,
    closed_form_generator,
    nested_cross,
    numeric_generator,
    qfi_max,
    series_generator,
    su2_element,
)
from su2qfi.algebra import cross_matrix
from su2qfi.generators import SERIES_TERM_CAP, _series_weights
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


def expected_term_count(z, tol):
    """Independent factorial-tail oracle for the series term count.

    Term n is bounded by T^(n+1) |X|^n |dX| / (n+1)! = T|dX| z^n / (n+1)!
    with z = T|X|; the linear term is always summed, and the series stops at
    the first later term whose bound relative to T|dX| is below ``tol``.
    """
    count = 1
    while z**count / factorial(count + 1) >= tol:
        count += 1
    return count


def magnitude(gen):
    return float(np.linalg.norm(gen))


def axis(gen):
    return gen / np.linalg.norm(gen)


SAMPLE_X = np.array([0.3, -1.1, 0.7])
SAMPLE_D = np.array([0.9, 0.4, -2.0])


ROUTES = [closed_form_generator, series_generator]


class TestBadInputsFailClosed:
    """Both analytic routes refuse a non-finite input or a time they cannot sum
    with ``ValueError``, instead of returning NaN."""

    # an infinite time is refused too: the series would sum it into a NaN matrix
    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("t", [-1.0, float("nan"), float("inf")])
    def test_negative_or_nan_time_raises(self, route, t):
        with pytest.raises(ValueError, match="total_time must be nonnegative and finite"):
            route(SAMPLE_X, SAMPLE_D, t)

    def test_nan_time_raises_in_qfi_max(self):
        with pytest.raises(ValueError):
            qfi_max(SAMPLE_X, SAMPLE_D, float("nan"))

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_coefficients_raise(self, route, bad):
        # the cause is the input: not an OverflowError of the phase, nor a
        # SeriesDepthError after 48 terms
        with pytest.raises(ValueError, match="coefficients X .* are not finite"):
            route([0.3, bad, 0.7], SAMPLE_D, 1.0)

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_partial_raises(self, route, bad):
        with pytest.raises(ValueError, match="partial dX .* is not finite"):
            route(SAMPLE_X, [bad, 0.0, 0.0], 1.0)

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_overflowing_norm_raises_overflow_error(self, route, t):
        # finite X whose |X| overflows: z = T|X| is NaN at T = 0 and inf at T = 1
        with pytest.raises(OverflowError, match="phase T\\|X\\|"):
            route([1.7e308, 1.7e308, 0.0], SAMPLE_D, t)

    @pytest.mark.parametrize("route", ROUTES, ids=["closed", "series"])
    def test_cubed_phase_overflow_raises(self, route):
        # z = 1e110 is finite but z^3 is not: one refusal of finite inputs; the
        # other is a generator past double precision (TestGeneratorOverflow)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=re.escape("phase T|X| or (T|X|)^3")):
                route([1e110, 0.0, 0.0], [0.3, 1.0, 0.0], 1.0)

    @pytest.mark.parametrize("shape", [(2,), (6,), (3, 2)])
    def test_a_partial_whose_last_axis_is_not_three_raises(self, shape):
        # a row loop could otherwise read a (6,) partial as two rows
        with pytest.raises(DegenerateVectorError, match=re.escape(f"got shape {shape}")):
            closed_form_generator(SAMPLE_X, np.ones(shape), 1.0)

    def test_an_empty_stack_gives_an_empty_stack(self):
        assert closed_form_generator(SAMPLE_X, np.zeros((0, 3)), 1.0).shape == (0, 3)

    def test_non_finite_partial_in_a_stack_raises_in_the_closed_form(self):
        stack = np.array([SAMPLE_D, [0.0, float("nan"), 0.0]])
        with pytest.raises(ValueError, match="not finite"):
            closed_form_generator(SAMPLE_X, stack, 1.0)

    def test_nan_partial_raises_in_qfi_max(self):
        with pytest.raises(ValueError, match="not finite"):
            qfi_max([0.3, -1.1, 0.7], [float("nan"), 0.0, 0.0], 1.0)


_GENERATOR_OVERFLOW = "the generator Y, at most T|dX| in size, overflows"


class TestGeneratorOverflow:
    """Finite inputs whose generator, up to T|dX| in size, is past double precision."""

    def test_raises_naming_the_generator_without_a_warning(self):
        message = re.escape(_GENERATOR_OVERFLOW + ": T = 1e+10, |dX| = 2e+300")
        # X = 0: Y = -T dX = (-2e310, 0, 0) in exact arithmetic
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=message):
                closed_form_generator(np.zeros(3), [2e300, 0.0, 0.0], 1e10)
            with pytest.raises(OverflowError, match=message):
                qfi_max(np.zeros(3), [2e300, 0.0, 0.0], 1e10)
            with pytest.raises(OverflowError, match=message):
                closed_form_generator(np.zeros(3), [[1.0, 0.0, 0.0], [2e300, 0.0, 0.0]], 1e10)

    @pytest.mark.parametrize("k", [0, 1, 30, 400, 1000])
    def test_a_generator_of_the_largest_double_is_returned(self, k):
        # X = 0 and T = 2^k, unscaled or scaled by the band: Y = -T dX exactly,
        # with |Y| the largest double; at the next double up of T it overflows
        big = np.ldexp(np.finfo(float).max, -k)
        d = np.array([big, -3.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = closed_form_generator(np.zeros(3), d, 2.0**k)
            np.testing.assert_array_equal(y, -(2.0**k) * d)
            with pytest.raises(OverflowError, match=re.escape(_GENERATOR_OVERFLOW)):
                closed_form_generator(np.zeros(3), d, math.nextafter(2.0**k, math.inf))

    @pytest.mark.parametrize("t", [0.7, 3.0, 1e10, 2.0**400])
    @pytest.mark.parametrize("x_size", [0.0, 1e-150, 0.3, 40.0])
    def test_partials_near_the_largest_double_keep_their_exact_generator(self, t, x_size):
        # Y is linear in dX: dX scaled by the power of two that puts
        # max(T, 1) |dX| in [2^1020, 2^1021), within a factor of 16 of the
        # largest double, gives exactly 2^k times the unscaled Y, and no warning
        rng = np.random.default_rng(int(1e3 * math.log2(t) + 1e3 * x_size) % 2**32)
        x, d = x_size * random_unit(rng), random_unit(rng)
        if t * x_size > 1e30:
            x = x * (1e30 / (t * x_size))  # a phase z whose cube is finite
        y = closed_form_generator(x, d, t)
        k = 1021 - math.frexp(max(t, 1.0) * math.hypot(*d))[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert closed_form_generator(x, np.ldexp(d, k), t).tobytes() == np.ldexp(y, k).tobytes()


# Inputs past the range of the powers the closed form takes, with Y from the
# resummed series in mpmath at 60 digits (the float inputs taken as exact,
# a and b from their Taylor series below z = 1/2), rounded to 20 digits
EXTREME_INPUTS = {
    # |X|^2 overflows: the closed form used to read a NaN entry
    "norm-squared": (
        [1e155, 0.0, 0.0], [0.3, 1.0, 0.0], 1e-160,
        [-2.9999999999999998549e-161, -9.9999999998333332197e-161, 4.9999999999583332556e-166],
    ),
    # T^3 overflows
    "time-cubed": (
        [1e-150, 0.0, 0.0], [0.3, 1.0, 0.0], 1e110,
        [-2.9999999999999999597e109, -1.0000000000000000236e110, 5.0000000000000002672e69],
    ),
    # T^3 underflows while T^3 b(z) |X|^2 is about T: the closed form used to
    # return a wrong finite vector; the two small entries are ill-conditioned
    # in the rounding of z = 1e44, so only the norm-relative error is meaningful
    "time-cubed-underflow": (
        [1e154, 0.0, 0.0], [0.3, 1.0, 0.0], 1e-110,
        [-3.0000000000000000426e-111, -3.6177630599834984182e-155, 6.7735067473742024938e-156],
    ),
    # z = 10: the series' nested crosses overflow and used to sum to NaN
    "series-nan": (
        [1e11, 0.0, 0.0], [0.0, 1.0, 0.0], 1e-10,
        [0.0, 5.440211108893701191e-12, 1.8390715290764522541e-11],
    ),
}


class TestClosedForm:
    @pytest.mark.parametrize("case", EXTREME_INPUTS)
    def test_exact_past_the_power_range(self, case):
        x, d, t, expected = EXTREME_INPUTS[case]
        y = closed_form_generator(x, d, t)
        # math.hypot scales, where the squares of entries near 1e-161 underflow
        assert math.hypot(*(y - expected)) <= 1e-14 * math.hypot(*expected)

    def test_overflowing_phase_raises_overflow_error(self):
        # T|X| = inf has no sine; the CLI maps OverflowError to error[overflow]
        with pytest.raises(OverflowError):
            closed_form_generator([1.6e262, 0, 0], [0, 1, 0], 1.1e46)

    def test_overflowing_norm_at_zero_time_raises_overflow_error(self):
        # finite X whose |X| overflows: z = 0 * inf is NaN, not a phase of 0
        with pytest.raises(OverflowError):
            closed_form_generator([1.7e308, 1.7e308, 0], SAMPLE_D, 0.0)

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


def outer_closed_form_generator(x_coeff, d_coeff, t):
    """The closed form with its map written as np.eye and np.outer: the earlier
    expression, kept as the bit-for-bit reference of the array-native one."""
    x_coeff = np.asarray(x_coeff, dtype=float)
    sinc, a, b = _series_weights(t * math.hypot(*x_coeff.tolist()))
    generator_map = (
        -t * sinc * np.eye(3)
        + t * t * a * cross_matrix(x_coeff)
        - t**3 * b * np.outer(x_coeff, x_coeff)
    )
    return (np.asarray(d_coeff, dtype=float)[..., None, :] * generator_map).sum(axis=-1)


def _signed_zeros(rng, v):
    """``v`` with a random subset of its entries replaced by +0.0 or -0.0."""
    v = np.array(v, dtype=float)
    mask = rng.random(v.shape) < 0.3
    v[mask] = rng.choice([0.0, -0.0], size=mask.sum())
    return v


class TestClosedFormBitForBit:
    EDGE_CASES = [
        ([0.0, 0.0, 5.0], [[-0.0, -0.0, 1.0]], 1.0),  # z > pi: sinc < 0, signed zeros in the map
        ([0.0, 0.0, 0.0], [[0.3, -1.2, 0.8]], 4.0),  # X = 0
        ([0.3, -1.1, 0.7], [[0.3, -1.2, 0.8], [-0.0, -0.0, -0.0]], 0.0),  # T = 0, a -0 row
        ([-0.0, 0.0, -0.0], [[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0]], 0.0),  # everything zero
        ([1e-9, 0.0, -2e-9], [[1.0, 1e-9, 0.0]], 0.25),  # Taylor branch
    ]

    @pytest.mark.parametrize("x,d,t", EDGE_CASES)
    def test_edge_cases(self, x, d, t):
        assert (
            closed_form_generator(x, d, t).tobytes()
            == outer_closed_form_generator(x, d, t).tobytes()
        )

    def test_random_inputs_with_signed_zeros(self):
        rng = np.random.default_rng(1407)
        for _ in range(3000):
            x = _signed_zeros(rng, rng.normal(size=3) * 10.0 ** rng.uniform(-6, 2))
            stack = _signed_zeros(rng, rng.normal(size=(int(rng.integers(1, 4)), 3)))
            if rng.random() < 0.2:
                stack[rng.integers(len(stack))] = rng.choice([0.0, -0.0], size=3)
            t = (0.0, float(rng.uniform(0.0, 0.3)), float(rng.uniform(0.0, 12.0)))[
                int(rng.integers(3))
            ]
            assert (
                closed_form_generator(x, stack, t).tobytes()
                == outer_closed_form_generator(x, stack, t).tobytes()
            )

    def test_every_signed_zero_pattern(self):
        # the map keeps the array expression's signed zeros; in Y they can show
        # only in a row whose products with dX are all zero
        patterns = list(itertools.product([0.0, -0.0, -1.5], repeat=3))
        for x, d, t in itertools.product(patterns, patterns, (0.0, 1.0, 5.0)):
            assert (
                closed_form_generator(x, [d], t).tobytes()
                == outer_closed_form_generator(x, [d], t).tobytes()
            )

    # outside the band of T and |X| the map is built at T scaled into [1/2, 1)
    # (or, at T = 0, at |X| scaled into [1/2, 1)) and the result scaled back
    OUT_OF_BAND = [
        ([0.7 * 2.0**350, -0.3 * 2.0**350, 2.0**349], [[0.3, -1.2, 0.8]], 2.0**-400),  # z ~ 2^-50
        ([2.0**401, -0.0, 0.6 * 2.0**401], [[-0.0, 1.0, 0.0], [0.5, 0.0, -2.0]], 2.0**-400),
        ([1e300, 0.0, -0.0], [[0.3, -1.2, 0.8], [-0.0, -0.0, -0.0]], 0.0),
        ([0.6e300, -0.8e300, 0.0], [[1.0, 2.0, 3.0]], 0.0),
        ([2.0**-349, 0.0, -(2.0**-350)], [[0.3, -1.2, 0.8]], 2.0**350),  # z ~ 2
        ([1e-200, 3e-200, -0.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], 1e250),
    ]

    @staticmethod
    def scaled_reference(x, d, t):
        """The reference map at the power-of-two scale the closed form picks."""
        x = np.asarray(x, dtype=float)
        if t:
            t, e = math.frexp(t)
        else:
            e = -math.frexp(math.hypot(*x.tolist()))[1]
        return np.ldexp(outer_closed_form_generator(np.ldexp(x, e), d, t), e)

    @pytest.mark.parametrize("x,d,t", OUT_OF_BAND)
    def test_out_of_band_cases(self, x, d, t):
        assert (
            closed_form_generator(x, d, t).tobytes() == self.scaled_reference(x, d, t).tobytes()
        )

    def test_random_out_of_band_inputs(self):
        rng = np.random.default_rng(1409)
        for _ in range(800):
            kind = int(rng.integers(4))
            if kind == 0:  # T = 0 at any |X|
                log_t, log_x = -math.inf, rng.uniform(-1000.0, 1000.0)
            elif kind == 1:  # T below the band, |X| in it
                log_t, log_x = rng.uniform(-1000.0, -300.5), rng.uniform(-300.0, 299.0)
            else:  # |X| or T above the band, at a phase z = T|X| in 2^[-8, 8]
                log_big, log_z = rng.uniform(300.5, 1000.0), rng.uniform(-8.0, 8.0)
                log_x, log_t = (log_big, log_z - log_big)[:: 1 if kind == 2 else -1]
            t = float(2.0**log_t)
            x = _signed_zeros(rng, random_unit(rng) * 2.0**log_x)
            assert not (2.0**-300 < t < 2.0**300 and math.hypot(*x.tolist()) < 2.0**300)
            stack = _signed_zeros(rng, rng.normal(size=(int(rng.integers(1, 4)), 3)))
            assert (
                closed_form_generator(x, stack, t).tobytes()
                == self.scaled_reference(x, stack, t).tobytes()
            )


class TestSeries:
    def test_colinear_truncates_after_first_term(self):
        x = np.array([0, 0, 2.0])
        d = np.array([0, 0, 0.5])
        series = series_generator(x, d, 3.0)
        assert np.abs(series - (-3.0) * su2_element(d)).max() == 0.0

    # z = 10.38 is where the 48th term's bound z^48/49! reaches SERIES_TOL
    @pytest.mark.parametrize("d_norm", [1e-300, 1e-100, 1e-10, 1.0, 10.0, 1e100, 1e300])
    def test_refusal_depends_on_the_phase_alone(self, d_norm):
        assert expected_term_count(10.38, 1e-14) <= SERIES_TERM_CAP
        assert expected_term_count(10.39, 1e-14) > SERIES_TERM_CAP
        d = d_norm * np.array([0.6, 0.0, 0.8])
        assert np.isfinite(series_generator([0, 0, 2.0], d, 10.38 / 2)).all()
        with pytest.raises(SeriesDepthError):
            series_generator([0, 0, 2.0], d, 10.39 / 2)

    def test_phase_ten_converges_at_any_partial(self):
        # T|X| = 10 with T|dX| = 10: the stop no longer depends on T|dX|
        expected = su2_element(closed_form_generator([0, 0, 2.0], [2.0, 0, 0], 5.0))
        series = series_generator([0, 0, 2.0], [2.0, 0, 0], 5.0)
        assert np.abs(series - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("k", [-1000, -300, -40, -1, 1, 40, 300, 1000])
    def test_scales_exactly_with_the_partial(self, k):
        # powers of two keep every product exact, so the sums scale bit for bit
        c = 2.0**k
        for x, d, t in [(SAMPLE_X, SAMPLE_D, 2.0), ([0, 0, 2.0], [1.0, 0, 0], 5.0),
                        ([1e11, 0, 0], [0, 1.0, 0], 1e-10)]:
            d = np.asarray(d) * 2.0 ** -(k // 2)  # keeps c dX inside the normal range
            expected = c * series_generator(x, d, t)
            assert series_generator(x, c * d, t).tobytes() == expected.tobytes()

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
        admitted = terms[: expected_term_count(t * np.linalg.norm(x), 1e-14)]
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

    @pytest.mark.parametrize("case", EXTREME_INPUTS)
    def test_never_returns_a_non_finite_matrix(self, case):
        x, d, t, _ = EXTREME_INPUTS[case]
        try:
            series = series_generator(x, d, t)
        except (OverflowError, SeriesDepthError):
            return
        assert np.isfinite(series).all()

    def test_large_field_at_short_time_matches_closed_form(self):
        # |X| = 1e11 at T = 1e-10: the terms carry T X, so no power of |X| overflows
        x, d, t = [1e11, 0.0, 0.0], [0.0, 1.0, 0.0], 1e-10
        expected = su2_element(closed_form_generator(x, d, t))
        series = series_generator(x, d, t)
        assert np.abs(series - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_huge_phase_at_tiny_partial_refuses(self):
        # T|dX| = 1e-110 once stopped after the linear term; z = 1e44 must refuse
        with pytest.raises(SeriesDepthError):
            series_generator([1e154, 0.0, 0.0], [0.3, 1.0, 0.0], 1e-110)

    def test_a_sum_past_double_precision_raises_overflow_error(self):
        with pytest.raises(OverflowError, match="series overflows"):
            series_generator([0.0, 0.0, 0.0], [1e300, 0.0, 0.0], 1e10)

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
            series = series_generator(x, d, t)
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
            num = numeric_generator(scheme, [0.0], 0)
            closed = su2_element(closed_form_generator(x0, d, t))
            worst = max(worst, np.abs(num - closed).max())
        assert worst < 1e-6

    def test_tiny_coefficients_at_a_huge_time(self):
        # |X|^2 = 1e-340 underflows, yet the phase T|X| is 1
        x0, d, t = np.array([1e-170, 0.0, 0.0]), np.array([0.0, 1e-170, 0.0]), 1e170
        num = numeric_generator(linear_scheme(x0, d, t), [0.0], 0)
        closed = su2_element(closed_form_generator(x0, d, t))
        assert np.abs(closed).max() > 0.4
        assert np.abs(num - closed).max() < 1e-6

    @pytest.mark.parametrize("ell", [-1, 1])
    def test_parameter_index_out_of_range(self, ell):
        with pytest.raises(IndexError, match="out of range"):
            numeric_generator(linear_scheme([1, 0, 0], [0, 1, 0], 1.0), [0.0], ell)

    def test_negating_control_leaves_linear_response(self):
        # with the control cancelling the coefficients, the generator is -T dX.J
        x0 = np.array([1.0, -2.0, 0.5])
        d = np.array([0.4, 1.1, -0.3])
        t = 3.0
        scheme = linear_scheme(x0, d, t, control=-x0)
        num = numeric_generator(scheme, [0.0], 0)
        assert np.abs(num - (-t) * su2_element(d)).max() < 1e-6

    def test_constant_scheme_gives_zero(self):
        scheme = SchemeConfig(
            coefficients=lambda xp: np.array([1.0, 0.5, -0.2]),
            partials=lambda xp: np.zeros((1, 3)),
            n_params=1,
            segment_time=2.0,
        )
        num = numeric_generator(scheme, [0.3], 0)
        assert np.abs(num).max() < 1e-8

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
                numeric_generator(merged, [0.0], 0)
                - numeric_generator(product, [0.0], 0)
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
            numeric = numeric_generator(linear_scheme(x, d, t), [0.0], 0)
            worst_cn = max(worst_cn, np.abs(closed - numeric).max())
            try:
                series = series_generator(x, d, t)
            except SeriesDepthError:
                continue
            evaluated += 1
            worst_cs = max(worst_cs, np.abs(closed - series).max())
            worst_sn = max(worst_sn, np.abs(series - numeric).max())
        assert evaluated > 150
        assert worst_cs < 1e-12
        assert worst_cn < 1e-6
        assert worst_sn < 1e-6
