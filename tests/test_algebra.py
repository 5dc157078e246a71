"""Tests for the 3-vector / su(2) substrate."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su2qfi.algebra import PAULI_X, PAULI_Y, PAULI_Z, cross3, cross_matrix, euclidean_norm, lift
from su2qfi import (
    DegenerateVectorError,
    UnphysicalStateError,
    angle_between,
    cross,
    density,
    nested_cross,
    su2_element,
    su2_exp,
)

RNG = np.random.default_rng(101)


def random_unit(rng=RNG):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def taylor_expm(mat, scaling_steps=8):
    """Independent matrix exponential: scaling and squaring over a Taylor core.

    Eight squarings keep the reference itself accurate to ~1e-13 for the
    argument sizes used here; more squarings amplify rounding.
    """
    scaled = mat / 2.0**scaling_steps
    term = np.eye(mat.shape[0], dtype=complex)
    out = term.copy()
    for k in range(1, 20):
        term = term @ scaled / k
        out = out + term
    for _ in range(scaling_steps):
        out = out @ out
    return out


def entrywise_su2_element(v):
    """v.J from the halved components as Python floats: the one-vector
    construction, kept as the bit-for-bit reference for stacks."""
    h1, h2, h3 = (0.5 * c for c in np.asarray(v, dtype=float).tolist())
    return np.array([[h3, complex(h1, -h2)], [complex(h1, h2), -h3]])


def half_angle_su2_exp(v, tau):
    """exp(-i tau v.J) for one 3-vector with |v| from math.hypot and the rest in
    Python floats: the one-vector arithmetic, kept as the bit-for-bit
    reference for stacks."""
    v = np.asarray(v, dtype=float)
    nv = math.hypot(*v.tolist())
    if nv == 0.0:
        return np.eye(2, dtype=complex)
    half = 0.5 * float(tau) * nv
    c, s = math.cos(half), math.sin(half)
    n1, n2, n3 = (x / nv for x in v.tolist())
    return np.array(
        [
            [complex(c, -s * n3), complex(-s * n2, -s * n1)],
            [complex(s * n2, -s * n1), complex(c, s * n3)],
        ]
    )


_MAGNITUDES = st.floats(1e-150, 1e150)
_COMPONENTS = st.one_of(st.just(0.0), _MAGNITUDES, _MAGNITUDES.map(lambda m: -m))
_VECTORS = st.lists(_COMPONENTS, min_size=3, max_size=3).map(np.array)
_SIGNED_ZERO_VECTORS = st.lists(st.one_of(_COMPONENTS, st.just(-0.0)), min_size=3,
                                max_size=3).map(np.array)
# magnitudes that stay normal after a scaling by 2^k, |k| <= 1000
_MODERATE = st.floats(1e-5, 1e5)
_SIGNED_MODERATE = st.one_of(_MODERATE, _MODERATE.map(lambda m: -m))


class TestCross:
    def test_right_handed_basis(self):
        assert np.array_equal(cross([1, 0, 0], [0, 1, 0]), [0, 0, 1])

    @pytest.mark.parametrize("bad", [[1, 0], [1, 0, 0, 0], [[1, 0, 0]]])
    def test_rejects_a_non_3_vector(self, bad):
        with pytest.raises(DegenerateVectorError, match="expected a 3-vector"):
            cross(bad, [0, 1, 0])

    def test_self_cross_vanishes(self):
        v = RNG.normal(size=3)
        assert np.array_equal(cross(v, v), [0, 0, 0])

    def test_componentwise_determinant(self):
        # determinant expansion: (2,0,0) x (1,1,0)
        a, b = np.array([2.0, 0, 0]), np.array([1.0, 1, 0])
        expected = np.array(
            [
                a[1] * b[2] - a[2] * b[1],
                a[2] * b[0] - a[0] * b[2],
                a[0] * b[1] - a[1] * b[0],
            ]
        )
        assert np.array_equal(cross(a, b), expected)
        assert np.array_equal(expected, [0, 0, 2])

    @given(
        st.lists(st.floats(-10, 10), min_size=3, max_size=3),
        st.lists(st.floats(-10, 10), min_size=3, max_size=3),
    )
    @settings(max_examples=200)
    def test_antisymmetric_and_orthogonal(self, a, b):
        c = cross(a, b)
        assert np.allclose(c, -cross(b, a))
        assert abs(np.dot(c, a)) <= 1e-9 * max(1.0, np.linalg.norm(a) ** 2 * np.linalg.norm(b))
        assert abs(np.dot(c, b)) <= 1e-9 * max(1.0, np.linalg.norm(b) ** 2 * np.linalg.norm(a))

    # the verify summaries stay byte-identical only while cross rounds exactly
    # like np.cross, including the sign of zero
    @given(_VECTORS, _VECTORS)
    @settings(max_examples=500)
    def test_bit_identical_to_numpy(self, a, b):
        assert cross(a, b).tobytes() == np.cross(a, b).tobytes()

    # the Python-float form that cross wraps, on float lists, rounds like np.cross
    @given(_SIGNED_ZERO_VECTORS, _SIGNED_ZERO_VECTORS)
    @settings(max_examples=500)
    def test_triple_form_bit_identical_to_numpy(self, a, b):
        out = cross3(a.tolist(), b.tolist())
        assert type(out) is list and [type(c) for c in out] == [float] * 3
        assert np.array(out).tobytes() == np.cross(a, b).tobytes()

    def test_triple_form_keeps_every_sign_of_zero(self):
        # every pair over {+0, -0, +1, -1}^3: each product and difference of a
        # zero component takes the sign np.cross gives it
        values = (0.0, -0.0, 1.0, -1.0)
        for a in itertools.product(values, repeat=3):
            for b in itertools.product(values, repeat=3):
                want = np.cross(np.array(a), np.array(b)).tobytes()
                assert np.array(cross3(a, b)).tobytes() == want, (a, b)

    @given(_VECTORS, _VECTORS)
    @settings(max_examples=200)
    def test_matrix_form_acts_as_the_cross_product(self, a, b):
        # a BLAS product may fuse a multiply and an add, so it can differ by rounding
        scale = np.linalg.norm(a) * np.linalg.norm(b)
        assert np.abs(cross_matrix(a) @ b - cross(a, b)).max() <= 4 * np.finfo(float).eps * scale
        assert np.array_equal(cross_matrix(a), -cross_matrix(a).T)


class TestNestedCross:
    def test_zero_applications(self):
        w = RNG.normal(size=3)
        assert np.array_equal(nested_cross(RNG.normal(size=3), w, 0), w)

    def test_two_applications_by_hand(self):
        z = np.array([0.0, 0, 1])
        w = np.array([1.0, 0, 0])
        # apply the cross twice with an independent loop
        expected = w
        for _ in range(2):
            expected = np.cross(z, expected)
        result = nested_cross(z, w, 2)
        assert np.array_equal(result, expected)
        assert np.array_equal(result, [-1, 0, 0])

    def test_colinear_collapses(self):
        z = RNG.normal(size=3)
        for n in (1, 2, 5):
            assert np.allclose(nested_cross(z, 2.5 * z, n), [0, 0, 0])

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            nested_cross([0, 0, 1], [1, 0, 0], -1)


class TestAngleBetween:
    def test_colinear(self):
        assert angle_between([2, 0, 0], [1, 0, 0]) == 0.0

    def test_orthogonal(self):
        assert angle_between([0, 0, 2], [1, 0, 0]) == pytest.approx(np.pi / 2, abs=1e-15)

    def test_dot_product_arithmetic(self):
        assert angle_between([1, 1, 0], [1, 0, 0]) == pytest.approx(np.pi / 4, abs=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateVectorError):
            angle_between([0, 0, 0], [1, 0, 0])

    @given(
        st.lists(st.floats(-5, 5), min_size=3, max_size=3),
        st.lists(st.floats(-5, 5), min_size=3, max_size=3),
        st.integers(-1000, 1000),
        st.integers(-1000, 1000),
    )
    @settings(max_examples=300)
    def test_independent_of_the_lengths(self, a, b, j, k):
        # each vector is brought to the same scale exactly before any product
        a, b = np.array(a), np.array(b)
        if not (np.abs(a) >= 1e-5).any() or not (np.abs(b) >= 1e-5).any():
            return
        a[np.abs(a) < 1e-5] = 0.0  # no component turns subnormal under the scaling
        b[np.abs(b) < 1e-5] = 0.0
        assert angle_between(np.ldexp(a, j), np.ldexp(b, k)) == angle_between(a, b)

    @pytest.mark.parametrize(
        ("a", "b", "expected"),
        [
            ([1e-170, 0, 0], [0, 1e-170, 0], math.pi / 2),
            ([1e-200, 0, 0], [1e-200, 1e-210, 0], 1e-10),
            ([1e200, 0, 0], [1e200, 1e190, 0], 1e-10),
        ],
        ids=["tiny-perpendicular", "tiny-small-angle", "huge-small-angle"],
    )
    def test_extreme_magnitudes(self, a, b, expected):
        assert angle_between(a, b) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("angle", [1e-300, 2.2250738585072014e-308, 1e-310, 5e-324])
    def test_exact_down_to_subnormal_angles(self, angle):
        # the scaled cross product stays normal, so a tiny angle, subnormal or
        # not, comes out exactly
        assert angle_between([1, 0, 0], [1, angle, 0]) == angle
        assert angle_between([0, 0, -1], [0, angle, -1]) == angle

    @pytest.mark.parametrize("angle", [1e-300, 1e-310, 5e-324])
    @pytest.mark.parametrize("scale", [3.0, 1e-300, 1e300])
    def test_within_two_ulps_of_subnormal_angles_at_any_scale(self, angle, scale):
        b = [scale, angle * scale, 0.0]
        expected = b[1] / b[0]  # atan(t) rounds to t this far below 1e-8
        assert abs(angle_between([scale, 0, 0], b) - expected) <= 2 * math.ulp(expected)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_component_rejected(self, bad):
        for a, b in (([bad, 1, 0], [1, 0, 0]), ([1, 0, 0], [0, 1, bad])):
            with pytest.raises(ValueError, match="finite"):
                angle_between(a, b)

    @given(st.lists(st.floats(-5, 5), min_size=3, max_size=3), st.floats(0.1, 10))
    @settings(max_examples=100)
    def test_antiparallel_never_nan(self, v, scale):
        v = np.asarray(v)
        if np.linalg.norm(v) < 1e-6:
            return
        assert angle_between(v, -scale * v) == pytest.approx(np.pi, abs=1e-7)


class TestSu2Element:
    def test_zero_vector(self):
        assert np.array_equal(su2_element([0, 0, 0]), np.zeros((2, 2)))

    def test_z_axis(self):
        assert np.allclose(su2_element([0, 0, 2]), np.diag([1.0, -1.0]))

    def test_eigenvalues_scale_with_norm(self):
        eig = np.linalg.eigvalsh(su2_element([3, 4, 0]))
        assert np.allclose(np.sort(eig), [-2.5, 2.5])

    def test_traceless_hermitian(self):
        for _ in range(50):
            mat = su2_element(RNG.normal(size=3) * 5)
            assert abs(np.trace(mat)) < 1e-14
            assert np.abs(mat - mat.conj().T).max() < 1e-14

    def test_product_identity(self):
        # (a.J)(b.J) = (a.b)/4 I + (i/2)(a x b).J  over 1000 random pairs
        eye = np.eye(2)
        for _ in range(1000):
            a = RNG.normal(size=3) * 2
            b = RNG.normal(size=3) * 2
            lhs = su2_element(a) @ su2_element(b)
            rhs = 0.25 * np.dot(a, b) * eye + 0.5j * su2_element(np.cross(a, b))
            assert np.abs(lhs - rhs).max() < 1e-13

    def test_commutator_identity(self):
        for _ in range(1000):
            a = RNG.normal(size=3) * 2
            b = RNG.normal(size=3) * 2
            lhs = su2_element(a) @ su2_element(b) - su2_element(b) @ su2_element(a)
            assert np.abs(lhs - 1j * su2_element(np.cross(a, b))).max() < 1e-13

    def test_equals_the_pauli_combination_exactly(self):
        rng = np.random.default_rng(7)
        for v in rng.normal(size=(200, 3)) * 10.0 ** rng.uniform(-8, 8, (200, 1)):
            expected = (v[0] * PAULI_X + v[1] * PAULI_Y + v[2] * PAULI_Z) / 2
            assert np.array_equal(su2_element(v), expected)

    def test_stack_rows_equal_the_entrywise_matrix(self):
        rng = np.random.default_rng(1806)
        for shape in [(), (1,), (3,), (2, 3)]:
            stack = rng.normal(size=shape + (3,)) * 10.0 ** rng.uniform(-8, 8, shape + (1,))
            stack[..., 0] = rng.choice([0.0, -0.0], size=shape)  # signed zeros survive
            out = su2_element(stack)
            assert out.shape == shape + (2, 2)
            rows = [entrywise_su2_element(v) for v in stack.reshape(-1, 3)]
            assert out.tobytes() == np.array(rows).tobytes()
        with pytest.raises(DegenerateVectorError, match="3-vector"):
            su2_element(np.ones((2, 4)))


class TestEuclideanNorm:
    def test_equals_math_hypot(self):
        rng = np.random.default_rng(5)
        for v in rng.normal(size=(500, 3)) * 10.0 ** rng.uniform(-300, 300, (500, 1)):
            assert euclidean_norm(v) == math.hypot(*v)

    def test_huge_components_give_a_finite_length(self):
        # no square is formed, so a length within double range is finite
        assert euclidean_norm(np.array([1e200, 0.0, 0.0])) == 1e200
        assert euclidean_norm(np.array([-1e160, 1e160, 1e160])) == pytest.approx(
            math.sqrt(3.0) * 1e160, rel=1e-15
        )


class TestLift:
    def test_equals_the_kronecker_product_with_the_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            u = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            assert np.array_equal(lift(u), np.kron(u, np.eye(2)))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_lifts_a_stack_matrix_by_matrix(self, d):
        rng = np.random.default_rng(12)
        stack = rng.normal(size=(d, 2, 2)) + 1j * rng.normal(size=(d, 2, 2))
        lifted = lift(stack)
        assert lifted.shape == (d, 4, 4)
        for m, m4 in zip(stack, lifted):
            assert np.array_equal(m4, np.kron(m, np.eye(2)))


class TestSu2Exp:
    def test_zero_vector_is_identity(self):
        assert np.array_equal(su2_exp([0, 0, 0], 3.0), np.eye(2))
        # no phase to evaluate, so any tau is accepted
        for tau in (np.inf, -np.inf, np.nan):
            assert np.array_equal(su2_exp([0, 0, 0], tau), np.eye(2))

    @pytest.mark.parametrize(
        ("v", "tau", "error", "which"),
        [
            ((np.nan, 0.0, 0.0), 1.0, ValueError, "phase .* NaN"),
            ((1.0, 0.0, 0.0), np.nan, ValueError, "phase .* NaN"),
            ((1.0, 0.0, 0.0), np.inf, OverflowError, "phase .* overflows"),
            ((1e200, 0.0, 0.0), 1e200, OverflowError, "phase .* overflows"),
            ((1.7e308, 1.7e308, 0.0), 1e-300, OverflowError, "length .* overflows"),
        ],
        ids=["nan-v", "nan-tau", "inf-tau", "phase-overflow", "length-overflow"],
    )
    def test_non_finite_phase_raises(self, v, tau, error, which):
        with pytest.raises(error, match=which):
            su2_exp(v, tau)

    @given(
        st.lists(st.one_of(st.just(0.0), _SIGNED_MODERATE), min_size=3, max_size=3),
        _SIGNED_MODERATE,
        st.integers(-900, 900),
    )
    @settings(max_examples=300)
    def test_scales_exactly_with_a_power_of_two(self, v, tau, k):
        # |v| from hypot scales exactly, so su2_exp(2^k v, 2^-k tau) is su2_exp(v, tau)
        v = np.array(v)
        scaled = su2_exp(np.ldexp(v, k), math.ldexp(tau, -k))
        assert scaled.tobytes() == su2_exp(v, tau).tobytes()

    def test_tiny_vector_at_a_huge_time(self):
        # squares of 2^-565 underflow to zero; the phase is exactly 1/2
        exact = su2_exp([2.0**-565, 0.0, 0.0], 2.0**565)
        assert exact.tobytes() == su2_exp([1.0, 0.0, 0.0], 1.0).tobytes()
        u = su2_exp([1e-170, 0.0, 0.0], 1e170)
        assert np.abs(u - su2_exp([1.0, 0.0, 0.0], 1.0)).max() <= 1e-15

    def test_huge_vector_at_a_tiny_time(self):
        # |v| = 1e160 squares past double range; the phase is 5e-11
        u = su2_exp([1e160, 0.0, 0.0], 1e-170)
        assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-15
        assert u[0, 1] == pytest.approx(-5e-11j, rel=1e-15)

    @pytest.mark.parametrize("magnitude", [1e-8, 1e-3, 1.0, 1e3, 1e8])
    def test_matches_the_half_angle_definition(self, magnitude):
        # cos(h) I - 2i sin(h) vhat.J with h = tau |v| / 2, evaluated on arrays
        rng = np.random.default_rng(13)
        for _ in range(50):
            v = magnitude * random_unit(rng)
            tau = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 10.0)
            half = tau * math.hypot(*v) / 2
            expected = np.cos(half) * np.eye(2) - 2j * np.sin(half) * su2_element(
                v / math.hypot(*v)
            )
            assert np.abs(su2_exp(v, tau) - expected).max() <= 1e-15

    def test_inverse_pair(self):
        v = RNG.normal(size=3) * 3
        tau = 1.7
        assert np.abs(su2_exp(v, tau) @ su2_exp(v, -tau) - np.eye(2)).max() < 1e-14

    def test_full_period(self):
        # tau |v| = 4 pi returns to the identity; checked against an
        # independent scaling-and-squaring exponential
        v = 2.0 * random_unit()
        tau = 4 * np.pi / np.linalg.norm(v)
        u = su2_exp(v, tau)
        assert np.abs(u - np.eye(2)).max() < 1e-12
        ref = taylor_expm(-1j * tau * su2_element(v))
        assert np.abs(u - ref).max() < 1e-12

    def test_unitarity(self):
        for _ in range(200):
            u = su2_exp(RNG.normal(size=3) * 5, RNG.uniform(-10, 10))
            assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-14

    def test_matches_eigendecomposition_to_large_arguments(self):
        for _ in range(200):
            v = RNG.normal(size=3)
            v *= RNG.uniform(0.1, 40.0) / np.linalg.norm(v)
            tau = RNG.uniform(0.1, 25.0)  # tau |v| up to 1e3
            h = su2_element(v)
            vals, vecs = np.linalg.eigh(h)
            ref = vecs @ np.diag(np.exp(-1j * tau * vals)) @ vecs.conj().T
            assert np.abs(su2_exp(v, tau) - ref).max() < 1e-12

    def test_stack_rows_equal_the_one_vector_call(self):
        rng = np.random.default_rng(1801)
        for _ in range(2000):
            shape = tuple(int(k) for k in rng.integers(1, 4, size=rng.integers(1, 3)))
            stack = rng.normal(size=shape + (3,)) * 10.0 ** rng.uniform(-8, 8, shape + (1,))
            stack[rng.random(shape) < 0.15] = rng.choice([0.0, -0.0], size=3)
            tau = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3)
            out = su2_exp(stack, tau)
            assert out.shape == shape + (2, 2)
            rows = [su2_exp(v, tau) for v in stack.reshape(-1, 3)]
            assert out.tobytes() == np.array(rows).tobytes()
            reference = [half_angle_su2_exp(v, tau) for v in stack.reshape(-1, 3)]
            assert out.tobytes() == np.array(reference).tobytes()

    def test_stack_of_zero_vectors_is_identity_for_any_tau(self):
        for tau in (3.0, np.inf, np.nan):
            out = su2_exp(np.zeros((2, 3)), tau)
            assert out.tobytes() == np.array([np.eye(2, dtype=complex)] * 2).tobytes()
        assert su2_exp(np.zeros((0, 3)), 1.0).shape == (0, 2, 2)

    @pytest.mark.parametrize(
        ("bad", "tau"),
        [
            ((np.nan, 0.0, 0.0), 1.0),
            ((1.0, 0.0, 0.0), np.nan),
            ((1.0, 0.0, 0.0), np.inf),
            ((1e200, 0.0, 0.0), 1e200),
            ((1.7e308, 1.7e308, 0.0), 1e-300),
        ],
        ids=["nan-v", "nan-tau", "inf-tau", "phase-overflow", "length-overflow"],
    )
    def test_stack_refuses_as_its_rows_do(self, bad, tau):
        with pytest.raises((ValueError, OverflowError)) as scalar:
            su2_exp(bad, tau)
        # v = 0 needs no phase; the first row with one raises
        stack = np.array([[0.0, 0.0, 0.0], bad, [1.0, 2.0, 3.0]])
        with pytest.raises(scalar.type) as stacked:
            su2_exp(stack, tau)
        assert str(stacked.value) == str(scalar.value)

    @pytest.mark.parametrize("shape", [(), (2,), (4,), (2, 2)])
    def test_rejects_a_last_axis_other_than_3(self, shape):
        with pytest.raises(DegenerateVectorError, match="3-vector"):
            su2_exp(np.ones(shape), 1.0)

    def test_conjugation_rotates_the_axis(self):
        # U (w.J) U^dag = (R w).J with R the rotation by tau|v| about vhat
        for _ in range(200):
            v = RNG.normal(size=3) * 2
            w = RNG.normal(size=3) * 2
            tau = RNG.uniform(-5, 5)
            theta = tau * np.linalg.norm(v)
            axis = v / np.linalg.norm(v)
            rotated = (
                w * np.cos(theta)
                + np.cross(axis, w) * np.sin(theta)
                + axis * np.dot(axis, w) * (1 - np.cos(theta))
            )
            u = su2_exp(v, tau)
            lhs = u @ su2_element(w) @ u.conj().T
            assert np.abs(lhs - su2_element(rotated)).max() < 1e-11


class TestDensity:
    def test_maximally_mixed(self):
        assert np.allclose(density([0, 0, 0]), np.eye(2) / 2)

    def test_pole_state(self):
        assert np.allclose(density([0, 0, 1]), np.diag([1.0, 0.0]))

    def test_purity_value(self):
        r = [0.6, 0, 0]
        rho = density(r)
        assert np.trace(rho @ rho).real == pytest.approx(0.68, abs=1e-14)

    def test_unit_trace_and_spectrum(self):
        for _ in range(100):
            r = random_unit() * RNG.uniform(0, 1)
            rho = density(r)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
            eig = np.linalg.eigvalsh(rho)
            assert eig.min() > -1e-14 and eig.max() < 1.0 + 1e-14

    def test_equals_the_definition_exactly(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            r = random_unit(rng) * rng.uniform(0, 1)
            expected = np.eye(2) / 2 + (r[0] * PAULI_X + r[1] * PAULI_Y + r[2] * PAULI_Z) / 2
            assert np.array_equal(density(r), expected)

    def test_rejects_overlong_bloch_vector(self):
        with pytest.raises(UnphysicalStateError):
            density([1.1, 0, 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_bloch_vector(self, bad):
        with pytest.raises(UnphysicalStateError):
            density([0.0, bad, 0.0])


class TestSU2Basis:
    def test_shipped_basis_validates(self):
        # the sigma/2 triple obeys [j_m, j_k] = i eps_{mkl} j_l with spectrum +-1/2
        gens = [su2_element(e) for e in np.eye(3)]
        for m in range(3):
            k, l = (m + 1) % 3, (m + 2) % 3
            comm = gens[m] @ gens[k] - gens[k] @ gens[m]
            assert np.abs(comm - 1j * gens[l]).max() < 1e-14
            assert np.abs(np.linalg.eigvalsh(gens[m]) - [-0.5, 0.5]).max() < 1e-12
