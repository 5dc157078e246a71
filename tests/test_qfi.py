"""Tests for the QFI engine, its oracles and report assembly."""

import math
import warnings
from fractions import Fraction
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from su2qfi import (
    BELL_PHI_PLUS,
    ENTANGLED_WITH_ANCILLA,
    PURE_QUBIT,
    DegenerateVectorError,
    DimensionalityError,
    FieldPoint,
    InexactCompositionError,
    SchemeConfig,
    UnphysicalStateError,
    affine_scheme,
    build_report,
    cross,
    density,
    design_control,
    entangled_weak_comm,
    magnetometry_scheme,
    numeric_generator,
    qfi_max,
    qfim_pure,
    su2_element,
)
from su2qfi.algebra import check_bloch, check_density
from su2qfi.qfi import qfi_max_from_angle, weak_comm_matrix
from su2qfi.oracles import (
    BELL_PROJECTOR,
    entangled_qfi_oracle,
    entangled_qfim_fd,
    qfim_trace_oracle,
    sld_oracle,
    variance_qfi_oracle,
    weak_comm_trace_oracle,
)
from su2qfi import qfi
from su2qfi.algebra import lift
from su2qfi.qfi import _precision_bounds, scheme_generators
from su2qfi.scheme import MERGED, PRODUCT, build_total_unitary, unitary_derivatives

RNG = np.random.default_rng(404)


def random_unit(rng=RNG):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_gen(rng=RNG, min_mag=0.0):
    return rng.uniform(min_mag, 5.0) * random_unit(rng)


def linear_scheme(x0, grads, t=1.0, n=1, control=np.zeros(3)):
    grads = np.atleast_2d(np.asarray(grads, dtype=float))
    return SchemeConfig(
        coefficients=lambda xp: np.asarray(x0, dtype=float) + grads.T @ xp,
        partials=lambda xp: grads,
        n_params=grads.shape[0],
        control=control,
        segment_time=t,
        segment_count=n,
    )


class TestQfiPure:
    def test_orthogonal_probe_maximizes(self):
        gen = np.array([0.0, 0, 5.0])
        assert qfim_pure([gen], [1, 0, 0])[0, 0] == 25.0

    def test_aligned_probe_is_blind(self):
        gen = np.array([0.0, 0, 5.0])
        assert qfim_pure([gen], [0, 0, 1])[0, 0] == 0.0

    def test_partial_projection(self):
        r = np.array([0.6, 0.0, 0.8])  # e.r = 0.6
        gen = np.array([2.0, 0.0, 0.0])
        value = qfim_pure([gen], r)[0, 0]
        assert value == pytest.approx(4 * (1 - 0.36), abs=1e-14)
        # variance oracle on explicit matrices
        oracle = variance_qfi_oracle(su2_element(gen), density(r))
        assert value == pytest.approx(oracle, abs=1e-12)

    def test_matches_variance_oracle_randomly(self):
        for _ in range(1000):
            gen = random_gen()
            r = random_unit()
            oracle = variance_qfi_oracle(su2_element(gen), density(r))
            assert abs(qfim_pure([gen], r)[0, 0] - oracle) < 1e-11


class TestQfimPure:
    def test_orthogonal_axes_diagonalize(self):
        gens = [np.array([2.0, 0, 0]), np.array([0.0, 3.0, 0])]
        r = np.array([0.0, 0.0, 1.0])  # orthogonal to both axes
        mat = qfim_pure(gens, r)
        assert np.allclose(mat, np.diag([4.0, 9.0]))

    def test_matches_trace_oracle_randomly(self):
        worst = 0.0
        for _ in range(1000):
            gens = [random_gen() for _ in range(3)]
            r = random_unit()
            closed = qfim_pure(gens, r)
            oracle = qfim_trace_oracle([su2_element(g) for g in gens], density(r))
            worst = max(worst, np.abs(closed - oracle).max())
        assert worst < 1e-11

    def test_symmetric_positive_semidefinite(self):
        for _ in range(200):
            gens = [random_gen() for _ in range(3)]
            mat = qfim_pure(gens, random_unit())
            assert np.abs(mat - mat.T).max() < 1e-12
            assert np.linalg.eigvalsh(mat).min() > -1e-10


def _random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


class TestQfimTraceOracle:
    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_the_per_pair_trace_formula(self, d, n):
        # the stacked oracle against the formula written out pair by pair
        rng = np.random.default_rng(23)
        for _ in range(20):
            mats = [_random_hermitian(rng, n) for _ in range(d)]
            psi = rng.normal(size=n) + 1j * rng.normal(size=n)
            psi /= np.linalg.norm(psi)
            rho = np.outer(psi, psi.conj())
            expected = np.zeros((d, d))
            for a in range(d):
                for b in range(d):
                    sym = 0.5 * np.trace((mats[a] @ mats[b] + mats[b] @ mats[a]) @ rho)
                    cross_term = np.trace(mats[a] @ rho @ mats[b] @ rho)
                    expected[a, b] = 4.0 * (sym - cross_term).real
            got = qfim_trace_oracle(mats, rho)
            assert got.shape == (d, d)
            assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


def _random_state(rng, n):
    """A random mixed n x n density matrix: a normalized Gram matrix."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _assert_rows_close(stacked, singles):
    # stacked matmul need not round like the 2-D call: 1e-14 relative per sample
    singles = np.array(singles)
    assert stacked.shape == singles.shape
    for got, expected in zip(stacked, singles):
        scale = np.abs(expected).max()
        assert np.abs(got - expected).max() <= 1e-14 * scale


class TestStackedOracles:
    """Each oracle over a leading sample axis agrees with its one-sample calls."""

    @pytest.mark.parametrize("samples", [1, 2, 7])
    @pytest.mark.parametrize("n", [2, 4])
    def test_variance_oracle(self, samples, n):
        rng = np.random.default_rng(31 + samples)
        h = np.array([_random_hermitian(rng, n) for _ in range(samples)])
        rho = np.array([_random_state(rng, n) for _ in range(samples)])
        singles = [variance_qfi_oracle(h[i], rho[i]) for i in range(samples)]
        _assert_rows_close(variance_qfi_oracle(h, rho), singles)

    @pytest.mark.parametrize("samples", [1, 2, 7])
    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("d", [1, 3])
    def test_qfim_trace_oracle(self, samples, n, d):
        rng = np.random.default_rng(37 + samples)
        h = np.array([[_random_hermitian(rng, n) for _ in range(d)] for _ in range(samples)])
        rho = np.array([_random_state(rng, n) for _ in range(samples)])
        singles = [qfim_trace_oracle(h[i], rho[i]) for i in range(samples)]
        _assert_rows_close(qfim_trace_oracle(h, rho), singles)

    @pytest.mark.parametrize("samples", [1, 2, 7])
    @pytest.mark.parametrize("n", [2, 4])
    def test_weak_comm_trace_oracle_over_every_pair(self, samples, n):
        # every pair against its explicit trace, and the stack against its samples
        rng = np.random.default_rng(41 + samples)
        h = np.array([[_random_hermitian(rng, n) for _ in range(3)] for _ in range(samples)])
        rho = np.array([_random_state(rng, n) for _ in range(samples)])
        explicit = [
            [[np.trace((a @ b - b @ a) @ rho[i]) for b in h[i]] for a in h[i]]
            for i in range(samples)
        ]
        stacked = weak_comm_trace_oracle(h, rho)
        _assert_rows_close(stacked, explicit)
        _assert_rows_close(stacked, [weak_comm_trace_oracle(h[i], rho[i]) for i in range(samples)])
        assert np.array_equal(stacked, -stacked.swapaxes(-1, -2))
        assert np.all(np.diagonal(stacked, axis1=-2, axis2=-1) == 0.0)

    @pytest.mark.parametrize("samples", [1, 2, 7])
    def test_sld_oracle_over_mixed_parameter_counts(self, samples):
        # d = 1 to 3, dU padded with zero rows to d = 3, then one call per probe dimension
        rng = np.random.default_rng(59 + samples)
        schemes = [
            linear_scheme(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, (1 + k % 3, 3)), t=1.1)
            for k in range(samples)
        ]
        points = [rng.uniform(-1, 1, sch.n_params) for sch in schemes]
        singles = [unitary_derivatives(sch, x) for sch, x in zip(schemes, points)]
        u = np.array([one[0] for one in singles])
        du = np.zeros((samples, 3, 2, 2), dtype=complex)
        for i, (_, du_i) in enumerate(singles):
            du[i, : len(du_i)] = du_i
        for n in (2, 4):
            probes = np.array([_random_state(rng, n) for _ in range(samples)])
            stacked = sld_oracle(u, du, probes)
            for i, ((u_i, du_i), probe) in enumerate(zip(singles, probes)):
                d = len(du_i)
                one = sld_oracle(u_i, du_i, probe)
                # a padded parameter gives exactly zero operators and residual rows and columns
                res = stacked.residuals[i]
                assert not res[d:].any() and not res[:, d:].any()
                for got, expected in (
                    (stacked.slds[i, :d], one.slds),
                    (stacked.generators[i, :d], one.generators),
                ):
                    assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()
                # a residual is rounding noise: relative to its terms Tr[L_a L_b rho_x]
                terms = np.abs(one.slds).max() ** 2
                assert np.abs(res[:d, :d] - one.residuals).max() <= 1e-14 * terms
                assert not stacked.slds[i, d:].any() and not stacked.generators[i, d:].any()
                assert np.abs(stacked.u_tot[i] - one.u_tot).max() <= 1e-14

    @pytest.mark.parametrize("samples", [1, 2, 7])
    def test_entangled_qfi_oracle(self, samples):
        rng = np.random.default_rng(43 + samples)
        gens = np.array([random_gen(rng) for _ in range(samples)])
        _assert_rows_close(entangled_qfi_oracle(gens), [entangled_qfi_oracle(g) for g in gens])

    @pytest.mark.parametrize("samples", [1, 2, 7])
    def test_entangled_weak_comm(self, samples):
        # a product probe, so the traces do not vanish
        rng = np.random.default_rng(47 + samples)
        probe = np.array([1.0, 0, 0, 0], dtype=complex)
        a = np.array([random_gen(rng, min_mag=0.5) for _ in range(samples)])
        b = np.array([random_gen(rng, min_mag=0.5) for _ in range(samples)])
        singles = [entangled_weak_comm(a[i], b[i], probe) for i in range(samples)]
        _assert_rows_close(entangled_weak_comm(a, b, probe), singles)

    def test_entangled_weak_comm_refuses_mismatched_stacks(self):
        with pytest.raises(DegenerateVectorError, match="two 3-vectors"):
            entangled_weak_comm(np.ones((2, 3)), np.ones((3, 3)), BELL_PHI_PLUS)
        with pytest.raises(DegenerateVectorError, match="two 3-vectors"):
            entangled_weak_comm(np.ones(2), np.ones(2), BELL_PHI_PLUS)


class TestOracleTrace:
    def test_entangled_weak_comm_is_the_trace_oracle_on_lifted_generators(self):
        rng = np.random.default_rng(1802)
        a, b = rng.uniform(-3, 3, (2, 5, 3))
        probe = rng.normal(size=4) + 1j * rng.normal(size=4)
        probe /= np.linalg.norm(probe)
        pair = lift(su2_element(np.stack([a, b], axis=1)))
        expected = weak_comm_trace_oracle(pair, np.outer(probe, probe.conj()))[:, 0, 1]
        assert entangled_weak_comm(a, b, probe).tobytes() == expected.tobytes()

    def test_bell_projector_is_the_outer_product(self):
        assert BELL_PROJECTOR.tobytes() == np.outer(BELL_PHI_PLUS, BELL_PHI_PLUS.conj()).tobytes()


class TestQfiMax:
    def test_colinear_reaches_ceiling(self):
        x = np.array([0, 0, 2.0])
        d = np.array([0, 0, 0.7])
        assert qfi_max(x, d, 5.0) == pytest.approx(25 * 0.49, rel=1e-14)

    def test_oscillation_null(self):
        # orthogonal geometry with T|X| = 2 pi gives exactly zero
        x = np.array([0, 0, 2.0])
        d = np.array([1.0, 0, 0])
        t = np.pi  # T|X| = 2 pi
        assert qfi_max(x, d, t) < 1e-28

    def test_reference_value(self):
        x = 2.0 * random_unit()
        d = np.cross(x, random_unit())
        d /= np.linalg.norm(d)
        assert qfi_max(x, d, 5.0) == pytest.approx(np.sin(5.0) ** 2, abs=1e-13)

    def test_zero_field_limit(self):
        d = np.array([0.5, 0.5, 0])
        assert qfi_max([0, 0, 0], d, 3.0) == pytest.approx(9 * 0.5, rel=1e-15)

    def test_vanishing_partial_carries_no_information(self):
        assert qfi_max([0, 0, 2.0], [0, 0, 0], 5.0) == 0.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            qfi_max([0, 0, 2.0], [1.0, 0, 0], -1.0)

    def test_bound_over_random_inputs(self):
        for _ in range(1000):
            d = RNG.uniform(0.1, 5) * random_unit()
            t = RNG.uniform(0, 5)
            val = qfi_max(RNG.uniform(0.1, 5) * random_unit(), d, t)
            assert -1e-12 <= val <= t**2 * np.dot(d, d) + 1e-12

    @pytest.mark.parametrize("d,t", [([1e160, 0.0, 0.0], 1.0), ([0.0, 1.0, 0.0], 1e160)])
    def test_a_finite_generator_whose_square_overflows_raises(self, d, t):
        # |Y| = 1e160 is a double, |Y|^2 = 1e320 is not: the refusal names
        # |Y|^2, where it used to return inf with numpy's RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=r"the information \|Y\|\^2 = \[inf\]") as err:
                qfi_max(np.zeros(3), d, t)
        assert "encountered in" not in str(err.value)

    @pytest.mark.parametrize(
        "args", [(2.0, 1e300, 0.5, 10.0), (2.0, 1.0, 0.5, 1e200), (1e308, 1.0, 0.5, 1e10)]
    )
    def test_overflow_from_angle_names_the_information(self, args):
        # Python floats: no errno OverflowError from **, no RuntimeWarning
        with pytest.raises(OverflowError, match=r"the information \(T \|dX\|\)\^2"):
            qfi_max_from_angle(*args)

    def test_from_angle_rescales_only_the_entries_with_a_square_out_of_range(self):
        # T = 1e-160 squares to a subnormal; the other entries keep the bits
        # of (T^2 |dX|^2) times the angle factor
        t = np.array([1e-160, 0.7, 3.0, 1e-200])
        dx = np.array([1e150, 2.5, 1e-3, 1e200])
        got = qfi_max_from_angle(0.0, dx, 0.0, t)
        assert got[1:3].tobytes() == (t[1:3] ** 2 * dx[1:3] ** 2 * 1.0).tobytes()
        for value, t_i, dx_i in zip(got[::3], t[::3], dx[::3]):
            exact = float((Fraction(t_i) * Fraction(dx_i)) ** 2)
            assert value == pytest.approx(exact, rel=1e-15, abs=0.0)
        assert isinstance(qfi_max_from_angle(0.0, 1e150, 0.0, 1e-160), np.float64)

    def test_from_angle_squares_a_scalar_as_python_does(self):
        # a scalar |dX| goes through libm pow like a Python float, so the
        # sweep-alpha tables keep their bytes
        dx = 28.424977634132766
        assert dx**2 != dx * dx
        assert qfi_max_from_angle(0.0, dx, 0.0, 1.0) == dx**2

    def test_control_never_hurts_the_maximum(self):
        for _ in range(500):
            x = RNG.uniform(0.1, 5) * random_unit()
            d = RNG.uniform(0.1, 5) * random_unit()
            t = RNG.uniform(0, 5)
            ceiling = t**2 * np.dot(d, d)  # the |S| -> 0 controlled limit
            assert ceiling - qfi_max(x, d, t) >= -1e-12


class TestQfiMaxControlled:
    def test_cancelled_coefficients_reach_ceiling(self):
        d = np.array([1.0, 0, 0])
        assert qfi_max([0, 0, 0], d, 5.0) == 25.0

    def test_taylor_tail_of_small_residual(self):
        d = random_unit()
        s = 1e-4 * random_unit()
        assert abs(qfi_max(s, d, 5.0) - 25.0) < 1e-6


class TestWeakCommResidual:
    def test_mixed_probe_origin(self):
        assert 1j * weak_comm_matrix([random_gen(), random_gen()], [0, 0, 0])[0, 1] == 0.0

    def test_parallel_axes_commute(self):
        e = random_unit()
        a = 2.0 * e
        b = 3.0 * e
        assert abs(1j * weak_comm_matrix([a, b], random_unit())[0, 1]) < 1e-15

    def test_pauli_reference_value(self):
        a = np.array([1.0, 0, 0])
        b = np.array([0.0, 1, 0])
        r = np.array([0.0, 0, 1])
        closed = 1j * weak_comm_matrix([a, b], r)[0, 1]
        assert closed == pytest.approx(0.5j, abs=1e-15)
        oracle = weak_comm_trace_oracle(su2_element([a, b]), density(r))[0, 1]
        assert closed == pytest.approx(oracle, abs=1e-13)

    def test_matrix_is_antisymmetric_and_matches_the_trace_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            gens = np.array([random_gen(rng) for _ in range(3)])
            r = random_unit(rng) * rng.uniform(0, 1)
            w = weak_comm_matrix(gens, r)
            assert np.array_equal(w, -w.T)
            oracle = weak_comm_trace_oracle(su2_element(gens), density(r))
            assert np.abs(1j * w - oracle).max() < 1e-12

    def test_purely_imaginary_and_matches_oracle(self):
        for _ in range(300):
            a, b = random_gen(), random_gen()
            r = random_unit() * RNG.uniform(0, 1)
            closed = 1j * weak_comm_matrix([a, b], r)[0, 1]
            assert abs(closed.real) < 1e-13
            oracle = weak_comm_trace_oracle(su2_element([a, b]), density(r))[0, 1]
            assert abs(closed - oracle) < 1e-12


class TestEntangledProbe:
    def test_direction_independent_value(self):
        # 25 |e|^2 is 25 exactly on the axes; a random unit e rounds |e|^2
        for e, rel in (([1.0, 0, 0], 0.0), (random_unit(), 1e-15), ([0.0, 0, 1], 0.0)):
            gen = 5.0 * np.asarray(e)
            assert qfim_pure([gen], np.zeros(3))[0, 0] == pytest.approx(25.0, rel=rel, abs=0.0)

    def test_zero_magnitude(self):
        assert qfim_pure([np.zeros(3)], np.zeros(3))[0, 0] == 0.0

    def test_magnetometry_colatitude_value(self):
        point = FieldPoint(3.0, np.pi / 6, 0.0)
        gen_theta = scheme_generators(magnetometry_scheme(point, 1.0, 1), point.as_array())[1]
        expected = 4 * np.sin(3.0) ** 2
        assert qfim_pure([gen_theta], np.zeros(3))[0, 0] == pytest.approx(expected, abs=1e-13)
        assert entangled_qfi_oracle(gen_theta) == pytest.approx(expected, abs=1e-11)

    def test_matches_4x4_oracle_randomly(self):
        for _ in range(500):
            gen = random_gen()
            assert abs(qfim_pure([gen], np.zeros(3))[0, 0] - entangled_qfi_oracle(gen)) < 1e-11

    def test_weak_comm_vanishes_on_bell_probe(self):
        for _ in range(300):
            val = entangled_weak_comm(random_gen(), random_gen(), BELL_PHI_PLUS)
            assert abs(val) < 1e-12

    def test_product_probe_value_from_oracle(self):
        # |00> leaves the reduced state pure: the trace picks up the z
        # component of the cross of the two axes, scaled by c = 1/2
        probe = np.array([1.0, 0, 0, 0], dtype=complex)
        for _ in range(100):
            a, b = random_gen(rng=RNG, min_mag=0.5), random_gen(rng=RNG, min_mag=0.5)
            val = entangled_weak_comm(a, b, probe)
            expected = 0.5 * abs(np.cross(a, b)[2])
            assert abs(val) == pytest.approx(expected, abs=1e-12)
            # independent 4x4 trace
            eye = np.eye(2)
            oracle = weak_comm_trace_oracle(
                np.array([np.kron(su2_element(a), eye), np.kron(su2_element(b), eye)]),
                np.outer(probe, probe.conj()),
            )[0, 1]
            assert val == pytest.approx(oracle, abs=1e-14)

    def test_self_commutator_vanishes(self):
        gen = random_gen()
        probe = np.array([1.0, 0, 0, 0], dtype=complex)
        assert entangled_weak_comm(gen, gen, probe) == 0.0

    def test_unnormalized_probe_rejected(self):
        with pytest.raises(UnphysicalStateError):
            entangled_weak_comm(random_gen(), random_gen(), np.array([1.0, 0, 0, 1.0]))

    def test_nan_probe_rejected(self):
        with pytest.raises(UnphysicalStateError):
            entangled_weak_comm(random_gen(), random_gen(), np.array([np.nan, 0, 0, 1.0]))

    def test_two_vector_probe_rejected(self):
        with pytest.raises(UnphysicalStateError, match="4-dimensional"):
            entangled_weak_comm(random_gen(), random_gen(), np.array([1.0, 0.0]))


class TestSldOracle:
    def test_identity_on_random_schemes_and_probes(self):
        worst = 0.0
        for _ in range(60):
            d = int(RNG.integers(1, 4))
            scheme = linear_scheme(
                RNG.uniform(-2, 2, 3),
                RNG.uniform(-2, 2, (d, 3)),
                t=RNG.uniform(0.1, 5),
                control=RNG.uniform(-2, 2, 3) if RNG.random() < 0.5 else np.zeros(3),
            )
            x = RNG.uniform(-1, 1, d)
            if RNG.random() < 0.5:
                probe = density(random_unit() * RNG.uniform(0, 1))
            else:
                psi = RNG.normal(size=4) + 1j * RNG.normal(size=4)
                psi /= np.linalg.norm(psi)
                probe = np.outer(psi, psi.conj())
            worst = max(worst, sld_oracle(*unitary_derivatives(scheme, x), probe).residuals.max())
        assert worst < 1e-6

    def test_conjugated_sld_is_2i_times_generator(self):
        scheme = linear_scheme(
            np.array([1.0, -0.5, 0.8]), np.array([[0.7, 0.2, -0.4]]), t=2.0
        )
        x = np.array([0.3])
        result = sld_oracle(*unitary_derivatives(scheme, x), density([0, 0, 1]))
        conjugated = result.u_tot.conj().T @ result.slds[0] @ result.u_tot
        assert np.abs(conjugated - 2j * result.generators[0]).max() < 1e-6

    @pytest.mark.parametrize("dim", [2, 4])
    def test_generators_equal_the_numeric_generator(self, dim):
        # read off the SLD's own differences, they are the finite-difference oracle's
        scheme = linear_scheme([0.4, -1.1, 0.9], RNG.uniform(-1, 1, (3, 3)), t=0.7, n=3)
        x = RNG.uniform(-1, 1, 3)
        probe = density([0, 0, 1]) if dim == 2 else np.eye(4) / 4
        result = sld_oracle(*unitary_derivatives(scheme, x), probe)
        for ell, gen in enumerate(result.generators):
            expected = numeric_generator(scheme, x, ell)
            if dim == 4:
                expected = np.kron(expected, np.eye(2))
            assert np.array_equal(gen, expected)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_residuals_are_exactly_symmetric_with_a_zero_diagonal(self, dim):
        # each mirrored entry equals its own explicit evaluation bit for bit
        rng = np.random.default_rng(29)
        scheme = linear_scheme(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, (3, 3)), t=1.3)
        x = rng.uniform(-1, 1, 3)
        probe = density([0.6, 0.0, 0.8]) if dim == 2 else np.eye(4) / 4
        result = sld_oracle(*unitary_derivatives(scheme, x), probe)
        res = result.residuals
        assert res.shape == (3, 3)
        assert np.array_equal(res, res.T)
        assert np.all(np.diag(res) == 0.0)
        u0 = result.u_tot
        rho_x = u0 @ probe @ u0.conj().T
        slds, gens = result.slds, result.generators

        def commutator_traces(h, rho):
            # P_ab = Tr[H_a H_b rho] from one h @ rho and one (d, n^2) @ (n^2, d) product
            pairs = h.reshape(3, -1) @ (h @ rho).swapaxes(-1, -2).reshape(3, -1).T
            return pairs - pairs.T

        lhs, rhs = commutator_traces(slds, rho_x), commutator_traces(gens, probe)
        for a in range(3):
            for b in range(3):
                assert res[a, b] == abs(lhs[a, b] + 4.0 * rhs[a, b])
        # and each trace against the commutator written out pair by pair, within
        # 1e-14 of its terms Tr[H_a H_b rho]: on I/4 the traces themselves vanish
        for traces, h, rho in ((lhs, slds, rho_x), (rhs, gens, probe)):
            explicit = np.array([[np.trace((a @ b - b @ a) @ rho) for b in h] for a in h])
            terms = np.array([[np.trace(a @ b @ rho) for b in h] for a in h])
            assert np.abs(traces - explicit).max() <= 1e-14 * np.abs(terms).max()

    def test_residuals_of_random_probes_are_exactly_symmetric_with_a_zero_diagonal(self):
        rng = np.random.default_rng(53)
        for k in range(60):
            d = 1 + k % 3
            scheme = linear_scheme(
                rng.uniform(-2, 2, 3), rng.uniform(-2, 2, (d, 3)), t=rng.uniform(0.1, 5)
            )
            probe = _random_state(rng, (2, 4)[k % 2])
            res = sld_oracle(*unitary_derivatives(scheme, rng.uniform(-1, 1, d)), probe).residuals
            assert np.array_equal(res, res.T)
            assert np.all(np.diag(res) == 0.0)

    def test_constant_scheme_gives_zero_slds(self):
        scheme = SchemeConfig(
            coefficients=lambda xp: np.array([1.0, 0.2, -0.3]),
            partials=lambda xp: np.zeros((1, 3)),
            n_params=1,
            segment_time=1.5,
        )
        result = sld_oracle(*unitary_derivatives(scheme, [0.0]), density([1, 0, 0]))
        assert np.abs(result.slds[0]).max() < 1e-9

    def test_invalid_probe_rejected(self):
        scheme = linear_scheme([1, 0, 0], [[0, 1, 0]])
        with pytest.raises(UnphysicalStateError):
            sld_oracle(*unitary_derivatives(scheme, [0.0]), np.eye(2))  # trace 2

    def test_three_level_probe_rejected(self):
        scheme = linear_scheme([1, 0, 0], [[0, 1, 0]])
        with pytest.raises(UnphysicalStateError, match="2x2 or 4x4"):
            sld_oracle(*unitary_derivatives(scheme, [0.0]), np.eye(3) / 3)

    @pytest.mark.parametrize("diagonal", [(1.5, -0.5), (1.5, -0.5, 0.0, 0.0)])
    def test_negative_eigenvalue_rejected(self, diagonal):
        # unit trace and Hermitian, but not a state: the qubit one is r = (0, 0, 2)
        scheme = linear_scheme([1, 0, 0], [[0, 1, 0]])
        with pytest.raises(UnphysicalStateError, match="negative eigenvalue"):
            sld_oracle(*unitary_derivatives(scheme, [0.0]), np.diag(diagonal))

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.eye(2), r"probe\[3\] trace \(2\+0j\) is not 1"),
            (np.array([[0.5, 1.0], [0.0, 0.5]]), r"probe\[3\] is not Hermitian"),
            (np.diag([1.5, -0.5]), r"probe\[3\] has the negative eigenvalue -0.5"),
        ],
        ids=["trace", "hermitian", "eigenvalue"],
    )
    def test_stacked_check_names_the_failing_sample(self, bad, message):
        probes = np.array([density([0.0, 0.6, 0.8 * k / 5]) for k in range(6)])
        probes[3] = bad
        probes[5] = np.diag([np.nan, 1.0])  # a later failure is not the one named
        with pytest.raises(UnphysicalStateError, match=message):
            check_density(probes)
        scheme = linear_scheme([1, 0, 0], [[0, 1, 0]])
        u, du = unitary_derivatives(scheme, [0.0])
        with pytest.raises(UnphysicalStateError, match=message):
            sld_oracle(np.array([u] * 6), np.array([du] * 6), probes)

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    def test_nan_density_rejected(self, entry):
        # a NaN on the diagonal fails the trace check, off it the Hermiticity check
        scheme = linear_scheme([1, 0, 0], [[0, 1, 0]])
        probe = density([0, 0, 1])
        probe[entry] = np.nan
        with pytest.raises(UnphysicalStateError):
            sld_oracle(*unitary_derivatives(scheme, [0.0]), probe)


def four_state_entangled_qfim_fd(scheme, x):
    """The entangled-probe QFIM from central differences of the 4-state
    |psi(x)> = (U(x) (x) I)|Phi+> itself, step h = 1e-6 * max(1, |x_ell|),
    one entry (a, b) at a time."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = scheme.n_params

    def state(xs):
        return lift(build_total_unitary(scheme, xs)) @ BELL_PHI_PLUS

    psi0 = state(x)
    dpsi = []
    for ell in range(d):
        h = 1e-6 * max(1.0, abs(float(x[ell])))
        xp, xm = x.copy(), x.copy()
        xp[ell] += h
        xm[ell] -= h
        dpsi.append((state(xp) - state(xm)) / (2.0 * h))
    out = np.zeros((d, d))
    for a in range(d):
        for b in range(d):
            val = np.vdot(dpsi[a], dpsi[b]) - np.vdot(dpsi[a], psi0) * np.vdot(psi0, dpsi[b])
            out[a, b] = 4.0 * val.real
    return out


class TestEntangledQfimFd:
    @pytest.mark.parametrize("mode", ["merged", "product"])
    def test_matches_the_four_state_differences(self, mode):
        rng = np.random.default_rng(31)
        for _ in range(150):
            d = int(rng.integers(1, 4))
            scheme = affine_scheme(
                rng.uniform(-2, 2, 3),
                rng.uniform(-2, 2, (d, 3)),
                rng.uniform(-2, 2, 3) if rng.random() < 0.5 else np.zeros(3),
                rng.uniform(0.05, 1.5),
                int(rng.integers(1, 6)),
                mode,
            )
            x = rng.uniform(-1, 1, d)
            expected = four_state_entangled_qfim_fd(scheme, x)
            got = entangled_qfim_fd(scheme, x)
            assert got.shape == (d, d)
            scale = max(1.0, np.abs(expected).max())
            assert np.abs(got - expected).max() <= 1e-8 * scale


class TestOraclesAtLargeCoordinates:
    """The finite-difference oracles step x + h e_l with h relative to |x_l|.

    The affine scheme X = (1, 0, 0) + x (0, 1/x, 0) has X = (1, 1, 0) and
    dX = (0, 1/x, 0) at x, so an absolute step of 1e-6 is lost to rounding
    once |x| is large.
    """

    @pytest.mark.parametrize("x", [1e5, 1e12])
    def test_oracles_match_the_closed_form(self, x):
        grads = [[0.0, 1.0 / x, 0.0]]
        scheme = affine_scheme([1.0, 0.0, 0.0], grads, np.zeros(3), 0.7, 3, "merged")
        point = np.array([x])
        closed = su2_element(scheme_generators(scheme, point)[0])
        scale = np.abs(closed).max()
        numeric = numeric_generator(scheme, point, 0)
        assert np.abs(numeric - closed).max() <= 1e-6 * scale
        sld_gen = sld_oracle(*unitary_derivatives(scheme, point), density([0, 0, 1])).generators[0]
        assert np.abs(sld_gen - closed).max() <= 1e-6 * scale
        qfim = build_report(scheme, point, ENTANGLED_WITH_ANCILLA).qfim
        assert np.abs(entangled_qfim_fd(scheme, point) - qfim).max() <= 1e-6 * np.abs(qfim).max()


def outer_qfim_pure(gens, r):
    """qfim_pure with np.outer: the earlier expression, kept as the bit-for-bit reference."""
    gens = np.asarray(gens, dtype=float).reshape(-1, 3)
    proj = gens @ np.asarray(r, dtype=float)
    return gens @ gens.T - np.outer(proj, proj)


class TestReportKernelsBitForBit:
    def _gens(self, rng):
        """A stack of 1 to 3 generators, some rows +-0 or parallel to another."""
        d = int(rng.integers(1, 4))
        gens = rng.normal(size=(d, 3)) * 10.0 ** rng.uniform(-3, 3, (d, 1))
        for row in range(d):
            kind = rng.random()
            if kind < 0.15:
                gens[row] = rng.choice([0.0, -0.0], size=3)
            elif kind < 0.3 and row > 0:
                gens[row] = rng.uniform(-2, 2) * gens[0]
        return gens

    def _probe(self, rng, gens):
        """r = 0 (entangled), a random unit vector, or the direction of a row."""
        kind = rng.random()
        if kind < 0.3:
            return np.zeros(3)
        row = gens[rng.integers(len(gens))]
        if kind < 0.5 and row.any():
            return row / np.linalg.norm(row)
        return random_unit(rng)

    def test_qfim_and_bounds_over_random_stacks(self):
        """The QFIM bit for bit against ``outer_qfim_pure``; the bounds bit for
        bit unchanged by a sign flip of any row or of r and by a power-of-two
        rescale of r, which the rule reads as a direction."""
        rng = np.random.default_rng(1408)
        kinds = {"finite": 0, "inf": 0}
        for _ in range(3000):
            gens = self._gens(rng)
            r = self._probe(rng, gens)
            qfim = qfim_pure(gens, r)
            assert qfim.tobytes() == outer_qfim_pure(gens, r).tobytes()
            bounds = _precision_bounds(gens, r)
            signs = rng.choice([1.0, -1.0], size=(len(gens), 1))
            assert _precision_bounds(signs * gens, -r).tobytes() == bounds.tobytes()
            assert _precision_bounds(gens, np.ldexp(r, rng.integers(-60, 60))).tobytes() == (
                bounds.tobytes()
            )
            kinds["finite"] += np.isfinite(bounds).sum()
            kinds["inf"] += np.isinf(bounds).sum()
        assert min(kinds.values()) >= 1000, kinds

    # qfim0 to qfim6 name the QFIM edge cases from the time the bounds were read off
    # the QFIM; each is written here as generator rows and a probe that give it
    @pytest.mark.parametrize(
        "gens,r,want",
        [
            # F = [[0]]: no information
            ([[0.0, 0.0, 0.0]], None, [math.inf]),
            # F = [[-0.0]] from -0 components
            ([[-0.0, 0.0, -0.0]], None, [math.inf]),
            # F = [[0]] from |Y|^2 - (Y.r)^2: a generator along a pure probe
            ([[3.0, 0.0, 0.0]], [1.0, 0.0, 0.0], [math.inf]),
            # F = diag(4, 0): a zero row is inf, the other row solved without it
            ([[2.0, 0.0, 0.0], [0.0, 0.0, 0.0]], None, [0.5, math.inf]),
            # the same with a -0 row and a pure probe orthogonal to the first row
            ([[0.0, 2.0, 0.0], [-0.0, 0.0, -0.0]], [0.0, 0.0, 1.0], [0.5, math.inf]),
            # F = [[1, 1, 0], [1, 1, 0], [0, 0, 0]]: parallel rows are not identifiable
            ([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], None, [math.inf] * 3),
            # F = diag(0, 1, 1): three pure-probe parameters where D_mn = (Y_m x Y_n).r
            # is 0 for the pairs (1, 2) and (1, 3) but not for (2, 3), so only x_1 is lost
            (np.eye(3), [1.0, 0.0, 0.0], [math.inf, 1.0, 1.0]),
            # a turn of 1e-13 off that probe is information, not rounding: D_23 = 1 and
            # D_13 = -1e-13 are nonzero, so x_1 and x_2 are lost and only x_3 is bounded
            (np.eye(3), [1.0, 1e-13, 0.0], [math.inf, math.inf, 1.0]),
        ],
        ids=[f"qfim{k}" for k in range(8)],
    )
    def test_bounds_edge_cases(self, gens, r, want):
        r = np.zeros(3) if r is None else np.array(r)
        bounds = _precision_bounds(np.array(gens), r)
        assert bounds.tobytes() == np.array(want).tobytes()

    def test_entangled_report_matches_the_checked_kernels(self):
        """build_report skips the residual matrix at r = 0; its QFIM and
        residuals equal the public, checked kernels at r = 0."""
        rng = np.random.default_rng(1410)
        for _ in range(500):
            d = int(rng.integers(1, 4))
            grads = _signed_zeros_rows(rng, rng.normal(size=(d, 3)))
            scheme = linear_scheme(rng.normal(size=3), grads, rng.uniform(0.1, 2.0))
            x = rng.normal(size=d)
            gens = scheme_generators(scheme, x)
            report = build_report(scheme, x, ENTANGLED_WITH_ANCILLA)
            zero = np.zeros(3)
            assert report.qfim.tobytes() == qfim_pure(gens, zero).tobytes()
            assert (
                report.weak_comm_residuals.tobytes()
                == np.abs(weak_comm_matrix(gens, zero)).tobytes()
            )

    def test_report_has_one_path_through_the_public_kernels(self, monkeypatch):
        """A report's QFIM is ``qfim_pure``'s result and a pure probe's residuals
        are the magnitudes of ``weak_comm_matrix``'s, each from a single call;
        perturbing ``qfim_pure`` moves the report, so no second copy is left."""
        kernels = {name: getattr(qfi, name) for name in ("qfim_pure", "weak_comm_matrix")}
        results = {name: [] for name in kernels}
        shift = 0.0

        def spy(name):
            def spied(gens, r):
                result = kernels[name](gens, r)
                if name == "qfim_pure" and shift:
                    result = result + shift
                results[name].append(result)
                return result

            return spied

        for name in kernels:
            monkeypatch.setattr(qfi, name, spy(name))
        scheme = linear_scheme([0.4, -0.2, 0.9], [[1.0, 0.3, 0.0], [0.0, -0.5, 1.2]], 0.7, 3)
        x = np.array([0.1, -0.3])
        for probe_kind, r, residual_calls in ((PURE_QUBIT, random_unit(), 1),
                                              (ENTANGLED_WITH_ANCILLA, None, 0)):
            for calls in results.values():
                calls.clear()
            report = build_report(scheme, x, probe_kind, r=r)
            assert len(results["qfim_pure"]) == 1
            assert len(results["weak_comm_matrix"]) == residual_calls
            assert report.qfim.tobytes() == results["qfim_pure"][0].tobytes()
            if residual_calls:
                residuals = np.abs(results["weak_comm_matrix"][0])
                assert report.weak_comm_residuals.tobytes() == residuals.tobytes()
            shift = 1e-9
            moved = build_report(scheme, x, probe_kind, r=r).qfim
            shift = 0.0
            assert (moved != report.qfim).all()
            assert moved.tobytes() == results["qfim_pure"][-1].tobytes()

    @pytest.mark.parametrize(
        "kernel",
        [
            qfim_pure,
            weak_comm_matrix,
            pytest.param(lambda gens, r: check_bloch(r), id="check_bloch"),
        ],
    )
    def test_public_kernels_still_check_the_bloch_vector(self, kernel):
        gens = np.array([[0.3, -1.1, 0.7], [1.0, 0.0, 0.0]])
        with pytest.raises(UnphysicalStateError):
            kernel(gens, [0.8, 0.8, 0.0])
        with pytest.raises(UnphysicalStateError):
            kernel(gens, [float("nan"), 0.0, 0.0])
        # a wrong length is an unphysical state, not a degenerate direction
        for bad in ([0.0, 1.0], [0.0, 0.0, 1.0, 0.0], [[0.0, 0.0, 1.0]], 0.5):
            with pytest.raises(UnphysicalStateError, match="3 entries"):
                kernel(gens, bad)


def _signed_zeros_rows(rng, stack):
    """``stack`` with some rows set to +-0 entries and some entries set to +-0."""
    stack = np.array(stack, dtype=float)
    mask = rng.random(stack.shape) < 0.2
    stack[mask] = rng.choice([0.0, -0.0], size=mask.sum())
    for row in range(len(stack)):
        if rng.random() < 0.25:
            stack[row] = rng.choice([0.0, -0.0], size=3)
    return stack


class TestBuildReport:
    def test_magnetometry_pure_probe_not_attainable(self):
        point = FieldPoint(3.0, np.pi / 6, 0.0)
        scheme = magnetometry_scheme(point, 1.0, 5)
        for r in ([0, 0, 1], [1, 0, 0], random_unit()):
            report = build_report(scheme, point.as_array(), PURE_QUBIT, r=r)
            assert report.attainable is False

    def test_magnetometry_entangled_controlled_attainable(self):
        point = FieldPoint(3.0, np.pi / 6, 0.0)
        scheme = magnetometry_scheme(point, 1.0, 5, control="optimal")
        report = build_report(scheme, point.as_array(), ENTANGLED_WITH_ANCILLA)
        assert report.attainable is True
        assert np.allclose(np.diag(report.qfim), [100.0, 900.0, 225.0], atol=1e-9)
        assert report.weak_comm_residuals.max() <= 1e-10
        assert np.all(np.diag(report.qfim) >= report.qfi_max - 1e-10)
        assert np.allclose(report.precision_bounds, [0.1, 1 / 30, 1 / 15], atol=1e-12)

    def test_single_parameter_orthogonal_probe_attainable(self):
        scheme = linear_scheme([0, 0, 2.0], [[0, 0, 1.0]], t=1.0, n=4)
        report = build_report(scheme, [0.0], PURE_QUBIT, r=[1, 0, 0])
        assert report.attainable is True

    def test_dimensionality_guard(self):
        scheme = linear_scheme([1, 0, 0], np.eye(4)[:, :3] * 0 + RNG.uniform(-1, 1, (4, 3)))
        with pytest.raises(DimensionalityError):
            build_report(scheme, [0.0, 0, 0, 0], ENTANGLED_WITH_ANCILLA)

    def test_unknown_probe_kind_rejected(self):
        scheme = linear_scheme([1, 0, 0], [[0, 1, 0]])
        with pytest.raises(ValueError, match="unknown probe kind"):
            build_report(scheme, [0.0], "thermal")

    def test_pure_probe_requires_unit_bloch_vector(self):
        point = FieldPoint(3.0, np.pi / 6, 0.0)
        scheme = magnetometry_scheme(point, 1.0, 5)
        with pytest.raises(UnphysicalStateError):
            build_report(scheme, point.as_array(), PURE_QUBIT, r=[0.5, 0, 0])
        with pytest.raises(UnphysicalStateError):
            build_report(scheme, point.as_array(), PURE_QUBIT)

    @pytest.mark.parametrize("length", [1.0 - 5e-10, 1.0 + 5e-13])
    def test_a_nearly_unit_bloch_vector_reports_as_its_direction(self, length):
        # |r| within PURITY of 1 is read as r/|r| by every field: at |r| = 1 - 5e-10
        # the QFIM used to turn full rank (eigenvalue 2.9e-9) next to three inf bounds
        point = FieldPoint(3.0, np.pi / 6, 0.0)
        scheme = magnetometry_scheme(point, 1.0, 5)
        got, unit = (build_report(scheme, point.as_array(), PURE_QUBIT, r=[0.0, 0.0, z])
                     for z in (length, 1.0))
        for name in ("qfim", "qfi_max", "weak_comm_residuals", "precision_bounds"):
            assert getattr(got, name).tobytes() == getattr(unit, name).tobytes(), name
        assert got.attainable is unit.attainable

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_bloch_vector_rejected(self, bad):
        # a NaN fails every comparison, so each check must fail closed
        point = FieldPoint(3.0, np.pi / 6, 0.0)
        scheme = magnetometry_scheme(point, 1.0, 5)
        with pytest.raises(UnphysicalStateError):
            build_report(scheme, point.as_array(), PURE_QUBIT, r=[bad, 0.0, 0.0])

    def test_report_invariants(self):
        point = FieldPoint(2.0, 0.9, 1.3)
        scheme = magnetometry_scheme(point, 0.5, 7, control="optimal")
        report = build_report(scheme, point.as_array(), ENTANGLED_WITH_ANCILLA)
        assert np.abs(report.qfim - report.qfim.T).max() < 1e-10
        assert np.linalg.eigvalsh(report.qfim).min() > -1e-10
        assert np.all(report.qfi_max >= np.diag(report.qfim) - 1e-10)
        doc = report.to_dict()
        assert doc["attainable"] is True
        assert len(doc["qfim"]) == 3

    @pytest.mark.parametrize(
        "t,n,control",
        [(1.0, 200, "optimal"), (5.0, 1000, "none")],
        ids=["controlled-T200", "uncontrolled-T5000"],
    )
    def test_large_total_time_entangled_attainable(self, t, n, control):
        # the diagonal and the maxima differ only by the rounding of |Y|^2,
        # which exceeds an absolute 1e-10 at T^2 |dX|^2 ~ 1e6..1e8
        point = FieldPoint(3.0, np.pi / 6, 0.0)
        scheme = magnetometry_scheme(point, t, n, control=control)
        report = build_report(scheme, point.as_array(), ENTANGLED_WITH_ANCILLA)
        assert report.attainable is True

    @pytest.mark.parametrize(
        "x_tilde,probe_kind,r,want",
        [
            (None, PURE_QUBIT, [0.6, 0.0, 0.8], [math.inf] * 3),
            # sin(float(pi)) = 1.2e-16 leaves the azimuth generator tiny but nonzero; these are
            # the correctly rounded values of tools/report_bounds_reference.py for this theta
            ([3.0, 3.1, 0.0], ENTANGLED_WITH_ANCILLA, None,
             [0.10679062711797183, 0.03333434580151782, 290678290423584.2]),
        ],
        ids=["uncontrolled-pure", "misestimated-control-entangled"],
    )
    def test_south_pole_bounds_raise_no_warning(self, x_tilde, probe_kind, r, want):
        # theta = float(pi): a rank-2 pure-probe QFIM of three parameters bounds none of
        # them, and the entangled probe's tiny azimuth information is finite and real
        point = FieldPoint(3.0, np.pi, 0.0)
        control = "none" if x_tilde is None else "optimal"
        scheme = magnetometry_scheme(point, 1.0, 5, control=control, x_tilde=x_tilde)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = build_report(scheme, point.as_array(), probe_kind, r=r)
        np.testing.assert_array_max_ulp(report.precision_bounds, np.array(want), maxulp=4)

    def test_pure_probe_bounds_ignore_the_rounding_noise_null_direction(self):
        # three parameters on a pure qubit give the QFIM Y (I - r r^T) Y^T of rank 2, so
        # its null eigenvalue is exact, whatever rounding the float QFIM shows: no
        # parameter has a finite bound, and a 1e-13 turn of r does not change that
        rng = np.random.default_rng(409)
        for _ in range(200):
            t, n = rng.uniform(0.05, 1.0), int(rng.integers(1, 41))
            scheme = affine_scheme(
                rng.uniform(-2, 2, 3), rng.uniform(-2, 2, (3, 3)), np.zeros(3), t, n, "merged"
            )
            x = rng.uniform(-1, 1, 3)
            r = random_unit(rng)
            turned = _unit(r + 1e-13 * random_unit(rng))
            for probe in (r, turned):
                bounds = build_report(scheme, x, PURE_QUBIT, r=probe).precision_bounds
                assert np.isinf(bounds).all(), bounds

    def test_two_parameter_pure_bounds_near_weak_commutation(self):
        # F has the eigenvalues 4.97e-9 and 72.3, and det F = D_12^2 with D_12 = (Y_1 x Y_2).r:
        # the small eigenvalue is information, and the bounds |Y_m x r| / |D_12| are
        # within 1e-10 of 60-digit values (a cut-off pseudo-inverse read 0.117 and 0.0080)
        scheme = affine_scheme(
            [1.7876266659736295, -0.6024625645116175, 1.020886306645656],
            [[-1.7384041385533329, -1.3351793376281154, -0.89146666051204],
             [0.20127300680296667, 0.2296355203636402, -0.004054190771940469]],
            np.zeros(3), 0.7142153627048728, 8, "merged",
        )
        r = [-0.558420963175741, -0.8139139685319088, 0.16034363010271654]
        report = build_report(scheme, np.zeros(2), PURE_QUBIT, r=r)
        np.testing.assert_allclose(
            report.precision_bounds, [964.2082217043694, 14157.311272746801], rtol=1e-10
        )
        gens = scheme_generators(scheme, np.zeros(2))
        d12 = float(np.dot(cross(gens[0], gens[1]), r))
        np.testing.assert_allclose(2.0 * report.weak_comm_residuals[0, 1], abs(d12), rtol=1e-12)
        np.testing.assert_allclose(
            report.precision_bounds,
            [np.linalg.norm(cross(gens[1], r)) / abs(d12),
             np.linalg.norm(cross(gens[0], r)) / abs(d12)],
            rtol=1e-9,
        )

    @pytest.mark.parametrize(
        "gradients,probe_kind,r",
        [
            ([[1e200, 0.0, 0.0], [0.0, 1e200, 0.0]], ENTANGLED_WITH_ANCILLA, None),
            ([[1e200, 0.0, 0.0], [0.0, 1.0, 0.0]], PURE_QUBIT, [0.0, 0.0, 1.0]),
        ],
        ids=["entangled", "pure"],
    )
    def test_overflowing_information_raises(self, gradients, probe_kind, r):
        # |Y_l|^2 ~ 1e400: the entangled probe used to read an all-inf QFIM with
        # bounds [inf, inf] ("no information"), the pure probe failed in the SVD;
        # the refusal names |Y|^2 and carries no numpy warning text
        scheme = affine_scheme([0.1, 0.2, 0.3], gradients, np.zeros(3), 1.0, 1, "merged")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=r"the information \|Y\|\^2 = .* overflows") as err:
                build_report(scheme, [0.0, 0.0], probe_kind, r=r)
        assert "encountered in" not in str(err.value)


class TestInexactComposition:
    """The closed forms describe the merged exponential, which a product-mode
    scheme equals only without control: with a control the library refuses."""

    POINT = FieldPoint(3.0, np.pi / 6, 0.0)

    def _cases(self, mode, control):
        """A magnetometry and an affine scheme, each with its point."""
        magnetometry = magnetometry_scheme(self.POINT, 0.5, 3, mode=mode)
        affine = affine_scheme([1.0, -0.5, 2.0], np.eye(3)[:2], np.zeros(3), 0.5, 3, mode)
        return [
            (replace(magnetometry, control=control), self.POINT.as_array()),
            (replace(affine, control=control), np.array([0.3, -0.2])),
        ]

    @pytest.mark.parametrize("control", [[0.0, 0.0, 1e-300], [-1.0, 2.0, 0.5]])
    def test_controlled_product_mode_is_refused(self, control):
        for scheme, x in self._cases(PRODUCT, control):
            with pytest.raises(InexactCompositionError, match="product mode"):
                scheme_generators(scheme, x)
            with pytest.raises(InexactCompositionError):
                build_report(scheme, x, ENTANGLED_WITH_ANCILLA)
            with pytest.raises(InexactCompositionError):
                build_report(scheme, x, PURE_QUBIT, r=[0.0, 0.0, 1.0])

    @pytest.mark.parametrize("probe_kind,r", [(ENTANGLED_WITH_ANCILLA, None),
                                              (PURE_QUBIT, [0.6, 0.0, 0.8])])
    def test_merged_mode_with_control_reports(self, probe_kind, r):
        for scheme, x in self._cases(MERGED, [-1.0, 2.0, 0.5]):
            report = build_report(scheme, x, probe_kind, r=r)
            assert np.isfinite(report.qfim).all()

    @pytest.mark.parametrize("control", [[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0]])
    @pytest.mark.parametrize("probe_kind,r", [(ENTANGLED_WITH_ANCILLA, None),
                                              (PURE_QUBIT, [0.6, 0.0, 0.8])])
    def test_product_mode_with_a_zero_control_reports_the_merged_numbers(
        self, control, probe_kind, r
    ):
        merged = self._cases(MERGED, np.zeros(3))
        for (scheme, x), (merged_scheme, _) in zip(self._cases(PRODUCT, control), merged):
            got = build_report(scheme, x, probe_kind, r=r).to_dict()
            assert got == build_report(merged_scheme, x, probe_kind, r=r).to_dict()


_COMPONENT = st.floats(-3.0, 3.0)


_U = 2.0**-53  # the unit roundoff


def _exact_bound_rule(gens, r):
    """The rule of ``_precision_bounds`` in exact arithmetic on the same float inputs.

    Per row: ``(dist2, err, ambiguous)``, with dist^2 as a ``Fraction`` (0 where
    the bound is inf) and ``err`` a bound on |fl(dist) - dist| that is twice
    its first-order terms, so that it also holds where they are below 1/2:

    - no basis: dist = |Y_l|, and hypot errs by at most 2 u dist;
    - basis a: each component of Y_l x a loses at most 2 u (|p| + |q|) of its
      two products p, q, so with S the vector of those sums
      err = 2 (2 u |S| / |a| + 3 u dist);
    - basis a, b with w = a x b and the triple product D = Y_l.w: D loses at
      most 5 u T, T = sum of its six |Y_l a b| terms, and |w| at most
      2 u |S_w| + u |w|, so err = 2 (5 u T / |w| + (2 u |S_w| / |w| + 2 u) dist);
    - a third vector off the plane of a, b: dist = 0 and err = 0.

    ``ambiguous`` marks a row where a zero test may go either way, because the
    exact cross or triple product lies within its own rounding error: an
    exact 0 rounds to 0 in a cross product, a nonzero one may too.
    """
    rows = [[Fraction(c) for c in row] for row in np.asarray(gens, dtype=float).tolist()]
    probe = [Fraction(c) for c in np.asarray(r, dtype=float).tolist()]

    def cross_terms(p, q):
        terms = [(p[1] * q[2], p[2] * q[1]), (p[2] * q[0], p[0] * q[2]), (p[0] * q[1], p[1] * q[0])]
        return [s - t for s, t in terms], [abs(s) + abs(t) for s, t in terms]

    def norm(v):
        return math.hypot(*map(float, v))

    out = []
    for ell, y in enumerate(rows):
        a = w = s_w = None
        full = ambiguous = False
        for v in [u for k, u in enumerate(rows + [probe]) if k != ell and any(u)]:
            if a is None:
                a = v
            elif w is None:
                normal, sums = cross_terms(a, v)
                if any(normal):
                    ambiguous |= all(abs(n) <= 2 * _U * s for n, s in zip(normal, sums))
                    w, s_w = normal, sums
            else:
                triple = sum(wi * vi for wi, vi in zip(w, v))
                ambiguous |= abs(triple) <= 5 * _U * sum(s * abs(vi) for s, vi in zip(s_w, v))
                if triple:
                    full = True
                    break
        if full:
            out.append((Fraction(0), 0.0, ambiguous))
        elif w is not None:
            d = sum(yi * wi for yi, wi in zip(y, w))
            dist2 = d * d / sum(wi * wi for wi in w)
            t = float(sum(abs(yi) * s for yi, s in zip(y, s_w)))
            spread = 2 * _U * norm(s_w) / norm(w) + 2 * _U
            out.append((dist2, 2 * (5 * _U * t / norm(w) + spread * math.sqrt(dist2)), ambiguous))
        elif a is not None:
            c, sums = cross_terms(y, a)
            dist2 = sum(ci * ci for ci in c) / sum(ai * ai for ai in a)
            out.append((dist2, 2 * (2 * _U * norm(sums) / norm(a)
                                    + 3 * _U * math.sqrt(dist2)), ambiguous))
        else:
            dist2 = sum(yi * yi for yi in y)
            out.append((dist2, 4 * _U * math.sqrt(dist2), ambiguous))
    return out


_MAGNITUDE = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


@st.composite
def bound_inputs(draw):
    """1 to 3 generator rows and a probe: r = 0, a unit vector, an axis, or near a row.

    Rows may be 0, share zero components, or be another row times a power of
    two (exactly parallel) or times any float (parallel up to rounding).  Every
    nonzero component has a magnitude in [1e-6, 1e6] before r is normalised,
    so no product of the rule leaves the normal doubles.
    """
    d = draw(st.integers(1, 3))
    rows = []
    for _ in range(d):
        kind = draw(st.sampled_from(["free", "zero", "twice", "times"])) if rows else "free"
        if kind == "free":
            rows.append(draw(st.lists(_MAGNITUDE, min_size=3, max_size=3)))
        elif kind == "zero":
            rows.append([0.0, 0.0, 0.0])
        else:
            factor = 2.0 ** draw(st.integers(-8, 8)) if kind == "twice" else draw(
                st.floats(0.01, 100.0))
            rows.append([factor * c for c in draw(st.sampled_from(rows))])
    gens = np.array(rows)
    kind = draw(st.sampled_from(["entangled", "unit", "axis", "row", "near"]))
    if kind == "entangled":
        return gens, np.zeros(3)
    if kind == "axis":
        return gens, np.eye(3)[draw(st.integers(0, 2))]
    v = np.array(draw(st.lists(_MAGNITUDE, min_size=3, max_size=3)))
    if kind in ("row", "near"):
        # r along a row, or turned off it by 1e-14 to 1e-4 of a random vector
        turn = 10.0 ** -draw(st.floats(4.0, 14.0)) if kind == "near" else 0.0
        v = np.array(draw(st.sampled_from(rows))) + turn * v
    assume(np.abs(v).max() > 1e-3)
    return gens, _unit(v)


def _array_round_trip_bounds(gens, r):
    """The bound rule with every cross product an array read back as a list and
    every dot product a ``sum`` over ``zip``: the bit-for-bit reference for the
    Python-float form of ``_precision_bounds``."""
    rows, bounds = gens.tolist(), []
    spanning = [[math.ldexp(c, -e) for c in v] for v in rows + [r.tolist()]
                for e in [math.frexp(max(map(abs, v)))[1]]]
    for ell, y in enumerate(rows):
        a = w = None
        for v in [u for k, u in enumerate(spanning) if k != ell and any(u)]:
            if a is None:
                a = v
            elif w is None:
                w = normal if any(normal := np.cross(a, v).tolist()) else None
            elif sum(p * q for p, q in zip(w, v)) != 0.0:
                bounds.append(math.inf)
                break
        else:
            if w is not None:
                dist = abs(sum(p * q for p, q in zip(y, w))) / math.hypot(*w)
            elif a is not None:
                dist = math.hypot(*np.cross(y, a).tolist()) / math.hypot(*a)
            else:
                dist = math.hypot(*y)
            bounds.append(1.0 / dist if dist > 0.0 else math.inf)
    return np.array(bounds)


def _random_bound_stack(rng):
    """1 to 3 rows and a probe with the rule's edge cases: zero rows, rows
    parallel to another, signed-zero components, rows scaled by 2^+-1000, and
    r = 0, an axis, a unit vector along a row or in the span of the rows."""
    d = int(rng.integers(1, 4))
    rows = []
    for _ in range(d):
        kind = rng.choice(["free", "zero", "parallel", "signed-zero"]) if rows else "free"
        if kind == "zero":
            row = np.array([0.0, -0.0, 0.0]) * rng.choice([1.0, -1.0], 3)
        elif kind == "parallel":
            factor = rng.choice([2.0 ** int(rng.integers(-8, 9)), rng.uniform(-100.0, 100.0)])
            row = factor * rows[int(rng.integers(len(rows)))]
        else:
            row = rng.normal(size=3) * 10.0 ** rng.uniform(-3.0, 3.0, 3)
            if kind == "signed-zero":
                row[rng.random(3) < 0.5] = rng.choice([0.0, -0.0])
        rows.append(row)
    gens = np.array(rows)
    scaled = rng.random(d) < 0.2
    gens[scaled] = np.ldexp(gens[scaled], rng.choice([-1000, 1000], (int(scaled.sum()), 1)))
    kind = rng.choice(["entangled", "axis", "unit", "row", "span"])
    if kind == "entangled":
        return gens, np.zeros(3) * rng.choice([1.0, -1.0], 3)
    if kind == "axis":
        return gens, np.where(np.eye(3)[int(rng.integers(3))] > 0, 1.0, rng.choice([0.0, -0.0]))
    if kind == "unit":
        v = rng.normal(size=3)
    else:  # along one row, or a random combination of all of them
        comb = rng.normal(size=d) if kind == "span" else np.eye(d)[int(rng.integers(d))]
        v = np.ldexp(np.array(rows), -int(np.frexp(np.abs(rows).max() or 1.0)[1])).T @ comb
        if not np.abs(v).max() > 0.0:
            return gens, np.zeros(3)
    return gens, v / np.linalg.norm(v)


class TestPrecisionBoundRule:
    """sigma_l = 1/dist(Y_l, span of the other rows and r) against exact arithmetic,
    a change of units and the regularised inverse it is the limit of."""

    @given(bound_inputs())
    @settings(max_examples=400, deadline=None)
    def test_every_bound_against_the_rule_in_exact_arithmetic(self, inputs):
        gens, r = inputs
        bounds = _precision_bounds(gens, r).tolist()
        for sigma, (dist2, err, ambiguous) in zip(bounds, _exact_bound_rule(gens, r)):
            if ambiguous:  # the float zero test may decide either way
                continue
            # sigma = fl(1/dist) adds at most u dist; compare the squares exactly
            dist = Fraction(0) if sigma == math.inf else 1 / Fraction(sigma)
            slack = Fraction(err) + _U * dist
            assert max(dist - slack, 0) ** 2 <= dist2 <= (dist + slack) ** 2, (
                sigma, float(dist2) ** 0.5, err)

    @given(bound_inputs(), st.integers(0, 2), st.integers(-60, 60), st.integers(-800, 800))
    @settings(max_examples=300, deadline=None)
    def test_a_power_of_two_on_one_row_scales_only_its_bound(self, inputs, row, k, k_all):
        gens, r = inputs
        row %= len(gens)
        scaled = gens.copy()
        scaled[row] *= 2.0**k
        before, after = _precision_bounds(gens, r), _precision_bounds(scaled, r)
        want = before.copy()
        want[row] = before[row] / 2.0**k  # inf stays inf
        assert after.tobytes() == want.tobytes()
        # every row at once by up to 2^+-800: the cross product of two such rows leaves
        # the doubles, and that of their rescaled copies does not
        everywhere = _precision_bounds(np.ldexp(gens, k_all), r)
        assert everywhere.tobytes() == np.ldexp(before, -k_all).tobytes()

    def test_bit_for_bit_the_array_round_trip_rule(self):
        rng = np.random.default_rng(3203)
        finite = infinite = 0
        sizes = set()
        for _ in range(12000):
            gens, r = _random_bound_stack(rng)
            bounds = _precision_bounds(gens, r)
            assert bounds.tobytes() == _array_round_trip_bounds(gens, r).tobytes(), (gens, r)
            finite += int(np.isfinite(bounds).sum())
            infinite += int(np.isinf(bounds).sum())
            sizes.add(len(gens))
        assert sizes == {1, 2, 3} and finite > 3000 and infinite > 3000

    def test_three_pure_probe_bounds_are_the_divergent_limit_of_regularised_inverses(self):
        # F = Y (I - r r^T) Y^T has the exact null vector n = Y^-T r, whose l-th
        # component is D_mn / det Y.  With 0 < lam the smaller nonzero eigenvalue,
        # eps (F + eps I)^-1_ll = n_l^2 / |n|^2 + O(eps / lam): it grows like 1/eps
        # wherever n_l != 0, which is where the bound is inf.  The float F moves
        # the null eigenvalue off 0 by its rounding, well below 1e-13 tr F
        rng = np.random.default_rng(2001)
        cases = [(np.eye(3), np.array([1.0, 0.0, 0.0]))]  # n = e_1: only x_1 is lost
        cases += [(rng.uniform(-2, 2, (3, 3)), random_unit(rng)) for _ in range(200)]
        for gens, r in cases:
            bounds = _precision_bounds(gens, r)
            qfim = qfim_pure(gens, r)
            null = np.linalg.solve(gens.T, r)
            null /= np.linalg.norm(null)
            np.testing.assert_array_equal(np.isinf(bounds), null != 0.0)
            lam = np.linalg.eigvalsh(qfim)[1]
            noise = 1e-13 * np.trace(qfim)
            for eps in (1e-4 * lam, 1e-6 * lam):
                limit = eps * np.linalg.inv(qfim + eps * np.eye(3)).diagonal()
                np.testing.assert_allclose(limit, null**2, rtol=0, atol=3 * (eps + noise) / lam
                                           + noise / eps)
            finite = np.isfinite(bounds)
            regularised = np.linalg.inv(qfim + 1e-12 * lam * np.eye(3)).diagonal()
            np.testing.assert_allclose(bounds[finite] ** 2, regularised[finite], rtol=1e-9)
            # the entangled probe's F = Y Y^T: sigma_l is the norm of column l of Y^-1
            entangled = np.linalg.norm(np.linalg.inv(gens), axis=0)
            np.testing.assert_allclose(_precision_bounds(gens, np.zeros(3)), entangled, rtol=1e-9)


class TestScaleFreeReport:
    """A report depends on the geometry of X, dX and r, not on the units of dX:
    scaling every gradient by c scales the information by c^2 and the bounds
    by 1/c, and leaves the verdict as it is."""

    @given(
        st.integers(1, 3),
        # no component so small that its square, scaled by 2^-80, leaves the normal doubles
        st.lists(_COMPONENT.filter(lambda v: v == 0.0 or abs(v) > 1e-6), min_size=12, max_size=12),
        st.floats(1e-3, 10.0),
        st.integers(1, 300),
        st.sampled_from(["none", "designed", "random"]),
        st.sampled_from([ENTANGLED_WITH_ANCILLA, PURE_QUBIT]),
        st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
        st.integers(-40, 40),
    )
    # qfim[0, 1] = -(Y_0.r)(Y_1.r) is the subnormal -4.45e-313; scaled, it is 1e-323 off 4x
    @example(d=2, numbers=[0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0], t=1.0,
             n=2, control="none", probe_kind=PURE_QUBIT, r=[1.0, 1.0, 2.2250738585e-313], k=1)
    # Y_1.r = -3T r_z rounds to the subnormal grid; qfim[0, 1], normal, is 9.2e-319 off 64x
    @example(d=2, numbers=[0.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0],
             t=9.9748894221029, n=260, control="none", probe_kind=PURE_QUBIT,
             r=[1.0, 0.0, 5e-316], k=3)
    @settings(max_examples=300, deadline=None)
    def test_scaling_the_gradients(self, d, numbers, t, n, control, probe_kind, r, k):
        """Byte-exact unless a rounding falls in the subnormal range.

        The generators scale exactly (checked first), and a power of two c
        commutes with every rounding of a normal result, so both formulas
        scale exactly unless an intermediate of either report falls below
        2^-1022, where fewer bits are kept; the examples pin two such cases.
        Each intermediate is a sum of products of floats, which any order of
        evaluation, with or without FMA, keeps on the grid of 2^-106 times its
        smallest nonzero term.  With L = min(c, 1) m_Y m_r, where m_Y and m_r
        are the smallest nonzero |components| of Y and r capped at 1, every
        nonzero intermediate is then at least 2^-270 L^2, so L >= 2^-370 rules
        subnormals out and the QFIM and residuals must match byte for byte.

        Otherwise each report is held to the exact entry in the standard model
        fl(a op b) = (a op b)(1 + d) + e, |d| <= u = 2^-53, |e| <= 2^-1075 and
        e = 0 for sums.  With l = max_a |Y_a|_1 and |r_k| <= 1 every term is at
        most l^2; to first order the relative roundings add at most 12 u l^2
        to an entry and the subnormal ones, carried by factors of at most l,
        at most 2^-1075 (7 + 6 l).  So E(l) = 17 u l^2 + 2^-1072 (1 + l) bounds
        each report's error, and as the exact entries scale by c^2,
        |scaled - c^2 base| <= E(c l) + c^2 E(l) <= 34 u (c l)^2
        + 2^-1072 (1 + c)^2 (1 + l).

        The bounds come from Y_l and from the other rows and r, each rescaled
        into [1/2, 1) by a power of two, which gives both reports the same
        rescaled vectors.  Their products hold at most three components, each
        at least 2^-14 m of its vector's largest with m = min(m_Y, m_r) (here
        |Y| < 2^14), so with min(c, 1) m^3 >= 2^-800 every nonzero
        intermediate stays above 2^-1022 by the grid argument above, and the
        bounds match byte for byte as well (inf included).  Elsewhere they are
        compared to 1e-12 relative.
        """
        x0, control_vector = numbers[:3], numbers[9:]
        grads = np.reshape(numbers[3 : 3 + 3 * d], (d, 3))
        assume(np.linalg.norm(r) > 0.1)
        r = _unit(np.array(r)) if probe_kind == PURE_QUBIT else None
        # "designed" is design_control at x = 0, where S = X + X_c vanishes
        control = {"none": [0, 0, 0], "designed": -np.array(x0), "random": control_vector}[control]
        c = 2.0**k

        def scheme(scale):
            return affine_scheme(x0, scale * grads, control, t, n, "merged")

        base, scaled = (build_report(scheme(s), np.zeros(d), probe_kind, r=r) for s in (1.0, c))
        gens = scheme_generators(scheme(1.0), np.zeros(d))
        assert scheme_generators(scheme(c), np.zeros(d)).tobytes() == (c * gens).tobytes()
        assert scaled.qfi_max.tobytes() == (c * c * base.qfi_max).tobytes()
        assert scaled.attainable == base.attainable
        exact = min(c, 1.0) * _smallest_nonzero(gens) * _smallest_nonzero(r) >= 2.0**-370
        ell = np.abs(gens).sum(axis=1).max()
        tol = 34 * 2.0**-53 * (c * ell) ** 2 + math.ldexp((1 + c) ** 2 * (1 + ell), -1072)
        for name in ("qfim", "weak_comm_residuals"):
            got, want = getattr(scaled, name), c * c * getattr(base, name)
            if exact:
                assert got.tobytes() == want.tobytes()
            else:
                assert (np.abs(got - want) <= tol).all(), (name, got, want)
        bounds = base.precision_bounds / c
        m = min(_smallest_nonzero(gens), _smallest_nonzero(r))
        if exact and min(c, 1.0) * m**3 >= 2.0**-800:
            assert scaled.precision_bounds.tobytes() == bounds.tobytes()
        else:
            np.testing.assert_allclose(scaled.precision_bounds, bounds, rtol=1e-12)

    def test_tiny_information_is_judged_against_its_own_maximum(self):
        # the probe gets 2.5e-25 of a maximum of 1e-12: far from attaining it
        scheme = affine_scheme([0, 0, 1], [[1, 0, 0]], [0, 0, 0], 1e-6, 1, "merged")
        report = build_report(scheme, [0.0], PURE_QUBIT, r=[1, 0, 0])
        assert report.qfim[0, 0] < 1e-24 and report.qfi_max[0] > 0.9e-12
        assert report.attainable is False

    def test_subnormal_parallel_rows_have_infinite_bounds(self):
        # rows s e_1 and s e_1 give the QFIM s^2 ones((2, 2)) with s^2 subnormal: it
        # is singular and neither e_l is in its range, so neither parameter has a
        # finite bound; rows s e_1 and s e_2 give the exact 1/s for both
        s = math.sqrt(1.355805159888723e-309)
        parallel = np.array([[s, 0.0, 0.0], [s, 0.0, 0.0]])
        assert _precision_bounds(parallel, np.zeros(3)).tolist() == [math.inf, math.inf]
        orthogonal = np.array([[s, 0.0, 0.0], [0.0, s, 0.0]])
        assert _precision_bounds(orthogonal, np.zeros(3)).tolist() == [1.0 / s, 1.0 / s]


@st.composite
def affine_points(draw, max_params=3):
    """A random affine scheme, T = N t up to 3e3, and its evaluation point."""
    d = draw(st.integers(1, max_params))
    vec3 = st.lists(_COMPONENT, min_size=3, max_size=3)
    x0 = draw(vec3)
    grads = draw(st.lists(vec3, min_size=d, max_size=d))
    x = np.array(draw(st.lists(_COMPONENT, min_size=d, max_size=d)))
    t = draw(st.floats(1e-3, 10.0))
    n = draw(st.integers(1, 300))
    scheme = affine_scheme(x0, grads, np.zeros(3), t, n, "merged")
    if draw(st.booleans()):
        scheme = replace(scheme, control=design_control(scheme.coefficients, x))
    return scheme, x


def _unit(v):
    # hypot, not np.linalg.norm: a tiny generator's squares are subnormal, and
    # their square root is then off by up to 1e-12, past check_bloch's slack
    return v / math.hypot(*v.tolist())


def _smallest_nonzero(values):
    """The smallest nonzero |entry| of ``values``, at most 1; 1 for None."""
    values = np.abs(np.zeros(0) if values is None else np.asarray(values, dtype=float))
    return float(np.min(values[values > 0], initial=1.0))


class TestAttainabilityVerdict:
    @given(affine_points())
    @settings(max_examples=300, deadline=None)
    def test_entangled_always_attainable(self, sample):
        scheme, x = sample
        report = build_report(scheme, x, ENTANGLED_WITH_ANCILLA)
        assert report.attainable is True
        assert not report.weak_comm_residuals.any()
        # the public maximum is the report's, bit for bit
        s_coeff = scheme.effective_coefficients(x)
        for ell, d_coeff in enumerate(scheme.partials_at(x)):
            assert qfi_max(s_coeff, d_coeff, scheme.total_time) == report.qfi_max[ell]

    @given(affine_points(max_params=1), st.floats(0.0, 2 * np.pi))
    @settings(max_examples=300, deadline=None)
    def test_orthogonal_pure_probe_attainable_for_one_parameter(self, sample, turn):
        scheme, x = sample
        (gen,) = scheme_generators(scheme, x)
        assume(np.linalg.norm(gen) > 0.0)
        # a unit vector orthogonal to the generator axis, at angle ``turn``
        # about it from a fixed reference
        e = _unit(gen)
        ref = _unit(cross(e, [1.0, 0.0, 0.0] if abs(e[0]) < 0.9 else [0.0, 1.0, 0.0]))
        r = _unit(np.cos(turn) * ref + np.sin(turn) * cross(e, ref))
        report = build_report(scheme, x, PURE_QUBIT, r=r)
        assert report.attainable is True

    @given(affine_points())
    @settings(max_examples=300, deadline=None)
    def test_probe_aligned_with_a_generator_not_attainable(self, sample):
        scheme, x = sample
        gens = scheme_generators(scheme, x)
        top = max(np.dot(g, g) for g in gens)
        assume(np.dot(gens[0], gens[0]) > 1e-6 * top)
        report = build_report(scheme, x, PURE_QUBIT, r=_unit(gens[0]))
        assert report.attainable is False
