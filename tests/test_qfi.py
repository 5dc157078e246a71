"""Tests for the QFI engine, its oracles and report assembly."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from su2qfi import (
    BELL_PHI_PLUS,
    ENTANGLED_WITH_ANCILLA,
    PURE_QUBIT,
    DimensionalityError,
    FieldPoint,
    NormalizationError,
    SchemeConfig,
    UnphysicalStateError,
    affine_scheme,
    build_report,
    cross,
    density,
    design_control,
    entangled_qfi,
    entangled_weak_comm,
    magnetometry_scheme,
    numeric_generator,
    qfi_max,
    qfi_pure,
    qfim_pure,
    su2_element,
    weak_comm_residual,
)
from su2qfi.qfi import weak_comm_matrix
from su2qfi.oracles import (
    entangled_qfi_oracle,
    qfim_trace_oracle,
    sld_oracle,
    variance_qfi_oracle,
    weak_comm_trace_oracle,
)
from su2qfi.qfi import scheme_generators

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
        assert qfi_pure(gen, [1, 0, 0]) == 25.0

    def test_aligned_probe_is_blind(self):
        gen = np.array([0.0, 0, 5.0])
        assert qfi_pure(gen, [0, 0, 1]) == 0.0

    def test_partial_projection(self):
        r = np.array([0.6, 0.0, 0.8])  # e.r = 0.6
        gen = np.array([2.0, 0.0, 0.0])
        value = qfi_pure(gen, r)
        assert value == pytest.approx(4 * (1 - 0.36), abs=1e-14)
        # variance oracle on explicit matrices
        oracle = variance_qfi_oracle(su2_element(gen), density(r))
        assert value == pytest.approx(oracle, abs=1e-12)

    def test_matches_variance_oracle_randomly(self):
        for _ in range(1000):
            gen = random_gen()
            r = random_unit()
            oracle = variance_qfi_oracle(su2_element(gen), density(r))
            assert abs(qfi_pure(gen, r) - oracle) < 1e-11


class TestQfimPure:
    def test_single_parameter_consistency(self):
        gen = random_gen()
        r = random_unit()
        mat = qfim_pure([gen], r)
        assert mat.shape == (1, 1)
        assert mat[0, 0] == pytest.approx(qfi_pure(gen, r), rel=1e-14)

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
        assert weak_comm_residual(random_gen(), random_gen(), [0, 0, 0]) == 0.0

    def test_parallel_axes_commute(self):
        e = random_unit()
        a = 2.0 * e
        b = 3.0 * e
        assert abs(weak_comm_residual(a, b, random_unit())) < 1e-15

    def test_pauli_reference_value(self):
        a = np.array([1.0, 0, 0])
        b = np.array([0.0, 1, 0])
        r = np.array([0.0, 0, 1])
        closed = weak_comm_residual(a, b, r)
        assert closed == pytest.approx(0.5j, abs=1e-15)
        oracle = weak_comm_trace_oracle(su2_element(a), su2_element(b), density(r))
        assert closed == pytest.approx(oracle, abs=1e-13)

    def test_matrix_is_antisymmetric_and_matches_the_trace_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            gens = np.array([random_gen(rng) for _ in range(3)])
            r = random_unit(rng) * rng.uniform(0, 1)
            w = weak_comm_matrix(gens, r)
            assert np.array_equal(w, -w.T)
            for a in range(3):
                for b in range(3):
                    oracle = weak_comm_trace_oracle(
                        su2_element(gens[a]), su2_element(gens[b]), density(r)
                    )
                    assert abs(1j * w[a, b] - oracle) < 1e-12

    def test_purely_imaginary_and_matches_oracle(self):
        for _ in range(300):
            a, b = random_gen(), random_gen()
            r = random_unit() * RNG.uniform(0, 1)
            closed = weak_comm_residual(a, b, r)
            assert abs(closed.real) < 1e-13
            oracle = weak_comm_trace_oracle(su2_element(a), su2_element(b), density(r))
            assert abs(closed - oracle) < 1e-12


class TestEntangledProbe:
    def test_direction_independent_value(self):
        # 25 |e|^2 is 25 exactly on the axes; a random unit e rounds |e|^2
        for e, rel in (([1.0, 0, 0], 0.0), (random_unit(), 1e-15), ([0.0, 0, 1], 0.0)):
            gen = 5.0 * np.asarray(e)
            assert entangled_qfi(gen) == pytest.approx(25.0, rel=rel, abs=0.0)

    def test_zero_magnitude(self):
        assert entangled_qfi(np.zeros(3)) == 0.0

    def test_magnetometry_colatitude_value(self):
        point = FieldPoint(3.0, np.pi / 6, 0.0)
        gen_theta = scheme_generators(magnetometry_scheme(point, 1.0, 1), point.as_array())[1]
        expected = 4 * np.sin(3.0) ** 2
        assert entangled_qfi(gen_theta) == pytest.approx(expected, abs=1e-13)
        assert entangled_qfi_oracle(gen_theta) == pytest.approx(expected, abs=1e-11)

    def test_matches_4x4_oracle_randomly(self):
        for _ in range(500):
            gen = random_gen()
            assert abs(entangled_qfi(gen) - entangled_qfi_oracle(gen)) < 1e-11

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
                np.kron(su2_element(a), eye),
                np.kron(su2_element(b), eye),
                np.outer(probe, probe.conj()),
            )
            assert val == pytest.approx(oracle, abs=1e-14)

    def test_self_commutator_vanishes(self):
        gen = random_gen()
        probe = np.array([1.0, 0, 0, 0], dtype=complex)
        assert entangled_weak_comm(gen, gen, probe) == 0.0

    def test_unnormalized_probe_rejected(self):
        with pytest.raises(NormalizationError):
            entangled_weak_comm(random_gen(), random_gen(), np.array([1.0, 0, 0, 1.0]))


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
            worst = max(worst, sld_oracle(scheme, x, probe).residuals.max())
        assert worst < 1e-6

    def test_conjugated_sld_is_2i_times_generator(self):
        scheme = linear_scheme(
            np.array([1.0, -0.5, 0.8]), np.array([[0.7, 0.2, -0.4]]), t=2.0
        )
        x = np.array([0.3])
        result = sld_oracle(scheme, x, density([0, 0, 1]))
        conjugated = result.u_tot.conj().T @ result.slds[0] @ result.u_tot
        assert np.abs(conjugated - 2j * result.generators[0]).max() < 1e-6

    @pytest.mark.parametrize("dim", [2, 4])
    def test_generators_equal_the_numeric_generator(self, dim):
        # read off the SLD's own differences, they are the finite-difference oracle's
        scheme = linear_scheme([0.4, -1.1, 0.9], RNG.uniform(-1, 1, (3, 3)), t=0.7, n=3)
        x = RNG.uniform(-1, 1, 3)
        probe = density([0, 0, 1]) if dim == 2 else np.eye(4) / 4
        result = sld_oracle(scheme, x, probe, h=1e-6)
        for ell, gen in enumerate(result.generators):
            expected = numeric_generator(scheme, x, ell, h=1e-6)
            if dim == 4:
                expected = np.kron(expected, np.eye(2))
            assert np.array_equal(gen, expected)

    def test_constant_scheme_gives_zero_slds(self):
        scheme = SchemeConfig(
            coefficients=lambda xp: np.array([1.0, 0.2, -0.3]),
            partials=lambda xp: np.zeros((1, 3)),
            n_params=1,
            segment_time=1.5,
        )
        result = sld_oracle(scheme, [0.0], density([1, 0, 0]))
        assert np.abs(result.slds[0]).max() < 1e-9

    def test_invalid_probe_rejected(self):
        scheme = linear_scheme([1, 0, 0], [[0, 1, 0]])
        with pytest.raises(UnphysicalStateError):
            sld_oracle(scheme, [0.0], np.eye(2))  # trace 2


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

    def test_pure_probe_requires_unit_bloch_vector(self):
        point = FieldPoint(3.0, np.pi / 6, 0.0)
        scheme = magnetometry_scheme(point, 1.0, 5)
        with pytest.raises(UnphysicalStateError):
            build_report(scheme, point.as_array(), PURE_QUBIT, r=[0.5, 0, 0])
        with pytest.raises(UnphysicalStateError):
            build_report(scheme, point.as_array(), PURE_QUBIT)

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
        "x_tilde,probe_kind,r",
        [(None, PURE_QUBIT, [0.6, 0.0, 0.8]), ([3.0, 3.1, 0.0], ENTANGLED_WITH_ANCILLA, None)],
        ids=["uncontrolled-pure", "misestimated-control-entangled"],
    )
    def test_south_pole_bounds_raise_no_warning(self, x_tilde, probe_kind, r):
        # the pseudo-inverse diagonal holds tiny negative rounding there
        point = FieldPoint(3.0, np.pi, 0.0)
        control = "none" if x_tilde is None else "optimal"
        scheme = magnetometry_scheme(point, 1.0, 5, control=control, x_tilde=x_tilde)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = build_report(scheme, point.as_array(), probe_kind, r=r)
        assert report.precision_bounds[2] == np.inf
        assert np.all(np.isfinite(report.precision_bounds[:2]))

    def test_pure_probe_bounds_ignore_the_rounding_noise_null_direction(self):
        # three parameters on a pure qubit give a rank-2 QFIM whose null
        # eigenvalue is rounding noise: a 1e-13 turn of r must not move the bounds
        rng = np.random.default_rng(409)
        for _ in range(200):
            t, n = rng.uniform(0.05, 1.0), int(rng.integers(1, 41))
            scheme = affine_scheme(
                rng.uniform(-2, 2, 3), rng.uniform(-2, 2, (3, 3)), np.zeros(3), t, n, "merged"
            )
            x = rng.uniform(-1, 1, 3)
            r = random_unit(rng)
            turned = _unit(r + 1e-13 * random_unit(rng))
            bounds = build_report(scheme, x, PURE_QUBIT, r=r).precision_bounds
            assert np.all(np.isfinite(bounds))
            np.testing.assert_allclose(
                build_report(scheme, x, PURE_QUBIT, r=turned).precision_bounds, bounds, rtol=1e-6
            )


_COMPONENT = st.floats(-3.0, 3.0)


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
        scheme = replace(scheme, control=design_control(scheme, x))
    return scheme, x


def _unit(v):
    return v / np.linalg.norm(v)


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
        assume(np.dot(gens[0], gens[0]) > 1e-6 * max(1.0, top))
        report = build_report(scheme, x, PURE_QUBIT, r=_unit(gens[0]))
        assert report.attainable is False
