"""Randomized oracle cross-check suites behind the ``verify`` command.

Each suite samples random instances with a seeded generator and runs one of
the closed forms against its independent matrix oracle.  A suite draws its
samples in a few bulk calls, as arrays with a leading sample axis.  The
closed forms under test take one sample per call, as a caller uses them.
Each trace oracle runs once over the whole stack.  The finite differences
take one scheme per call, but the SLD oracle takes their stacked U and dU,
once per probe dimension.  A check is one ``CheckResult``: the
suite creates it with its name and tolerance and records into it an array
of deviations, one per sample, in sample order.  The check keeps the worst
deviation and a label of the input that produced it, the first worst in
sample order under a tie, and counts the samples it used and skipped.  The
suite returns its checks as they are, and ``run_all`` scales their
tolerances in place.  A fixed seed makes the whole summary
byte-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import algebra
from .errors import SeriesDepthError
from .generators import closed_form_generator, numeric_generator, series_generator
from .magnetometry import FieldPoint, magnetometry_scheme
from .oracles import (
    BELL_PHI_PLUS,
    entangled_qfi_oracle,
    qfim_trace_oracle,
    sld_oracle,
    variance_qfi_oracle,
    weak_comm_trace_oracle,
)
from .qfi import entangled_weak_comm, qfim_pure, weak_comm_matrix
from .scheme import MERGED, PRODUCT, affine_scheme, build_total_unitary, unitary_derivatives


@dataclass
class CheckResult:
    """One check: its tolerance, its worst deviation and the input behind it,
    and how many of the run's samples it used and skipped.

    ``record`` keeps the formatter and the worst sample's row of each stack
    as they are, and ``worst_input`` formats them only when it is read; so a
    caller must not mutate a recorded stack afterwards.
    """

    name: str
    tolerance: float
    max_deviation: float = 0.0
    used: int = 0
    skipped: int = 0
    _worst: tuple = field(default=(str, ("none",)), init=False, repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance

    @property
    def worst_input(self) -> str:
        """Label of the input behind the worst deviation, ``"none"`` before any."""
        formatter, args = self._worst
        return formatter(*args)

    def record(self, values: np.ndarray, formatter, *stacks):
        """Count the 1-D deviations ``values``, one per sample, as used, and
        keep their worst if it beats the worst so far, labelled by
        ``formatter`` and its row of every stack in ``stacks``.  A NaN is
        worse than any number; under a tie the first worst keeps its label."""
        self.used += len(values)
        if not len(values) or math.isnan(self.max_deviation):
            return
        i = int(np.argmax(values))  # the first NaN if there is one, else the first maximum
        if not values[i] <= self.max_deviation:
            self.max_deviation = float(values[i])
            self._worst = (formatter, tuple(stack[i] for stack in stacks))


def _fmt_vec(v) -> str:
    return "(" + ", ".join(f"{float(c):.6g}" for c in np.asarray(v).ravel()) + ")"


def _random_units(rng, shape: tuple) -> np.ndarray:
    """Random unit 3-vectors, uniform on the sphere, as an array of shape
    ``shape + (3,)``: normal draws, each divided by its ``math.hypot`` length."""
    v = rng.normal(size=shape + (3,))
    lengths = [math.hypot(*row) for row in v.reshape(-1, 3).tolist()]
    return v / np.reshape(lengths, shape + (1,))


def _random_generators(rng, shape: tuple) -> np.ndarray:
    """Random 3-vectors of length U(0, 5) and uniform direction, shape ``shape + (3,)``."""
    return rng.uniform(0.0, 5.0, shape)[..., None] * _random_units(rng, shape)


def _generator_label(x, d, total_time) -> str:
    return f"X={_fmt_vec(x)} dX={_fmt_vec(d)} T={total_time:.6g}"


def generator_three_way(seed: int, samples: int) -> list[CheckResult]:
    """Closed form vs nested-cross series vs finite-difference oracle.

    The series refuses samples whose T|X| needs more terms than its cap; the
    two series checks count those as skipped, and on them the closed form
    and the numeric oracle still check each other.
    """
    rng = np.random.default_rng([seed, 1])
    closed_series = CheckResult("generator/closed-vs-series", 1e-12)
    closed_numeric = CheckResult("generator/closed-vs-numeric", 1e-6)
    series_numeric = CheckResult("generator/series-vs-numeric", 1e-6)
    x = rng.uniform(0.1, 5.0, samples)[:, None] * _random_units(rng, (samples,))
    d = rng.uniform(0.1, 5.0, samples)[:, None] * _random_units(rng, (samples,))
    total_time = rng.uniform(0.0, 5.0, samples)
    while not total_time.all():  # the scheme needs t > 0; T = 0 is covered by unit tests
        zero = total_time == 0.0
        total_time[zero] = rng.uniform(0.0, 5.0, np.count_nonzero(zero))
    closed, numeric, series, kept = [], [], [], []
    for i, (x_i, d_i, t_i) in enumerate(zip(x, d, total_time.tolist())):
        closed.append(closed_form_generator(x_i, d_i, t_i))
        scheme = affine_scheme(x_i, d_i, np.zeros(3), t_i, 1, MERGED)
        numeric.append(numeric_generator(scheme, [0.0], 0))
        try:
            series.append(series_generator(x_i, d_i, t_i))
        except SeriesDepthError:
            continue
        kept.append(i)
    closed, numeric = algebra.su2_element(np.array(closed)), np.array(numeric)
    series = np.array(series).reshape(-1, 2, 2)
    label = (_generator_label, x, d, total_time)
    kept_label = (_generator_label, x[kept], d[kept], total_time[kept])
    closed_numeric.record(np.abs(closed - numeric).max(axis=(1, 2)), *label)
    closed_series.record(np.abs(closed[kept] - series).max(axis=(1, 2)), *kept_label)
    series_numeric.record(np.abs(series - numeric[kept]).max(axis=(1, 2)), *kept_label)
    closed_series.skipped = series_numeric.skipped = samples - len(kept)
    return [closed_series, closed_numeric, series_numeric]


def _qfim_label(gens, r) -> str:
    return f"|Y|={_fmt_vec([algebra.euclidean_norm(g) for g in gens])} r={_fmt_vec(r)}"


def qfim_oracle_equivalence(seed: int, samples: int) -> list[CheckResult]:
    """The pure-probe QFIM and residuals ``build_report`` evaluates vs the trace oracles.

    The closed forms take one sample per call, as a caller uses them; every
    oracle takes the whole stack of samples at once.
    """
    rng = np.random.default_rng([seed, 2])
    qfi_dev = CheckResult("qfim/qfi-vs-variance-oracle", 1e-12)
    qfim_dev = CheckResult("qfim/qfim-vs-trace-oracle", 1e-11)
    wc_dev = CheckResult("qfim/weak-comm-vs-trace-oracle", 1e-12)
    gens = _random_generators(rng, (samples, 3))
    r = _random_units(rng, (samples,))
    qfim = np.array([qfim_pure(g, v) for g, v in zip(gens, r)])
    wc = np.array([weak_comm_matrix(g, v) for g, v in zip(gens, r)])
    rho = algebra.su2_element(r) + 0.5 * np.eye(2)  # I/2 + r.J, algebra.density of each r
    mats = algebra.su2_element(gens)
    label = (_qfim_label, gens, r)
    qfi_dev.record(np.abs(qfim[:, 0, 0] - variance_qfi_oracle(mats[:, 0], rho)), *label)
    qfim_dev.record(np.abs(qfim - qfim_trace_oracle(mats, rho)).max(axis=(1, 2)), *label)
    # every pair at once: the diagonal is exactly 0 on both sides and the
    # lower triangle mirrors the upper one exactly
    oracle = weak_comm_trace_oracle(mats, rho)
    wc_dev.record(np.abs(1j * wc - oracle).max(axis=(1, 2)), *label)
    return [qfi_dev, qfim_dev, wc_dev]


def _entangled_label(gen_a, gen_b) -> str:
    return f"|Ya|={algebra.euclidean_norm(gen_a):.6g} |Yb|={algebra.euclidean_norm(gen_b):.6g}"


def entangled_probe_suite(seed: int, samples: int) -> list[CheckResult]:
    """Entangled-probe information and unconditional weak commutation.

    ``build_report`` evaluates the entangled probe as the pure-probe QFIM at
    r = 0, the reduced state I/2; that is the quantity checked here, one
    sample per call.  The 4x4 oracle and the weak-commutation trace take the
    whole stack of samples at once.
    """
    rng = np.random.default_rng([seed, 3])
    qfi_dev = CheckResult("entangled/qfi-vs-4x4-oracle", 1e-11)
    wc_dev = CheckResult("entangled/weak-comm-zero", 1e-12)
    gens = _random_generators(rng, (samples, 2))
    gen_a, gen_b = gens[:, 0], gens[:, 1]
    label = (_entangled_label, gen_a, gen_b)
    qfi = np.array([qfim_pure(g, np.zeros(3))[0, 0] for g in gen_a])
    qfi_dev.record(np.abs(qfi - entangled_qfi_oracle(gen_a)), *label)
    wc_dev.record(np.abs(entangled_weak_comm(gen_a, gen_b, BELL_PHI_PLUS)), *label)
    return [qfi_dev, wc_dev]


def sld_identity_suite(seed: int, samples: int) -> list[CheckResult]:
    """SLD-vs-generator weak-commutation identity on random schemes and probes.

    Sample i has d_i = 1 to 3 parameters and uses the first d_i gradient rows
    and point entries drawn for it.  Half of the schemes carry a control,
    and half of the probes are qubit states in the Bloch ball, the others
    pure states of qubit plus ancilla.  Each scheme's U and dU, dU padded
    with zero rows to d = 3, are stacked, and the oracle runs once over the
    qubit probes and once over the others.
    """
    rng = np.random.default_rng([seed, 4])
    dev = CheckResult("sld/commutation-identity", 1e-6)
    n_params = rng.integers(1, 4, samples)
    x0 = rng.uniform(-2.0, 2.0, (samples, 3))
    grads = rng.uniform(-2.0, 2.0, (samples, 3, 3))
    x = rng.uniform(-1.0, 1.0, (samples, 3))
    control = np.where(rng.random((samples, 1)) < 0.5, rng.uniform(-2.0, 2.0, (samples, 3)), 0.0)
    total_time = rng.uniform(0.1, 5.0, samples)
    qubit = rng.random(samples) < 0.5
    r = rng.uniform(0.0, 1.0, samples)[:, None] * _random_units(rng, (samples,))
    psi = rng.normal(size=(samples, 4)) + 1j * rng.normal(size=(samples, 4))
    psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
    u = np.empty((samples, 2, 2), dtype=complex)
    du = np.zeros((samples, 3, 2, 2), dtype=complex)
    for i, (d, t) in enumerate(zip(n_params.tolist(), total_time.tolist())):
        scheme = affine_scheme(x0[i], grads[i, :d], control[i], t, 1, MERGED)
        u[i], du[i, :d] = unitary_derivatives(scheme, x[i, :d])
    worst = np.empty(samples)
    # I/2 + r.J, algebra.density of each r, and np.outer's product of each psi
    for mask, probes in (
        (qubit, algebra.su2_element(r[qubit]) + 0.5 * np.eye(2)),
        (~qubit, psi[~qubit, :, None] * psi[~qubit].conj()[:, None, :]),
    ):
        if mask.any():
            worst[mask] = sld_oracle(u[mask], du[mask], probes).residuals.max(axis=(1, 2))
    dims = np.where(qubit, 2, 4)
    dev.record(worst, "d={} T={:.6g} dim={}".format, n_params, total_time, dims)
    return [dev]


def trotter_gap_suite(seed: int, samples: int) -> list[CheckResult]:
    """Linear-in-t scaling of the segment-product vs merged unitary distance.

    Deterministic configuration: negating control designed at the nominal
    field point, evaluated 0.1 radians away in colatitude, T = 5 fixed while
    t halves from 0.5 to 0.0625.  The distance must shrink by a factor close
    to 2 per halving; the reported deviation is the worst |ratio - 2|.  The
    merged unitary depends on t only through N t, which is exactly 5.0 for
    every t, so it is built once.  The one configuration stands for every
    sample of the run: the check counts them all as used.
    """
    del seed  # deterministic suite, kept uniform with the others
    worst = CheckResult("trotter/gap-halving-ratio", 0.2)
    point = FieldPoint(B=3.0, theta=np.pi / 6, phi=0.0)
    x = point.as_array() + np.array([0.0, 0.1, 0.0])
    total_time = 5.0
    ts = (0.5, 0.25, 0.125, 0.0625)
    merged = magnetometry_scheme(point, total_time, 1, control="optimal", mode=MERGED)
    products = [
        magnetometry_scheme(point, t, int(round(total_time / t)), control="optimal", mode=PRODUCT)
        for t in ts
    ]
    gaps = np.array([build_total_unitary(p, x) for p in products]) - build_total_unitary(merged, x)
    # the spectral norm of each difference, np.linalg.norm(., 2) without its dispatch
    distances = np.linalg.svd(gaps, compute_uv=False).max(axis=-1)
    ratios = distances[:-1] / distances[1:]
    worst.record(np.abs(ratios - 2.0), "t={:.6g} ratio={:.6g}".format, ts, ratios)
    worst.used = samples
    return [worst]


ALL_SUITES = (
    generator_three_way,
    qfim_oracle_equivalence,
    entangled_probe_suite,
    sld_identity_suite,
    trotter_gap_suite,
)


def run_all(seed: int, samples: int, tolerance_scale: float = 1.0) -> list[CheckResult]:
    """Run every suite; tolerances are multiplied by ``tolerance_scale``.

    A scale of zero turns every nonzero deviation into a failure, which is
    how the harness checks its own ability to fail.
    """
    if samples < 1:
        raise ValueError("sample count must be at least 1")
    results = [check for suite in ALL_SUITES for check in suite(seed, samples)]
    for check in results:
        check.tolerance *= tolerance_scale
    return results


def summarize(results: list[CheckResult], seed: int) -> str:
    """Fixed-format summary, byte-stable for a fixed seed."""
    lines = [f"verify seed={seed}"]
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(
            f"{status} {res.name}: max deviation {res.max_deviation:.17g} "
            f"tolerance {res.tolerance:.17g}"
        )
        if not res.passed:
            lines.append(f"     worst input: {res.worst_input}")
    n_fail = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
