"""Randomized oracle cross-check suites behind the ``verify`` command.

Each suite samples random instances with a seeded generator and runs one of
the closed forms against its independent matrix oracle.  A check is one
``CheckResult``: the suite creates it with its name and tolerance, each
sample records its deviation into it, and the record keeps the worst
deviation and a label of the input that produced it.  The suite returns its
records as they are, and ``run_all`` scales their tolerances in place.  A
fixed seed makes the whole summary byte-reproducible.
"""

from __future__ import annotations

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
from .scheme import MERGED, PRODUCT, affine_scheme, build_total_unitary


@dataclass
class CheckResult:
    """One check: its tolerance, its worst deviation and the input behind it.

    ``record`` keeps the formatter and the arguments of each new worst sample
    as they are, and ``worst_input`` formats them only when it is read; so a
    caller must not mutate a recorded argument afterwards.
    """

    name: str
    tolerance: float
    max_deviation: float = 0.0
    _worst: tuple = field(default=(str, ("none",)), init=False, repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance

    @property
    def worst_input(self) -> str:
        """Label of the input behind the worst deviation, ``"none"`` before any."""
        formatter, args = self._worst
        return formatter(*args)

    def record(self, value: float, formatter, *args):
        """Keep ``value`` if it is a new worst, with ``formatter`` and ``args``
        for its label; nothing is formatted here."""
        if value > self.max_deviation:
            self.max_deviation = float(value)
            self._worst = (formatter, args)


def _fmt_vec(v) -> str:
    return "(" + ", ".join(f"{float(c):.6g}" for c in np.asarray(v).ravel()) + ")"


def _random_unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / algebra.euclidean_norm(v)


def _generator_label(x, d, total_time) -> str:
    return f"X={_fmt_vec(x)} dX={_fmt_vec(d)} T={total_time:.6g}"


def generator_three_way(seed: int, samples: int) -> list[CheckResult]:
    """Closed form vs nested-cross series vs finite-difference oracle.

    The series refuses samples whose T|X| needs more terms than its cap; on
    those the closed form and the numeric oracle still check each other.
    """
    rng = np.random.default_rng([seed, 1])
    closed_series = CheckResult("generator/closed-vs-series", 1e-12)
    closed_numeric = CheckResult("generator/closed-vs-numeric", 1e-6)
    series_numeric = CheckResult("generator/series-vs-numeric", 1e-6)
    for _ in range(samples):
        x = rng.uniform(0.1, 5.0) * _random_unit(rng)
        d = rng.uniform(0.1, 5.0) * _random_unit(rng)
        total_time = rng.uniform(0.0, 5.0)
        while total_time == 0.0:  # the scheme needs t > 0; T = 0 is covered by unit tests
            total_time = rng.uniform(0.0, 5.0)
        closed = algebra.su2_element(closed_form_generator(x, d, total_time))
        scheme = affine_scheme(x, d, np.zeros(3), total_time, 1, MERGED)
        numeric = numeric_generator(scheme, [0.0], 0)
        label = (_generator_label, x, d, total_time)
        closed_numeric.record(np.abs(closed - numeric).max(), *label)
        try:
            series = series_generator(x, d, total_time)
        except SeriesDepthError:
            continue
        closed_series.record(np.abs(closed - series).max(), *label)
        series_numeric.record(np.abs(series - numeric).max(), *label)
    return [closed_series, closed_numeric, series_numeric]


def _random_generator(rng) -> np.ndarray:
    return rng.uniform(0.0, 5.0) * _random_unit(rng)


def _qfim_label(gens, r) -> str:
    return f"|Y|={_fmt_vec([algebra.euclidean_norm(g) for g in gens])} r={_fmt_vec(r)}"


def qfim_oracle_equivalence(seed: int, samples: int) -> list[CheckResult]:
    """The pure-probe QFIM and residuals ``build_report`` evaluates vs the trace oracles."""
    rng = np.random.default_rng([seed, 2])
    qfi_dev = CheckResult("qfim/qfi-vs-variance-oracle", 1e-12)
    qfim_dev = CheckResult("qfim/qfim-vs-trace-oracle", 1e-11)
    wc_dev = CheckResult("qfim/weak-comm-vs-trace-oracle", 1e-12)
    for _ in range(samples):
        gens = np.array([_random_generator(rng) for _ in range(3)])
        r = _random_unit(rng)
        rho = algebra.density(r)
        mats = algebra.su2_element(gens)
        label = (_qfim_label, gens, r)
        qfim = qfim_pure(gens, r)
        qfi_dev.record(abs(qfim[0, 0] - variance_qfi_oracle(mats[0], rho)), *label)
        qfim_dev.record(np.abs(qfim - qfim_trace_oracle(mats, rho)).max(), *label)
        # every pair at once: the diagonal is exactly 0 on both sides and the
        # lower triangle mirrors the upper one exactly
        oracle = weak_comm_trace_oracle(mats[:, None], mats[None, :], rho)
        wc_dev.record(np.abs(1j * weak_comm_matrix(gens, r) - oracle).max(), *label)
    return [qfi_dev, qfim_dev, wc_dev]


def _entangled_label(gen_a, gen_b) -> str:
    return f"|Ya|={algebra.euclidean_norm(gen_a):.6g} |Yb|={algebra.euclidean_norm(gen_b):.6g}"


def entangled_probe_suite(seed: int, samples: int) -> list[CheckResult]:
    """Entangled-probe information and unconditional weak commutation.

    ``build_report`` evaluates the entangled probe as the pure-probe QFIM at
    r = 0, the reduced state I/2; that is the quantity checked here.
    """
    rng = np.random.default_rng([seed, 3])
    qfi_dev = CheckResult("entangled/qfi-vs-4x4-oracle", 1e-11)
    wc_dev = CheckResult("entangled/weak-comm-zero", 1e-12)
    for _ in range(samples):
        gen_a = _random_generator(rng)
        gen_b = _random_generator(rng)
        label = (_entangled_label, gen_a, gen_b)
        qfi = qfim_pure(gen_a, np.zeros(3))[0, 0]
        qfi_dev.record(abs(qfi - entangled_qfi_oracle(gen_a)), *label)
        wc_dev.record(abs(entangled_weak_comm(gen_a, gen_b, BELL_PHI_PLUS)), *label)
    return [qfi_dev, wc_dev]


def sld_identity_suite(seed: int, samples: int) -> list[CheckResult]:
    """SLD-vs-generator weak-commutation identity on random schemes and probes."""
    rng = np.random.default_rng([seed, 4])
    dev = CheckResult("sld/commutation-identity", 1e-6)
    for _ in range(samples):
        d = int(rng.integers(1, 4))
        x0 = rng.uniform(-2.0, 2.0, 3)
        grads = rng.uniform(-2.0, 2.0, (d, 3))
        x = rng.uniform(-1.0, 1.0, d)
        control = rng.uniform(-2.0, 2.0, 3) if rng.random() < 0.5 else np.zeros(3)
        total_time = rng.uniform(0.1, 5.0)
        scheme = affine_scheme(x0, grads, control, total_time, 1, MERGED)
        if rng.random() < 0.5:
            r = rng.uniform(0.0, 1.0) * _random_unit(rng)
            probe = algebra.density(r)
        else:
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi /= np.linalg.norm(psi)
            probe = psi[:, None] * psi.conj()[None, :]  # np.outer's product
        result = sld_oracle(scheme, x, probe)
        dev.record(
            result.residuals.max(), "d={} T={:.6g} dim={}".format, d, total_time, probe.shape[0]
        )
    return [dev]


def trotter_gap_suite(seed: int, samples: int) -> list[CheckResult]:
    """Linear-in-t scaling of the segment-product vs merged unitary distance.

    Deterministic configuration: negating control designed at the nominal
    field point, evaluated 0.1 radians away in colatitude, T = 5 fixed while
    t halves from 0.5 to 0.0625.  The distance must shrink by a factor close
    to 2 per halving; the reported deviation is the worst |ratio - 2|.
    """
    del seed, samples  # deterministic suite, kept uniform with the others
    worst = CheckResult("trotter/gap-halving-ratio", 0.2)
    point = FieldPoint(B=3.0, theta=np.pi / 6, phi=0.0)
    x = point.as_array() + np.array([0.0, 0.1, 0.0])
    total_time = 5.0
    distances = []
    for t in (0.5, 0.25, 0.125, 0.0625):
        n = int(round(total_time / t))
        merged = magnetometry_scheme(point, t, n, control="optimal", mode=MERGED)
        product = magnetometry_scheme(point, t, n, control="optimal", mode=PRODUCT)
        # the spectral norm, np.linalg.norm(., 2) without its dispatch
        gap = np.linalg.svd(
            build_total_unitary(product, x) - build_total_unitary(merged, x), compute_uv=False
        ).max()
        distances.append(gap)
    for i in range(len(distances) - 1):
        ratio = distances[i] / distances[i + 1]
        worst.record(abs(ratio - 2.0), "t={:.6g} ratio={:.6g}".format, 0.5 / 2**i, ratio)
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
