"""The three workloads: seeded op pools, the timed op, and its output check.

Every workload draws its op pool from ``--seed`` before any timing starts;
the library only ever sees the generated inputs.  An op is the unit that is
timed.  Its output is checked against a reference computed on the
benchmark side, outside the timed region: an oracle that shares no algebra
with the closed form (``report-mix``), the benchmark's own vectorized
formula (``grid-sweep``), or the suites' own PASS verdicts (``verify-suites``).
A repeated op must reproduce its first output byte for byte.
"""

from __future__ import annotations

import hashlib
import itertools
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from su2qfi import algebra, cli, generators, magnetometry, oracles, qfi, verify
from su2qfi import scheme as scheme_mod

# Relative agreement demanded between a report's QFIM and its oracle.
REPORT_RTOL = 1e-6
# Relative agreement between a CLI table cell and the benchmark's formula.
GRID_RTOL = 1e-12


@dataclass(frozen=True)
class Outcome:
    """What one check decided about one op's output."""

    ok: bool
    reason: str = ""


class Workload:
    """Interface of a workload: the pool size and the hooks below."""

    name = ""
    known_defect_note = ""  # what the ops of ``defect_probe`` get wrong
    pool_size = 0  # distinct ops drawn from the seed, cycled by the timed loop

    def ops(self, seed: int):
        """Yield op inputs drawn from ``seed``, forever."""
        raise NotImplementedError

    def run(self, op):
        """The timed op.  Must return what ``output`` needs and nothing else."""
        raise NotImplementedError

    def output(self, op, raw):
        """Turn the raw result into the checked output (not timed)."""
        return raw

    def digest(self, out) -> bytes:
        """Bytes that a repeat of the same op must reproduce exactly."""
        raise NotImplementedError

    def check(self, op, out) -> Outcome:
        """Compare one output against the benchmark-side reference."""
        raise NotImplementedError

    def defect_probe(self, seed: int) -> list:
        """Ops of a class the roadmap lists as wrong today, kept out of the pool.

        They are checked once per run, untimed, and their mismatches are
        reported on their own, so the defect stays visible while every timed
        op must pass.
        """
        return []

    def label(self, op) -> str:
        """Short class name of an op, for the failure breakdown."""
        return self.name

    def close(self) -> None:
        """Remove anything the ops left behind."""

    def pool(self, seed: int) -> list:
        return list(itertools.islice(self.ops(seed), self.pool_size))


def _unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


# --------------------------------------------------------------------------
# report-mix: one scheme construction plus one build_report per op


@dataclass(frozen=True, eq=False)
class ReportOp:
    kind: str  # "magnetometry" | "generic"
    x: np.ndarray  # evaluation point (for magnetometry: B, theta, phi)
    t: float
    n: int
    control: str  # "none" | "optimal" (at x) | "misestimated" (at x_tilde)
    x_tilde: np.ndarray | None
    mode: str
    probe: str  # qfi.ENTANGLED_WITH_ANCILLA | qfi.PURE_QUBIT
    r: np.ndarray | None
    shape: str  # one of ReportMix.SHAPES
    coefficients: Callable | None = None
    partials: Callable | None = None
    n_params: int = 3


def _affine(x0: np.ndarray, grads: np.ndarray):
    def coefficients(xp):
        return x0 + grads.T @ xp

    def partials(xp):
        return grads

    return coefficients, partials


def _stratified(rng, choices: tuple, weights: tuple, size: int) -> list:
    """``size`` draws holding each choice in proportion to its weight, in seeded order.

    Fixing the shares per block keeps the cost mix of a pool, and with it
    the timing, independent of the seed; only the order and pairing vary.
    """
    counts = np.floor(np.asarray(weights) * size).astype(int)
    counts[0] += size - counts.sum()
    return [choices[i] for i in rng.permutation(np.repeat(np.arange(len(choices)), counts))]


class ReportMix(Workload):
    """About 60% magnetometry and 40% generic affine schemes, with edge cases."""

    name = "report-mix"
    known_defect_note = (
        "a controlled product-mode request gets merged-mode numbers from build_report "
        "(ROADMAP item 1)"
    )
    pool_size = 1024

    # magnetometry 60% and generic 40%, each with its own few-percent edge cases:
    # poles, oscillation nulls B T = k pi, and near-colinear gradients
    SHAPES = ("magnetometry", "pole", "null", "generic", "colinear")
    SHAPE_SHARES = (0.56, 0.02, 0.02, 0.38, 0.02)

    # (mode, control): control is none, optimal or misestimated a third of the
    # time each, and product mode is 15% of the pool, all of it uncontrolled
    # (without control the N product segments multiply to the merged unitary).
    # A controlled product-mode request is the ROADMAP item 1 defect: it goes
    # to ``defect_probe`` instead, because no timed op may fail.
    MODE_CONTROL = (
        (scheme_mod.MERGED, "none"),
        (scheme_mod.MERGED, "optimal"),
        (scheme_mod.MERGED, "misestimated"),
        (scheme_mod.PRODUCT, "none"),
    )
    MODE_CONTROL_SHARES = (1 / 3 - 0.15, 1 / 3, 1 / 3, 0.15)
    DEFECT_PROBE_SIZE = 64

    def ops(self, seed):
        rng = np.random.default_rng([seed, 1])
        m = self.pool_size
        while True:
            strata = zip(
                _stratified(rng, self.SHAPES, self.SHAPE_SHARES, m),
                _stratified(rng, (qfi.ENTANGLED_WITH_ANCILLA, qfi.PURE_QUBIT), (0.5, 0.5), m),
                _stratified(rng, self.MODE_CONTROL, self.MODE_CONTROL_SHARES, m),
                _stratified(rng, (1, 2, 3), (1 / 3,) * 3, m),
            )
            for shape, probe, (mode, control), d in strata:
                yield self._draw(rng, shape, probe, mode, control, int(d))

    def defect_probe(self, seed):
        """Controlled product-mode requests, drawn like the pool's plain shapes."""
        rng = np.random.default_rng([seed, 4])
        m = self.DEFECT_PROBE_SIZE
        strata = zip(
            _stratified(rng, ("magnetometry", "generic"), (0.6, 0.4), m),
            _stratified(rng, (qfi.ENTANGLED_WITH_ANCILLA, qfi.PURE_QUBIT), (0.5, 0.5), m),
            _stratified(rng, ("optimal", "misestimated"), (0.5, 0.5), m),
            _stratified(rng, (1, 2, 3), (1 / 3,) * 3, m),
        )
        return [
            self._draw(rng, shape, probe, scheme_mod.PRODUCT, control, int(d))
            for shape, probe, control, d in strata
        ]

    def _draw(self, rng, shape, probe, mode, control, d) -> ReportOp:
        t = float(rng.uniform(0.05, 1.0))
        n = int(rng.integers(1, 41))
        r = _unit(rng) if probe == qfi.PURE_QUBIT else None
        if shape in ("generic", "colinear"):
            return self._generic(rng, t, n, control, mode, probe, r, shape, d)
        b = float(rng.uniform(0.5, 5.0))
        theta = float(rng.uniform(0.0, np.pi))
        phi = float(rng.uniform(0.0, 2.0 * np.pi))
        if shape == "pole":
            theta = (0.0, np.pi)[int(rng.integers(2))]
        elif shape == "null":
            # oscillation null of the uncontrolled angular entries
            control = "none"
            b = int(rng.integers(1, 4)) * np.pi / (n * t)
        x = np.array([b, theta, phi])
        x_tilde = x + rng.normal(0.0, 0.05, 3) if control == "misestimated" else None
        return ReportOp("magnetometry", x, t, n, control, x_tilde, mode, probe, r, shape)

    def _generic(self, rng, t, n, control, mode, probe, r, shape, d) -> ReportOp:
        x0 = rng.uniform(-2.0, 2.0, 3)
        grads = rng.uniform(-2.0, 2.0, (d, 3))
        x = rng.uniform(-1.0, 1.0, d)
        if shape == "colinear":
            # first gradient at angle a from X(x) = x0, sin(a) in 1e-11..1e-6
            x = np.zeros(d)
            control, mode = "none", scheme_mod.MERGED
            a = 10.0 ** rng.uniform(-11.0, -6.0)
            x_hat = x0 / np.linalg.norm(x0)
            perp = np.cross(x_hat, _unit(rng))
            perp /= np.linalg.norm(perp)
            grads[0] = rng.uniform(0.5, 2.0) * (np.cos(a) * x_hat + np.sin(a) * perp)
        coefficients, partials = _affine(x0, grads)
        x_tilde = x + rng.normal(0.0, 0.05, d) if control == "misestimated" else None
        return ReportOp(
            "generic", x, t, n, control, x_tilde, mode, probe, r, shape,
            coefficients, partials, d,
        )

    @staticmethod
    def build_scheme(op: ReportOp):
        if op.kind == "magnetometry":
            point = magnetometry.FieldPoint(*op.x)
            return magnetometry.magnetometry_scheme(
                point,
                op.t,
                op.n,
                control="none" if op.control == "none" else "optimal",
                x_tilde=op.x_tilde,
                mode=op.mode,
            )
        if op.control == "none":
            control = np.zeros(3)
        else:
            control = -op.coefficients(op.x if op.x_tilde is None else op.x_tilde)
        return scheme_mod.SchemeConfig(
            coefficients=op.coefficients,
            partials=op.partials,
            n_params=op.n_params,
            control=control,
            segment_time=op.t,
            segment_count=op.n,
            mode=op.mode,
            validation_points=(op.x,),
        )

    def run(self, op):
        return qfi.build_report(self.build_scheme(op), op.x, op.probe, r=op.r)

    def digest(self, out) -> bytes:
        return b"".join(
            np.ascontiguousarray(a, dtype=float).tobytes()
            for a in (out.qfim, out.qfi_max, out.weak_comm_residuals, out.precision_bounds)
        ) + bytes([out.attainable])

    def reference(self, op) -> np.ndarray:
        """The oracle QFIM: finite differences on explicit matrices."""
        sch = self.build_scheme(op)
        if op.probe == qfi.ENTANGLED_WITH_ANCILLA:
            return oracles.entangled_qfim_fd(sch, op.x)
        mats = [generators.numeric_generator(sch, op.x, ell) for ell in range(sch.n_params)]
        return oracles.qfim_trace_oracle(mats, algebra.density(op.r))

    def check(self, op, out) -> Outcome:
        ref = self.reference(op)
        if out.qfim.shape != ref.shape:
            return Outcome(False, f"QFIM shape {out.qfim.shape} != {ref.shape}")
        err = float(np.abs(out.qfim - ref).max())
        scale = max(1.0, float(np.abs(ref).max()))
        if not err <= REPORT_RTOL * scale:
            return Outcome(False, f"QFIM deviates from oracle by {err:.3g} (scale {scale:.3g})")
        return Outcome(True)

    def label(self, op) -> str:
        controlled = "controlled" if op.control != "none" else "uncontrolled"
        return f"{op.mode}/{controlled}"


# --------------------------------------------------------------------------
# verify-suites: verify.run_all with a small fixed sample count per op

VERIFY_SAMPLES = 5


class VerifySuites(Workload):
    """``verify.run_all(seed_i, 5)`` with seeds derived from the workload seed."""

    name = "verify-suites"
    pool_size = 100

    def ops(self, seed):
        rng = np.random.default_rng([seed, 2])
        while True:
            yield int(rng.integers(0, 2**31 - 1))

    def run(self, op):
        return verify.run_all(op, VERIFY_SAMPLES)

    def output(self, op, raw):
        return raw, verify.summarize(raw, op)

    def digest(self, out) -> bytes:
        return out[1].encode()

    def check(self, op, out) -> Outcome:
        failing = [res.name for res in out[0] if not res.passed]
        if failing:
            return Outcome(False, "checks failed: " + ", ".join(failing))
        return Outcome(True)


# --------------------------------------------------------------------------
# grid-sweep: in-process CLI calls alternating sweep-alpha and curves


@dataclass(frozen=True)
class GridOp:
    command: str  # "sweep-alpha" | "curves"
    argv: tuple
    values: dict


class GridSweep(Workload):
    """``cli.main`` writing a CSV table, alternating ``sweep-alpha`` and ``curves``."""

    name = "grid-sweep"
    pool_size = 100

    def __init__(self, out_path: str):
        self.out_path = out_path

    def ops(self, seed):
        rng = np.random.default_rng([seed, 3])
        half = self.pool_size // 2
        while True:
            # Grid sizes are stratified: each block of ``pool_size`` ops holds the
            # same evenly spaced sizes, paired the same way, in a seeded order,
            # so that the cost of every op in a pool does not depend on the seed.
            alpha_counts = np.linspace(100, 500, half).round().astype(int)
            n_counts = np.resize(np.arange(1, 5), half)
            n_maxes = np.linspace(250, 1500, half).round().astype(int)
            controlled = np.resize([True, False], half)
            probes = np.resize(["pure", "pure", "entangled", "entangled"], half)
            for s, c in zip(rng.permutation(half), rng.permutation(half)):
                yield self._sweep(rng, int(alpha_counts[s]), int(n_counts[s]))
                yield self._curves(rng, int(n_maxes[c]), bool(controlled[c]), str(probes[c]))

    def _sweep(self, rng, alpha_count: int, n_count: int) -> GridOp:
        n_values = sorted(int(v) for v in rng.choice(np.arange(1, 51), n_count, replace=False))
        values = dict(
            n_values=n_values,
            alpha_count=alpha_count,
            t=float(rng.uniform(0.1, 1.0)),
            x_norm=float(rng.uniform(0.5, 5.0)),
            dx_norm=float(rng.uniform(0.5, 2.0)),
        )
        argv = (
            "sweep-alpha", "--n-values", *map(str, n_values),
            "--alpha-count", str(alpha_count),
            "--t", repr(values["t"]),
            "--x-norm", repr(values["x_norm"]),
            "--dx-norm", repr(values["dx_norm"]),
        )
        return GridOp("sweep-alpha", argv, values)

    def _curves(self, rng, n_max: int, controlled: bool, probe: str) -> GridOp:
        values = dict(
            B=float(rng.uniform(0.5, 5.0)),
            theta=float(rng.uniform(0.05, np.pi - 0.05)),
            phi=float(rng.uniform(0.0, 2.0 * np.pi)),
            t=float(rng.uniform(0.01, 0.5)),
            n_max=n_max,
            controlled=controlled,
            probe=probe,
        )
        argv = (
            "curves",
            "--B", repr(values["B"]),
            "--theta", repr(values["theta"]),
            "--phi", repr(values["phi"]),
            "--t", repr(values["t"]),
            "--n-max", str(n_max),
            "--controlled", "true" if controlled else "false",
            "--probe", values["probe"],
        )
        return GridOp("curves", argv, values)

    def run(self, op):
        return cli.main(["--out", self.out_path, *op.argv])

    def output(self, op, raw):
        with open(self.out_path, "rb") as fh:
            return raw, fh.read()

    def digest(self, out) -> bytes:
        return hashlib.sha256(out[1]).digest() + bytes([out[0] & 0xFF])

    def check(self, op, out) -> Outcome:
        code, data = out
        if code != 0:
            return Outcome(False, f"exit code {code}")
        lines = data.decode().rstrip("\n").split("\n")
        table = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
        header, expected = self.reference(op)
        if lines[0] != header:
            return Outcome(False, f"header {lines[0]!r} != {header!r}")
        if table.shape != expected.shape:
            return Outcome(False, f"table shape {table.shape} != {expected.shape}")
        finite = np.isfinite(expected)
        if not np.array_equal(np.isfinite(table), finite) or not np.array_equal(
            table[~finite], expected[~finite]
        ):
            return Outcome(False, "non-finite cells differ from the reference")
        err = np.abs(table[finite] - expected[finite]) / np.maximum(1.0, np.abs(expected[finite]))
        if err.size and not err.max() <= GRID_RTOL:
            return Outcome(False, f"cells deviate from the reference by {err.max():.3g}")
        return Outcome(True)

    def reference(self, op: GridOp) -> tuple[str, np.ndarray]:
        """The header and table the CLI must print for this op."""
        if op.command == "sweep-alpha":
            return self.sweep_reference(**op.values)
        return self.curves_reference(**op.values)

    @staticmethod
    def sweep_reference(n_values, alpha_count, t, x_norm, dx_norm):
        """Rows (N, alpha, uncontrolled max, ceiling, gap), N-major."""
        alpha = np.linspace(0.0, np.pi, alpha_count)
        n = np.repeat(np.asarray(n_values, dtype=float), alpha_count)
        alpha = np.tile(alpha, len(n_values))
        total = n * t
        ceiling = total**2 * dx_norm**2
        z = total * x_norm / 2.0
        sinc = np.sin(z) / z  # z > 0: every grid here has x_norm, t > 0
        unc = ceiling * (np.cos(alpha) ** 2 + np.sin(alpha) ** 2 * sinc**2)
        table = np.column_stack([n, alpha, unc, ceiling, ceiling - unc])
        return "N,alpha,uncontrolled_max,controlled_limit,gap", table

    @staticmethod
    def curves_reference(B, theta, phi, t, n_max, controlled, probe):
        """Rows (N, T, dB, dtheta, dphi): 1/sqrt of the optimal QFIM diagonal."""
        n = np.arange(1, n_max + 1, dtype=float)
        total = n * t
        angular = 4.0 * (B * total) ** 2 if controlled else 4.0 * np.sin(B * total) ** 2
        info = np.column_stack([4.0 * total**2, angular, angular * np.sin(theta) ** 2])
        with np.errstate(divide="ignore"):
            dev = np.where(info > 0.0, 1.0 / np.sqrt(info), np.inf)
        return "N,T,dB,dtheta,dphi", np.column_stack([n, total, dev])

    def close(self) -> None:
        if os.path.exists(self.out_path):
            os.remove(self.out_path)


def make(name: str, scratch_dir: str) -> Workload:
    """The workload called ``name``; ``scratch_dir`` holds files ops write."""
    if name == ReportMix.name:
        return ReportMix()
    if name == VerifySuites.name:
        return VerifySuites()
    if name == GridSweep.name:
        return GridSweep(os.path.join(scratch_dir, f"grid-{os.getpid()}.csv"))
    raise KeyError(name)


NAMES = (ReportMix.name, VerifySuites.name, GridSweep.name)
