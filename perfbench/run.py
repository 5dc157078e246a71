"""su2qfi benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload report-mix --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports the library from
``src/``.  Every load is a closed loop: one caller in one process issues
one op at a time, with BLAS threads pinned to 1.

``--trace 0`` times ops with nothing wrapped and prints the end-to-end
metrics.  ``--trace 1`` makes whole passes over the op pool, running each
op once untraced and once with every layer's public functions wrapped, and
prints per-op calls and self time per layer plus the tracing overhead.
Either way every output is checked outside the timed region, and the last
line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

# Every op is repeated over at least MIN_PASSES passes; every pool holds at
# least 100 distinct ops, so at least ten lie beyond the 90th percentile.
MIN_PASSES = 3
COLD_SAMPLES = 11  # fresh interpreters behind the median setup_s

# On a shared machine the speed this process gets swings by up to 2x, for
# seconds to minutes at a time, as other tenants load the same cores.  So each
# timed op, and each cold start, runs next to a fixed benchmark-side gauge
# kernel, and what is kept is the ratio of the two times.  A latency is the
# median of an op's ratios times GAUGE_REFERENCE_S, the gauge's median time on
# an idle 2-vCPU VM.  The gauge never calls the library, so a change to the
# library moves the ratios and a change in the machine's speed does not.
GAUGE_MATRIX = np.random.default_rng(0).normal(size=(4, 4))
GAUGE_ROUNDS = 5
GAUGE_REFERENCE_S = 0.18e-3

END_TO_END = {
    "ops_per_s": "op/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


# Share of the report-mix defect probe whose QFIM disagrees with the oracle.
DEFECT_METRIC = "qfi.build_report.controlled_product_mismatch_ratio"


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".warnings")):
        return "count"
    if name.endswith(".self_us"):
        return "us"
    return "1"


class Tally:
    """Attempted and failed ops, with the first few failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.examples: list[str] = []  # the first few failures
        self.by_label: dict[str, list[int]] = {}

    def record(self, op, ref, digest) -> None:
        outcome, ref_digest = ref
        self.attempted += 1
        counts = self.by_label.setdefault(self.workload.label(op), [0, 0])
        counts[0] += 1
        if digest != ref_digest:
            reason = "output differs from the checked first run of the same op"
        elif not outcome.ok:
            reason = outcome.reason
        else:
            return
        self.failed += 1
        counts[1] += 1
        if len(self.examples) < 10:
            self.examples.append(f"{self.workload.label(op)}: {reason}")

    def lines(self) -> list[str]:
        out = [
            f"failed {label}: {bad} of {total} ops"
            for label, (total, bad) in sorted(self.by_label.items())
        ]
        if self.failed:
            out.append(f"FAILED ops: {self.failed}; the first of them:")
        out += [f"FAILED {reason}" for reason in self.examples]
        return out


def probe_defect(workload, seed: int) -> tuple[int, int]:
    """Check the workload's known-defect ops once, untimed: (mismatched, probed)."""
    from workloads import Outcome

    probe = workload.defect_probe(seed)
    bad = 0
    for op in probe:
        try:
            outcome = workload.check(op, workload.output(op, workload.run(op)))
        except Exception as exc:
            outcome = Outcome(False, f"raised {type(exc).__name__}: {exc}")
        bad += not outcome.ok
    return bad, len(probe)


def timed(workload, op):
    """Run one op; return (seconds, raw result, exception)."""
    start = perf_counter()
    try:
        raw = workload.run(op)
    except Exception as exc:  # a raising op is a failed op, not a crash
        return perf_counter() - start, None, exc
    return perf_counter() - start, raw, None


def digest_of(workload, op, raw, exc):
    if exc is not None:
        return ("raised", type(exc).__name__)
    return workload.digest(workload.output(op, raw))


def checked_pass(workload, pool) -> list:
    """Run every op of the pool once, untimed, and check each output.

    This is also the warm-up: caches fill and lazy set-up finishes here.
    """
    from workloads import Outcome

    refs = []
    for op in pool:
        _, raw, exc = timed(workload, op)
        if exc is not None:
            outcome = Outcome(False, f"raised {type(exc).__name__}: {exc}")
        else:
            outcome = workload.check(op, workload.output(op, raw))
        refs.append((outcome, digest_of(workload, op, raw, exc)))
    return refs


def gauge_kernel() -> None:
    """A fixed benchmark-side kernel of small numpy calls, like an op's."""
    a = GAUGE_MATRIX
    for _ in range(GAUGE_ROUNDS):
        m = np.linalg.eigvalsh(a + a.T) @ a + np.kron(a[:2, :2], a[2:, 2:]).T
        np.trace(m)


def gauge() -> float:
    """Seconds of the gauge kernel, on caches it warmed itself.

    The untimed first round refills the caches the previous op evicted, so the
    reading depends on the machine's speed and not on what ran before it.
    """
    gauge_kernel()
    start = perf_counter()
    gauge_kernel()
    return perf_counter() - start


def cold_start(name: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until its first op is done."""
    cmd = [sys.executable, str(HERE / "cold.py"), name, str(seed)]
    start = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1]) - start  # the child's perf_counter, same clock


def gauged_cold_start(name: str, seed: int) -> float:
    """A cold start over the gauge's median time just before and just after it."""
    before = [gauge() for _ in range(5)]
    dt = cold_start(name, seed)
    return dt / statistics.median(before + [gauge() for _ in range(5)]) * GAUGE_REFERENCE_S


def run_untraced(workload, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    cold_start(workload.name, seed)  # warms the bytecode and file caches; not counted
    pool = workload.pool(seed)
    refs = checked_pass(workload, pool)
    ratios: list[list[float]] = [[] for _ in pool]  # op time over gauge time, per op
    gauges = []
    setup = []
    busy = 0.0
    passes = 0
    order = list(range(len(pool)))
    shuffle = random.Random(seed).shuffle
    # Whole passes over the pool, so every op gets the same number of repeats.
    # Each pass runs in a new seeded order, so that no op keeps meeting the same
    # phase of the machine's load; one cold start after each pass spreads the
    # set-up samples over the run.
    while busy < seconds or passes < MIN_PASSES:
        gc.collect()
        shuffle(order)
        for k in order:
            start = perf_counter()
            g = gauge()
            dt, raw, exc = timed(workload, pool[k])
            busy += perf_counter() - start
            ratios[k].append(dt / g)
            gauges.append(g)
            tally.record(pool[k], refs[k], digest_of(workload, pool[k], raw, exc))
        passes += 1
        if len(setup) < COLD_SAMPLES:
            setup.append(gauged_cold_start(workload.name, seed))
    while len(setup) < COLD_SAMPLES:
        setup.append(gauged_cold_start(workload.name, seed))
    latency = [statistics.median(r) * GAUGE_REFERENCE_S for r in ratios]
    n = len(latency)
    p90 = statistics.quantiles(latency, n=10)[8]
    beyond = sum(1 for v in latency if v > p90)
    per_op = f"n={n} distinct ops, each the median of {passes} gauged repeats"
    metrics = {
        "ops_per_s": n / sum(latency),
        "op_p50_ms": statistics.median(latency) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "ops_per_s": f"{per_op}; {tally.attempted} ops in {busy:.3f} s of op and gauge time, "
        f"median gauge {statistics.median(gauges) * 1e3:.4f} ms "
        f"vs {GAUGE_REFERENCE_S * 1e3:g} ms reference",
        "op_p50_ms": per_op,
        "op_p90_ms": f"{per_op}; {beyond} beyond",
        "setup_s": f"median of {len(setup)} gauged fresh interpreters: "
        + " ".join(f"{v:.3f}" for v in setup),
        "peak_rss_mb": "peak resident set of this process",
    }
    return metrics, notes


def run_traced(workload, seed: int, seconds: float, tally: Tally, warn) -> tuple[dict, dict]:
    from tracer import Tracer

    pool = workload.pool(seed)
    refs = checked_pass(workload, pool)
    tracer = Tracer()
    warn.tracer = tracer
    gc.collect()
    traced_s = untraced_s = 0.0
    traced_ops = 0
    passes = 0
    start = perf_counter()
    while passes == 0 or perf_counter() - start < seconds:
        for k, op in enumerate(pool):
            # alternate which of the pair runs first, so neither gets the warmer cache
            for traced in (False, True) if (k + passes) % 2 == 0 else (True, False):
                if traced:
                    tracer.op_id = traced_ops
                    with tracer:
                        dt, raw, exc = timed(workload, op)
                    traced_s += dt
                    traced_ops += 1
                else:
                    dt, raw, exc = timed(workload, op)
                    untraced_s += dt
                tally.record(op, refs[k], digest_of(workload, op, raw, exc))
        passes += 1
    SCRATCH.mkdir(exist_ok=True)
    trace_path = SCRATCH / f"trace-{workload.name}.npz"
    tracer.save(trace_path)
    metrics = tracer.metrics(traced_ops, traced_s, untraced_s)
    refused, attempts = tracer.series_base()
    notes = {name: f"per op, n={traced_ops} traced ops in {passes} passes" for name in metrics}
    notes["generators.series_generator.refused_ratio"] = (
        f"{refused} SeriesDepthError of {attempts} series_generator calls"
    )
    notes["qfi.build_report.warnings"] = (
        f"{tracer.warnings} RuntimeWarnings inside build_report over {traced_ops} ops"
    )
    notes["trace.overhead_ratio"] = (
        f"traced {traced_s:.3f} s vs untraced {untraced_s:.3f} s over the same ops; "
        f"spans written to {trace_path.relative_to(ROOT)}"
    )
    return metrics, notes


class WarningCounter:
    """Replacement for ``warnings.showwarning``: count, never print or raise."""

    def __init__(self):
        self.total = 0
        self.tracer = None

    def __call__(self, message, category, filename, lineno, file=None, line=None):
        self.total += 1
        if self.tracer is not None:
            self.tracer.on_warning()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "su2qfi" / "__init__.py").is_file():
        print(f"error: no su2qfi sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.NAMES}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    workload = workloads.make(args.workload, str(SCRATCH))
    tally = Tally(workload)
    warn = WarningCounter()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always", RuntimeWarning)
            warnings.showwarning = warn
            mismatched, probed = probe_defect(workload, args.seed)
            if args.trace:
                metrics, notes = run_traced(workload, args.seed, args.seconds, tally, warn)
                metrics[DEFECT_METRIC] = mismatched / probed if probed else 0.0
                notes[DEFECT_METRIC] = (
                    f"{mismatched} of {probed} controlled product-mode requests, "
                    "checked untimed outside the op pool"
                )
            else:
                metrics, notes = run_untraced(workload, args.seed, args.seconds, tally)
    finally:
        workload.close()
    mode = "traced" if args.trace else "untraced"
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} {mode}; closed loop, one caller")
    for name, value in metrics.items():
        unit = END_TO_END.get(name) or layer_unit(name)
        print(f"{name:52s} {value:14.6g} {unit:6s} ({notes[name]})")
    print(f"numpy RuntimeWarnings tolerated: {warn.total}")
    for line in tally.lines():
        print(line)
    if probed:
        print(f"known defect, kept out of the timed ops: {mismatched} of {probed} probed "
              f"requests disagree with the oracle; {workload.known_defect_note}")
    result = {
        "correct": not tally.failed,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": END_TO_END.get(name) or layer_unit(name)}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
