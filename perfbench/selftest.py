"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

1. A tiny run of each workload, untraced and traced, prints every metric
   that BENCHMARK.json names, each with its unit, and a well-formed result
   with no failed op; ``report-mix`` still reports its known defect.
2. A deliberately perturbed benchmark-side reference turns every op it
   touches into a failed op, and so does an output that differs from its
   checked first run: the checks can fail.

Exits non-zero on the first failed expectation.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def tiny_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    expect(
        {w["name"] for w in spec["workloads"]} == set(workloads.NAMES),
        "BENCHMARK.json workloads differ from the ones the benchmark implements",
    )
    for name in workloads.NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", "7", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=170)
            expect(proc.returncode == 0, f"{name} trace={trace} exited {proc.returncode}: {proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{name} trace={trace}: result keys {sorted(result)}")
            expect(result["correct"] is True, f"{name} trace={trace}: not correct")
            expect(result["attempted"] >= 1, f"{name} trace={trace}: nothing attempted")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted[trace], f"{name} trace={trace}: metrics/units {got}")
            for metric, unit in wanted[trace].items():
                expect(any(line.startswith(metric + " ") and f" {unit} " in line for line in lines),
                       f"{name} trace={trace}: no printed line for {metric} [{unit}]")
            expect(result["failed"] == 0, f"{name} trace={trace}: {result['failed']} failed ops")
            # the known product-mode defect stays visible outside the timed ops
            if name == "report-mix":
                expect(any(line.startswith("known defect") for line in lines),
                       "report-mix does not report the product-mode defect")
                if trace:
                    expect(result["metrics"][run.DEFECT_METRIC]["value"] > 0,
                           "report-mix hides the product-mode defect")
            print(f"ok   tiny run {name} trace={trace}: {len(got)} metrics, "
                  f"{result['failed']} of {result['attempted']} ops failed")


def replay(workload, pool) -> run.Tally:
    """Check a pool, then run it again and tally the repeats against the check."""
    refs = run.checked_pass(workload, pool)
    tally = run.Tally(workload)
    for op, ref in zip(pool, refs):
        _, raw, exc = run.timed(workload, op)
        tally.record(op, ref, run.digest_of(workload, op, raw, exc))
    return tally


class PerturbedReport(workloads.ReportMix):
    def reference(self, op):
        ref = super().reference(op)
        return ref + 1e-4 * max(1.0, float(np.abs(ref).max()))


class PerturbedGrid(workloads.GridSweep):
    def reference(self, op):
        header, table = super().reference(op)
        return header, table * (1.0 + 1e-9)


def perturbed_references() -> None:
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    cases = [
        (workloads.ReportMix(), PerturbedReport(), 40),
        (workloads.GridSweep(str(scratch / "selftest.csv")),
         PerturbedGrid(str(scratch / "selftest.csv")), 4),
    ]
    for honest, perturbed, size in cases:
        pool = list(itertools.islice(honest.ops(11), size))
        try:
            clean = replay(honest, pool)
            broken = replay(perturbed, pool)
        finally:
            honest.close()
        expect(not clean.failed, f"{honest.name}: honest reference failed {clean.examples}")
        expect(broken.failed == size,
               f"{honest.name}: perturbed reference failed only {broken.failed} of {size} ops")
        print(f"ok   perturbed reference on {honest.name}: {broken.failed} of {size} ops failed "
              "(honest reference: none failed)")
    # a repeat whose output differs from its checked first run is a failed op
    wl = workloads.VerifySuites()
    tally = run.Tally(wl)
    op = next(wl.ops(11))
    tally.record(op, (workloads.Outcome(True), b"first run"), b"second run")
    expect(tally.failed == 1, "a changed repeat was not counted as failed")
    print("ok   a repeat that differs from its checked first run counts as failed")


if __name__ == "__main__":
    perturbed_references()
    tiny_runs()
    print("selftest passed")
