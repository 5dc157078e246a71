"""Fingerprints of the library's report and verify outputs, for bit-identity checks.

Prints two sha256 digests:

- ``report-mix``: over ``ReportMix.digest(ReportMix.run(op))`` for every op
  of the benchmark's report-mix pools of seeds 1, 2, 3, 7 and 17 (1024 ops
  each, in pool order).  The digest holds the QFIM, the maxima, the
  residuals and the bounds as raw float64 bytes, plus the verdict.
- ``verify``: over ``verify.summarize(verify.run_all(s, 5), s)`` for
  s = 0..199, each summary UTF-8 encoded.  A summary prints every deviation
  with 17 significant digits.

A change that claims bit-identical output must leave both digests as they
were on its parent commit.  No value is pinned here: libm's sin and cos may
round differently on another CPU or C library, which moves both digests
without any change to the code.  Run it from the root of a source checkout
(it imports the library from ``src/`` and the workloads from ``perfbench/``,
read-only):

    python3 tools/bit_identity.py
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from su2qfi import verify  # noqa: E402
from workloads import ReportMix  # noqa: E402

REPORT_SEEDS = (1, 2, 3, 7, 17)
VERIFY_SEEDS = range(200)
VERIFY_SAMPLES = 5


def report_mix_sha() -> str:
    mix = ReportMix()
    sha = hashlib.sha256()
    for seed in REPORT_SEEDS:
        for op in mix.pool(seed):
            sha.update(mix.digest(mix.run(op)))
    return sha.hexdigest()


def verify_sha() -> str:
    sha = hashlib.sha256()
    for seed in VERIFY_SEEDS:
        sha.update(verify.summarize(verify.run_all(seed, VERIFY_SAMPLES), seed).encode())
    return sha.hexdigest()


def main() -> int:
    print(f"report-mix {report_mix_sha()}")
    print(f"verify {verify_sha()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
