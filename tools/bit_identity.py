"""Fingerprints of the library's report, verify and table outputs, for bit-identity checks.

Prints five sha256 digests:

- ``report-mix``: over ``ReportMix.digest(ReportMix.run(op))`` for every op
  of the benchmark's report-mix pools of seeds 1, 2, 3, 7 and 17 (1024 ops
  each, in pool order).  The digest holds the QFIM, the maxima, the
  residuals and the bounds as raw float64 bytes, plus the verdict.
- ``report-fields``: over the same reports, with the same bytes except the
  bounds: the QFIM, the maxima, the residuals and the verdict.  A change to
  the bounds alone moves ``report-mix`` and leaves this one.
- ``verify``: over ``verify.summarize(verify.run_all(s, 5), s)`` for
  s = 0..199, each summary UTF-8 encoded.  A summary prints every deviation
  with 17 significant digits.
- ``fd``: over the raw bytes of ``scheme.unitary_derivatives`` and
  ``oracles.entangled_qfim_fd`` on seeded random affine schemes, merged and
  product (d = 1..3, up to 40 segments, |x| from 1e-3 to 1e3), and on
  magnetometry schemes with and without control.
- ``grid``: over ``GridSweep.digest`` of every op of the benchmark's
  grid-sweep pools of seeds 1, 2, 3, 7 and 17 (100 ops each, in pool order):
  the sha256 of the CSV bytes that in-process ``cli.main`` writes for the
  op's ``sweep-alpha`` or ``curves`` table, plus its exit code.  Every op
  writes to one path, in pool order, so a stale tail that a longer earlier
  table left behind would move the digest.

A change that claims bit-identical output must leave every digest as it
was on its parent commit.  No value is pinned here: libm's sin and cos may
round differently on another CPU or C library, which moves the digests
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
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

from su2qfi import FieldPoint, magnetometry_scheme, verify  # noqa: E402
from su2qfi.oracles import entangled_qfim_fd  # noqa: E402
from su2qfi.scheme import MERGED, PRODUCT, affine_scheme, unitary_derivatives  # noqa: E402
from workloads import GridSweep, ReportMix  # noqa: E402

REPORT_SEEDS = (1, 2, 3, 7, 17)
VERIFY_SEEDS = range(200)
VERIFY_SAMPLES = 5
FD_SEED = 19
FD_AFFINE = 1000
FD_MAGNETOMETRY = 200
GRID_SEEDS = (1, 2, 3, 7, 17)


def report_mix_sha() -> str:
    mix = ReportMix()
    sha = hashlib.sha256()
    for seed in REPORT_SEEDS:
        for op in mix.pool(seed):
            sha.update(mix.digest(mix.run(op)))
    return sha.hexdigest()


def report_fields_sha() -> str:
    mix = ReportMix()
    sha = hashlib.sha256()
    for seed in REPORT_SEEDS:
        for op in mix.pool(seed):
            out = mix.run(op)
            sha.update(b"".join(
                np.ascontiguousarray(a, dtype=float).tobytes()
                for a in (out.qfim, out.qfi_max, out.weak_comm_residuals)
            ) + bytes([out.attainable]))
    return sha.hexdigest()


def verify_sha() -> str:
    sha = hashlib.sha256()
    for seed in VERIFY_SEEDS:
        sha.update(verify.summarize(verify.run_all(seed, VERIFY_SAMPLES), seed).encode())
    return sha.hexdigest()


def _fd_cases(rng):
    """The seeded schemes and points of the ``fd`` digest."""
    for k in range(FD_AFFINE):
        d = int(rng.integers(1, 4))
        control = rng.uniform(-2.0, 2.0, 3) if rng.random() < 0.5 else np.zeros(3)
        scheme = affine_scheme(
            rng.uniform(-2.0, 2.0, 3),
            rng.uniform(-2.0, 2.0, (d, 3)),
            control,
            rng.uniform(0.01, 2.0),
            int(rng.integers(1, 41)),
            (MERGED, PRODUCT)[k % 2],
        )
        yield scheme, rng.normal(size=d) * 10.0 ** rng.uniform(-3, 3)
    for k in range(FD_MAGNETOMETRY):
        point = FieldPoint(rng.uniform(0.1, 5.0), rng.uniform(0.0, np.pi), rng.uniform(0.0, 6.28))
        x = point.as_array() + rng.normal(scale=0.05, size=3)
        yield magnetometry_scheme(
            point,
            rng.uniform(0.05, 1.0),
            int(rng.integers(1, 41)),
            control=("none", "optimal")[k % 2],
            mode=(MERGED, PRODUCT)[(k // 2) % 2],
        ), x


def fd_sha() -> str:
    sha = hashlib.sha256()
    for scheme, x in _fd_cases(np.random.default_rng(FD_SEED)):
        u, du = unitary_derivatives(scheme, x)
        sha.update(u.tobytes() + du.tobytes() + entangled_qfim_fd(scheme, x).tobytes())
    return sha.hexdigest()


def grid_sha() -> str:
    sha = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        sweep = GridSweep(os.path.join(tmp, "table.csv"))
        for seed in GRID_SEEDS:
            for op in sweep.pool(seed):
                sha.update(sweep.digest(sweep.output(op, sweep.run(op))))
    return sha.hexdigest()


def main() -> int:
    print(f"report-mix {report_mix_sha()}")
    print(f"report-fields {report_fields_sha()}")
    print(f"verify {verify_sha()}")
    print(f"fd {fd_sha()}")
    print(f"grid {grid_sha()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
