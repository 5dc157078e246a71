"""Reference precision bounds for the golden reports, independent of ``_precision_bounds``.

For each ``tests/golden/report_*.json`` the script rebuilds the report's
scheme from the config the file embeds and takes the library's float
generators Y and the config's float Bloch vector r as exact rationals.  With
r read as a direction (as the report reads it; |r| may miss 1 by rounding),
the QFIM is

    F = Y Y^T - (Y r)(Y r)^T / |r|^2,   or F = Y Y^T for the entangled probe,

and every entry is an exact ``fractions.Fraction``.  For each parameter l the
script solves F x = e_l by exact Gaussian elimination.  Where that system has
no solution, e_l is not in range(F) and the bound is inf: no unbiased
estimator of x_l has finite variance.  Otherwise e_l.x = e_l^T F^+ e_l for
every solution x, and the bound is its square root, taken in mpmath at 60
significant digits and rounded to the nearest double.

It prints each golden's reference bounds next to the ones the library
computes, with their distance in ULPs, and two more cases whose values the
tests pin: the two-parameter pure-probe report whose bounds a cut-off
pseudo-inverse once printed 8e3 and 1.8e6 times too small, and the
entangled report at the float theta = pi.  It exits 1 when a golden file's
``precision_bounds`` are not the reference values.  ``--write`` replaces
them with the reference values and leaves every other byte as it is.

Needs mpmath, which the library itself does not.  Run it from the root of a
source checkout:

    python tools/report_bounds_reference.py [--write]
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from su2qfi import FieldPoint, affine_scheme, magnetometry_scheme  # noqa: E402
from su2qfi.cli import RunConfig, _build_scheme  # noqa: E402
from su2qfi.qfi import (  # noqa: E402
    ENTANGLED_WITH_ANCILLA, PURE_QUBIT, build_report, scheme_generators)

GOLDEN = ROOT / "tests" / "golden"
DIGITS = 60


def _solve(f: list, ell: int):
    """e_l.x for a solution x of F x = e_l, or None if there is none."""
    n = len(f)
    rows = [row[:] + [Fraction(int(i == ell))] for i, row in enumerate(f)]
    pivots = []
    for col in range(n):
        top = len(pivots)
        pivot = next((i for i in range(top, n) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[top], rows[pivot] = rows[pivot], rows[top]
        rows[top] = [v / rows[top][col] for v in rows[top]]
        for i in range(n):
            if i != top and rows[i][col] != 0:
                rows[i] = [a - rows[i][col] * b for a, b in zip(rows[i], rows[top])]
        pivots.append(col)
    if any(rows[i][n] != 0 for i in range(len(pivots), n)):
        return None
    return next((rows[i][n] for i, col in enumerate(pivots) if col == ell), Fraction(0))


def reference_bounds(gens, r) -> list[float]:
    """The correctly rounded bound of every row of ``gens`` for the probe r (0: entangled)."""
    y = [[Fraction(v) for v in row] for row in np.asarray(gens, dtype=float).tolist()]
    r = [Fraction(v) for v in np.asarray(r, dtype=float).tolist()]
    norm2 = sum(c * c for c in r)
    proj = [sum(a * b for a, b in zip(row, r)) for row in y]
    f = [
        [sum(p * q for p, q in zip(ya, yb)) - (pa * pb / norm2 if norm2 else 0) for yb, pb in
         zip(y, proj)]
        for ya, pa in zip(y, proj)
    ]
    with mp.workdps(DIGITS):
        roots = [None if q is None else mp.sqrt(mp.mpf(q.numerator) / q.denominator)
                 for q in (_solve(f, ell) for ell in range(len(y)))]
    return [math.inf if root is None else float(root) for root in roots]


def ulps(a: float, b: float) -> float:
    """Distance between two doubles in units of the last place of the reference b."""
    if math.isinf(a) or math.isinf(b):
        return 0.0 if a == b else math.inf
    return abs(a - b) / math.ulp(b)


def golden_case(path: Path):
    """Generators, probe vector and library report of one golden report file."""
    cfg = RunConfig.from_dict(json.loads(path.read_text())["config"])
    scheme, x, _ = _build_scheme(cfg)
    gens = scheme_generators(scheme, x)
    if cfg.probe == "pure":
        r = np.asarray(cfg.r, dtype=float)
        return gens, r, build_report(scheme, x, PURE_QUBIT, r=r).precision_bounds
    return gens, np.zeros(3), build_report(scheme, x, ENTANGLED_WITH_ANCILLA).precision_bounds


def extra_cases():
    """The two pinned reports that have no golden file."""
    repro = affine_scheme(
        (1.7876266659736295, -0.6024625645116175, 1.020886306645656),
        ((-1.7384041385533329, -1.3351793376281154, -0.89146666051204),
         (0.20127300680296667, 0.2296355203636402, -0.004054190771940469)),
        np.zeros(3), 0.7142153627048728, 8, "merged",
    )
    r = np.array([-0.558420963175741, -0.8139139685319088, 0.16034363010271654])
    x = np.zeros(2)
    yield "d2_pure_repro", scheme_generators(repro, x), r, build_report(
        repro, x, PURE_QUBIT, r=r).precision_bounds
    point = FieldPoint(3.0, math.pi, 0.0)
    pole = magnetometry_scheme(point, 1.0, 5, control="optimal", x_tilde=[3.0, 3.1, 0.0])
    x = point.as_array()
    yield "south_pole_entangled", scheme_generators(pole, x), np.zeros(3), build_report(
        pole, x, ENTANGLED_WITH_ANCILLA).precision_bounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="write the reference bounds into the golden report files")
    args = parser.parse_args(argv)
    goldens = sorted(GOLDEN.glob("report_*.json"))
    cases = [(p.stem, *golden_case(p)) for p in goldens] + list(extra_cases())
    stale = []
    for k, (name, gens, r, got) in enumerate(cases):
        want = reference_bounds(gens, r)
        distance = max(ulps(a, b) for a, b in zip(got.tolist(), want))
        print(f"{name}: reference {[repr(v) for v in want]}, library {got.tolist()}, "
              f"max {distance:g} ulp")
        if k >= len(goldens):
            continue
        doc = json.loads(goldens[k].read_text())
        printed = [v if v < math.inf else "inf" for v in want]
        if doc["precision_bounds"] != printed:
            stale.append(goldens[k].name)
            if args.write:
                doc["precision_bounds"] = printed
                goldens[k].write_text(json.dumps(doc, indent=2) + "\n")
    if stale and not args.write:
        print(f"golden bounds that are not the reference values: {', '.join(stale)}")
        return 1
    return 0

if __name__ == "__main__":
    sys.exit(main())
