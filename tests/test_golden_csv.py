"""Golden output regression: CSV from ``sweep-alpha`` and ``curves``, JSON
from ``report``.

The fixtures under ``tests/golden/`` were recorded by running each argv below
as ``su2qfi --out tests/golden/<name>.<csv|json> <argv>``: the CSV tables with
the scalar-loop implementation that preceded the array core, the reports with
the implementation that preceded the trimmed numpy dispatch on the report
path (``np.eye``/``np.outer`` in the generator map).  The reports'
``precision_bounds`` are the correctly rounded values that
``tools/report_bounds_reference.py`` computes from each report's float
generators in exact rational arithmetic and 60-digit mpmath.  No fixture may
be regenerated from the code it checks.

Default CSV invocations must match byte for byte, and so must the N, alpha
and T columns of every table.  Other cells may differ by at most 2 ULP: the
scalar loops squared Python floats through libm ``pow``, which is not always
the correctly rounded ``x * x`` that numpy's array square computes.  A report
must match byte for byte except for its bounds, which may differ from the
reference by at most 4 ULP, with inf matched exactly: the closed form rounds
about eight times on these well-conditioned generators, and 1 ULP is the
largest difference seen.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from su2qfi.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "sweep_default": ("sweep-alpha",),
    "sweep_random_a": ("sweep-alpha", "--n-values", "3", "5", "14", "--alpha-count", "25",
                       "--t", "0.31834175477039706", "--x-norm", "3.920558797257627",
                       "--dx-norm", "1.1604977888222647"),
    "sweep_random_b": ("sweep-alpha", "--n-values", "1", "19", "25", "--alpha-count", "31",
                       "--t", "0.8623380508210631", "--x-norm", "2.3481033446355295",
                       "--dx-norm", "0.5763452331045139"),
    "curves_default": ("curves",),
    "curves_uncontrolled": ("curves", "--controlled", "false"),
    "curves_pole": ("curves", "--theta", "0"),
    # B*T = k*pi: the angular information sits at an oscillation null
    "curves_null": ("curves", "--B", "1", "--t", "3.141592653589793", "--controlled", "false",
                    "--n-max", "8"),
    "curves_random_a": ("curves", "--B", "4.0881751117131175", "--theta", "1.2445131041723667",
                        "--phi", "0.3776219929801933", "--t", "0.46139032884231834",
                        "--n-max", "60", "--probe", "pure"),
    "curves_random_b": ("curves", "--B", "3.7048366758423126", "--theta", "0.5293648265741238",
                        "--phi", "5.860383858080979", "--t", "0.24209672824954634",
                        "--n-max", "60", "--controlled", "false"),
    "report_default": ("report",),
    "report_pure_uncontrolled": ("report", "--probe", "pure", "--r", "0", "0", "1",
                                 "--control", "none"),
    # theta = 0: the azimuth generator is exactly 0, so its bound is inf and the others finite
    "report_pole": ("report", "--theta", "0"),
    # the south pole with a pure probe: the azimuth generator is tiny but not 0, and a
    # rank-2 QFIM of three parameters leaves none of them a finite bound
    "report_south_pole_pure": ("report", "--theta", "3.141592653589793", "--control", "none",
                               "--probe", "pure", "--r", "0.6", "0", "0.8"),
    # d = 3 affine map, control designed at a misestimated point, rank-2 pure-probe QFIM
    "report_generic_d3": ("--config", str(GOLDEN / "config_generic_d3.json"), "report",
                          "--x-tilde", "0.27", "-0.38", "0.79"),
    "report_product_uncontrolled": ("report", "--mode", "product", "--control", "none"),
}
BYTE_IDENTICAL = ("sweep_default", "curves_default")
EXACT_COLUMNS = 2  # N, then alpha (sweep-alpha) or T (curves)
BOUND_ULPS = 4


def _run(tmp_path, argv) -> bytes:
    out = tmp_path / "out.csv"
    assert main(["--out", str(out), *argv]) == 0
    return out.read_bytes()


def _split(data: bytes) -> tuple[str, list[list[str]]]:
    lines = data.decode().rstrip("\n").split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_recorded_output(name, tmp_path):
    suffix = ".json" if "report" in CASES[name] else ".csv"
    golden = (GOLDEN / f"{name}{suffix}").read_bytes()
    got = _run(tmp_path, CASES[name])
    if suffix == ".json":
        doc, golden_doc = json.loads(got), json.loads(golden)
        bounds = np.array(doc["precision_bounds"], dtype=float)
        expected = np.array(golden_doc["precision_bounds"], dtype=float)
        # every other byte is the golden's: put its bounds in and compare the whole file
        doc["precision_bounds"] = golden_doc["precision_bounds"]
        assert (json.dumps(doc, indent=2) + "\n").encode() == golden
        assert (np.isinf(bounds) == np.isinf(expected)).all()
        finite = np.isfinite(expected)
        np.testing.assert_array_max_ulp(bounds[finite], expected[finite], maxulp=BOUND_ULPS)
        return
    if name in BYTE_IDENTICAL:
        assert got == golden
        return
    header, rows = _split(got)
    golden_header, golden_rows = _split(golden)
    assert header == golden_header
    assert len(rows) == len(golden_rows)
    assert [r[:EXACT_COLUMNS] for r in rows] == [r[:EXACT_COLUMNS] for r in golden_rows]
    cells = np.array([[float(c) for c in r[EXACT_COLUMNS:]] for r in rows])
    expected = np.array([[float(c) for c in r[EXACT_COLUMNS:]] for r in golden_rows])
    np.testing.assert_array_max_ulp(cells, expected, maxulp=2)
