"""CLI tests: subcommands, config handling, determinism, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import su2qfi
from su2qfi.cli import ConfigError, RunConfig, main


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestRunConfig:
    def test_round_trip_is_lossless(self):
        cfg = RunConfig.from_dict({"scenario": "magnetometry", "B": 2.5, "N": 7})
        again = RunConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert again.to_dict() == cfg.to_dict()

    def test_generic_round_trip(self):
        data = {
            "scenario": "generic",
            "x0": [0.5, 0.0, 1.0],
            "gradients": [[1.0, 0, 0], [0, 1.0, 0]],
            "x": [0.2, -0.3],
        }
        cfg = RunConfig.from_dict(data)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict({"scneario": "magnetometry"})
        assert err.value.code == "unknown-field"

    @pytest.mark.parametrize(
        "data,code",
        [
            ({"t": 0.0}, "nonpositive-segment-time"),
            ({"t": -1.0}, "nonpositive-segment-time"),
            ({"N": 0}, "invalid-segment-count"),
            ({"r": [1.0, 1.0, 0.0]}, "bloch-norm"),
            (
                {
                    "scenario": "generic",
                    "gradients": [[1, 0, 0]] * 4,
                    "x": [0, 0, 0, 0],
                },
                "too-many-parameters",
            ),
            ({"probe": "thermal"}, "unknown-probe"),
            ({"scenario": "cavity"}, "unknown-scenario"),
            ([1, 2], "not-an-object"),
            ({"t": "abc"}, "not-a-number"),
            ({"B": None}, "not-a-number"),
            ({"N": 2.5}, "non-integer-count"),
            ({"n_values": [3, 2.5]}, "non-integer-count"),
            ({"n_max": 2.5}, "non-integer-count"),
            ({"alpha_count": True}, "non-integer-count"),
            ({"n_values": []}, "empty-grid"),
            ({"controlled": "false"}, "not-a-boolean"),
            ({"x0": [0, 0, "a"]}, "not-a-number"),
            ({"x0": [0, 0]}, "invalid-vector"),
            ({"r": 1.0}, "invalid-vector"),
            ({"control_vector": [1, 2, 3, 4]}, "invalid-vector"),
            ({"x0": [0, 0, float("nan")]}, "non-finite"),
            (
                {"scenario": "generic", "gradients": [[1, 0, 0], [0, 1]], "x": [0, 0]},
                "invalid-vector",
            ),
            ({"scenario": "generic", "gradients": [[1, 0, 0]], "x": ["a"]}, "not-a-number"),
            ({"x_tilde": [1, 2]}, "parameter-point"),
            (
                {"scenario": "generic", "gradients": [[1, 0, 0]], "x": [0], "x_tilde": [0, 0]},
                "parameter-point",
            ),
        ],
    )
    def test_distinct_error_codes(self, data, code):
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict(data)
        assert err.value.code == code


_NUMBERS = st.one_of(st.integers(-3, 12), st.floats())
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    _NUMBERS,
    st.sampled_from(["generic", "pure", "custom", "product", "none"]),
    st.dictionaries(st.text(max_size=2), _NUMBERS, max_size=2),
)
_VALUES = st.one_of(
    _SCALARS, st.lists(_SCALARS, max_size=4), st.lists(st.lists(_NUMBERS, max_size=4), max_size=4)
)
_CONFIGS = st.one_of(
    st.dictionaries(st.sampled_from([f.name for f in fields(RunConfig)]), _VALUES, max_size=5),
    _VALUES,
)


class TestMalformedConfig:
    @given(_CONFIGS, st.sampled_from(["report", "sweep-alpha", "curves"]))
    @settings(max_examples=300, deadline=None)
    def test_one_error_line_never_a_traceback(self, data, command):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["--config", path, "--out", os.path.join(tmp, "out"), command])
        assert code in (0, 2)
        if code == 2:
            assert err.getvalue().startswith("error[")
            assert err.getvalue().count("\n") == 1


class TestConfigFileErrors:
    @pytest.mark.parametrize(
        "content",
        [
            b'{"N": ' + b"9" * 5000 + b"}",  # past the int-string digit limit
            b'{"scenario": "\xff"}',  # not UTF-8
            b'{"N": 3',  # malformed JSON
        ],
        ids=["huge-integer", "not-utf8", "truncated"],
    )
    def test_undecodable_file_is_invalid_json(self, capsys, tmp_path, content):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        exit_code, out, err = run_main(capsys, "--config", str(path), "report")
        assert exit_code == 2
        assert out == ""
        assert err.startswith("error[invalid-json]: ")
        assert err.count("\n") == 1

    def test_unexpected_exception_is_internal_error(self, capsys, monkeypatch):
        def broken(cfg, out):
            raise RuntimeError("injected\ndefect")

        monkeypatch.setattr(su2qfi.cli, "cmd_report", broken)
        exit_code, out, err = run_main(capsys, "report")
        assert exit_code == 3
        assert out == ""
        assert err.startswith("error[internal]: RuntimeError(")
        assert err.count("\n") == 1


class TestGridInputValidation:
    @pytest.mark.parametrize(
        "argv,code",
        [
            (("report", "--t", "nan"), "non-finite"),
            (("curves", "--t", "inf"), "non-finite"),
            (("report", "--B", "inf"), "non-finite"),
            (("curves", "--theta", "nan"), "non-finite"),
            (("curves", "--phi=-inf"), "non-finite"),
            (("sweep-alpha", "--x-norm", "nan"), "non-finite"),
            (("sweep-alpha", "--dx-norm", "inf"), "non-finite"),
            (("sweep-alpha", "--x-norm", "-1"), "negative-norm"),
            (("sweep-alpha", "--dx-norm", "-0.5"), "negative-norm"),
            (("report", "--t", "1e160"), "overflow"),
            (("report", "--B", "1e300"), "overflow"),
            (("sweep-alpha", "--dx-norm", "1e200"), "overflow"),
            (("report", "--x-tilde", "1", "2"), "parameter-point"),
            (("report", "--mode", "product", "--N", "3", "--t", "0.5"), "product-mode-inexact"),
        ],
    )
    def test_rejected_with_one_error_line(self, capsys, argv, code):
        exit_code, out, err = run_main(capsys, *argv)
        assert exit_code == 2
        assert out == ""
        assert err.startswith(f"error[{code}]: ")
        assert err.count("\n") == 1


def run_flags(argv):
    """Exit code and stderr of ``main(argv)``; a warning, which would print
    stray stderr lines, is raised instead and ends as exit 3.  An argparse
    exit raises SystemExit out of ``main`` and gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def _flag_args(command, b, theta, phi, t, n, tail):
    count = "--N" if command == "report" else "--n-max"
    return [command, "--B", repr(b), "--theta", repr(theta), "--phi", repr(phi),
            "--t", repr(t), count, str(n), *tail]


def _tail(command, r):
    """The flags after the count: for report the mode, control and probe,
    product mode only where its closed form is exact (no control), and a
    pure probe's Bloch vector drawn from ``r``."""
    if command == "curves":
        return st.tuples(st.sampled_from(["true", "false"]), st.sampled_from(["pure", "entangled"])
                         ).map(lambda a: ["--controlled", a[0], "--probe", a[1]])
    probe = st.one_of(st.just(["--probe", "entangled"]),
                      r.map(lambda v: ["--probe", "pure", "--r", *map(repr, v)]))
    modes = st.sampled_from([("merged", "none"), ("merged", "optimal"), ("product", "none")])
    return st.tuples(modes, probe).map(lambda a: ["--mode", a[0][0], "--control", a[0][1], *a[1]])


def _argv(b, theta, phi, t, n, r):
    return st.sampled_from(["report", "curves"]).flatmap(
        lambda command: st.tuples(st.just(command), b, theta, phi, t, n, _tail(command, r))
    )


_UNIT_R = st.tuples(st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi)).map(
    lambda a: [float(np.sin(a[0]) * np.cos(a[1])), float(np.sin(a[0]) * np.sin(a[1])),
               float(np.cos(a[0]))]
)


# every flag of every subcommand, plus tokens argparse must reject
_SUBCOMMAND_FLAGS = {
    "report": ["--scenario", "--B", "--theta", "--phi", "--t", "--N", "--mode", "--probe",
               "--r", "--control", "--x-tilde", "--control-vector"],
    "sweep-alpha": ["--n-values", "--alpha-count", "--t", "--x-norm", "--dx-norm"],
    "curves": ["--B", "--theta", "--phi", "--t", "--n-max", "--controlled", "--probe"],
    "verify": ["--tolerance-scale"],
}
_TOKEN = st.one_of(
    st.floats().map(repr),
    # counts stay small: curves and sweep-alpha allocate one row per count; no
    # decimal digits in the text tokens for the same reason
    st.integers(-3, 50).map(str),
    st.sampled_from(["pure", "entangled", "none", "optimal", "custom", "merged", "product",
                     "generic", "magnetometry", "true", "false", "--bogus", "-x", "--", "-",
                     "-h", "report", "verify"]),
    st.text(st.characters(blacklist_categories=("Cs", "Nd")), max_size=6),
)


def _any_argv():
    # --samples 2 keeps a verify run that parses cheap
    return st.sampled_from(sorted(_SUBCOMMAND_FLAGS)).flatmap(
        lambda command: st.lists(
            st.one_of(st.sampled_from(_SUBCOMMAND_FLAGS[command]), _TOKEN), max_size=8
        ).map(lambda tokens: ["--samples", "2", command, *tokens])
    )


class TestFlagFuzz:
    @given(
        _argv(st.floats(1e-3, 1e3), st.floats(0.0, np.pi),
              st.floats(0.0, 2 * np.pi, exclude_max=True), st.floats(1e-3, 10.0),
              st.integers(1, 1000), _UNIT_R)
    )
    @example(("report", 3.0, 0.0, 0.0, 1.0, 5, ["--probe", "pure", "--r", "0.6", "0.0", "0.8"]))
    @example(("report", 3.0, np.pi, 0.0, 1.0, 5, ["--control", "none", "--probe", "pure",
                                                  "--r", "0.6", "0.0", "0.8"]))
    @example(("curves", 3.0, 0.0, 0.0, 1.0, 5, []))
    @example(("curves", 3.0, np.pi, 0.0, 1.0, 5, []))
    # a tiny negative component in exponent notation is a value, not an option
    @example(("report", 3.0, 0.5, 0.0, 1.0, 5, ["--probe", "pure", "--r", "-6.123233995736766e-17",
                                                "0.0", "1.0"]))
    @settings(max_examples=300, deadline=None)
    def test_in_domain_flags_exit_zero(self, argv):
        assert run_flags(_flag_args(*argv)) == (0, "")

    @given(
        # counts stay small: curves allocates one row per segment count
        _argv(st.floats(), st.floats(), st.floats(), st.floats(), st.integers(-3, 50),
              st.lists(st.floats(), min_size=3, max_size=3))
    )
    @example(("report", 3.0, 0.5, 0.0, -1e-05, 5, ["--probe", "entangled"]))
    # finite B and t whose phase T|X| overflows
    @example(("report", 7.95011878240663e261, 0.0, 0.0, 1.1306077205038469e46, 1,
              ["--mode", "merged", "--control", "none", "--probe", "entangled"]))
    @example(("report", 3.0, 0.5, 0.0, 1.0, 5, ["--probe", "pure", "--r", "1e+200", "0.0",
                                                "-1e-05"]))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_floats_exit_zero_or_one_error_line(self, argv):
        code, err = run_flags(_flag_args(*argv))
        assert code in (0, 2)
        if code == 2:
            assert err.startswith("error[")
            assert err.count("\n") == 1
        else:
            assert err == ""

    @pytest.mark.parametrize(
        "argv",
        [("report", "--N", "2.5"), ("report", "--bogus", "1"), ("curves", "--r", "1"),
         ("sweep-alpha", "--n-values"), ("verify", "--tolerance-scale", "x"), ()],
    )
    def test_usage_error_is_one_line(self, argv):
        code, err = run_flags(list(argv))
        assert code == 2
        assert err.startswith("error[usage]: su2qfi")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("scale", ["nan", "-1", "-inf"])
    def test_invalid_tolerance_scale_rejected(self, scale):
        code, err = run_flags(["--samples", "2", "verify", "--tolerance-scale", scale])
        assert code == 2
        assert err.startswith("error[invalid-tolerance-scale]: ")
        assert err.count("\n") == 1

    @given(_any_argv())
    @example(["--samples", "2", "report", "--N", "2.5"])
    @example(["--samples", "2", "report", "--theta", "a\nb"])
    @example(["--samples", "2", "verify", "--tolerance-scale", "0.0"])
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_tokens_exit_cleanly(self, argv):
        # exit 1 is reserved for a verify whose checks fail (a tolerance
        # scale near 0 fails them on purpose)
        code, err = run_flags(argv)
        assert code in ((0, 1, 2) if argv[2] == "verify" else (0, 2))
        if code == 2:
            assert err.startswith("error[")
            assert err.count("\n") == 1
        else:
            assert err == ""


class TestReport:
    def test_default_report_values(self, capsys):
        code, out, _ = run_main(capsys, "report")
        assert code == 0
        doc = json.loads(out)
        qfim = np.array(doc["qfim"])
        assert np.allclose(np.diag(qfim), [100.0, 900.0, 225.0], atol=1e-9)
        assert doc["attainable"] is True
        assert doc["probe_kind"] == "entangled_with_ancilla"
        assert doc["parameter_names"] == ["B", "theta", "phi"]
        assert doc["version"] == "0.1.0"
        assert doc["config"]["N"] == 5

    def test_pure_probe_without_control_not_attainable(self, capsys):
        code, out, _ = run_main(
            capsys, "report", "--probe", "pure", "--r", "0", "0", "1", "--control", "none"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["attainable"] is False

    def test_invalid_segment_count_exits_2(self, capsys):
        code, _, err = run_main(capsys, "report", "--N", "0")
        assert code == 2
        assert "invalid-segment-count" in err

    def test_overlong_bloch_vector_exits_2(self, capsys):
        code, _, err = run_main(capsys, "report", "--probe", "pure", "--r", "1", "1", "0")
        assert code == 2
        assert "bloch-norm" in err

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"B": 2.0, "N": 4}), encoding="utf-8")
        code, out, _ = run_main(capsys, "--config", str(cfg_path), "report", "--N", "6")
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["B"] == 2.0
        assert doc["config"]["N"] == 6  # flag wins

    def test_generic_scenario(self, capsys, tmp_path):
        cfg_path = tmp_path / "generic.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "scenario": "generic",
                    "x0": [0.0, 0.0, 2.0],
                    "gradients": [[1.0, 0.0, 0.0]],
                    "x": [0.0],
                    "t": 5.0,
                    "N": 1,
                    "control": "none",
                }
            ),
            encoding="utf-8",
        )
        code, out, _ = run_main(capsys, "--config", str(cfg_path), "report")
        assert code == 0
        doc = json.loads(out)
        # orthogonal geometry: maximum oscillates as sin^2(T)
        assert doc["qfi_max"][0] == pytest.approx(np.sin(5.0) ** 2, abs=1e-12)
        assert doc["parameter_names"] == ["x1"]

    def test_generic_large_offset(self, capsys, tmp_path):
        # affine_scheme trusts its gradients: no finite-difference check
        # of them that rounding at |X| = 1e9 could fail
        cfg_path = tmp_path / "generic.json"
        cfg_path.write_text(
            json.dumps(
                {"scenario": "generic", "x0": [1e9, 0, 0], "gradients": [[1, 0, 0]], "x": [0.5]}
            ),
            encoding="utf-8",
        )
        code, out, _ = run_main(capsys, "--config", str(cfg_path), "report")
        assert code == 0
        assert np.all(np.isfinite(json.loads(out)["qfim"]))

    def test_product_mode_without_control(self, capsys):
        # without control the segment product is the merged exponential exactly
        code, out, _ = run_main(
            capsys, "report", "--mode", "product", "--N", "3", "--t", "0.5", "--control", "none"
        )
        assert code == 0
        merged = json.loads(
            run_main(capsys, "report", "--N", "3", "--t", "0.5", "--control", "none")[1]
        )
        assert json.loads(out)["qfim"] == merged["qfim"]
        code, _, _ = run_main(
            capsys, "report", "--mode", "product", "--control", "custom",
            "--control-vector", "0", "0", "0",
        )
        assert code == 0

    def test_pole_serializes_infinite_bound(self, capsys):
        code, out, _ = run_main(capsys, "report", "--theta", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["precision_bounds"][2] == "inf"

    @pytest.mark.parametrize(
        "argv",
        [
            ("--control", "none", "--probe", "pure", "--r", "0.6", "0", "0.8"),
            ("--x-tilde", "3", "3.1", "0"),
        ],
        ids=["uncontrolled-pure", "misestimated-control"],
    )
    def test_south_pole_serializes_infinite_bound(self, capsys, argv):
        # the pseudo-inverse diagonal can hold tiny negative rounding there
        code, out, err = run_main(capsys, "report", "--theta", "3.141592653589793", *argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["precision_bounds"][2] == "inf"

    def test_control_designed_at_offset_estimate(self, capsys):
        # control negates the coefficients at x_tilde, not at the true point,
        # so the per-segment coefficients no longer cancel and the maxima
        # fall back to the oscillating closed form
        code, out, _ = run_main(
            capsys, "report", "--x-tilde", "2.9", str(np.pi / 6), "0"
        )
        assert code == 0
        doc = json.loads(out)
        exact = json.loads(run_main(capsys, "report")[1])
        assert doc["qfi_max"][1] < exact["qfi_max"][1]
        assert doc["attainable"] is True  # entangled probe: still attainable

    def test_custom_control_vector_matches_optimal(self, capsys):
        # hand the negated coefficients in explicitly: identical report
        x_c = -2 * 3.0 * np.array([np.sin(np.pi / 6), 0.0, np.cos(np.pi / 6)])
        _, out_custom, _ = run_main(
            capsys,
            "report",
            "--control",
            "custom",
            "--control-vector",
            *[str(c) for c in x_c],
        )
        _, out_optimal, _ = run_main(capsys, "report", "--control", "optimal")
        custom = json.loads(out_custom)
        optimal = json.loads(out_optimal)
        assert np.allclose(custom["qfim"], optimal["qfim"], atol=1e-9)


class TestSweepAlpha:
    def test_header_and_order(self, capsys):
        code, out, _ = run_main(capsys, "sweep-alpha", "--alpha-count", "5")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["N", "alpha", "uncontrolled_max", "controlled_limit", "gap"]
        ns = [int(r[0]) for r in rows]
        assert ns == sorted(ns)
        assert len(rows) == 15  # 3 segment counts x 5 angles
        for n in (3, 5, 10):
            alphas = [float(r[1]) for r in rows if int(r[0]) == n]
            assert alphas == sorted(alphas)

    def test_right_angle_gap_value(self, capsys):
        code, out, _ = run_main(capsys, "sweep-alpha")
        _, rows = parse_csv(out)
        row = next(r for r in rows if int(r[0]) == 5 and abs(float(r[1]) - np.pi / 2) < 1e-12)
        assert float(row[4]) == pytest.approx(25.0 - np.sin(5.0) ** 2, abs=1e-12)
        assert float(row[2]) == pytest.approx(np.sin(5.0) ** 2, abs=1e-13)

    def test_colinear_rows_have_zero_gap(self, capsys):
        code, out, _ = run_main(capsys, "sweep-alpha")
        _, rows = parse_csv(out)
        for row in rows:
            if float(row[1]) == 0.0:
                assert float(row[4]) == 0.0

    def test_byte_stable_output(self, capsys, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["--out", str(out1), "sweep-alpha"]) == 0
        assert main(["--out", str(out2), "sweep-alpha"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_roundtrip_exact_serialization(self, capsys):
        code, out, _ = run_main(capsys, "sweep-alpha", "--alpha-count", "9")
        _, rows = parse_csv(out)
        for row in rows:
            for cell in row[1:]:
                assert f"{float(cell):.17g}" == cell

    def test_empty_grid_exits_2(self, capsys):
        code, _, err = run_main(capsys, "sweep-alpha", "--alpha-count", "0")
        assert code == 2
        assert "empty-grid" in err


class TestCurves:
    def test_controlled_reference_rows(self, capsys):
        code, out, _ = run_main(capsys, "curves")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["N", "T", "dB", "dtheta", "dphi"]
        row5 = next(r for r in rows if r[0] == "5")
        assert float(row5[3]) == pytest.approx(1 / 30, abs=1e-15)

    def test_uncontrolled_colatitude_bounded(self, capsys):
        code, out, _ = run_main(capsys, "curves", "--controlled", "false")
        _, rows = parse_csv(out)
        assert all(float(r[3]) >= 0.5 for r in rows)

    def test_field_entry_identical_across_modes(self, capsys):
        _, out_c, _ = run_main(capsys, "curves", "--controlled", "true")
        _, rows_c = parse_csv(out_c)
        _, out_u, _ = run_main(capsys, "curves", "--controlled", "false")
        _, rows_u = parse_csv(out_u)
        assert [r[2] for r in rows_c] == [r[2] for r in rows_u]

    def test_pole_emits_inf_literal(self, capsys):
        code, out, _ = run_main(capsys, "curves", "--theta", "0", "--n-max", "2")
        assert code == 0
        _, rows = parse_csv(out)
        assert all(r[4] == "inf" for r in rows)


class TestVerify:
    def test_passes_and_exits_zero(self, capsys):
        code, out, _ = run_main(capsys, "--samples", "25", "verify")
        assert code == 0
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_byte_identical_for_fixed_seed(self, capsys):
        _, out1, _ = run_main(capsys, "--seed", "7", "--samples", "25", "verify")
        _, out2, _ = run_main(capsys, "--seed", "7", "--samples", "25", "verify")
        assert out1 == out2

    def test_injected_fault_exits_one(self, capsys):
        code, out, _ = run_main(
            capsys, "--samples", "10", "verify", "--tolerance-scale", "0"
        )
        assert code == 1
        assert "FAIL" in out
        assert "worst input" in out

    def test_bad_sample_count_exits_2(self, capsys):
        code, _, err = run_main(capsys, "--samples", "0", "verify")
        assert code == 2
        assert "invalid-sample-count" in err


def run_module(*argv):
    """``python -m su2qfi`` in a child that imports the package under test."""
    env = dict(os.environ)
    src = str(Path(su2qfi.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "su2qfi", *argv], capture_output=True, text=True, env=env
    )


class TestEntryPoint:
    def test_module_invocation(self):
        proc = run_module("curves", "--n-max", "2")
        assert proc.returncode == 0
        assert proc.stdout.startswith("N,T,dB,dtheta,dphi\n")

    def test_help(self):
        proc = run_module("--help")
        assert proc.returncode == 0
        assert "report" in proc.stdout and "verify" in proc.stdout
