"""CLI tests: subcommands, config handling, determinism, exit codes."""

import contextlib
import errno
import io
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import su2qfi
from su2qfi.cli import ConfigError, RunConfig, _csv, build_parser, main
from su2qfi.errors import InexactCompositionError, Su2QfiError

# every error class the library defines, the base class included
_SU2QFI_ERRORS = [
    cls for cls in vars(su2qfi.errors).values()
    if isinstance(cls, type) and issubclass(cls, Su2QfiError)
]


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
            ({"n_values": [3, 0]}, "invalid-segment-count"),
            ({"mode": "interleaved"}, "unknown-mode"),
            ({"scenario": "generic"}, "missing-gradients"),
            ({"t": 10**400}, "non-finite"),  # an integer too large to be a float
            ({"scenario": "generic", "gradients": [[1, 0, 0]], "x": [0, 0]}, "parameter-point"),
            ({"control": "adaptive"}, "unknown-control"),
            ({"n_max": 0}, "invalid-segment-count"),
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
        def broken(cfg):
            raise RuntimeError("injected\ndefect")

        monkeypatch.setattr(su2qfi.cli, "cmd_report", broken)
        exit_code, out, err = run_main(capsys, "report")
        assert exit_code == 3
        assert out == ""
        assert err.startswith("error[internal]: RuntimeError(")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "error,code",
        [(cls("injected"), "product-mode-inexact" if cls is InexactCompositionError
          else cls.__name__) for cls in _SU2QFI_ERRORS]
        + [(ConfigError("some-code", "injected"), "some-code")],
        ids=lambda value: value if isinstance(value, str) else type(value).__name__,
    )
    def test_every_library_error_is_one_coded_line(self, capsys, monkeypatch, error, code):
        def raising(cfg):
            raise error

        monkeypatch.setattr(su2qfi.cli, "cmd_report", raising)
        exit_code, out, err = run_main(capsys, "report")
        assert exit_code == 2
        assert out == ""
        assert err == f"error[{code}]: injected\n"


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
            # sizes numpy refuses up front, without allocating anything
            (("curves", "--n-max", "100000000000"), "out-of-memory"),
            (("sweep-alpha", "--alpha-count", "100000000000"), "out-of-memory"),
            # finite t and N whose total time N t overflows
            (("report", "--t", "1e308", "--N", "10"), "overflow"),
            # sizes past 2**53, where arange and linspace overflow or lose the count
            (("curves", "--n-max", "9223372036854775807"), "grid-too-large"),
            (("curves", "--n-max", "4611686018427387904"), "grid-too-large"),
            (("sweep-alpha", "--alpha-count", "9223372036854775808"), "grid-too-large"),
            (("sweep-alpha", "--n-values", "100000000000000000000000"), "grid-too-large"),
            (("--config", os.path.join("no-such-dir", "config.json"), "report"), "io"),
            # a finite field B whose coefficient scale 2B overflows
            (("report", "--B", "1.7e308"), "overflow"),
            (("report", "--B", "1.7e308", "--control", "none"), "overflow"),
            (("report", "--x-tilde", "1e308", "0.5", "0"), "overflow"),
            (("report", "--B", "1.7e308", "--mode", "product", "--control", "none"), "overflow"),
            # counts just past 2**53, which a float64 grid cannot hold exactly
            (("curves", "--n-max", "9007199254740993"), "grid-too-large"),
            (("sweep-alpha", "--n-values", "9007199254740993"), "grid-too-large"),
        ],
    )
    def test_rejected_with_one_error_line(self, capsys, argv, code):
        exit_code, out, err = run_main(capsys, *argv)
        assert exit_code == 2
        assert out == ""
        assert err.startswith(f"error[{code}]: ")
        assert err.count("\n") == 1


class TestParserReuse:
    """``main`` shares one parser per process; no call may leak into the next."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize(
        "first,second",
        [
            (("curves", "--B", "2", "--n-max", "5"), ("curves", "--n-max", "5")),
            (("sweep-alpha", "--n-values", "7"), ("sweep-alpha",)),
        ],
    )
    def test_flags_do_not_leak_into_the_next_call(self, capsys, first, second):
        build_parser.cache_clear()
        alone = run_main(capsys, *second)
        assert (alone[0], alone[2]) == (0, "")
        build_parser.cache_clear()
        assert run_main(capsys, *first)[1] != alone[1]
        assert run_main(capsys, *second) == alone

    def test_valid_call_after_help_and_usage_error(self, capsys):
        for argv, code in ((["curves", "--help"], 0), (["curves", "--bogus"], 2)):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == code
        assert capsys.readouterr().err.startswith("error[usage]: ")
        code, out, err = run_main(capsys, "curves", "--n-max", "5")
        assert (code, err) == (0, "")
        assert out.startswith("N,T,dB,dtheta,dphi\n")


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
    # a finite B whose 2B overflows
    @example(("report", 8.98846567431158e+307, 0.0, 0.0, 1.0, 1,
              ["--mode", "merged", "--control", "none", "--probe", "entangled"]))
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

    def test_a_generator_past_double_precision_is_named(self, capsys):
        # B = 1e300, T = 5e10: Y = -T dX overflows; the message is the library's,
        # not numpy's text for the overflow inside a multiply
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_main(capsys, "report", "--B", "1e300", "--t", "1e10")
        assert (code, out) == (2, "")
        assert err.startswith("error[overflow]: ") and err.count("\n") == 1
        assert "the generator Y, at most T|dX| in size, overflows: T = 5e+10" in err
        assert "encountered in" not in err

    @pytest.mark.parametrize("flag", ["--B", "--t"])
    def test_information_past_double_precision_is_named(self, capsys, flag):
        # |Y| ~ 1e160 is a double and |Y|^2 is not: the library's message, not
        # numpy's text for the overflow inside a multiply
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_main(capsys, "report", flag, "1e160")
        assert (code, out) == (2, "")
        assert err.startswith("error[overflow]: ") and err.count("\n") == 1
        assert "|Y|^2" in err and "encountered in" not in err

    def test_pure_probe_without_control_not_attainable(self, capsys):
        code, out, _ = run_main(
            capsys, "report", "--probe", "pure", "--r", "0", "0", "1", "--control", "none"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["attainable"] is False

    def test_a_short_time_report_scales_like_a_long_one(self, capsys):
        # the verdict and the bounds do not depend on the units of T |dX|: at
        # T = 1e-7 the pure probe is as far from its maxima as at T = 1e-5
        docs = []
        for t in ("1e-5", "1e-7"):
            code, out, _ = run_main(
                capsys, "report", "--t", t, "--N", "1", "--theta", "0.7", "--phi", "0.4",
                "--control", "none", "--probe", "pure", "--r", "0.6", "0", "0.8",
            )
            assert code == 0
            docs.append(json.loads(out))
        assert [doc["attainable"] for doc in docs] == [False, False]
        # three pure-probe bounds are "inf" in the JSON: parse them as floats, inf included
        long_time, short_time = (np.array(doc["precision_bounds"], dtype=float) for doc in docs)
        np.testing.assert_allclose(short_time, 100.0 * long_time, rtol=1e-3)

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

    def test_product_mode_with_negative_zero_control_reports_as_uncontrolled(self, capsys):
        # -0.0 entries make a zero control: the report is the uncontrolled one
        uncontrolled = json.loads(run_main(capsys, "report", "--mode", "product",
                                           "--control", "none")[1])
        code, out, _ = run_main(
            capsys, "report", "--mode", "product", "--control", "custom",
            "--control-vector", "-0.0", "0", "-0",
        )
        assert code == 0
        got = json.loads(out)
        del got["config"], uncontrolled["config"]
        assert json.dumps(got) == json.dumps(uncontrolled)

    def test_pole_serializes_infinite_bound(self, capsys):
        code, out, _ = run_main(capsys, "report", "--theta", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["precision_bounds"][2] == "inf"

    @pytest.mark.parametrize(
        "argv",
        [("--control", "none", "--probe", "pure", "--r", "0.6", "0", "0.8")],
        ids=["uncontrolled-pure"],
    )
    def test_south_pole_serializes_infinite_bound(self, capsys, argv):
        # a pure probe cannot bound three parameters: all three print as "inf"
        code, out, err = run_main(capsys, "report", "--theta", "3.141592653589793", *argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["precision_bounds"] == ["inf", "inf", "inf"]

    def test_south_pole_serializes_a_finite_azimuth_bound(self, capsys):
        # the entangled probe's azimuth information at theta = float(pi) is tiny but
        # real: its bound is a JSON number, about 2.9e14, not "inf"
        code, out, err = run_main(
            capsys, "report", "--theta", "3.141592653589793", "--x-tilde", "3", "3.1", "0"
        )
        assert (code, err) == (0, "")
        bound = json.loads(out)["precision_bounds"][2]
        assert isinstance(bound, float) and 2.8e14 < bound < 3.0e14

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

    def test_information_whose_factors_overflow_when_squared(self, capsys):
        # |dX|^2 overflows and T^2 underflows, but (T |dX|)^2 is about 1
        code, out, _ = run_main(
            capsys, "sweep-alpha", "--n-values", "1", "--alpha-count", "2",
            "--t", "1e-200", "--dx-norm", "1e200",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 2
        for row in rows:
            assert float(row[3]) == pytest.approx(1.0, rel=1e-15)
            assert all(math.isfinite(float(c)) for c in row)

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

    def test_largest_count_prints_exactly(self, capsys):
        code, out, _ = run_main(
            capsys, "sweep-alpha", "--n-values", "1", "9007199254740992", "--alpha-count", "2"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert [r[0] for r in rows] == ["1", "1", "9007199254740992", "9007199254740992"]

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

    @pytest.mark.parametrize("controlled", ["true", "false"])
    def test_probe_does_not_change_the_table(self, capsys, controlled):
        # each deviation is attainable on its own with either probe
        argv = ("curves", "--controlled", controlled, "--probe")
        code_p, out_p, _ = run_main(capsys, *argv, "pure")
        code_e, out_e, _ = run_main(capsys, *argv, "entangled")
        assert code_p == code_e == 0
        assert out_p == out_e


class TestOutputFile:
    """``--out`` is rewritten in place and cut to the written length."""

    @pytest.mark.parametrize(
        "argv",
        [("curves", "--n-max", "3"), ("sweep-alpha", "--alpha-count", "2"), ("report",),
         ("--samples", "2", "verify"),
         # a failing verify exits 1 after its summary is written
         ("--samples", "2", "verify", "--tolerance-scale", "0")],
    )
    def test_shorter_output_leaves_no_stale_tail(self, capsys, tmp_path, argv):
        path = tmp_path / "out.csv"
        assert main(["--out", str(path), "curves", "--n-max", "5000"]) == 0
        assert path.read_bytes().count(b"\n") == 5001
        status, expected, _ = run_main(capsys, *argv)
        code, out, _ = run_main(capsys, "--out", str(path), *argv)
        assert code == status == (1 if "--tolerance-scale" in argv else 0)
        assert path.read_bytes() == expected.encode()
        # only verify also prints what it writes to --out
        assert out == (expected if "verify" in argv else "")

    def test_dev_null_is_accepted(self, capsys):
        code, out, err = run_main(capsys, "--out", os.devnull, "sweep-alpha")
        assert (code, out, err) == (0, "", "")

    def test_new_file_gets_the_mode_of_open(self, tmp_path):
        old_umask = os.umask(0o027)
        try:
            assert main(["--out", str(tmp_path / "new.csv"), "curves", "--n-max", "2"]) == 0
            open(tmp_path / "reference.csv", "w").close()
        finally:
            os.umask(old_umask)
        modes = [stat.S_IMODE((tmp_path / name).stat().st_mode)
                 for name in ("new.csv", "reference.csv")]
        assert modes[0] == modes[1] == 0o640

    def test_directory_is_an_io_error(self, capsys, tmp_path):
        code, out, err = run_main(capsys, "--out", str(tmp_path), "curves")
        assert code == 2
        assert out == ""
        assert err.startswith("error[io]: ")
        assert err.count("\n") == 1

    def test_failed_write_leaves_no_byte_of_the_earlier_table(self, capsys, tmp_path,
                                                               monkeypatch):
        path = tmp_path / "out.csv"
        assert main(["--out", str(path), "curves", "--n-max", "5000"]) == 0
        real_write = os.write
        calls = []

        def write_then_fail(fd, data):
            # the first call writes part of the table, the second finds the disk full
            calls.append(len(data))
            if len(calls) > 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_write(fd, data[:100])

        monkeypatch.setattr(os, "write", write_then_fail)
        code, out, err = run_main(capsys, "--out", str(path), "curves", "--n-max", "3")
        monkeypatch.undo()
        assert len(calls) == 2
        assert code == 2
        assert err.startswith("error[io]: ") and "No space left on device" in err
        assert path.read_bytes() == b""

    def test_interrupted_write_leaves_no_byte_of_the_earlier_table(self, tmp_path, monkeypatch):
        path = tmp_path / "out.csv"
        assert main(["--out", str(path), "curves", "--n-max", "5000"]) == 0
        real_write = os.write

        def write_then_interrupt(fd, data):
            # Ctrl-C arrives after part of the shorter table is written
            real_write(fd, data[:100])
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "write", write_then_interrupt)
        with pytest.raises(KeyboardInterrupt):
            main(["--out", str(path), "curves", "--n-max", "3"])
        monkeypatch.undo()
        assert path.read_bytes() == b""

    def test_opens_in_binary_mode_where_the_os_has_one(self, tmp_path, monkeypatch):
        # on Windows, os.open without O_BINARY writes each newline as \r\n
        o_binary = 0x8000
        monkeypatch.setattr(os, "O_BINARY", o_binary, raising=False)
        real_open = os.open
        flags = []

        def record_flags(path, flag, mode=0o777):
            flags.append(flag)
            return real_open(path, flag & ~o_binary, mode)

        monkeypatch.setattr(os, "open", record_flags)
        assert main(["--out", str(tmp_path / "out.csv"), "curves", "--n-max", "2"]) == 0
        monkeypatch.undo()
        assert len(flags) == 1 and flags[0] & o_binary


def percent_csv(header, columns):
    """The CSV contract: Python's '%d' for the first column, '%.17g' for the rest."""
    row_format = "%d" + ",%.17g" * (len(columns) - 1)
    lines = [",".join(header)]
    lines += [row_format % row for row in zip(*(col.tolist() for col in columns))]
    return "\n".join(lines) + "\n"


def assert_csv_contract(counts, *floats):
    header = ["N"] + [f"c{j}" for j in range(len(floats))]
    columns = [np.asarray(counts, dtype=np.int64)] + [np.asarray(c, dtype=float) for c in floats]
    # cli.main formats inside np.errstate(over="raise", invalid="raise")
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
        warnings.simplefilter("error")
        text = _csv(header, columns)
    assert text == percent_csv(header, columns)


def _fixed_tie(q, j, negative):
    """An odd multiple of 2**-q whose decimal has 18 significant digits, the
    last a 5: an exact tie at 17 digits, in %.17g's fixed-notation range."""
    lo = -(-(2**q * 10**17) // 10**q)
    hi = min(2**q * 10**18 // 10**q, 2**53)
    value = (lo + j % (hi - lo)) | 1
    return (-1) ** negative * value / 2**q


# the doubles next to the ends of %.17g's fixed-notation range [1e-4, 1e17)
# and next to every power of ten in it, with both signs
_EDGES = sorted(
    s * v
    for p in [10.0**x for x in range(-5, 18)] + [9.99999999999999999e-5, 99999999999999999.0]
    for v in (p, np.nextafter(p, 0.0), np.nextafter(p, np.inf), np.nextafter(np.nextafter(p, 0.0), 0.0))
    for s in (1.0, -1.0)
)

_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(1e-4, 1e17) | st.floats(-1e17, -1e-4),
    st.builds(_fixed_tie, st.integers(2, 21), st.integers(0, 2**60), st.booleans()),
    st.sampled_from(_EDGES + [0.0, -0.0, 5e-324, 2.2250738585072014e-308]),
)


class TestCsvFormat:
    """``cli._csv`` prints every cell exactly as the '%' operator would."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_percent_formatting(self, data):
        rows = data.draw(st.integers(1, 30))
        k = data.draw(st.integers(1, 4))
        counts = data.draw(st.lists(st.integers(-(2**53), 2**53),
                                    min_size=rows, max_size=rows))
        floats = [data.draw(st.lists(_CELLS, min_size=rows, max_size=rows)) for _ in range(k)]
        assert_csv_contract(counts, *floats)

    def test_ties_round_half_to_even(self):
        ties = [_fixed_tie(q, j, neg) for q in range(2, 22) for j in (0, 1, 12345) for neg in (0, 1)]
        for tie in ties:
            digits = Decimal(tie).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5
        assert "%.17g" % 1000000000000000.25 == "1000000000000000.2"
        assert "%.17g" % 1000000000000000.75 == "1000000000000000.8"
        assert_csv_contract(np.arange(len(ties)), ties)

    def test_edges_of_fixed_notation(self):
        # none of these rounds up to a power of ten at 17 digits; 1e-4 and
        # 1e17 themselves print as 0.0001 and 1e+17
        assert_csv_contract(np.arange(len(_EDGES)), _EDGES)

    def test_powers_of_ten_and_negative_values(self):
        powers = [10.0**x for x in range(-7, 20)]
        assert_csv_contract(np.arange(len(powers)), powers, [-p for p in powers])

    def test_largest_count_and_one_row(self):
        assert_csv_contract([2**53], [0.1], [-1.5], [1e300])
        assert_csv_contract([2**53, -(2**53), 0, -7], [np.nan, np.inf, -np.inf, -0.0])

    def test_table_longer_than_a_block(self):
        rows = 2 * su2qfi.cli._CSV_BLOCK_ROWS + 3
        rng = np.random.default_rng(7)
        fixed = rng.uniform(-3.0, 3.0, rows) * 10.0 ** rng.integers(-5, 18, rows)
        bits = rng.integers(0, 2**64, rows, dtype=np.uint64).view(np.float64)
        assert_csv_contract(np.arange(1, rows + 1), fixed, bits, np.round(fixed, 2))


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

    def test_out_file_is_echoed_to_stdout(self, capsys, tmp_path):
        path = tmp_path / "verify.txt"
        code, out, _ = run_main(capsys, "--samples", "5", "--out", str(path), "verify")
        assert code == 0
        assert out.endswith("checks passed\n")
        assert path.read_bytes() == out.encode()

    def test_bad_sample_count_exits_2(self, capsys):
        code, _, err = run_main(capsys, "--samples", "0", "verify")
        assert code == 2
        assert "invalid-sample-count" in err

    def test_negative_seed_exits_2(self, capsys):
        code, out, err = run_main(capsys, "--seed", "-1", "verify")
        assert code == 2
        assert out == ""
        assert err.startswith("error[invalid-seed]: ")
        assert err.count("\n") == 1


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
