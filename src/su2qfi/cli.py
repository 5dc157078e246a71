"""Command-line front end.

Four subcommands:

    report       QFIM report for one configuration, as JSON
    sweep-alpha  control-benefit landscape over the effectiveness angle, as CSV
    curves       precision-versus-time curves for the magnetometry example, as CSV
    verify       randomized oracle cross-check suites, pass/fail summary

Configuration comes from a single flat JSON document (``--config``) with
per-field flag overrides; ``--config``, ``--out``, ``--seed`` and
``--samples`` are the only global flags.  Exit codes: 0 success, 1
verification failure, 2 invalid input, 3 an internal error.  All CSV
numbers carry 17 significant digits; non-finite values are serialized as the
literals inf/-inf/nan.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import traceback
from dataclasses import asdict, dataclass, fields, replace
from functools import partial

import numpy as np

from . import __version__
from .algebra import check_bloch
from .errors import Su2QfiError, UnphysicalStateError
from .magnetometry import (
    PARAMETER_NAMES,
    FieldPoint,
    magnetometry_scheme,
    precision_curves,
)
from .qfi import ENTANGLED_WITH_ANCILLA, PURE_QUBIT, build_report
from .scheme import MERGED, PRODUCT, SchemeConfig, affine_scheme, design_control, gap_profile
from .verify import run_all, summarize


class ConfigError(Exception):
    """Invalid run configuration; ``code`` names the offending field."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _number(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError("not-a-number", f"{name} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise ConfigError("non-finite", f"{name} is too large to be a float") from None
    if not math.isfinite(value):
        raise ConfigError("non-finite", f"{name} must be finite, got {value}")
    return value


def _count(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError("non-integer-count", f"{name} must be an integer, got {value!r}")
    return value


def _boolean(name: str, value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError("not-a-boolean", f"{name} must be true or false, got {value!r}")
    return value


def _sequence(name: str, value, item, length: int | None = None) -> tuple:
    if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
        size = "" if length is None else f" of {length} entries"
        raise ConfigError("invalid-vector", f"{name} must be a list{size}, got {value!r}")
    return tuple(item(f"{name}[{i}]", v) for i, v in enumerate(value))


_VEC3 = partial(_sequence, item=_number, length=3)

# type and shape of every field that is not a string, checked by from_dict;
# every number must also be finite
_FIELD_TYPES = {
    **dict.fromkeys(("B", "theta", "phi", "t", "x_norm", "dx_norm"), _number),
    **dict.fromkeys(("N", "alpha_count", "n_max"), _count),
    **dict.fromkeys(("x0", "r", "control_vector"), _VEC3),
    **dict.fromkeys(("x", "x_tilde"), partial(_sequence, item=_number)),
    "gradients": partial(_sequence, item=_VEC3),
    "n_values": partial(_sequence, item=_count),
    "controlled": _boolean,
}


@dataclass(frozen=True)
class RunConfig:
    """One flat, losslessly round-trippable run description."""

    scenario: str = "magnetometry"
    # magnetometry dynamics
    B: float = 3.0
    theta: float = math.pi / 6
    phi: float = 0.0
    # generic dynamics: affine coefficient map X(x) = x0 + sum_l x_l * gradients[l]
    x0: tuple = (0.0, 0.0, 0.0)
    gradients: tuple = ()
    x: tuple = ()
    # scheme
    t: float = 1.0
    N: int = 5
    mode: str = MERGED
    # probe
    probe: str = "entangled"
    r: tuple = (0.0, 0.0, 1.0)
    # control
    control: str = "optimal"
    x_tilde: tuple = ()
    control_vector: tuple = (0.0, 0.0, 0.0)
    # sweep-alpha grid
    n_values: tuple = (3, 5, 10)
    alpha_count: int = 65
    x_norm: float = 2.0
    dx_norm: float = 1.0
    # curves
    n_max: int = 30
    controlled: bool = True

    def validate(self) -> "RunConfig":
        if self.scenario not in ("magnetometry", "generic"):
            raise ConfigError("unknown-scenario", f"unknown scenario {self.scenario!r}")
        for name in ("x_norm", "dx_norm"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigError("negative-norm", f"{name} must be nonnegative, got {value}")
        if self.t <= 0:
            raise ConfigError("nonpositive-segment-time", f"t must be positive, got {self.t}")
        if self.N < 1:
            raise ConfigError("invalid-segment-count", f"N must be at least 1, got {self.N}")
        if self.n_max < 1:
            raise ConfigError("invalid-segment-count", f"n_max must be at least 1, got {self.n_max}")
        if any(n < 1 for n in self.n_values):
            raise ConfigError("invalid-segment-count", "every entry of n_values must be >= 1")
        if not self.n_values or self.alpha_count < 1:
            raise ConfigError("empty-grid", "n_values and alpha_count must be nonempty grids")
        if self.probe not in ("pure", "entangled"):
            raise ConfigError("unknown-probe", f"unknown probe {self.probe!r}")
        if self.control not in ("none", "optimal", "custom"):
            raise ConfigError("unknown-control", f"unknown control {self.control!r}")
        if self.mode not in (MERGED, PRODUCT):
            raise ConfigError("unknown-mode", f"unknown composition mode {self.mode!r}")
        try:
            check_bloch(self.r)
        except UnphysicalStateError as exc:
            raise ConfigError("bloch-norm", str(exc)) from None
        if self.scenario == "generic":
            if len(self.gradients) == 0:
                raise ConfigError("missing-gradients", "generic scenario needs gradients")
            if len(self.gradients) > 3:
                raise ConfigError(
                    "too-many-parameters",
                    f"{len(self.gradients)} parameters; an su(2) process encodes at most 3",
                )
            if len(self.x) != len(self.gradients):
                raise ConfigError(
                    "parameter-point", "x must have one entry per gradient row"
                )
        n_params = 3 if self.scenario == "magnetometry" else len(self.gradients)
        if self.x_tilde and len(self.x_tilde) != n_params:
            raise ConfigError(
                "parameter-point", f"x_tilde must have {n_params} entries, one per parameter"
            )
        return self

    def to_dict(self) -> dict:
        return _json_safe(asdict(self))

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError(
                "not-an-object", f"a config must be a JSON object, got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError("unknown-field", f"unknown config fields: {sorted(unknown)}")
        coerced = {
            key: _FIELD_TYPES[key](key, value) if key in _FIELD_TYPES else value
            for key, value in data.items()
        }
        return cls(**coerced).validate()


def _build_scheme(cfg: RunConfig) -> tuple[SchemeConfig, np.ndarray, tuple]:
    """Scheme, evaluation point and parameter names from a validated config."""
    if cfg.scenario == "magnetometry":
        point = FieldPoint(cfg.B, cfg.theta, cfg.phi)
        x, names = point.as_array(), PARAMETER_NAMES
        scheme = magnetometry_scheme(point, cfg.t, cfg.N, mode=cfg.mode)
    else:
        x = np.asarray(cfg.x, dtype=float)
        names = tuple(f"x{i + 1}" for i in range(len(x)))
        scheme = affine_scheme(cfg.x0, cfg.gradients, np.zeros(3), cfg.t, cfg.N, cfg.mode)
    if cfg.control == "custom":
        scheme = replace(scheme, control=cfg.control_vector)
    elif cfg.control == "optimal":
        scheme = replace(scheme, control=design_control(scheme, cfg.x_tilde or x))
    if cfg.mode == PRODUCT and np.any(scheme.control):
        # the closed forms describe exp(-i N t (X + X_c).J); without control
        # the segment product equals it exactly, with control it does not
        raise ConfigError(
            "product-mode-inexact",
            "product mode with a nonzero control has no exact report yet; "
            "use mode merged or control none",
        )
    return scheme, x, names


def _write_text(text: str, out_path: str | None):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _csv(header: list[str], columns: list[np.ndarray]) -> str:
    """CSV text from an integer first column and float columns.

    Floats carry 17 significant digits (round-trip exact); ``%g`` writes the
    non-finite values as the literals inf/-inf/nan.
    """
    row_format = "%d" + ",%.17g" * (len(columns) - 1)
    lines = [",".join(header)]
    lines += [row_format % row for row in zip(*(col.tolist() for col in columns))]
    return "\n".join(lines) + "\n"


def _json_safe(obj):
    """Replace non-finite floats with the string literals inf/-inf/nan."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        val = float(obj)
        if math.isinf(val):
            return "inf" if val > 0 else "-inf"
        if math.isnan(val):
            return "nan"
        return val
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def cmd_report(cfg: RunConfig, out_path: str | None) -> int:
    scheme, x, names = _build_scheme(cfg)
    probe_kind = ENTANGLED_WITH_ANCILLA if cfg.probe == "entangled" else PURE_QUBIT
    r = np.asarray(cfg.r, dtype=float) if cfg.probe == "pure" else None
    report = build_report(scheme, x, probe_kind, r=r, parameter_names=names)
    document = {"version": __version__, "config": cfg.to_dict()}
    document.update(report.to_dict())
    _write_text(json.dumps(_json_safe(document), indent=2) + "\n", out_path)
    return 0

def cmd_sweep_alpha(cfg: RunConfig, out_path: str | None) -> int:
    alphas = np.linspace(0.0, np.pi, cfg.alpha_count)
    table = gap_profile(cfg.n_values, alphas, cfg.t, cfg.x_norm, cfg.dx_norm)
    columns = [table.n_segments, table.alpha, table.uncontrolled_max, table.controlled_limit,
               table.gap]
    _write_text(
        _csv(["N", "alpha", "uncontrolled_max", "controlled_limit", "gap"], columns), out_path
    )
    return 0


def cmd_curves(cfg: RunConfig, out_path: str | None) -> int:
    point = FieldPoint(cfg.B, cfg.theta, cfg.phi)
    table = precision_curves(point, cfg.t, cfg.n_max, cfg.controlled, cfg.probe)
    columns = [table.n_segments, table.total_time, table.delta_b, table.delta_theta,
               table.delta_phi]
    _write_text(_csv(["N", "T", "dB", "dtheta", "dphi"], columns), out_path)
    return 0


def cmd_verify(seed: int, samples: int, tolerance_scale: float, out_path: str | None) -> int:
    results = run_all(seed, samples, tolerance_scale)
    text = summarize(results, seed)
    _write_text(text, out_path)
    if out_path is not None:
        sys.stdout.write(text)
    return 0 if all(r.passed for r in results) else 1


def _add_override_flags(parser: argparse.ArgumentParser, names: list[str]):
    flag_kinds = {
        "scenario": dict(type=str),
        "B": dict(type=float),
        "theta": dict(type=float),
        "phi": dict(type=float),
        "t": dict(type=float),
        "N": dict(type=int),
        "mode": dict(type=str),
        "probe": dict(type=str),
        "r": dict(type=float, nargs=3),
        "control": dict(type=str),
        "x-tilde": dict(type=float, nargs="+"),
        "control-vector": dict(type=float, nargs=3),
        "n-values": dict(type=int, nargs="+"),
        "alpha-count": dict(type=int),
        "x-norm": dict(type=float),
        "dx-norm": dict(type=float),
        "n-max": dict(type=int),
        "controlled": dict(type=str, choices=["true", "false"]),
    }
    for name in names:
        parser.add_argument(f"--{name}", default=None, **flag_kinds[name])


def _collect_overrides(args: argparse.Namespace) -> dict:
    """Config fields given as flags; each flag's dest is its field name."""
    overrides = {}
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is None:
            continue
        if f.name == "controlled":
            value = value == "true"
        if isinstance(value, list):
            value = tuple(value)
        overrides[f.name] = value
    return overrides


# argparse's own negative-number test passes -0.5 but not -1e-05, -inf or -nan,
# which it takes for unknown options; every su2qfi option starts with --
_NEGATIVE_NUMBER = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        # one line like every other input error, not argparse's usage block;
        # the message quotes the offending token, which may hold line breaks
        self.exit(2, f"error[usage]: {self.prog}: {' '.join(message.split())}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="su2qfi",
        description="Quantum Fisher information for su(2) parametrization processes",
    )
    parser.add_argument("--config", default=None, help="flat JSON config file")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--seed", type=int, default=20220, help="seed for randomized suites")
    parser.add_argument("--samples", type=int, default=200, help="samples per randomized suite")
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="QFIM report as JSON")
    _add_override_flags(
        p_report,
        ["scenario", "B", "theta", "phi", "t", "N", "mode", "probe", "r", "control",
         "x-tilde", "control-vector"],
    )

    p_sweep = sub.add_parser("sweep-alpha", help="control-benefit landscape as CSV")
    _add_override_flags(p_sweep, ["n-values", "alpha-count", "t", "x-norm", "dx-norm"])

    p_curves = sub.add_parser("curves", help="precision-versus-time curves as CSV")
    _add_override_flags(p_curves, ["B", "theta", "phi", "t", "n-max", "controlled", "probe"])

    p_verify = sub.add_parser("verify", help="run oracle cross-check suites")
    p_verify.add_argument(
        "--tolerance-scale",
        type=float,
        default=1.0,
        help="multiply every suite tolerance (0 makes any deviation fail)",
    )
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    data = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:
                # malformed JSON, bytes that are not UTF-8, or an integer past
                # Python's int-string digit limit
                raise ConfigError("invalid-json", f"{args.config}: {exc}") from None
    if isinstance(data, dict):  # from_dict rejects anything else
        data.update(_collect_overrides(args))
    return RunConfig.from_dict(data)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            if args.samples < 1:
                raise ConfigError("invalid-sample-count", "--samples must be at least 1")
            if not args.tolerance_scale >= 0:
                raise ConfigError(
                    "invalid-tolerance-scale",
                    f"--tolerance-scale must be nonnegative, got {args.tolerance_scale}",
                )
            return cmd_verify(args.seed, args.samples, args.tolerance_scale, args.out)
        cfg = _load_config(args)
        # a value that leaves the float range raises instead of printing inf or nan
        with np.errstate(over="raise", invalid="raise"):
            if args.command == "report":
                return cmd_report(cfg, args.out)
            if args.command == "sweep-alpha":
                return cmd_sweep_alpha(cfg, args.out)
            if args.command == "curves":
                return cmd_curves(cfg, args.out)
        raise ConfigError("unknown-command", f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except Su2QfiError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # finite inputs whose results, such as the information (T |dX|)^2,
        # leave the float range
        print(f"error[overflow]: the result overflows double precision ({exc})", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a defect in su2qfi itself; 3 keeps it apart from bad input (2) and a
        # failed verify (1)
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{os.path.basename(frame.filename)}:{frame.lineno}"
        print(f"error[internal]: {exc!r} at {where}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
