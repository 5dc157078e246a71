"""Command-line front end.

Four subcommands:

    report       QFIM report for one configuration, as JSON
    sweep-alpha  control-benefit landscape over the effectiveness angle, as CSV
    curves       precision-versus-time curves for the magnetometry example, as CSV
    verify       randomized oracle cross-check suites, pass/fail summary

Configuration comes from a single flat JSON document (``--config``) with
per-field flag overrides; ``--config``, ``--out``, ``--seed`` and
``--samples`` are the only global flags.  Exit codes: 0 success, 1
verification failure, 2 invalid input, 3 an internal error.  Every CSV
cell, the count N included, is byte-identical to Python's ``'%.17g'`` of a
double: 17 significant digits, round-trip exact, with inf/-inf/nan as
literals.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import stat
import sys
import traceback
from dataclasses import asdict, dataclass, fields, replace
from functools import cache

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


def _sequence(item, length: int | None = None):
    def check(name: str, value) -> tuple:
        if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
            size = "" if length is None else f" of {length} entries"
            raise ConfigError("invalid-vector", f"{name} must be a list{size}, got {value!r}")
        return tuple(item(f"{name}[{i}]", v) for i, v in enumerate(value))
    return check


_VEC3 = _sequence(_number, 3)
_NUMBERS = _sequence(_number)
_COUNTS = _sequence(_count)

# type and shape of every field that is not a string, checked by from_dict;
# every number must also be finite
_FIELD_TYPES = {
    **dict.fromkeys(("B", "theta", "phi", "t", "x_norm", "dx_norm"), _number),
    **dict.fromkeys(("N", "alpha_count", "n_max"), _count),
    **dict.fromkeys(("x0", "r", "control_vector"), _VEC3),
    **dict.fromkeys(("x", "x_tilde"), _NUMBERS),
    "gradients": _sequence(_VEC3),
    "n_values": _COUNTS,
    "controlled": _boolean,
}

# largest count a float64 holds exactly; past it numpy's arange and linspace
# overflow, an n_values entry loses its value in the float grid and the CSV
# formatter, which prints a count as a double, no longer prints its '%d',
# while a smaller grid too large to allocate raises MemoryError
_MAX_GRID_SIZE = 2**53

# the argparse form of each field type that has a flag; an untyped field is a string
_FLAG_FORMS = {
    _number: dict(type=float),
    _count: dict(type=int),
    _VEC3: dict(type=float, nargs=3),
    _NUMBERS: dict(type=float, nargs="+"),
    _COUNTS: dict(type=int, nargs="+"),
    _boolean: dict(type=str, choices=["true", "false"]),
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
        for name, size in (("n_max", self.n_max), ("alpha_count", self.alpha_count),
                           ("n_values", max(self.n_values))):
            if size > _MAX_GRID_SIZE:
                raise ConfigError("grid-too-large", f"{name} must not exceed 2**53, got {size}")
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
        return asdict(self)

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
        scheme = replace(scheme, control=design_control(scheme.coefficients, cfg.x_tilde or x))
    return scheme, x, names


def _write_text(text: str, out_path: str | None):
    """Print ``text``, or write its UTF-8 bytes to ``out_path``.

    The file is rewritten in place and cut to the written length; a file
    that is not regular, such as a FIFO, ``/dev/null`` or a terminal, is not
    cut.  Any exception during the write or the cut, ``KeyboardInterrupt``
    included, cuts a regular file to zero.  A crash between the write and
    the cut, or before the data reach the disk, can leave rows of the
    earlier table.  ``tools/out_write_cost.py`` prices the rewrite.
    """
    if out_path is None:
        sys.stdout.write(text)
        return
    data = memoryview(text.encode("utf-8"))
    # O_BINARY, where it exists, keeps os.write from translating newlines
    fd = os.open(out_path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            written = 0
            while written < len(data):
                written += os.write(fd, data[written:])
            if regular:
                os.ftruncate(fd, written)
        except BaseException:
            if regular:
                with contextlib.suppress(OSError):
                    os.ftruncate(fd, 0)
            raise
    finally:
        os.close(fd)


# --- CSV formatting ---------------------------------------------------------
#
# A table is formatted _CSV_BLOCK_ROWS rows at a time, with numpy arithmetic
# instead of one Python format call per cell.  Every cell, led by its
# separator, is laid out right-aligned in a 32-byte slot of four
# little-endian uint64 words, padded with NUL bytes that are dropped at the
# end.  The slot of a value that %.17g prints in fixed notation is built
# from its decimal digits and a template; any other value goes through
# '%.17g' itself.

_CSV_BLOCK_ROWS = 512  # bounds the formatter's working set
_SLOT = 32
_DIGITS_AT = 15  # a value's 17 significant digits fill bytes 15..31 of its slot
_FIXED_X = range(-4, 17)  # the decimal exponents %.17g prints in fixed notation
_BYTE, _SEVEN_BYTES, _HALF_WORD = np.uint64(8), np.uint64(56), np.uint64(32)


def _slot_words(slots: list[bytes]) -> np.ndarray:
    """Slots of _SLOT bytes as the columns of a (4, len(slots)) uint64 array."""
    return np.frombuffer(b"".join(slots), dtype="<u8").reshape(len(slots), 4).T.copy()


def _mask(where: range) -> bytes:
    return bytes(where.start) + b"\xff" * len(where) + bytes(_SLOT - where.stop)


def _cell_templates() -> np.ndarray:
    """The slot words of every template.

    Rows 0-3 hold the constant bytes (lead, sign, leading zeros, point),
    rows 4-7 the mask of the digits taken where they lie and rows 8-11 the
    mask of those taken shifted down one byte, which makes room for the
    point.  Template 21 k + X + 4 has the k-th of the prefixes ',', ',-',
    newline and newline-minus, the decimal exponent X and 16 - X digits
    after the point.
    """
    consts, digit_masks, shifted_masks = [], [], []

    def template(prefix: bytes, digits: range, shifted: range = range(0), point=None):
        const = bytearray(_SLOT)
        first = shifted.start if shifted else digits.start
        const[first - len(prefix):first] = prefix
        if point is not None:
            const[point] = ord(".")
        consts.append(bytes(const))
        digit_masks.append(_mask(digits))
        shifted_masks.append(_mask(shifted))

    for prefix in (b",", b",-", b"\n", b"\n-"):
        for x in _FIXED_X:
            if x < 0:
                template(prefix + b"0." + b"0" * (-x - 1), range(_DIGITS_AT, _SLOT))
            elif x == 16:
                template(prefix, range(_DIGITS_AT, _SLOT))
            else:
                point = _DIGITS_AT + x
                template(prefix, range(point + 1, _SLOT), range(_DIGITS_AT - 1, point), point)
    return np.concatenate([_slot_words(slots) for slots in (consts, digit_masks, shifted_masks)])


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The four ASCII digits of 0..9999 as uint64, and their trailing zeros."""
    # uint16 and uint8 temporaries: this runs at import, where a peak counts
    # in every process's resident set
    i = np.arange(10**4, dtype=np.uint16)
    digits = np.empty((10**4, 4), np.uint8)
    trailing = np.zeros(10**4, np.uint8)
    for j in range(4):
        digits[:, 3 - j] = i // 10**j % 10 + ord("0")
        trailing += i % 10 ** (j + 1) == 0
    return digits.view("<u4").ravel().astype(np.uint64), trailing


_TEMPLATES = _cell_templates()
_QUADS, _TRAILING_ZEROS = _digit_tables()
# keep-masks that clear the last t bytes of a slot, t = 0..17
_TAILS = _slot_words([b"\xff" * (_SLOT - t) + bytes(t) for t in range(18)])


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of a into two halves of 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_SCALES = 10.0 ** np.arange(21, -1, -1)  # 10**(16 - x) for x = -5..16, all exact
_SCALES_HI, _SCALES_LO = _split(_SCALES)


def _scaled(a: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**(16 - x) exactly, as p + e with p its rounding (Dekker's product)."""
    i = x + 5
    hi, lo = _split(a)
    p = a * _SCALES[i]
    b_hi, b_lo = _SCALES_HI[i], _SCALES_LO[i]
    return p, ((hi * b_hi - p) + hi * b_lo + lo * b_hi) + lo * b_lo


def _significands(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17-digit significand D and decimal exponent X of each a in
    [1e-4, 1e17), with a rounded half to even to D * 10**(X - 16).

    No double in that range lies within half a unit of the 17th digit below
    a power of ten, so the rounding never carries into an 18th digit.
    """
    x = np.minimum(np.floor(np.log10(a)), 16).astype(np.intp)
    p, e = _scaled(a, x)
    # log10 may be one off next to a power of ten: move x until the exact
    # product lies in [1e16, 1e17)
    move = ((p - 1e17) + e >= 0).astype(np.intp) - ((p - 1e16) + e < 0)
    moved = np.flatnonzero(move)
    if moved.size:
        x[moved] += move[moved]
        p[moved], e[moved] = _scaled(a[moved], x[moved])
    # p >= 1e16 > 2**53 is an even integer and |e| at most half its ulp, so
    # p + rint(e) is the exact product rounded half to even
    return p.astype(np.int64) + np.rint(e).astype(np.int64), x


def _csv_block(block: np.ndarray) -> bytes:
    """CSV bytes of a (columns, rows) block of doubles, each row led by its
    newline; the cells run in column-major order until the final transpose."""
    rows = block.shape[1]
    values = block.ravel()
    a = np.abs(values)
    fixed = (a >= 1e-4) & (a < 1e17)  # the values %.17g prints in fixed notation
    d, x = _significands(np.where(fixed, a, 1.0))
    template = (values < 0) * len(_FIXED_X) + x - _FIXED_X.start
    template[:rows] += 2 * len(_FIXED_X)  # the first column leads with the newline
    # the 17 digits of d as one digit and four groups of four
    # (numpy divides an integer array by a constant faster than it takes %)
    top = d // 10**16
    rest = d - top * 10**16
    hi = rest // 10**8
    lo = rest - hi * 10**8
    q1, q3 = hi // 10**4, lo // 10**4
    q2, q4 = hi - q1 * 10**4, lo - q3 * 10**4
    trailing = _TRAILING_ZEROS[q4]
    more = np.flatnonzero(q4 == 0)
    for q in (q3, q2, q1):
        trailing[more] += _TRAILING_ZEROS[q[more]]
        more = more[q[more] == 0]
    fraction = 16 - x
    strip = np.minimum(trailing, fraction)
    strip += (strip == fraction) & (fraction > 0)  # no digits after the point: drop it
    # the digits fill bytes 15..31 of the slot, words 1-3; a shift down one
    # byte takes the low byte of the next word into the top of each
    w1 = _QUADS[top] << _HALF_WORD
    w2 = _QUADS[q1] | _QUADS[q2] << _HALF_WORD
    w3 = _QUADS[q3] | _QUADS[q4] << _HALF_WORD
    t = _TEMPLATES.take(template, axis=1)
    out = t[0:4]
    out[1] |= w1 & t[5] | (w1 >> _BYTE | w2 << _SEVEN_BYTES) & t[9]
    out[2] |= w2 & t[6] | (w2 >> _BYTE | w3 << _SEVEN_BYTES) & t[10]
    out[3] |= w3 & t[7] | w3 >> _BYTE & t[11]
    out &= _TAILS.take(strip, axis=1)
    other = np.flatnonzero(~fixed)
    if other.size:
        text = [(b"\n%.17g" if i < rows else b",%.17g") % v
                for i, v in zip(other.tolist(), values[other].tolist())]
        out[:, other] = _slot_words([s.ljust(_SLOT, b"\0") for s in text])
    slots = np.ascontiguousarray(out.reshape(4, -1, rows).T, dtype="<u8").view(np.uint8)
    return slots[slots != 0].tobytes()


def _csv(header: list[str], columns: list[np.ndarray]) -> str:
    """CSV text of columns of doubles, the first a column of counts.

    Every cell is byte-identical to Python's ``'%.17g'``: 17 significant
    digits, round-trip exact, with the non-finite values as the literals
    inf/-inf/nan.  A count must satisfy |count| <= 2**53, the
    ``_MAX_GRID_SIZE`` bound, where its double's ``'%.17g'`` is its ``'%d'``.
    """
    table = np.array(columns, dtype=np.float64)
    parts = [",".join(header).encode()]
    for start in range(0, table.shape[1], _CSV_BLOCK_ROWS):
        parts.append(_csv_block(table[:, start:start + _CSV_BLOCK_ROWS]))
    parts.append(b"\n")
    return b"".join(parts).decode("ascii")


def _json_safe(obj):
    """Replace non-finite floats with the string literals inf/-inf/nan."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else "inf" if obj > 0 else "-inf"
    return obj


def cmd_report(cfg: RunConfig) -> str:
    scheme, x, names = _build_scheme(cfg)
    probe_kind = ENTANGLED_WITH_ANCILLA if cfg.probe == "entangled" else PURE_QUBIT
    r = np.asarray(cfg.r, dtype=float) if cfg.probe == "pure" else None
    report = build_report(scheme, x, probe_kind, r=r, parameter_names=names)
    document = {"version": __version__, "config": cfg.to_dict()}
    document.update(report.to_dict())
    return json.dumps(_json_safe(document), indent=2) + "\n"


def cmd_sweep_alpha(cfg: RunConfig) -> str:
    alphas = np.linspace(0.0, np.pi, cfg.alpha_count)
    table = gap_profile(cfg.n_values, alphas, cfg.t, cfg.x_norm, cfg.dx_norm)
    columns = [table.n_segments, table.alpha, table.uncontrolled_max, table.controlled_limit,
               table.gap]
    return _csv(["N", "alpha", "uncontrolled_max", "controlled_limit", "gap"], columns)


def cmd_curves(cfg: RunConfig) -> str:
    point = FieldPoint(cfg.B, cfg.theta, cfg.phi)
    table = precision_curves(point, cfg.t, cfg.n_max, cfg.controlled)
    columns = [table.n_segments, table.total_time, table.delta_b, table.delta_theta,
               table.delta_phi]
    return _csv(["N", "T", "dB", "dtheta", "dphi"], columns)


def cmd_verify(seed: int, samples: int, tolerance_scale: float) -> tuple[str, int]:
    """The summary and the exit status: 1 if any check failed."""
    results = run_all(seed, samples, tolerance_scale)
    return summarize(results, seed), 0 if all(r.passed for r in results) else 1


def _add_override_flags(parser: argparse.ArgumentParser, names: list[str]):
    for name in names:
        kind = _FIELD_TYPES.get(name.replace("-", "_"))
        parser.add_argument(f"--{name}", default=None, **_FLAG_FORMS.get(kind, dict(type=str)))


def _collect_overrides(args: argparse.Namespace) -> dict:
    """Config fields given as flags; each flag's dest is its field name."""
    overrides = {}
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is None:
            continue
        if f.name == "controlled":
            value = value == "true"
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


@cache
def build_parser() -> argparse.ArgumentParser:
    """The su2qfi argument parser, built once per process and shared by
    every ``main`` call.

    Sharing is safe only while the parser stays stateless: ``parse_args``
    fills a fresh Namespace on every call, so no flag may carry a mutable
    default or an action that writes into the parser.
    """
    parser = _Parser(
        prog="su2qfi",
        description="Quantum Fisher information for su(2) parametrization processes",
    )
    parser.add_argument("--config", default=None, help="flat JSON config file")
    parser.add_argument(
        "--out", default=None, help="output path (default stdout; verify also prints its summary)"
    )
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
            if args.seed < 0:
                raise ConfigError("invalid-seed", f"--seed must be nonnegative, got {args.seed}")
            if args.samples < 1:
                raise ConfigError("invalid-sample-count", "--samples must be at least 1")
            if not args.tolerance_scale >= 0:
                raise ConfigError(
                    "invalid-tolerance-scale",
                    f"--tolerance-scale must be nonnegative, got {args.tolerance_scale}",
                )
            text, status = cmd_verify(args.seed, args.samples, args.tolerance_scale)
        else:
            # looked up per call, so a replaced cmd_* function is the one that runs
            command = {"report": cmd_report, "sweep-alpha": cmd_sweep_alpha, "curves": cmd_curves}
            cfg = _load_config(args)
            # a value that leaves the float range raises instead of printing inf or nan
            with np.errstate(over="raise", invalid="raise"):
                text, status = command[args.command](cfg), 0
        _write_text(text, args.out)
        if args.command == "verify" and args.out is not None:
            sys.stdout.write(text)
        return status
    except (ConfigError, Su2QfiError) as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # finite inputs whose results, such as the information (T |dX|)^2,
        # leave the float range
        print(f"error[overflow]: the result overflows double precision ({exc})", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error[out-of-memory]: the output does not fit in memory ({exc})", file=sys.stderr)
        return 2
    except Exception as exc:
        # a defect in su2qfi itself; 3 keeps it apart from bad input (2) and a
        # failed verify (1)
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{os.path.basename(frame.filename)}:{frame.lineno}"
        print(f"error[internal]: {exc!r} at {where}", file=sys.stderr)
        return 3

