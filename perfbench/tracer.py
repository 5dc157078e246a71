"""Per-layer spans recorded from outside the library.

The tracer wraps the public functions of each su2qfi module at every
namespace that binds them (the defining module, modules that imported the
name, the package namespace and module-level tuples such as
``verify.ALL_SUITES``), so a call is recorded however the library reaches
it.  ``SchemeConfig`` construction is recorded by wrapping
``__post_init__``.  Spans live in memory and are written out once, at the
end of a run.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

# The layers are the package modules; ``errors`` and ``tolerances`` do no work.
LAYERS = {
    "algebra": ("su2_exp", "angle_between", "density"),
    "generators": ("closed_form_generator", "series_generator", "numeric_generator"),
    "scheme": ("SchemeConfig", "build_total_unitary", "gap_profile"),
    "qfi": (
        "build_report",
        "scheme_generators",
        "qfim_pure",
        "qfi_max",
        "qfi_max_from_angle",
        "entangled_weak_comm",
    ),
    "oracles": ("entangled_qfim_fd", "qfim_trace_oracle", "sld_oracle", "entangled_qfi_oracle"),
    "magnetometry": ("magnetometry_scheme", "precision_curves"),
    "verify": (
        "run_all",
        "generator_three_way",
        "qfim_oracle_equivalence",
        "entangled_probe_suite",
        "sld_identity_suite",
        "trotter_gap_suite",
    ),
    "cli": ("main", "build_parser", "cmd_sweep_alpha", "cmd_curves"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


def layer_metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = [f"{span}.{kind}" for span in SPAN_NAMES for kind in ("calls", "self_us")]
    return names + [
        "generators.series_generator.refused_ratio",
        "qfi.build_report.warnings",
        "trace.overhead_ratio",
    ]


class Tracer:
    """Span recorder plus the bindings that route library calls through it."""

    def __init__(self):
        self.op_id = -1
        self.calls = [0] * len(SPAN_NAMES)
        self.self_s = [0.0] * len(SPAN_NAMES)
        self.raised: dict[tuple[str, str], int] = {}
        self.warnings = 0
        self._stack: list[list] = []  # [name index, span id, child seconds]
        self._next_id = 0
        self._report_index = SPAN_NAMES.index("qfi.build_report")
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self._patches = self._bindings()

    def _wrap(self, fn, index: int):
        stack = self._stack
        name = SPAN_NAMES[index]

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            sid = self._next_id
            self._next_id = sid + 1
            frame = [index, sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                key = (name, type(exc).__name__)
                self.raised[key] = self.raised.get(key, 0) + 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self.calls[index] += 1
                self.self_s[index] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                self.span_id.append(sid)
                self.span_parent.append(parent)
                self.span_op.append(self.op_id)
                self.span_name.append(index)
                self.span_start.append(start)
                self.span_end.append(end)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def _bindings(self) -> list[tuple[object, str, object, object]]:
        """(holder, attribute, original, wrapped) for every binding of a target."""
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "su2qfi" or name.startswith("su2qfi."))
        ]
        wrapped: dict[int, object] = {}  # id(original) -> wrapper, which keeps it alive
        patches = []
        for index, span in enumerate(SPAN_NAMES):
            mod_name, fn_name = span.split(".")
            home = sys.modules[f"su2qfi.{mod_name}"]
            target = getattr(home, fn_name)
            if isinstance(target, type):  # a dataclass: record construction
                post_init = target.__dict__["__post_init__"]
                patches.append((target, "__post_init__", post_init, self._wrap(post_init, index)))
                continue
            wrapped[id(target)] = self._wrap(target, index)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    patches.append((module, attr, value, wrapped[id(value)]))
                elif isinstance(value, tuple) and any(id(v) in wrapped for v in value):
                    swapped = tuple(wrapped.get(id(v), v) for v in value)
                    patches.append((module, attr, value, swapped))
        return patches

    def __enter__(self):
        for holder, attr, _, new in self._patches:
            setattr(holder, attr, new)
        return self

    def __exit__(self, *exc):
        for holder, attr, old, _ in self._patches:
            setattr(holder, attr, old)
        return False

    def on_warning(self):
        """Count a RuntimeWarning raised while ``build_report`` is running."""
        if any(frame[0] == self._report_index for frame in self._stack):
            self.warnings += 1

    def metrics(self, traced_ops: int, traced_s: float, untraced_s: float) -> dict[str, float]:
        """Per-op calls and self time per span, plus the three derived ratios."""
        out = {}
        for index, span in enumerate(SPAN_NAMES):
            out[f"{span}.calls"] = self.calls[index] / traced_ops
            out[f"{span}.self_us"] = self.self_s[index] * 1e6 / traced_ops
        refused, attempts = self.series_base()
        out["generators.series_generator.refused_ratio"] = refused / attempts if attempts else 0.0
        out["qfi.build_report.warnings"] = self.warnings / traced_ops
        out["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
        return out

    def series_base(self) -> tuple[int, int]:
        """(refusals, attempts) behind ``refused_ratio``."""
        attempts = self.calls[SPAN_NAMES.index("generators.series_generator")]
        refused = self.raised.get(("generators.series_generator", "SeriesDepthError"), 0)
        return refused, attempts

    def save(self, path) -> None:
        """Write every span recorded in this run to one compressed archive."""
        np.savez_compressed(
            path,
            names=np.array(SPAN_NAMES),
            span_id=np.frombuffer(self.span_id, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int64),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
