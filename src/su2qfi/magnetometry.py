"""Spin-1/2 magnetometry: estimating a static field's magnitude and direction.

The Hamiltonian is H = B n0.sigma = 2B n0.J with the field axis
n0 = (sin(theta) cos(phi), sin(theta) sin(phi), cos(theta)).  The coefficient
vector and its partials are

    X = 2B n0,   dX/dB = 2 n0,   dX/dtheta = 2B n0',   dX/dphi = 2B n0'',

where n0' is the colatitude tangent and n0'' = sin(theta) m the azimuth
tangent.  B is the colinear parameter (angle 0 between X and its partial):
control cannot improve it.  theta and phi sit at angle pi/2: with the
negating control their information grows like T^2 instead of oscillating.

The example is a scheme like any other: this module holds the coefficient
map, its partials and ``magnetometry_scheme``.  Generators, QFIMs and
weak-commutation residuals come from the generic machinery
(``qfi.scheme_generators``, ``qfi.build_report``, ``qfi.weak_comm_matrix``);
the tests pin them to the paper's closed forms, for example the optimal QFIM
diag(4T^2, 4 sin^2(BT), 4 sin^2(BT) sin^2(theta)) without control.  The one
closed form kept here is that diagonal as an array expression over time,
behind ``precision_curves``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnphysicalStateError
from .scheme import MERGED, SchemeConfig, check_segment_count, check_segment_time, design_control

PARAMETER_NAMES = ("B", "theta", "phi")


@dataclass(frozen=True)
class FieldPoint:
    """Magnitude and direction of the static field."""

    B: float
    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 < self.B < math.inf:
            raise UnphysicalStateError(f"field magnitude B = {self.B} must be positive and finite")
        if not 0.0 <= self.theta <= np.pi:
            raise UnphysicalStateError("theta must lie in [0, pi]")
        if not 0.0 <= self.phi < 2.0 * np.pi:
            raise UnphysicalStateError("phi must lie in [0, 2*pi)")

    def as_array(self) -> np.ndarray:
        return np.array([self.B, self.theta, self.phi])


# the coefficient maps take a raw (B, theta, phi) array, which finite
# differences may step outside the ranges FieldPoint enforces; everything is
# Python floats until the one array at the end
def _field(x: np.ndarray) -> tuple[float, float, float, float, float]:
    """2B and the sines and cosines of theta and phi."""
    b, theta, phi = x.tolist()
    b2 = 2.0 * b
    if not math.isfinite(b2):  # a Python float overflows to inf without a warning
        raise OverflowError(f"the coefficient scale 2B = 2 * {b!r} is not finite")
    return b2, math.sin(theta), math.cos(theta), math.sin(phi), math.cos(phi)


def _coefficients(x: np.ndarray) -> np.ndarray:
    b2, st, ct, sp, cp = _field(x)
    return np.array([b2 * (st * cp), b2 * (st * sp), b2 * ct])


def _partials(x: np.ndarray) -> np.ndarray:
    b2, st, ct, sp, cp = _field(x)
    return np.array(
        [
            [2.0 * (st * cp), 2.0 * (st * sp), 2.0 * ct],
            [b2 * (ct * cp), b2 * (ct * sp), b2 * -st],
            [b2 * (-st * sp), b2 * (st * cp), b2 * 0.0],
        ]
    )


def magnetometry_scheme(
    p: FieldPoint,
    segment_time: float = 1.0,
    segment_count: int = 1,
    control: str = "none",
    x_tilde=None,
    mode: str = MERGED,
) -> SchemeConfig:
    """Sequential scheme for the (B, theta, phi) estimation problem.

    ``control`` is ``"none"`` or ``"optimal"`` (negate the coefficients at
    ``x_tilde``, default the field point itself).  A custom control vector v
    is ``dataclasses.replace(scheme, control=v)``.
    """
    if control == "optimal":
        control = design_control(_coefficients, p.as_array() if x_tilde is None else x_tilde)
    elif control == "none":
        control = np.zeros(3)
    else:
        raise ValueError(f"unknown control kind {control!r}")
    return SchemeConfig(
        coefficients=_coefficients,
        partials=_partials,
        n_params=3,
        control=control,
        segment_time=segment_time,
        segment_count=segment_count,
        mode=mode,
    )


def _qfim_diagonal(p: FieldPoint, total_time, controlled: bool) -> np.ndarray:
    """Optimal QFIM diagonal (B, theta, phi) at each total time, shape (3, *T.shape).

    The B entry is 4T^2 either way.  The angular entries are 4 sin^2(BT)
    without control and 4(BT)^2 with it, the azimuth one times sin^2(theta).
    """
    total_time = np.asarray(total_time, dtype=float)
    bt = p.B * total_time
    angular = 4.0 * (bt**2 if controlled else np.sin(bt) ** 2)
    return np.array([4.0 * total_time**2, angular, angular * np.sin(p.theta) ** 2])


@dataclass(frozen=True, eq=False)
class CurveTable:
    """Precision-versus-time curves, one equal-length 1-D array per column."""

    n_segments: np.ndarray
    total_time: np.ndarray
    delta_b: np.ndarray
    delta_theta: np.ndarray
    delta_phi: np.ndarray


def precision_curves(
    p: FieldPoint,
    segment_time: float,
    n_max: int,
    controlled: bool,
) -> CurveTable:
    """Best single-shot standard deviations against segment count.

    Deviations are 1/sqrt of the optimal QFIM diagonal; entries with zero
    information (oscillation nulls, azimuth at a pole) are reported as
    infinite rather than raising; information that overflows double precision
    raises ``OverflowError``.  Each entry is attainable on its own with either
    probe; only the entangled probe attains all three at once.  A segment
    time that is not a finite, positive number, or an ``n_max`` that is not
    an integer of at least 1, raises ``ValueError``.
    """
    check_segment_time(segment_time)
    check_segment_count(n_max)
    n = np.arange(1, n_max + 1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked below instead
        total_time = n * segment_time
        info = _qfim_diagonal(p, total_time, controlled)
        dev = np.where(info > 0.0, 1.0 / np.sqrt(info), np.inf)
    if not np.isfinite(info).all():
        raise OverflowError(f"the information up to T = {total_time[-1]:g} overflows")
    return CurveTable(n, total_time, dev[0], dev[1], dev[2])
