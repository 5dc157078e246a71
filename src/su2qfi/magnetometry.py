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

from dataclasses import dataclass, replace

import numpy as np

from .errors import UnphysicalStateError
from .scheme import MERGED, SchemeConfig, design_control

PARAMETER_NAMES = ("B", "theta", "phi")


@dataclass(frozen=True)
class FieldPoint:
    """Magnitude and direction of the static field."""

    B: float
    theta: float
    phi: float

    def __post_init__(self):
        if not self.B > 0:
            raise UnphysicalStateError("field magnitude B must be positive")
        if not 0.0 <= self.theta <= np.pi:
            raise UnphysicalStateError("theta must lie in [0, pi]")
        if not 0.0 <= self.phi < 2.0 * np.pi:
            raise UnphysicalStateError("phi must lie in [0, 2*pi)")

    def as_array(self) -> np.ndarray:
        return np.array([self.B, self.theta, self.phi])


# the axes from bare angles: the coefficient maps take a raw (B, theta, phi)
# array, which finite differences may step outside the ranges FieldPoint enforces
def _axes(theta, phi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    n0 = np.array([st * cp, st * sp, ct])
    n0_theta = np.array([ct * cp, ct * sp, -st])
    n0_phi = np.array([-st * sp, st * cp, 0.0])
    return n0, n0_theta, n0_phi


def _coefficients(x: np.ndarray) -> np.ndarray:
    b, theta, phi = x
    return 2.0 * b * _axes(theta, phi)[0]


def _partials(x: np.ndarray) -> np.ndarray:
    b, theta, phi = x
    n0, n0_theta, n0_phi = _axes(theta, phi)
    return np.vstack([2.0 * n0, 2.0 * b * n0_theta, 2.0 * b * n0_phi])


def magnetometry_scheme(
    p: FieldPoint,
    segment_time: float = 1.0,
    segment_count: int = 1,
    control: str | np.ndarray = "none",
    x_tilde=None,
    mode: str = MERGED,
) -> SchemeConfig:
    """Sequential scheme for the (B, theta, phi) estimation problem.

    ``control`` is ``"none"``, ``"optimal"`` (negate the coefficients at
    ``x_tilde``, default the field point itself), or an explicit 3-vector.
    """
    scheme = SchemeConfig(
        coefficients=_coefficients,
        partials=_partials,
        n_params=3,
        segment_time=segment_time,
        segment_count=segment_count,
        mode=mode,
    )
    if isinstance(control, str):
        if control == "none":
            return scheme
        if control != "optimal":
            raise ValueError(f"unknown control kind {control!r}")
        control = design_control(scheme, p.as_array() if x_tilde is None else x_tilde)
    return replace(scheme, control=control)


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
    """Precision-versus-time curves, one equal-length 1-D array per column.

    ``attainable`` holds for the whole table: it depends only on the probe.
    """

    n_segments: np.ndarray
    total_time: np.ndarray
    delta_b: np.ndarray
    delta_theta: np.ndarray
    delta_phi: np.ndarray
    attainable: bool


def precision_curves(
    p: FieldPoint,
    segment_time: float,
    n_max: int,
    controlled: bool,
    probe: str = "entangled",
) -> CurveTable:
    """Best single-shot standard deviations against segment count.

    Deviations are 1/sqrt of the optimal QFIM diagonal; entries with zero
    information (oscillation nulls, azimuth at a pole) are reported as
    infinite rather than raising.  Rows from the entangled probe are
    simultaneously attainable; pure-qubit rows are not.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if probe not in ("pure", "entangled"):
        raise ValueError(f"unknown probe kind {probe!r}")
    n = np.arange(1, n_max + 1)
    total_time = n * segment_time
    info = _qfim_diagonal(p, total_time, controlled)
    with np.errstate(divide="ignore"):
        dev = np.where(info > 0.0, 1.0 / np.sqrt(info), np.inf)
    return CurveTable(n, total_time, dev[0], dev[1], dev[2], attainable=probe == "entangled")
