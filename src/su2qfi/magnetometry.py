"""Spin-1/2 magnetometry: estimating a static field's magnitude and direction.

The Hamiltonian is H = B n0.sigma = 2B n0.J with the field axis
n0 = (sin(theta) cos(phi), sin(theta) sin(phi), cos(theta)).  The coefficient
vector and its partials are

    X = 2B n0,   dX/dB = 2 n0,   dX/dtheta = 2B n0',   dX/dphi = 2B n0'',

where n0' is the colatitude tangent and n0'' = sin(theta) m the azimuth
tangent.  B is the colinear parameter (angle 0 between X and its partial):
control cannot improve it.  theta and phi sit at angle pi/2: with the
negating control their information grows like T^2 instead of oscillating.

A generator is its coefficient vector Y (H = Y.J), as everywhere in the
package.  All closed forms in this module are specializations of the generic
generator/QFI machinery and are cross-checked against it in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import algebra
from .errors import UnphysicalStateError
from .oracles import qfim_trace_oracle
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


# the axes from bare angles: the scheme's coefficient maps take a raw
# (B, theta, phi) array, and their finite-difference check steps outside the
# ranges FieldPoint enforces
def _axes(theta, phi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    n0 = np.array([st * cp, st * sp, ct])
    n0_theta = np.array([ct * cp, ct * sp, -st])
    n0_phi = np.array([-st * sp, st * cp, 0.0])
    return n0, n0_theta, n0_phi


def field_axes(p: FieldPoint) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n0, n0', n0'') - the field axis and its two angular tangents.

    n0 and n0' are unit vectors; |n0''| = sin(theta), vanishing at the poles
    where the azimuth is unidentifiable.
    """
    return _axes(p.theta, p.phi)


def _azimuth_unit(p: FieldPoint) -> np.ndarray:
    """Unit azimuth tangent m = n0''/sin(theta), finite at the poles."""
    return np.array([-np.sin(p.phi), np.cos(p.phi), 0.0])


def field_coefficients(p: FieldPoint) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(X, dX/dB, dX/dtheta, dX/dphi) at the field point."""
    n0, n0_theta, n0_phi = field_axes(p)
    return 2.0 * p.B * n0, 2.0 * n0, 2.0 * p.B * n0_theta, 2.0 * p.B * n0_phi


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
        validation_points=(p.as_array(),),
    )
    if isinstance(control, str):
        if control == "none":
            return scheme
        if control != "optimal":
            raise ValueError(f"unknown control kind {control!r}")
        control = design_control(scheme, p.as_array() if x_tilde is None else x_tilde)
    # the partials were checked above; the control does not change them
    return replace(scheme, control=control, validation_points=())


def generators_no_control(p: FieldPoint, total_time: float) -> np.ndarray:
    """Closed-form generators Y_B, Y_theta, Y_phi with no control applied, one row each.

    Their norms are (2T, 2|sin(BT)|, 2|sin(BT)| sin(theta)); the angular
    generators rotate with BT in the plane spanned by the two tangents.
    """
    n0, n0_theta, _ = field_axes(p)
    m = _azimuth_unit(p)
    bt = p.B * total_time
    cbt, sbt = np.cos(bt), np.sin(bt)
    st = np.sin(p.theta)
    return np.array(
        [
            -2.0 * total_time * n0,
            2.0 * sbt * (-cbt * n0_theta + sbt * m),
            2.0 * st * sbt * (-cbt * m - sbt * n0_theta),
        ]
    )


def generators_controlled(p: FieldPoint, total_time: float) -> np.ndarray:
    """Generators under the optimal negating control: -T dX for each parameter."""
    return -total_time * np.array(field_coefficients(p)[1:])


def _qfim_diagonal(p: FieldPoint, total_time, controlled: bool) -> np.ndarray:
    """Optimal QFIM diagonal (B, theta, phi) at each total time, shape (3, *T.shape).

    The B entry is 4T^2 either way.  The angular entries are 4 sin^2(BT)
    without control and 4(BT)^2 with it, the azimuth one times sin^2(theta).
    """
    total_time = np.asarray(total_time, dtype=float)
    bt = p.B * total_time
    angular = 4.0 * (bt**2 if controlled else np.sin(bt) ** 2)
    return np.array([4.0 * total_time**2, angular, angular * np.sin(p.theta) ** 2])


def qfim_no_control(p: FieldPoint, total_time: float) -> np.ndarray:
    """Optimal QFIM without control: diag(4T^2, 4 sin^2(BT), 4 sin^2(BT) sin^2(theta)).

    The angular entries oscillate with BT and stay bounded no matter how long
    the evolution runs.
    """
    return np.diag(_qfim_diagonal(p, total_time, controlled=False))


def qfim_controlled(p: FieldPoint, total_time: float) -> np.ndarray:
    """Optimal QFIM with negating control: diag(4T^2, 4(BT)^2, 4(BT)^2 sin^2(theta)).

    The B entry is unchanged by the control; the angular entries trade their
    oscillation for quadratic growth in T.
    """
    return np.diag(_qfim_diagonal(p, total_time, controlled=True))


@dataclass(frozen=True)
class PairResiduals:
    """Weak-commutation traces for the three parameter pairs."""

    b_theta: complex
    b_phi: complex
    theta_phi: complex

    def as_tuple(self) -> tuple[complex, complex, complex]:
        return (self.b_theta, self.b_phi, self.theta_phi)


def weak_comm_example(
    p: FieldPoint, total_time: float, r, controlled: bool = False
) -> PairResiduals:
    """Closed-form weak-commutation residuals for the three pairs.

    Without control the residuals project r onto the rotating generator axes;
    with control they project r onto the fixed frame (n0, n0', m).  Both sets
    vanish only where r is orthogonal to the respective axis, which cannot
    hold for all three at once with a unit r.
    """
    r = algebra.check_bloch(r)
    n0, n0_theta, _ = field_axes(p)
    m = _azimuth_unit(p)
    st = np.sin(p.theta)
    if controlled:
        b = p.B
        t2 = total_time**2
        return PairResiduals(
            b_theta=2j * t2 * b * float(np.dot(m, r)),
            b_phi=-2j * t2 * b * st * float(np.dot(n0_theta, r)),
            theta_phi=2j * t2 * b**2 * st * float(np.dot(n0, r)),
        )
    bt = p.B * total_time
    cbt, sbt = np.cos(bt), np.sin(bt)
    e_b = -n0
    e_theta = -cbt * n0_theta + sbt * m
    e_phi = -cbt * m - sbt * n0_theta
    t = total_time
    return PairResiduals(
        b_theta=-2j * t * sbt * float(np.dot(e_phi, r)),
        b_phi=2j * t * st * sbt * float(np.dot(e_theta, r)),
        theta_phi=-2j * st * sbt**2 * float(np.dot(e_b, r)),
    )


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


def orthogonality_frame(p: FieldPoint, total_time: float, controlled: bool) -> np.ndarray:
    """The generators Y_B, Y_theta, Y_phi: a Bloch vector orthogonal to every
    nonzero one of them makes all covariances vanish."""
    return (
        generators_controlled(p, total_time) if controlled else generators_no_control(p, total_time)
    )


def off_diagonal_check(
    p: FieldPoint,
    total_time: float,
    r,
    controlled: bool = False,
    project: bool = False,
) -> PairResiduals:
    """Off-diagonal QFIM entries 4 Cov(H_a, H_b), by the matrix-trace oracle.

    All three vanish when r is orthogonal to the frame returned by
    ``orthogonality_frame`` (with a unit r that forces r = 0); for other r
    the generically nonzero values are returned for inspection.  With
    ``project=True`` the frame components of r are removed first, which
    enforces the orthogonality assumption directly.
    """
    r = algebra.check_bloch(r)
    gens = orthogonality_frame(p, total_time, controlled)
    if project:
        for axis in gens:
            nrm = np.linalg.norm(axis)
            if nrm > 0.0:
                unit = axis / nrm
                r = r - np.dot(unit, r) * unit
    mats = [algebra.su2_element(g) for g in gens]
    rho = algebra.density(r)
    full = qfim_trace_oracle(mats, rho)
    return PairResiduals(
        b_theta=float(full[0, 1]), b_phi=float(full[0, 2]), theta_phi=float(full[1, 2])
    )
