"""Sequential estimation schemes and their control design.

A scheme is N repetitions of a parameter-encoding unitary exp(-i t X(x).J)
followed by a fixed control unitary exp(-i t X_c.J).  Two compositions are
supported: the merged single exponential exp(-i N t (X + X_c).J), which all
closed forms assume, and the literal segment product, kept around to measure
the small-t approximation error between the two.

The control vector X_c is a frozen constant under differentiation: it is
built from a prior estimate of the parameters, never from the true point.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import algebra
from .algebra import as_vec3

MERGED = "merged"
PRODUCT = "product"

_ZERO3 = np.zeros(3)


def check_segment_time(time) -> None:
    """``ValueError`` unless ``time`` is a finite, positive real number (not a bool)."""
    if type(time) is not float and (type(time) is bool or not isinstance(time, numbers.Real)):
        raise ValueError(f"segment_time must be a number, got {time!r}")
    if not (math.isfinite(time) and time > 0):
        raise ValueError("segment_time must be finite and positive")


def _check_positive_int(value, message: str) -> None:
    """``ValueError`` unless ``value`` is an int or numpy integer (not a bool) of at least 1."""
    kind = type(value)  # an int skips the slower abstract-class check
    if (kind is not int and (kind is bool or not isinstance(value, numbers.Integral))) or value < 1:
        raise ValueError(f"{message}, got {value!r}")


def check_segment_count(count) -> None:
    """``ValueError`` unless ``count`` is an int or numpy integer (not a bool) of at least 1."""
    _check_positive_int(count, "segment_count must be a positive integer")


@dataclass(frozen=True, eq=False)
class SchemeConfig:
    """Full description of a sequential estimation scheme.

    ``coefficients`` maps a parameter point (shape ``(d,)``) to the
    coefficient 3-vector X(x); ``partials`` returns the ``(d, 3)`` array of
    analytic partial derivatives of X.  When ``validation_points`` is
    nonempty the supplied partials are checked at construction against
    central differences of ``coefficients`` on the points of ``_stencil``.
    ``n_params`` and ``segment_count`` are ints or numpy integers, and a
    control vector with a NaN or infinite entry raises ``ValueError``.
    """

    coefficients: Callable[[np.ndarray], np.ndarray]
    partials: Callable[[np.ndarray], np.ndarray]
    n_params: int
    control: np.ndarray = field(default_factory=lambda: _ZERO3.copy())
    segment_time: float = 1.0
    segment_count: int = 1
    mode: str = MERGED
    validation_points: tuple = ()

    def __post_init__(self):
        control = as_vec3(self.control)
        if not all(map(math.isfinite, control.tolist())):
            raise ValueError(f"the control X_c = {control} is not finite")
        object.__setattr__(self, "control", control)
        _check_positive_int(
            self.n_params, "n_params must be a positive integer: a scheme needs at least one parameter"
        )
        check_segment_time(self.segment_time)
        count = self.segment_count
        check_segment_count(count)
        if not math.isfinite(float(count) * self.segment_time):
            raise OverflowError(f"the total time {count} * {self.segment_time:g} overflows")
        if self.mode not in (MERGED, PRODUCT):
            raise ValueError(f"unknown composition mode {self.mode!r}")
        for point in self.validation_points:
            self._check_partials_at(point)

    def _check_partials_at(self, x):
        """Refuse partials off the central differences by more than 1e-6 max(1, |dX|)."""
        points, two_h = _stencil(self, x)
        shifted = iter(points[1:])
        for ell, (plus, minus, exact) in enumerate(zip(shifted, shifted, self.partials_at(x))):
            fd = (self.coefficients_at(plus) - self.coefficients_at(minus)) / two_h[ell]
            error = algebra.euclidean_norm(fd - exact)
            if error > 1e-6 and error > 1e-6 * algebra.euclidean_norm(exact):
                raise ValueError(f"analytic partial {ell} disagrees with finite differences at {x}")

    @property
    def total_time(self) -> float:
        return self.segment_count * self.segment_time

    def coefficients_at(self, x) -> np.ndarray:
        return as_vec3(self.coefficients(_point(self, x)))

    def partials_at(self, x) -> np.ndarray:
        return np.asarray(self.partials(_point(self, x)), dtype=float).reshape(self.n_params, 3)

    def effective_coefficients(self, x) -> np.ndarray:
        """S(x) = X(x) + X_c, the per-segment generator coefficients."""
        return self.coefficients_at(x) + self.control


def _compose(scheme: SchemeConfig, coeffs: np.ndarray) -> np.ndarray:
    """Total unitaries of one coefficient vector X or of a ``(k, 3)`` stack of them.

    Merged mode is exp(-i N t (X + X_c).J); product mode multiplies the N
    control/encoding segment pairs (control after encoding in each segment).
    A row of a stack equals the one-vector call on it to the last bit.
    """
    if scheme.mode == MERGED:
        return algebra.su2_exp(coeffs + scheme.control, scheme.total_time)
    control = algebra.su2_exp(scheme.control, scheme.segment_time)
    segments = control @ algebra.su2_exp(coeffs, scheme.segment_time)
    return np.linalg.matrix_power(segments, scheme.segment_count)


def build_total_unitary(scheme: SchemeConfig, x) -> np.ndarray:
    """Total unitary of the scheme at the parameter point ``x`` (see ``_compose``)."""
    return _compose(scheme, scheme.coefficients_at(x))


def _point(scheme: SchemeConfig, x) -> np.ndarray:
    """``x`` as a float array, the one length rule of every point the package
    evaluates: a shape other than ``(n_params,)`` raises ``ValueError``."""
    x = np.array(x, dtype=float, ndmin=1)
    if x.shape != (scheme.n_params,):
        raise ValueError(f"a point of shape {x.shape} for a scheme of {scheme.n_params} parameters")
    return x


def _stencil(scheme: SchemeConfig, x) -> tuple[list, list]:
    """The points x, x + h e_0, x - h e_0, x + h e_1, ... as lists, and the 2h of
    each x_ell: the one step rule of every finite difference in the package.

    h = 1e-6 * max(1, |x_ell|) is absolute near zero and relative beyond 1,
    so x +- h stays distinct from x at any magnitude.  A point whose length
    is not ``n_params`` raises ``_point``'s ``ValueError``.
    """
    point = _point(scheme, x).tolist()
    points = [point]
    two_h = []
    for ell, x_ell in enumerate(point):
        h = 1e-6 * max(1.0, abs(x_ell))
        before, after = point[:ell], point[ell + 1 :]
        points += (before + [x_ell + h] + after, before + [x_ell - h] + after)
        two_h.append(2.0 * h)
    return points, two_h


def unitary_derivatives(scheme: SchemeConfig, x) -> tuple[np.ndarray, np.ndarray]:
    """U(x) and the ``(d, 2, 2)`` stack of its central differences along every x_ell,
    control held fixed: the one place the total unitary is differentiated.

    The 2d + 1 unitaries at the points of ``_stencil`` come from one stacked
    composition, in either mode.
    """
    points, two_h = _stencil(scheme, x)
    u = _compose(scheme, np.array([scheme.coefficients_at(p) for p in points]))
    return u[0], (u[1::2] - u[2::2]) / np.array(two_h)[:, None, None]


def affine_scheme(
    x0, gradients, control, segment_time: float, segment_count: int, mode: str
) -> SchemeConfig:
    """Scheme for the affine coefficient map X(x) = x0 + sum_l x_l gradients[l].

    The partials are the gradient rows themselves, so no finite-difference
    check of them is needed.
    """
    x0 = as_vec3(x0)
    grads = np.asarray(gradients, dtype=float).reshape(-1, 3)
    return SchemeConfig(
        coefficients=lambda xp: x0 + grads.T @ xp,
        partials=lambda xp: grads,
        n_params=grads.shape[0],
        control=control,
        segment_time=segment_time,
        segment_count=segment_count,
        mode=mode,
    )


def design_control(coefficients: Callable[[np.ndarray], np.ndarray], x_tilde) -> np.ndarray:
    """Optimal control for a coefficient map: X_c = -X(x_tilde), the negated coefficients.

    Holding this control cancels the per-segment generator at the estimated
    point, which pushes every parameter's maximal information to its
    quadratic-in-time ceiling.  A NaN or infinite entry of ``x_tilde`` raises
    ``ValueError``; a scheme refuses a control that is not finite.
    """
    x_tilde = np.array(x_tilde, dtype=float, ndmin=1)
    if not all(map(math.isfinite, x_tilde.ravel().tolist())):
        raise ValueError(f"the estimate x_tilde = {x_tilde} is not finite")
    return -as_vec3(coefficients(x_tilde))


def characterize(x_coeff, d_coeffs: Sequence) -> list[float]:
    """Effectiveness angle of each parameter: angle(X, dX_ell).

    pi/2 means the control benefit is maximal, 0 or pi means the control
    cannot improve that parameter at all.
    """
    return [algebra.angle_between(x_coeff, d) for d in d_coeffs]


@dataclass(frozen=True, eq=False)
class GapTable:
    """The control-benefit landscape, one equal-length 1-D array per column."""

    n_segments: np.ndarray
    alpha: np.ndarray
    uncontrolled_max: np.ndarray
    controlled_limit: np.ndarray
    gap: np.ndarray


def gap_profile(
    n_values: Sequence[int],
    alpha_grid: Sequence[float],
    t: float = 1.0,
    x_norm: float = 2.0,
    dx_norm: float = 1.0,
) -> GapTable:
    """Tabulate uncontrolled maxima against the controlled ceiling.

    Rows are ordered segment-count-major, then by the order of
    ``alpha_grid``.  The defaults match the landscape used throughout the
    tests: t = 1, |X| = 2, |dX| = 1.  A segment time ``t`` that is not a
    finite, positive number, or an entry of ``n_values`` that is not an
    integer of at least 1, raises ``ValueError``, and an entry that
    overflows double precision ``OverflowError``.
    """
    from .qfi import _information, qfi_max_from_angle

    check_segment_time(t)
    for count in n_values:
        check_segment_count(count)
    n = np.asarray(n_values)
    alpha = np.asarray(alpha_grid, dtype=float)
    if n.size == 0 or alpha.size == 0:
        raise ValueError("gap_profile requires nonempty grids")
    n_col = np.repeat(n, alpha.size)
    alpha_col = np.tile(alpha, n.size)
    with np.errstate(over="ignore"):  # an infinite T raises in qfi_max_from_angle
        total_time = n_col * t
    unc = qfi_max_from_angle(x_norm, dx_norm, alpha_col, total_time)
    ceiling = _information(total_time, dx_norm)
    return GapTable(n_col, alpha_col, unc, ceiling, ceiling - unc)
