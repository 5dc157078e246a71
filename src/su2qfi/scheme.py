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
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import algebra
from .algebra import as_vec3

MERGED = "merged"
PRODUCT = "product"

_ZERO3 = np.zeros(3)


@dataclass(frozen=True, eq=False)
class SchemeConfig:
    """Full description of a sequential estimation scheme.

    ``coefficients`` maps a parameter point (shape ``(d,)``) to the
    coefficient 3-vector X(x); ``partials`` returns the ``(d, 3)`` array of
    analytic partial derivatives of X.  When ``validation_points`` is
    nonempty the supplied partials are checked against central finite
    differences of ``coefficients`` at construction (``central_difference``,
    step 1e-6 * max(1, |x_ell|)).  A control vector with a NaN or infinite
    entry raises ``ValueError``.
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
        if self.n_params < 1:
            raise ValueError("a scheme needs at least one parameter")
        if not (math.isfinite(self.segment_time) and self.segment_time > 0):
            raise ValueError("segment_time must be finite and positive")
        count = self.segment_count
        if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 1:
            raise ValueError(f"segment_count must be a positive integer, got {count!r}")
        if not math.isfinite(float(count) * self.segment_time):
            raise OverflowError(f"the total time {count} * {self.segment_time:g} overflows")
        if self.mode not in (MERGED, PRODUCT):
            raise ValueError(f"unknown composition mode {self.mode!r}")
        for point in self.validation_points:
            self._check_partials_at(np.array(point, dtype=float, ndmin=1))

    def _check_partials_at(self, x: np.ndarray):
        exact = np.asarray(self.partials(x), dtype=float).reshape(self.n_params, 3)
        for ell in range(self.n_params):
            fd = central_difference(self.coefficients_at, x, ell)
            scale = max(1.0, algebra.euclidean_norm(exact[ell]))
            if algebra.euclidean_norm(fd - exact[ell]) > 1e-6 * scale:
                raise ValueError(
                    f"analytic partial {ell} disagrees with finite differences at {x}"
                )

    @property
    def total_time(self) -> float:
        return self.segment_count * self.segment_time

    def coefficients_at(self, x) -> np.ndarray:
        return as_vec3(self.coefficients(np.array(x, dtype=float, ndmin=1)))

    def partials_at(self, x) -> np.ndarray:
        out = np.asarray(self.partials(np.array(x, dtype=float, ndmin=1)), dtype=float)
        return out.reshape(self.n_params, 3)

    def effective_coefficients(self, x) -> np.ndarray:
        """S(x) = X(x) + X_c, the per-segment generator coefficients."""
        return self.coefficients_at(x) + self.control


def build_total_unitary(scheme: SchemeConfig, x) -> np.ndarray:
    """Total unitary of the scheme at parameter point ``x``.

    Merged mode returns exp(-i N t (X + X_c).J); product mode multiplies the
    N control/encoding segment pairs explicitly (control acts after the
    encoding within each segment).
    """
    coeff = scheme.coefficients_at(x)
    if scheme.mode == MERGED:
        return algebra.su2_exp(coeff + scheme.control, scheme.total_time)
    control, encoding = algebra.su2_exp(np.array([scheme.control, coeff]), scheme.segment_time)
    return np.linalg.matrix_power(control @ encoding, scheme.segment_count)


def _step(x_ell: float) -> float:
    """The finite-difference step h = 1e-6 * max(1, |x_ell|) along one coordinate."""
    return 1e-6 * max(1.0, abs(x_ell))


def central_difference(
    f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, ell: int
) -> np.ndarray:
    """Central difference (f(x + h e_ell) - f(x - h e_ell)) / 2h of ``f`` along ``ell``.

    ``_step`` is the one step rule of every finite-difference check in the
    package: h = 1e-6 * max(1, |x_ell|), absolute near zero and relative
    beyond 1, so that x +- h stays distinct from x at any magnitude.
    """
    h = _step(float(x[ell]))
    xp = x.copy()
    xm = x.copy()
    xp[ell] += h
    xm[ell] -= h
    return (f(xp) - f(xm)) / (2.0 * h)


def unitary_derivatives(scheme: SchemeConfig, x) -> tuple[np.ndarray, np.ndarray]:
    """U(x) and the ``(d, 2, 2)`` stack of its central differences along every x_ell,
    control held fixed: the one place the total unitary is differentiated.

    Every difference takes the step rule ``_step``.  In merged mode
    the 2d + 1 unitaries at x and x +- h e_ell come from one stacked
    ``algebra.su2_exp``, and the result equals the per-point form
    ``central_difference(partial(build_total_unitary, scheme), x, ell)`` bit
    for bit; product mode evaluates that form.
    """
    x = np.array(x, dtype=float, ndmin=1)
    if scheme.mode != MERGED:
        u = partial(build_total_unitary, scheme)
        return u(x), np.array([central_difference(u, x, ell) for ell in range(scheme.n_params)])
    point = x.tolist()
    points = [point]
    steps = []
    for ell in range(scheme.n_params):
        h = _step(point[ell])
        for shifted in (point[ell] + h, point[ell] - h):
            points.append(point[:ell] + [shifted] + point[ell + 1 :])
        steps.append(2.0 * h)
    coeffs = np.array([scheme.coefficients_at(p) for p in points]) + scheme.control
    u = algebra.su2_exp(coeffs, scheme.total_time)
    return u[0], (u[1::2] - u[2::2]) / np.array(steps)[:, None, None]


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
    tests: t = 1, |X| = 2, |dX| = 1.
    """
    from .qfi import qfi_max_from_angle

    n = np.asarray(n_values)
    alpha = np.asarray(alpha_grid, dtype=float)
    if n.size == 0 or alpha.size == 0:
        raise ValueError("gap_profile requires nonempty grids")
    n_col = np.repeat(n, alpha.size)
    total_time = n_col * t
    ceiling = total_time**2 * dx_norm**2
    alpha_col = np.tile(alpha, n.size)
    unc = qfi_max_from_angle(x_norm, dx_norm, alpha_col, total_time)
    return GapTable(n_col, alpha_col, unc, ceiling, ceiling - unc)
