"""The parametrization generator, computed three independent ways.

For a unitary U(x) the response of the dynamics to parameter x_ell is the
Hermitian generator H_ell = i (d U^dag / d x_ell) U.  With merged-exponential
composition and coefficient vector X, this generator is an su(2) element
whose coefficient 3-vector resums in closed form; the same object is also
the limit of a nested cross-product series, and can be measured blindly by
central finite differences on the total unitary.  Keeping all three routes
alive is the point: each one cross-checks the others.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra
from .algebra import as_vec3
from .errors import SeriesDepthError, StepSizeError, ZeroDerivativeError
from .scheme import SchemeConfig, build_total_unitary
from .tolerances import DEGENERATE

REGULAR = "regular"
COLINEAR = "colinear"
ZERO_FIELD = "zero_field"

# Refusal cap for the nested cross-product series.  The alternating partial
# sums grow like exp(T|X|) before cancelling, so in double precision the
# series can honor its accuracy contract only up to T|X| ~ 10; 48 terms at
# tol 1e-14 is exactly that domain.  Larger arguments must use the closed
# form, which is what the SeriesDepthError signals.
SERIES_TERM_CAP = 48


@dataclass(frozen=True, eq=False)
class GeneratorDecomposition:
    """A generator H = magnitude * (direction.J) with a degeneracy flag.

    ``direction`` is unit length whenever ``magnitude`` is nonzero.  The flag
    records which analytic branch produced the value: ``regular`` for the
    generic closed form, ``colinear`` when X and dX are (anti)parallel, and
    ``zero_field`` when X itself vanishes.
    """

    magnitude: float
    direction: np.ndarray
    flag: str = REGULAR

    def to_matrix(self) -> np.ndarray:
        return self.magnitude * algebra.su2_element(self.direction)

    def coefficient_vector(self) -> np.ndarray:
        return self.magnitude * as_vec3(self.direction)


def closed_form_generator(x_coeff, d_coeff, total_time: float) -> GeneratorDecomposition:
    """Compact closed form of the generator for coefficients X, dX and time T.

    The magnitude is

        sqrt( T^2 |dX|^2 cos^2(a) + (4 |dX|^2 sin^2(a) / |X|^2) sin^2(T|X|/2) )

    with a the angle between X and dX.  The direction is the resummed series
    vector

        -T dX_par - (sin(T|X|)/|X|) dX_perp + ((1 - cos(T|X|))/|X|) (Xhat x dX)

    normalized; writing it through the parallel/perpendicular split avoids
    every 0/0 in the degenerate geometries.  When |X| or sin(a) is below the
    degenerate threshold the exact limit -T dX is returned, flagged
    accordingly.
    """
    x_coeff = as_vec3(x_coeff)
    d_coeff = as_vec3(d_coeff)
    nd = float(np.linalg.norm(d_coeff))
    if nd == 0.0:
        raise ZeroDerivativeError("dX vanishes: the parameter does not enter the dynamics")
    if total_time < 0:
        raise ValueError("total_time must be nonnegative")
    d_hat = d_coeff / nd

    nx = float(np.linalg.norm(x_coeff))
    if nx < DEGENERATE:
        return GeneratorDecomposition(total_time * nd, -d_hat, ZERO_FIELD)
    alpha = algebra.angle_between(x_coeff, d_coeff)
    sin_a = np.sin(alpha)
    if sin_a < DEGENERATE:
        return GeneratorDecomposition(total_time * nd, -d_hat, COLINEAR)
    if total_time == 0.0:
        return GeneratorDecomposition(0.0, -d_hat, REGULAR)

    x_hat = x_coeff / nx
    d_par = np.dot(x_hat, d_coeff) * x_hat
    d_perp = d_coeff - d_par
    z = total_time * nx
    y_vec = (
        -total_time * d_par
        - (np.sin(z) / nx) * d_perp
        + ((1.0 - np.cos(z)) / nx) * algebra.cross(x_hat, d_coeff)
    )
    magnitude = float(
        np.sqrt(
            (total_time * nd * np.cos(alpha)) ** 2
            + (4.0 * nd**2 * sin_a**2 / nx**2) * np.sin(z / 2.0) ** 2
        )
    )
    ny = float(np.linalg.norm(y_vec))
    direction = y_vec / ny if ny > 0.0 else -d_hat
    if ny == 0.0:
        magnitude = 0.0
    return GeneratorDecomposition(magnitude, direction, REGULAR)


def series_generator(
    x_coeff,
    d_coeff,
    total_time: float,
    tol: float = 1e-14,
    max_terms: int = SERIES_TERM_CAP,
) -> np.ndarray:
    """Generator by direct summation of the nested cross-product series.

    Term n contributes (-T)^(n+1)/(n+1)! times the n-fold nested cross
    product of X applied to dX.  The terms are accumulated as one real
    coefficient 3-vector, which is contracted with J once at the end.  The
    linear n = 0 term is always summed; the tail is truncated once the term
    bound (T|X|)^(n+1) |dX| / (n+1)! falls below ``tol`` or the nested cross
    vanishes (colinear geometry).  If the bound has not fallen below ``tol``
    within ``max_terms`` terms a ``SeriesDepthError`` is raised and the
    closed form should be used instead.
    """
    if tol <= 0:
        raise ValueError("series tolerance must be positive")
    x_coeff = as_vec3(x_coeff)
    d_coeff = as_vec3(d_coeff)
    nx = float(np.linalg.norm(x_coeff))
    nd = float(np.linalg.norm(d_coeff))
    total = np.zeros(3)
    w = d_coeff
    # term n carries coefficient (-T)^(n+1)/(n+1)! and bound (T|X|)^(n+1)/(n+1)!,
    # both updated multiplicatively to sidestep factorial overflow
    coeff = -total_time
    bound = total_time * nx * nd
    n = 0
    while True:
        if n > 0 and bound < tol:
            return algebra.su2_element(total)
        if n >= max_terms:
            raise SeriesDepthError(
                f"series not converged in {max_terms} terms (T|X| = {total_time * nx:.3g}); "
                "use the closed form"
            )
        total += coeff * w
        w = algebra.cross(x_coeff, w)
        if not w.any():
            return algebra.su2_element(total)
        n += 1
        coeff *= -total_time / (n + 1)
        bound *= total_time * nx / (n + 1)


def series_term_count(x_coeff, d_coeff, total_time: float, tol: float = 1e-14) -> int:
    """Number of series terms the bound admits, including the linear term."""
    nx = algebra.norm(x_coeff)
    nd = algebra.norm(d_coeff)
    count = 1
    bound = (total_time * nx) ** 2 / 2.0 * nd
    while bound >= tol:
        count += 1
        bound *= total_time * nx / (count + 1)
    return count


def numeric_generator(scheme: SchemeConfig, x, ell: int, h: float | None = None) -> np.ndarray:
    """Finite-difference generator oracle: i (dU^dag) U, symmetrized.

    Builds the total unitary at x +- h e_ell with the control vector held
    fixed, central-differences it, and returns the Hermitian part of
    i (dU^dag) U.  The default step is 1e-6 * max(1, |x_ell|).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not 0 <= ell < scheme.n_params:
        raise IndexError(f"parameter index {ell} out of range")
    if h is None:
        h = 1e-6 * max(1.0, abs(float(x[ell])))
    if not 1e-12 <= h <= 1e-2:
        raise StepSizeError(f"finite-difference step {h} outside [1e-12, 1e-2]")
    xp = x.copy()
    xm = x.copy()
    xp[ell] += h
    xm[ell] -= h
    u0 = build_total_unitary(scheme, x)
    du = (build_total_unitary(scheme, xp) - build_total_unitary(scheme, xm)) / (2.0 * h)
    gen = 1j * du.conj().T @ u0
    return (gen + gen.conj().T) / 2.0
