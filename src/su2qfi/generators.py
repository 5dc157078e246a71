"""The parametrization generator, computed three independent ways.

For a unitary U(x) the response of the dynamics to parameter x_ell is the
Hermitian generator H_ell = i (d U^dag / d x_ell) U.  With merged-exponential
composition and coefficient vector X, this generator is the su(2) element
Y.J, and the library represents it by its real coefficient 3-vector Y: the
information quantities are all read off Y, and ``algebra.su2_element(Y)``
gives the matrix.  Y resums in closed form; the same object is also the limit
of a nested cross-product series, and can be measured blindly by central
finite differences on the total unitary.  Keeping all three routes alive is
the point: each one cross-checks the others.
"""

from __future__ import annotations

import math

import numpy as np

from . import algebra
from .algebra import as_vec3
from .errors import SeriesDepthError, StepSizeError
from .scheme import SchemeConfig, build_total_unitary

# Refusal cap for the nested cross-product series.  The alternating partial
# sums grow like exp(T|X|) before cancelling, so in double precision the
# series can honor its accuracy contract only up to T|X| ~ 10; at tol 1e-14,
# 48 terms reach T|X| = 10.4 for T|dX| = 1 (9.9 for T|dX| = 10).  Larger
# arguments must use the closed form, which is what the SeriesDepthError
# signals.
SERIES_TERM_CAP = 48

# Taylor coefficients in z^2 of (1 - cos z)/z^2 and (z - sin z)/z^3; below
# z = 1/4 the first dropped term is under 1e-21 of the sum
_A_SERIES = tuple((-1) ** k / math.factorial(2 * k + 2) for k in range(7))
_B_SERIES = tuple((-1) ** k / math.factorial(2 * k + 3) for k in range(7))


def _series_weights(z: float) -> tuple[float, float, float]:
    """sin(z)/z, a(z) = (1 - cos z)/z^2 and b(z) = (z - sin z)/z^3 for z >= 0.

    All three are entire functions of z.  Below z = 1/4 the libm forms of a
    and b cancel (and read 0/0 at z = 0), so there they are summed from their
    Taylor series, and sin(z)/z = 1 - z^2 b(z).
    """
    if z < 0.25:
        w = z * z
        a = b = 0.0
        for ca, cb in zip(reversed(_A_SERIES), reversed(_B_SERIES)):
            a = a * w + ca
            b = b * w + cb
        return 1.0 - w * b, a, b
    sin_z = math.sin(z)
    return sin_z / z, 2.0 * (math.sin(0.5 * z) / z) ** 2, (z - sin_z) / z**3


def closed_form_generator(x_coeff, d_coeff, total_time: float) -> np.ndarray:
    """Coefficient vector Y of the generator for coefficients X, partial dX and time T.

    The nested cross-product series sums to

        Y = -T dX + T^2 a(z) (X x dX) - T^3 b(z) X x (X x dX),   z = T|X|,

    with a(z) = (1 - cos z)/z^2 and b(z) = (z - sin z)/z^3.  Expanding
    X x (X x dX) = X (X.dX) - |X|^2 dX and using z^2 b(z) = 1 - sin(z)/z, this
    is evaluated as

        Y = -T (sin(z)/z) dX + T^2 a(z) (X x dX) - T^3 b(z) (X.dX) X,

    which keeps full relative precision when |X|, T or the angle between X
    and dX is small, and as z grows.  There is no special case: X = 0, T = 0
    and X parallel to dX all take the same arithmetic, and dX = 0 gives Y = 0.
    ``d_coeff`` is one 3-vector or a ``(d, 3)`` stack of partials, and Y has
    its shape.  The maximal information is |Y|^2.
    """
    if total_time < 0:
        raise ValueError("total_time must be nonnegative")
    x_coeff = as_vec3(x_coeff)
    t = total_time
    z = t * math.hypot(*x_coeff.tolist())
    if math.isinf(z):
        raise OverflowError(f"the phase T|X| of T = {t:g} overflows double precision")
    sinc, a, b = _series_weights(z)
    # the linear map dX -> Y, applied row by row so a stack rounds like its rows
    generator_map = (
        -t * sinc * np.eye(3)
        + t * t * a * algebra.cross_matrix(x_coeff)
        - t**3 * b * np.outer(x_coeff, x_coeff)
    )
    d_coeff = np.asarray(d_coeff, dtype=float)
    return (d_coeff[..., None, :] * generator_map).sum(axis=-1)


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
    bound T^(n+1) |X|^n |dX| / (n+1)! falls below ``tol`` or the nested cross
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
    # term n carries coefficient (-T)^(n+1)/(n+1)! and bound T^(n+1)|X|^n|dX|/(n+1)!,
    # both updated multiplicatively to sidestep factorial overflow
    coeff = -total_time
    bound = total_time * nd
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
