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
from .errors import DegenerateVectorError, SeriesDepthError
from .scheme import SchemeConfig, unitary_derivatives

# Truncation tolerance and refusal cap for the nested cross-product series.
# The alternating partial sums grow like exp(z), z = T|X|, before cancelling,
# so in double precision the series can honor its accuracy contract only up
# to z ~ 10; at this tolerance, 48 terms reach z = 10.38 whatever dX is.
# Larger arguments must use the closed form, which is what the
# SeriesDepthError signals.
SERIES_TOL = 1e-14
SERIES_TERM_CAP = 48

# Taylor coefficients in z^2 of (1 - cos z)/z^2 and (z - sin z)/z^3; below
# z = 1/4 the first dropped term is under 1e-21 of the sum
_A_SERIES = tuple((-1) ** k / math.factorial(2 * k + 2) for k in range(7))
_B_SERIES = tuple((-1) ** k / math.factorial(2 * k + 3) for k in range(7))

# with T and |X| in this band every power the closed form takes is a normal double
_BAND_LOW, _BAND_HIGH = 2.0**-300, 2.0**300


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


def _checked_inputs(x_coeff, d_coeff: np.ndarray, total_time) -> tuple[list, list, float, float]:
    """X and the float array dX each as a flat list of floats, |X| and the
    phase z = T|X|, for both analytic routes.
    ``ValueError`` for a negative, NaN or infinite T or a non-finite X or dX;
    ``OverflowError`` for finite inputs whose phase z or z^3 is not finite."""
    if not 0.0 <= total_time < math.inf:
        raise ValueError(f"total_time must be nonnegative and finite, got {total_time}")
    x_coeff = as_vec3(x_coeff)
    x_list, d_list = x_coeff.tolist(), d_coeff.ravel().tolist()
    if not all(map(math.isfinite, x_list)):
        raise ValueError(f"the coefficients X = {x_coeff} are not finite")
    if not all(map(math.isfinite, d_list)):
        raise ValueError(f"the partial dX = {d_coeff} is not finite")
    norm = math.hypot(*x_list)
    z = total_time * norm
    try:
        if math.isfinite(z**3):  # a Python float power raises where numpy's reads inf
            return x_list, d_list, norm, z
    except OverflowError:
        pass
    raise OverflowError(f"the phase T|X| or (T|X|)^3 overflows: T = {total_time:g}, |X| = {norm:g}")


def closed_form_generator(x_coeff, d_coeff, total_time: float) -> np.ndarray:
    """Coefficient vector Y of the generator for coefficients X, partial dX and time T.

    The nested cross-product series sums to

        Y = -T dX + T^2 a(z) (X x dX) - T^3 b(z) X x (X x dX),   z = T|X|,

    with a(z) = (1 - cos z)/z^2 and b(z) = (z - sin z)/z^3.  Expanding
    X x (X x dX) = X (X.dX) - |X|^2 dX and using z^2 b(z) = 1 - sin(z)/z, this
    is evaluated as

        Y = -T (sin(z)/z) dX + T^2 a(z) (X x dX) - T^3 b(z) (X.dX) X,

    which keeps full relative precision when |X|, T or the angle between X
    and dX is small, and as z grows.  The map has no special case: X = 0, T = 0
    and X parallel to dX all take the same arithmetic, and dX = 0 gives Y = 0.
    Outside a band of T and |X| it is evaluated exactly at T scaled into
    [1/2, 1), through the homogeneity Y(X, T) = 2^e Y(2^e X, 2^-e T).
    ``d_coeff`` is one 3-vector or a ``(d, 3)`` stack of partials, and Y has
    its shape; a last axis other than 3 raises ``DegenerateVectorError``.
    The maximal information is |Y|^2.  A negative, NaN or infinite time and a
    non-finite X or dX raise ``ValueError``; finite inputs raise
    ``OverflowError`` only where the phase z or z^3 is not finite (z above
    about 5.6e102) or where Y, at most T|dX| in size, is not: the map is
    applied in Python floats, which overflow to inf silently, and Y is checked once.
    """
    d_coeff = np.asarray(d_coeff, dtype=float)
    if d_coeff.shape[-1:] != (3,):
        raise DegenerateVectorError(
            f"expected a 3-vector or a (d, 3) stack, got shape {d_coeff.shape}")
    (x1, x2, x3), d_list, norm, z = _checked_inputs(x_coeff, d_coeff, total_time)
    t, scale = total_time, 0
    if not (_BAND_LOW < t < _BAND_HIGH and norm < _BAND_HIGH):
        # t in [1/2, 1) makes the scaled |X| at most 2z; at T = 0, where Y = 0, X is scaled
        t, scale = math.frexp(t) if t else (0.0, -math.frexp(norm)[1])
        x1, x2, x3 = math.ldexp(x1, scale), math.ldexp(x2, scale), math.ldexp(x3, scale)
    sinc, a, b = _series_weights(z)
    # the linear map dX -> Y = c1 I + c2 [X]x - c3 X X^T, entry by entry with
    # the operations and order of the elementwise array expression, including
    # the signed zeros of c1 I and c2 [X]x off their support
    c1, c2, c3 = -t * sinc, t * t * a, t**3 * b
    on, off = c1 + c2 * 0.0, c1 * 0.0
    generator_map = (
        (on - c3 * (x1 * x1), off + c2 * -x3 - c3 * (x1 * x2), off + c2 * x2 - c3 * (x1 * x3)),
        (off + c2 * x3 - c3 * (x2 * x1), on - c3 * (x2 * x2), off + c2 * -x1 - c3 * (x2 * x3)),
        (off + c2 * -x2 - c3 * (x3 * x1), off + c2 * x1 - c3 * (x3 * x2), on - c3 * (x3 * x3)),
    )
    # Y row by row (zip(d, d, d) reads dX three floats at a time), each entry in
    # numpy's order of reduction, so a stack rounds like its rows
    d = iter(d_list)
    generator = [((0.0 + d1 * m1) + d2 * m2) + d3 * m3
                 for d1, d2, d3 in zip(d, d, d) for m1, m2, m3 in generator_map]
    try:
        if scale:
            generator = [math.ldexp(y, scale) for y in generator]
        if all(map(math.isfinite, generator)):
            return np.array(generator).reshape(d_coeff.shape)
    except OverflowError:  # ldexp raises where 2^scale Y is past the doubles
        pass
    size = max(math.hypot(*row) for row in d_coeff.reshape(-1, 3).tolist())
    raise OverflowError(f"the generator Y, at most T|dX| in size, overflows: "
                        f"T = {total_time:g}, |dX| = {size:g}")


def series_generator(x_coeff, d_coeff, total_time: float) -> np.ndarray:
    """Generator by direct summation of the nested cross-product series.

    Term n is (-T)^(n+1)/(n+1)! times the n-fold nested cross of X with dX:
    term 0 is -T dX and term n is -(T X) x (term n - 1) / (n + 1), summed
    as three floats and contracted with J once at the end.  The tail is cut
    once the bound z^n/(n+1)! on term n relative to T|dX|, z = T|X|, falls
    below ``SERIES_TOL`` or the nested cross vanishes (colinear geometry),
    so the result scales exactly with dX.  Past ``SERIES_TERM_CAP`` terms a
    ``SeriesDepthError`` asks for the closed form instead.  Bad inputs raise
    the closed form's ``ValueError`` or ``OverflowError``, and so does a sum
    that overflows double precision.
    """
    x_list, d_list, _, z = _checked_inputs(x_coeff, as_vec3(d_coeff), total_time)
    # Python floats: a product past double precision reads inf without a warning
    x1, x2, x3 = [-total_time * v for v in x_list]
    w1, w2, w3 = [-total_time * v for v in d_list]
    s1 = s2 = s3 = 0.0
    # the next term carries 1/n! and is at most T|dX| times bound = z^(n-1)/n!,
    # which is updated multiplicatively to sidestep factorial overflow
    bound, n = 1.0, 1
    while not bound < SERIES_TOL:
        if n > SERIES_TERM_CAP:
            raise SeriesDepthError(
                f"series not converged in {SERIES_TERM_CAP} terms "
                f"(T|X| = {z:.3g}); use the closed form"
            )
        s1 += w1
        s2 += w2
        s3 += w3
        n += 1
        # w <- -(T X) x w / n, the cross written out as in algebra.cross3
        w1, w2, w3 = (x2 * w3 - x3 * w2) / n, (x3 * w1 - x1 * w3) / n, (x1 * w2 - x2 * w1) / n
        if not (w1 or w2 or w3):
            break
        bound *= z / n
    if not all(map(math.isfinite, (s1, s2, s3))):
        raise OverflowError(f"the series overflows double precision (T|X| = {z:.3g})")
    return algebra.su2_element((s1, s2, s3))


def generators_from_derivatives(u: np.ndarray, du: np.ndarray) -> np.ndarray:
    """Hermitian part of i (dU^dag) U for each derivative dU of the unitary ``u``
    stacked in ``du``: the one form of the generator finite differences measure.
    ``u`` is ``(..., 2, 2)`` and ``du`` ``(..., d, 2, 2)``, leading axes one per sample."""
    gen = 1j * du.conj().swapaxes(-1, -2) @ u[..., None, :, :]
    return (gen + gen.conj().swapaxes(-1, -2)) / 2.0


def numeric_generator(scheme: SchemeConfig, x, ell: int) -> np.ndarray:
    """Finite-difference generator oracle: i (dU^dag) U, symmetrized.

    Reads dU along x_ell, control held fixed, from ``scheme.unitary_derivatives``
    and returns the Hermitian part of i (dU^dag) U.
    """
    if not 0 <= ell < scheme.n_params:
        raise IndexError(f"parameter index {ell} out of range")
    return generators_from_derivatives(*unitary_derivatives(scheme, x))[ell]
