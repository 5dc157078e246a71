"""Real 3-vector algebra, su(2) generators and exact 2x2 unitaries.

Everything downstream works with a coefficient 3-vector v and the generator
triple J = (j1, j2, j3) obeying [j_m, j_k] = i eps_{mkl} j_l.  The shipped
representation is J = sigma/2 (largest eigenvalue c = 1/2), which satisfies
the product identity

    (a.J)(b.J) = (a.b)/4 * I + (i/2) (a x b).J

for arbitrary real 3-vectors a, b.  That identity is what makes the 2x2
matrix exponential and all closed forms below exact.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateVectorError, UnphysicalStateError
from .tolerances import BLOCH_NORM_SLACK

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

IDENTITY_2 = np.eye(2, dtype=complex)

# the shipped generator triple J = sigma/2
_J1, _J2, _J3 = PAULI_X / 2, PAULI_Y / 2, PAULI_Z / 2


def as_vec3(v) -> np.ndarray:
    """Coerce to a float 3-vector."""
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise DegenerateVectorError(f"expected a 3-vector, got shape {arr.shape}")
    return arr


def cross(a, b) -> np.ndarray:
    """Right-handed cross product a x b, written out by component.

    This is the package's only cross product.  numpy's ``cross`` spends tens
    of microseconds per 3-vector pair in axis handling; the explicit form
    costs about 1.5 us and rounds identically.
    """
    a1, a2, a3 = as_vec3(a).tolist()
    b1, b2, b3 = as_vec3(b).tolist()
    return np.array([a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1])


def cross_matrix(a) -> np.ndarray:
    """The matrix [a]x with [a]x b = a x b, for acting on stacks of vectors."""
    a1, a2, a3 = as_vec3(a).tolist()
    return np.array([[0.0, -a3, a2], [a3, 0.0, -a1], [-a2, a1, 0.0]])


def nested_cross(z, w, n: int) -> np.ndarray:
    """Apply ``z x .`` to ``w`` a total of ``n`` times; ``n = 0`` returns ``w``.

    The term-by-term reference for the nested cross-product series.
    """
    if n < 0:
        raise ValueError("nesting count must be nonnegative")
    z = as_vec3(z)
    out = as_vec3(w).copy()
    for _ in range(n):
        out = cross(z, out)
    return out


def angle_between(a, b) -> float:
    """Angle between two nonzero vectors, in [0, pi].

    Evaluated as atan2(|a x b|, a.b), which resolves small angles to full
    relative precision; an arccos of the normalized dot product cannot
    resolve angles below about 1e-8.
    """
    a = as_vec3(a)
    b = as_vec3(b)
    if not np.any(a) or not np.any(b):
        raise DegenerateVectorError("angle_between requires nonzero vectors")
    return float(np.arctan2(np.linalg.norm(cross(a, b)), np.dot(a, b)))


def su2_element(v) -> np.ndarray:
    """The Hermitian traceless matrix v.J = v1 j1 + v2 j2 + v3 j3."""
    v = as_vec3(v)
    return v[0] * _J1 + v[1] * _J2 + v[2] * _J3


def su2_exp(v, tau: float) -> np.ndarray:
    """Exact unitary exp(-i tau v.J) via the half-angle closed form.

    Since (vhat.J)^2 = I/4, the exponential collapses to

        cos(tau |v| / 2) I  -  2 i sin(tau |v| / 2) (vhat.J)

    which is unitary to machine precision for any tau.
    """
    v = as_vec3(v)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return IDENTITY_2.copy()
    half = 0.5 * tau * nv
    return np.cos(half) * IDENTITY_2 - 2j * np.sin(half) * su2_element(v / nv)


def check_bloch(r) -> np.ndarray:
    """``r`` as a 3-vector; ``UnphysicalStateError`` unless |r| <= 1 (NaN fails)."""
    r = as_vec3(r)
    length = math.hypot(*r.tolist())  # no overflow warning on huge components
    if not length <= 1.0 + BLOCH_NORM_SLACK:
        raise UnphysicalStateError(f"Bloch vector norm {length} is not at most 1")
    return r


def density(r) -> np.ndarray:
    """Qubit density matrix I/2 + r.J for a Bloch vector r, |r| <= 1."""
    return IDENTITY_2 / 2 + su2_element(check_bloch(r))
