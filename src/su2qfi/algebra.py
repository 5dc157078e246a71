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
from .tolerances import BLOCH_NORM_SLACK, PURITY

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def as_vec3(v) -> np.ndarray:
    """Coerce to a float 3-vector."""
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise DegenerateVectorError(f"expected a 3-vector, got shape {arr.shape}")
    return arr


def euclidean_norm(v: np.ndarray) -> float:
    """|v| of a float 3-vector: ``math.hypot`` of its components.

    The package's one rule for the length of a real 3-vector: hypot forms no
    square that can overflow or underflow, so |v| is finite whenever the
    true length is, and it scales exactly with a power of two.
    """
    return math.hypot(*v.tolist())


def cross3(a, b) -> list:
    """Right-handed cross product a x b of two sequences of three floats, as a list.

    The package's one cross-product rule, written out by component in Python
    floats: ``cross`` wraps it for arrays, and code that holds floats calls it
    directly, with no array built or read back.
    """
    a1, a2, a3 = a
    b1, b2, b3 = b
    return [a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1]


def cross(a, b) -> np.ndarray:
    """Right-handed cross product a x b of two 3-vectors, as a float array.

    ``cross3`` on the components, so it has the same arithmetic and rounds
    exactly like ``np.cross``, signed zeros included.  numpy's ``cross``
    spends tens of microseconds per pair in axis handling; this costs 1.3
    to 3.5 us on list inputs (timeit, a shared 2-vCPU VM), nearly all of it
    in the conversions to and from arrays around cross3's six products.
    """
    return np.array(cross3(as_vec3(a).tolist(), as_vec3(b).tolist()))


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
    z = as_vec3(z).tolist()
    out = as_vec3(w).tolist()
    for _ in range(n):
        out = cross3(z, out)
    return np.array(out)


def angle_between(a, b) -> float:
    """Angle between two nonzero finite vectors, in [0, pi].

    Evaluated as atan2(|a x b|, a.b), which resolves small angles to full
    relative precision; an arccos of the normalized dot product cannot
    resolve angles below about 1e-8.  Each vector is first scaled by the
    exact power of two that brings its largest component into
    [2**255, 2**256), so the angle does not depend on the vectors' lengths,
    no product overflows, and no product that a representable angle depends
    on turns subnormal: an angle down to the smallest subnormal, 5e-324,
    keeps the precision of its format.  A zero vector or a NaN or infinite
    component raises ``DegenerateVectorError``, a ``ValueError``.
    """
    pair = []
    for v in (as_vec3(a), as_vec3(b)):
        components = v.tolist()
        if not (all(map(math.isfinite, components)) and any(components)):
            raise DegenerateVectorError(f"angle_between requires nonzero finite vectors, got {v}")
        pair.append(np.ldexp(v, 256 - math.frexp(max(map(abs, components)))[1]))
    a, b = pair
    return math.atan2(math.hypot(*cross3(a.tolist(), b.tolist())), float(np.dot(a, b)))


def _as_stack3(v) -> np.ndarray:
    """``v`` as a float array whose last axis has length 3: one vector or a stack."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (3,):
        raise DegenerateVectorError(f"expected a 3-vector or a stack of them, got shape {v.shape}")
    return v


def su2_element(v) -> np.ndarray:
    """The Hermitian traceless matrix v.J = v1 j1 + v2 j2 + v3 j3.

    Built entry by entry from the halved components; halving is exact, so
    this equals v.sigma/2 to the last bit.  A ``(..., 3)`` stack of vectors
    gives the ``(..., 2, 2)`` stack of their matrices, each built as the
    one-vector call builds it.
    """
    v = _as_stack3(v)
    components = iter(v.ravel().tolist())
    entries = []
    for v1, v2, v3 in zip(components, components, components):
        h1, h2, h3 = 0.5 * v1, 0.5 * v2, 0.5 * v3
        entries += (h3, complex(h1, -h2), complex(h1, h2), -h3)
    return np.array(entries, dtype=complex).reshape(v.shape[:-1] + (2, 2))


def su2_exp(v, tau: float) -> np.ndarray:
    """Exact unitary exp(-i tau v.J) via the half-angle closed form.

    Since (vhat.J)^2 = I/4, the exponential collapses to

        cos(tau |v| / 2) I  -  2 i sin(tau |v| / 2) (vhat.J)

    which is unitary to machine precision for any tau.  ``v`` is one 3-vector
    or a ``(..., 3)`` stack of them, and the result has shape ``(..., 2, 2)``.
    Every row takes the same arithmetic in Python floats, with |v| from
    ``math.hypot``, so a row of a stack equals the one-vector call to the last
    bit, and su2_exp(2^k v, 2^-k tau) equals su2_exp(v, tau) while every
    component stays normal.  v = 0 gives I for any tau.  Otherwise a NaN
    phase tau |v| / 2 (a NaN in v or tau) raises ``ValueError``, and an
    infinite |v| or phase raises ``OverflowError`` naming which; in a stack
    the first such row raises.
    """
    v = _as_stack3(v)
    tau_f = float(tau)
    entries = []
    components = iter(v.ravel().tolist())
    for v1, v2, v3 in zip(components, components, components):
        nv = math.hypot(v1, v2, v3)
        if nv == 0.0:
            entries += (1 + 0j, 0j, 0j, 1 + 0j)
            continue
        half = 0.5 * tau_f * nv  # a Python float overflows to inf without a warning
        if not math.isfinite(half):
            row = np.array([v1, v2, v3])
            if math.isinf(nv):
                raise OverflowError(f"the length |v| of v = {row} overflows")
            if math.isinf(half):
                raise OverflowError(f"the phase tau|v|/2 of tau = {tau:g} and v = {row} overflows")
            raise ValueError(f"the phase tau|v|/2 is NaN for tau = {tau:g} and v = {row}")
        c = math.cos(half)
        s = math.sin(half)
        n1, n2, n3 = v1 / nv, v2 / nv, v3 / nv
        entries += (
            complex(c, -s * n3),
            complex(-s * n2, -s * n1),
            complex(s * n2, -s * n1),
            complex(c, s * n3),
        )
    return np.array(entries, dtype=complex).reshape(v.shape[:-1] + (2, 2))


def check_bloch(r) -> np.ndarray:
    """``r`` as a float 3-vector; ``UnphysicalStateError`` unless it has three
    entries and |r| <= 1 (NaN fails)."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise UnphysicalStateError(f"a Bloch vector has 3 entries, got shape {r.shape}")
    length = math.hypot(*r.tolist())  # no overflow warning on huge components
    if not length <= 1.0 + BLOCH_NORM_SLACK:
        raise UnphysicalStateError(f"Bloch vector norm {length} is not at most 1")
    return r


def check_density(probe) -> np.ndarray:
    """``probe`` as a complex 2x2 or 4x4 matrix, or a stack of them with
    leading sample axes; ``UnphysicalStateError`` unless each has unit trace,
    is Hermitian and has no eigenvalue below ``-PURITY``, the first two each
    within ``PURITY`` (NaN fails).  The error names the first failing sample
    of a stack, as ``probe[i]``, and its first failing rule."""
    probe = np.asarray(probe, dtype=complex)
    if probe.ndim < 2 or probe.shape[-1] != probe.shape[-2] or probe.shape[-1] not in (2, 4):
        raise UnphysicalStateError("probe must be a 2x2 or 4x4 density matrix")
    traces = np.trace(probe, axis1=-2, axis2=-1)
    trace_ok = np.abs(traces - 1.0) <= PURITY
    hermitian = np.abs(probe - probe.conj().swapaxes(-1, -2)).max(axis=(-2, -1)) <= PURITY
    smallest = np.zeros(traces.shape)
    ok = trace_ok & hermitian
    # eigvalsh reads one triangle; a NaN must not reach it
    smallest[ok] = np.linalg.eigvalsh(probe[ok])[..., 0]
    ok &= smallest >= -PURITY
    if ok.all():
        return probe
    first = np.unravel_index(np.argmin(ok), ok.shape)
    name = f"probe[{', '.join(map(str, first))}]" if first else "probe"
    if not trace_ok[first]:
        raise UnphysicalStateError(f"{name} trace {traces[first]} is not 1")
    if not hermitian[first]:
        raise UnphysicalStateError(f"{name} is not Hermitian")
    raise UnphysicalStateError(f"{name} has the negative eigenvalue {smallest[first]}")


def density(r) -> np.ndarray:
    """Qubit density matrix I/2 + r.J for a Bloch vector r, |r| <= 1."""
    r1, r2, r3 = check_bloch(r).tolist()
    h1, h2, h3 = 0.5 * r1, 0.5 * r2, 0.5 * r3
    return np.array([[0.5 + h3, complex(h1, -h2)], [complex(h1, h2), 0.5 - h3]])


def lift(u) -> np.ndarray:
    """u (x) I_2: a 2x2 operator acting on a qubit with an idle ancilla.

    The Kronecker product with the 2x2 identity, written as two strided
    copies of u: one on the even rows and columns, one on the odd.  A stack
    of 2x2 matrices, shape ``(..., 2, 2)``, is lifted matrix by matrix.
    """
    out = np.zeros(np.shape(u)[:-2] + (4, 4), dtype=complex)
    out[..., 0::2, 0::2] = u
    out[..., 1::2, 1::2] = u
    return out
