"""Quantum Fisher information from generator coefficient vectors.

A generator is its real coefficient 3-vector Y, with H = Y.J.  For a pure
qubit probe with Bloch vector r the per-parameter information is
|Y|^2 - (Y.r)^2 and the full matrix entry is Y_a.Y_b - (Y_a.r)(Y_b.r).  The
per-parameter maximum |Y|^2 is bounded by T^2 |dX|^2 and reaches that ceiling
exactly in the controlled |X + X_c| -> 0 limit.  Attainability of all maxima
at once is governed by the weak commutation residuals
Tr[[H_a, H_b] rho] = (i/2) (Y_a x Y_b).r; a maximally entangled probe plus an
idle ancilla makes every residual vanish and the ceiling unconditional.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra
from .algebra import as_vec3, check_bloch
from .errors import DimensionalityError, NormalizationError, UnphysicalStateError
from .generators import closed_form_generator
from .scheme import SchemeConfig
from .tolerances import ATTAINABILITY, PURITY

PURE_QUBIT = "pure_qubit"
ENTANGLED_WITH_ANCILLA = "entangled_with_ancilla"

# canonical maximally entangled two-qubit probe (|00> + |11>) / sqrt(2)
BELL_PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)


def _squared_norms(gens: np.ndarray) -> np.ndarray:
    """|Y|^2 over the last axis, rounded the same way for one vector or a stack."""
    return (gens * gens).sum(axis=-1)


def qfi_pure(gen, r) -> float:
    """QFI of one parameter for a pure qubit probe: |Y|^2 - (Y.r)^2."""
    r = check_bloch(r)
    gen = as_vec3(gen)
    return float(np.dot(gen, gen) - np.dot(gen, r) ** 2)


def qfim_pure(gens, r) -> np.ndarray:
    """QFI matrix for a pure qubit probe: Y Y^T - (Y r)(Y r)^T.

    ``gens`` stacks the generators Y_a as rows; the diagonal reduces to
    ``qfi_pure``.
    """
    r = check_bloch(r)
    gens = np.asarray(gens, dtype=float).reshape(-1, 3)
    proj = gens @ r
    return gens @ gens.T - np.outer(proj, proj)


def qfi_max_from_angle(x_norm, dx_norm, alpha, total_time):
    """Maximal QFI given |X|, |dX|, their angle and the total time.

    Evaluated as T^2 |dX|^2 [cos^2(a) + sin^2(a) sinc^2(T|X|/2)], which is
    exact for |X| > 0 and continuous at |X| = 0 where it reaches the ceiling
    T^2 |dX|^2.  The arguments broadcast against each other: array arguments
    give an array, scalar arguments a float.
    """
    z_half = total_time * x_norm / 2.0
    sinc = np.sinc(z_half / np.pi)  # sin(z_half)/z_half, exactly 1 at 0
    value = total_time**2 * dx_norm**2 * (np.cos(alpha) ** 2 + np.sin(alpha) ** 2 * sinc**2)
    return value if isinstance(value, np.ndarray) and value.ndim else float(value)


def qfi_max(x_coeff, d_coeff, total_time: float) -> float:
    """Maximal QFI of a parameter for coefficients X and partial dX: |Y|^2.

    Y comes from ``closed_form_generator``, so this equals
    T^2 |dX|^2 cos^2(a) + (4 |dX|^2 sin^2(a) / |X|^2) sin^2(T|X|/2), with the
    |X| -> 0 limit T^2 |dX|^2 and a vanishing dX giving 0.  With control,
    pass S = X + X_c for X: as |S| -> 0 the maximum attains the ceiling
    T^2 |dX|^2 for every geometry.
    """
    return float(_squared_norms(closed_form_generator(x_coeff, as_vec3(d_coeff), total_time)))


def weak_comm_matrix(gens, r) -> np.ndarray:
    """Antisymmetric W with Tr[[H_a, H_b] rho] = i W_ab, for every pair of a stack.

    W_ab = (Y_a x Y_b).r / 2 for a qubit probe with Bloch vector r.  With
    G = Y [r]x Y^T, whose entry G_ab = -(Y_a x Y_b).r, W is (G^T - G)/4:
    exactly antisymmetric, with a zero diagonal.
    """
    r = check_bloch(r)
    gens = np.asarray(gens, dtype=float).reshape(-1, 3)
    g = gens @ algebra.cross_matrix(r) @ gens.T
    return 0.25 * (g.T - g)


def weak_comm_residual(gen_a, gen_b, r) -> complex:
    """Tr[[H_a, H_b] rho] for a qubit probe: (i/2) (Y_a x Y_b).r.

    Purely imaginary; zero exactly when the cross of the generators is
    orthogonal to the Bloch vector.
    """
    return 1j * float(weak_comm_matrix([as_vec3(gen_a), as_vec3(gen_b)], r)[0, 1])


def entangled_qfi(gen) -> float:
    """QFI with a maximally entangled probe and idle ancilla: |Y|^2, always.

    The reduced probe state is I/2, so the direction of Y drops out entirely
    and the maximum is attained unconditionally.
    """
    return float(_squared_norms(as_vec3(gen)))


def entangled_weak_comm(gen_a, gen_b, probe: np.ndarray) -> complex:
    """Weak-commutation trace on an explicit two-qubit probe.

    The generators act as H (x) I on the 4-dimensional probe.  For any probe
    whose reduced state is I/2 (maximal entanglement) the result is zero for
    every generator pair; product probes generically give a nonzero value.
    """
    probe = np.asarray(probe, dtype=complex).reshape(-1)
    if probe.shape != (4,):
        raise DimensionalityError("probe must be a 4-dimensional state vector")
    if abs(np.linalg.norm(probe) - 1.0) > PURITY:
        raise NormalizationError(f"probe norm {np.linalg.norm(probe)} is not 1")
    eye = np.eye(2, dtype=complex)
    ha = np.kron(algebra.su2_element(gen_a), eye)
    hb = np.kron(algebra.su2_element(gen_b), eye)
    rho = np.outer(probe, probe.conj())
    return complex(np.trace((ha @ hb - hb @ ha) @ rho))


@dataclass(frozen=True, eq=False)
class QfimReport:
    """Everything one run of the estimation analysis produces.

    ``qfi_max`` holds |Y_l|^2, read off the generators the QFIM is built from;
    ``weak_comm_residuals`` holds the magnitudes |Tr[[H_a, H_b] rho]|;
    ``precision_bounds`` is the single-shot standard-deviation floor per
    parameter (infinite where the information vanishes); ``attainable``
    states whether all per-parameter maxima and all residual conditions are
    met simultaneously, within a slack relative to the largest maximum.
    """

    qfim: np.ndarray
    qfi_max: np.ndarray
    weak_comm_residuals: np.ndarray
    precision_bounds: np.ndarray
    attainable: bool
    probe_kind: str
    parameter_names: tuple = ()

    def to_dict(self) -> dict:
        return {
            "qfim": [[float(v) for v in row] for row in self.qfim],
            "qfi_max": [float(v) for v in self.qfi_max],
            "weak_comm_residuals": [[float(v) for v in row] for row in self.weak_comm_residuals],
            "precision_bounds": [float(v) for v in self.precision_bounds],
            "attainable": bool(self.attainable),
            "probe_kind": self.probe_kind,
            "parameter_names": list(self.parameter_names),
        }


def scheme_generators(scheme: SchemeConfig, x) -> np.ndarray:
    """Closed-form generators Y_l of every parameter at ``x``, one row each.

    The control enters through S = X + X_c.  A partial that vanishes at
    ``x`` (for example the azimuth at a pole) gives Y_l = 0: zero
    information.
    """
    return closed_form_generator(
        scheme.effective_coefficients(x), scheme.partials_at(x), scheme.total_time
    )


def _precision_bounds(qfim: np.ndarray, slack: float) -> np.ndarray:
    """Single-shot standard-deviation floor per parameter.

    1/sqrt of the diagonal when every off-diagonal entry is within ``slack``,
    else sqrt of the pseudo-inverse's diagonal, which treats singular values
    at or below ``slack`` as zero: a rank-deficient QFIM's null eigenvalue is
    rounding noise on the scale of the largest maximum, not information.
    """
    diag = np.diag(qfim)
    if np.abs(qfim - np.diag(diag)).max(initial=0.0) <= slack:
        with np.errstate(divide="ignore"):
            return np.where(diag > 0.0, 1.0 / np.sqrt(np.maximum(diag, 0.0)), np.inf)
    # np.linalg.pinv's arithmetic with an absolute cutoff
    u, s, vt = np.linalg.svd(qfim, full_matrices=False)
    inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=s > slack)
    inv_diag = np.diag(vt.T @ (inv_s[:, None] * u.T))
    with np.errstate(divide="ignore"):
        return np.where(inv_diag > 0.0, np.sqrt(np.maximum(inv_diag, 0.0)), np.inf)


def build_report(
    scheme: SchemeConfig,
    x,
    probe_kind: str,
    r=None,
    parameter_names: tuple = (),
) -> QfimReport:
    """Assemble the QFIM, maxima, residuals, bounds and attainability verdict.

    Every per-parameter number is read off the closed-form generators Y_l,
    built once; the maxima are |Y_l|^2.  A pure qubit probe needs a unit
    Bloch vector ``r``.  The entangled probe needs none: its reduced state is
    I/2, so it takes the same formulas with r = 0 and every residual vanishes
    (``entangled_weak_comm`` checks this on 4x4 matrices).  The verdict's
    slack is ATTAINABILITY * max(1, largest maximum).

    The closed forms evaluated here assume merged-exponential composition;
    for a product-mode scheme they describe the small-t limit, and the
    finite-difference oracles quantify the gap.
    """
    if scheme.n_params > 3:
        raise DimensionalityError(
            f"{scheme.n_params} parameters requested; an su(2) coefficient vector encodes at most 3"
        )
    gens = scheme_generators(scheme, x)
    if probe_kind == PURE_QUBIT:
        if r is None:
            raise UnphysicalStateError("a pure qubit probe requires a Bloch vector r")
        r = check_bloch(r)
        if not abs(np.linalg.norm(r) - 1.0) <= PURITY:
            raise UnphysicalStateError(
                "pure-probe analysis requires |r| = 1; the variance formula is "
                "not the QFI for mixed probes"
            )
    elif probe_kind == ENTANGLED_WITH_ANCILLA:
        r = np.zeros(3)
    else:
        raise ValueError(f"unknown probe kind {probe_kind!r}")

    maxima = _squared_norms(gens)
    qfim = qfim_pure(gens, r)
    residuals = np.abs(weak_comm_matrix(gens, r))

    slack = ATTAINABILITY * max(1.0, float(maxima.max(initial=0.0)))
    attainable = bool(
        residuals.max(initial=0.0) <= slack and np.all(np.diag(qfim) >= maxima - slack)
    )
    return QfimReport(
        qfim=qfim,
        qfi_max=maxima,
        weak_comm_residuals=residuals,
        precision_bounds=_precision_bounds(qfim, slack),
        attainable=attainable,
        probe_kind=probe_kind,
        parameter_names=tuple(parameter_names),
    )
