"""Brute-force matrix oracles.

Every closed form in this package is cross-checked against a dumb, explicit
matrix computation: variance/covariance traces for the information
quantities, and central finite differences of the total unitary
(``scheme.unitary_derivatives``) for the SLD operators and the
entangled-probe QFIM.  The oracles deliberately share no algebra with the
closed forms they check.  Every oracle but ``entangled_qfim_fd`` takes
leading sample axes, so one call takes a whole stack of 2x2 or 4x4 samples;
``sld_oracle`` takes U and dU, which ``unitary_derivatives`` builds one
scheme at a time.
``qfi.entangled_weak_comm``, a 4x4 matrix check rather than a closed form,
takes its trace from ``weak_comm_trace_oracle``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra
from .generators import generators_from_derivatives
from .scheme import SchemeConfig, unitary_derivatives

# canonical maximally entangled two-qubit probe (|00> + |11>) / sqrt(2) and its projector
BELL_PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
BELL_PROJECTOR = BELL_PHI_PLUS[:, None] * BELL_PHI_PLUS.conj()[None, :]


def variance_qfi_oracle(h_mat: np.ndarray, rho: np.ndarray):
    """4 (Tr[H^2 rho] - Tr[H rho]^2) on explicit matrices.

    ``h_mat`` and ``rho`` broadcast over leading axes: one H and one state
    give an ``np.float64``, stacks give an array of one value per sample.
    """
    m1 = np.trace(h_mat @ rho, axis1=-2, axis2=-1).real
    m2 = np.trace(h_mat @ h_mat @ rho, axis1=-2, axis2=-1).real
    return 4.0 * (m2 - m1**2)


def qfim_trace_oracle(h_mats, rho: np.ndarray) -> np.ndarray:
    """QFIM entries 4 ( Tr[{H_a, H_b} rho]/2 - Tr[H_a rho H_b rho] ).

    Exact for a pure ``rho``; works in any dimension.  The matrices are
    stacked as (d, n, n) and every pair (a, b) is formed by one broadcast
    product.  A leading sample axis, (s, d, n, n) with ``rho`` as (s, n, n),
    gives the (s, d, d) stack of the samples' QFIMs.
    """
    h = np.asarray(h_mats)
    rho = np.asarray(rho)[..., None, None, :, :]
    pairs = h[..., :, None, :, :] @ h[..., None, :, :, :]  # H_a H_b at [a, b]
    sym = 0.5 * np.trace((pairs + pairs.swapaxes(-3, -4)) @ rho, axis1=-2, axis2=-1)
    h_rho = h[..., :, None, :, :] @ rho
    cross = np.trace(h_rho @ h_rho.swapaxes(-3, -4), axis1=-2, axis2=-1)
    return 4.0 * (sym - cross).real


def weak_comm_trace_oracle(h: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Tr[[H_a, H_b] rho] for every pair (a, b) of the ``(..., d, n, n)`` stack ``h``.

    ``rho`` is ``(..., n, n)`` and broadcasts against the leading axes of
    ``h``; the result is ``(..., d, d)``.  P_ab = Tr[H_a H_b rho] comes from
    one stacked ``h @ rho`` and one ``(d, n^2) @ (n^2, d)`` product, and the
    traces are P - P^T: exactly antisymmetric, with a zero diagonal.
    """
    h = np.asarray(h)
    h_rho = h @ np.asarray(rho)[..., None, :, :]
    n2 = h.shape[-1] * h.shape[-2]
    # P_ab = sum_ij (H_a)_ij (H_b rho)_ji, so H_b rho enters transposed
    left = h.reshape(h.shape[:-2] + (n2,))
    right = h_rho.swapaxes(-1, -2).reshape(h_rho.shape[:-2] + (n2,))
    pairs = left @ right.swapaxes(-1, -2)
    return pairs - pairs.swapaxes(-1, -2)


def entangled_qfi_oracle(gen):
    """Entangled-probe QFI of the generator Y through the 4x4 variance trace.

    ``gen`` is one 3-vector, giving an ``np.float64``, or a ``(s, 3)`` stack,
    giving one value per row.
    """
    return variance_qfi_oracle(algebra.lift(algebra.su2_element(gen)), BELL_PROJECTOR)


def entangled_qfim_fd(scheme: SchemeConfig, x) -> np.ndarray:
    """Entangled-probe QFIM by finite differences of the evolved state.

    Entry (a, b) is 4 Re( <da psi|db psi> - <da psi|psi><psi|db psi> ) with
    |psi(x)> = (U_tot(x) (x) I) |Phi+>, so |da psi> = (dU_a (x) I) |Phi+> with dU_a
    from ``scheme.unitary_derivatives``; all pairs come from one Gram matrix.
    """
    u, du = unitary_derivatives(scheme, x)
    psi = algebra.lift(u) @ BELL_PHI_PLUS
    dpsi = algebra.lift(du) @ BELL_PHI_PLUS
    overlaps = dpsi.conj() @ psi  # <da psi|psi>
    gram = dpsi.conj() @ dpsi.T
    return 4.0 * (gram - overlaps[:, None] * overlaps.conj()[None, :]).real


@dataclass(frozen=True, eq=False)
class SldOracleResult:
    """Finite-difference SLD operators plus the consistency residuals.

    ``residuals[a, b]`` is |Tr[[L_a, L_b] rho_x] + 4 Tr[[H_a, H_b] rho_in]|,
    with rho_x = U rho_in U^dag the evolved probe, and vanishes identically:
    the SLDs conjugated back through the total unitary are 2i times the
    generators.
    """

    slds: np.ndarray
    generators: np.ndarray
    u_tot: np.ndarray
    residuals: np.ndarray


def sld_oracle(u: np.ndarray, du: np.ndarray, probe: np.ndarray) -> SldOracleResult:
    """SLD operators L = 2 (dU) U^dag from the central differences dU of U.

    ``u`` is ``(..., 2, 2)``, ``du`` the ``(..., d, 2, 2)`` stack of its
    differences and ``probe`` ``(..., n, n)``, leading axes one per sample,
    as ``scheme.unitary_derivatives`` returns them for one scheme.  Every
    probe passes ``algebra.check_density``, and all live on the bare qubit
    (2x2) or all on qubit plus ancilla (4x4), where the dynamics acts as
    U (x) I.  The generators i (dU^dag) U, symmetrized, are read off the same
    differences, and the weak-commutation consistency residual is evaluated
    for every pair.  A zero row of ``du``, such as the padding that stacks
    samples with fewer parameters, gives zero SLD, generator and residual
    rows and columns.
    """
    probe = algebra.check_density(probe)
    gens = generators_from_derivatives(u, du)
    if probe.shape[-1] == 4:
        u, du, gens = algebra.lift(u), algebra.lift(du), algebra.lift(gens)
    u_dag = u.conj().swapaxes(-1, -2)
    rho_x = u @ probe @ u_dag
    slds = 2.0 * du @ u_dag[..., None, :, :]
    # entry (b, a) of each trace is exactly minus entry (a, b), and the
    # diagonal is exactly zero
    gap = weak_comm_trace_oracle(slds, rho_x) + 4.0 * weak_comm_trace_oracle(gens, probe)
    # |gap| as the scalar abs rounds it: numpy's vectorized absolute of a
    # complex array may differ from it in the last bit
    residuals = np.hypot(gap.real, gap.imag)
    return SldOracleResult(slds=slds, generators=gens, u_tot=u, residuals=residuals)
