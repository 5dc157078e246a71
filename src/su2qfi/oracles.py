"""Brute-force matrix oracles.

Every closed form in this package is cross-checked against a dumb, explicit
matrix computation: variance/covariance traces for the information
quantities, central finite differences on the total unitary for generators
and SLD operators, and a 4-dimensional state-vector derivative for the
entangled-probe information.  The oracles deliberately share no algebra with
the closed forms they check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra
from .errors import StepSizeError, UnphysicalStateError
from .qfi import BELL_PHI_PLUS
from .scheme import SchemeConfig, build_total_unitary

_EYE2 = np.eye(2, dtype=complex)


def variance_qfi_oracle(h_mat: np.ndarray, rho: np.ndarray) -> float:
    """4 (Tr[H^2 rho] - Tr[H rho]^2) on explicit matrices."""
    m1 = np.trace(h_mat @ rho).real
    m2 = np.trace(h_mat @ h_mat @ rho).real
    return float(4.0 * (m2 - m1**2))


def qfim_trace_oracle(h_mats, rho: np.ndarray) -> np.ndarray:
    """QFIM entries 4 ( Tr[{H_a, H_b} rho]/2 - Tr[H_a rho H_b rho] ).

    Exact for a pure ``rho``; works in any dimension.
    """
    d = len(h_mats)
    out = np.zeros((d, d))
    for a in range(d):
        for b in range(d):
            sym = 0.5 * np.trace((h_mats[a] @ h_mats[b] + h_mats[b] @ h_mats[a]) @ rho)
            cross = np.trace(h_mats[a] @ rho @ h_mats[b] @ rho)
            out[a, b] = 4.0 * (sym - cross).real
    return out


def weak_comm_trace_oracle(h_a: np.ndarray, h_b: np.ndarray, rho: np.ndarray) -> complex:
    """Tr[[H_a, H_b] rho] on explicit matrices."""
    return complex(np.trace((h_a @ h_b - h_b @ h_a) @ rho))


def entangled_probe_state(u_tot: np.ndarray) -> np.ndarray:
    """(U (x) I) applied to the canonical maximally entangled probe."""
    return np.kron(u_tot, _EYE2) @ BELL_PHI_PLUS


def entangled_qfi_oracle(gen) -> float:
    """Entangled-probe QFI of the generator Y through the 4x4 variance trace."""
    h4 = np.kron(algebra.su2_element(gen), _EYE2)
    rho4 = np.outer(BELL_PHI_PLUS, BELL_PHI_PLUS.conj())
    return variance_qfi_oracle(h4, rho4)


def entangled_qfim_fd(scheme: SchemeConfig, x, h: float = 1e-6) -> np.ndarray:
    """Entangled-probe QFIM by finite differences of the evolved state.

    Entry (a, b) is 4 Re( <da psi|db psi> - <da psi|psi><psi|db psi> ) with
    |psi(x)> = (U_tot(x) (x) I) |Phi+> and the derivatives taken by central
    differences, control held fixed.
    """
    if not 1e-12 <= h <= 1e-2:
        raise StepSizeError(f"finite-difference step {h} outside [1e-12, 1e-2]")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = scheme.n_params
    psi0 = entangled_probe_state(build_total_unitary(scheme, x))
    dpsi = []
    for ell in range(d):
        xp = x.copy()
        xm = x.copy()
        xp[ell] += h
        xm[ell] -= h
        up = entangled_probe_state(build_total_unitary(scheme, xp))
        um = entangled_probe_state(build_total_unitary(scheme, xm))
        dpsi.append((up - um) / (2.0 * h))
    out = np.zeros((d, d))
    for a in range(d):
        for b in range(d):
            val = np.vdot(dpsi[a], dpsi[b]) - np.vdot(dpsi[a], psi0) * np.vdot(psi0, dpsi[b])
            out[a, b] = 4.0 * val.real
    return out


def _check_density(probe: np.ndarray) -> np.ndarray:
    probe = np.asarray(probe, dtype=complex)
    if probe.ndim != 2 or probe.shape[0] != probe.shape[1] or probe.shape[0] not in (2, 4):
        raise UnphysicalStateError("probe must be a 2x2 or 4x4 density matrix")
    if abs(np.trace(probe) - 1.0) > 1e-9:
        raise UnphysicalStateError(f"probe trace {np.trace(probe)} is not 1")
    if np.abs(probe - probe.conj().T).max() > 1e-9:
        raise UnphysicalStateError("probe is not Hermitian")
    return probe


@dataclass(frozen=True, eq=False)
class SldOracleResult:
    """Finite-difference SLD operators plus the consistency residuals.

    ``residuals[a, b]`` is |Tr[[L_a, L_b] rho_x] + 4 Tr[[H_a, H_b] rho_in]|,
    which vanishes identically: the SLDs conjugated back through the total
    unitary are 2i times the generators.
    """

    slds: list
    generators: list
    u_tot: np.ndarray
    rho_x: np.ndarray
    residuals: np.ndarray


def sld_oracle(scheme: SchemeConfig, x, probe: np.ndarray, h: float = 1e-6) -> SldOracleResult:
    """SLD operators L = 2 (dU) U^dag by central differences.

    The probe may live on the bare qubit (2x2) or on qubit plus ancilla
    (4x4); in the latter case the dynamics acts as U (x) I.  Alongside the
    SLDs, the generators i (dU^dag) U, symmetrized, are read off the same
    differences, and the weak-commutation consistency residual is evaluated
    for every pair.
    """
    probe = _check_density(probe)
    if not 1e-12 <= h <= 1e-2:
        raise StepSizeError(f"finite-difference step {h} outside [1e-12, 1e-2]")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    with_ancilla = probe.shape[0] == 4

    def lift(u):
        return np.kron(u, _EYE2) if with_ancilla else u

    u = build_total_unitary(scheme, x)
    u0 = lift(u)
    rho_x = u0 @ probe @ u0.conj().T
    slds = []
    gens = []
    for ell in range(scheme.n_params):
        xp = x.copy()
        xm = x.copy()
        xp[ell] += h
        xm[ell] -= h
        du = (build_total_unitary(scheme, xp) - build_total_unitary(scheme, xm)) / (2.0 * h)
        slds.append(2.0 * lift(du) @ u0.conj().T)
        gen = 1j * du.conj().T @ u
        gens.append(lift((gen + gen.conj().T) / 2.0))
    d = scheme.n_params
    residuals = np.zeros((d, d))
    for a in range(d):
        for b in range(d):
            lhs = weak_comm_trace_oracle(slds[a], slds[b], rho_x)
            rhs = -4.0 * weak_comm_trace_oracle(gens[a], gens[b], probe)
            residuals[a, b] = abs(lhs - rhs)
    return SldOracleResult(slds=slds, generators=gens, u_tot=u0, rho_x=rho_x, residuals=residuals)
