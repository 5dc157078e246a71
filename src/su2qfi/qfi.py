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

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import algebra
from .algebra import as_vec3, check_bloch
from .errors import (DegenerateVectorError, DimensionalityError, InexactCompositionError,
                     UnphysicalStateError)
from .generators import closed_form_generator
from .oracles import weak_comm_trace_oracle
from .scheme import PRODUCT, SchemeConfig
from .tolerances import ATTAINABILITY, PURITY

_TINY = sys.float_info.min  # the smallest normal double

PURE_QUBIT = "pure_qubit"
ENTANGLED_WITH_ANCILLA = "entangled_with_ancilla"


def _squared_norms(gens: np.ndarray) -> list:
    """|Y|^2 of each row of ``gens`` in Python floats, in numpy's order (a square is never
    -0.0), which overflow to inf silently: ``OverflowError`` naming |Y|^2 where one is inf."""
    norms = [y1 * y1 + y2 * y2 + y3 * y3 for y1, y2, y3 in gens.reshape(-1, 3).tolist()]
    if not all(map(math.isfinite, norms)):
        raise OverflowError(f"the information |Y|^2 = {norms} overflows double precision")
    return norms


def qfim_pure(gens, r) -> np.ndarray:
    """QFI matrix for a pure qubit probe: Y Y^T - (Y r)(Y r)^T.

    ``gens`` stacks the generators Y_a as rows; diagonal entry a is the
    single-parameter information |Y_a|^2 - (Y_a.r)^2.  At r = 0, the reduced
    state of a maximally entangled probe, it is the entangled-probe QFIM.
    """
    r = check_bloch(r)
    gens = np.asarray(gens, dtype=float).reshape(-1, 3)
    proj = gens @ r
    return gens @ gens.T - proj[:, None] * proj[None, :]


def _information(total_time, dx_norm, factor=1.0):
    """T^2 |dX|^2 times ``factor``, a factor in [0, 1], broadcast over the arguments.

    Evaluated as (T^2 |dX|^2) factor.  An entry where T^2 or |dX|^2 is not a
    normal double, while (T |dX|)^2 may well be, is recomputed from the
    mantissas of T = m_T 2^e_T and |dX| = m_dX 2^e_dX as
    m_T^2 m_dX^2 factor 2^(2 e_T + 2 e_dX), an exact rescale that rounds once
    more.  An entry that is not finite raises ``OverflowError``.
    """
    # a Python float's ** raises an errno OverflowError that names nothing; an
    # np.float64 squares through the same libm pow and overflows to inf
    total_time, dx_norm = np.float64(total_time), np.float64(dx_norm)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below instead
        t2, d2 = total_time**2, dx_norm**2
        info = t2 * d2 * factor
        normal = (_TINY <= t2) & (t2 < math.inf) & (_TINY <= d2) & (d2 < math.inf)
        if not normal.all():
            (m_t, e_t), (m_d, e_d) = np.frexp(total_time), np.frexp(dx_norm)
            rescaled = np.ldexp(m_t * m_t * (m_d * m_d) * factor, 2 * (e_t + e_d))
            info = np.where(normal, info, rescaled)[()]
    if not np.isfinite(info).all():
        raise OverflowError("the information (T |dX|)^2 or the phase T|X| overflows")
    return info


def qfi_max_from_angle(x_norm, dx_norm, alpha, total_time):
    """Maximal QFI given |X|, |dX|, their angle and the total time.

    Evaluated as T^2 |dX|^2 [cos^2(a) + sin^2(a) sinc^2(T|X|/2)], which is
    exact for |X| > 0 and continuous at |X| = 0 where it reaches the ceiling
    T^2 |dX|^2.  The arguments broadcast against each other: array arguments
    give an array, scalar arguments an ``np.float64``.  Where T^2 or |dX|^2
    alone leaves the normal range the entry is rescaled exactly (see
    ``_information``); an entry that leaves the float range, through the
    information (T |dX|)^2 or the phase T|X|, raises ``OverflowError``.
    """
    total_time = np.float64(total_time)
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN factor raises in _information
        z_half = total_time * x_norm / 2.0
        sinc = np.sinc(z_half / np.pi)  # sin(z_half)/z_half, exactly 1 at 0
        factor = np.cos(alpha) ** 2 + np.sin(alpha) ** 2 * sinc**2
    return _information(total_time, dx_norm, factor)


def qfi_max(x_coeff, d_coeff, total_time: float) -> float:
    """Maximal QFI of a parameter for coefficients X and partial dX: |Y|^2.

    Y comes from ``closed_form_generator``, so this equals
    T^2 |dX|^2 cos^2(a) + (4 |dX|^2 sin^2(a) / |X|^2) sin^2(T|X|/2), with the
    |X| -> 0 limit T^2 |dX|^2 and a vanishing dX giving 0.  With control,
    pass S = X + X_c for X: as |S| -> 0 the maximum attains the ceiling
    T^2 |dX|^2 for every geometry.  A |Y|^2 past double precision raises ``OverflowError``.
    """
    return _squared_norms(closed_form_generator(x_coeff, as_vec3(d_coeff), total_time))[0]


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


def entangled_weak_comm(gen_a, gen_b, probe: np.ndarray):
    """Weak-commutation trace on an explicit two-qubit probe.

    The generators act as H (x) I on the 4-dimensional probe.  For any probe
    whose reduced state is I/2 (maximal entanglement) the result is zero for
    every generator pair; product probes generically give a nonzero value.
    ``gen_a`` and ``gen_b`` are 3-vectors, giving a ``complex``, or
    ``(s, 3)`` stacks of one shape, giving one trace per row.  A probe that
    is not a normalized 4-vector raises ``UnphysicalStateError``.
    """
    probe = np.asarray(probe, dtype=complex).reshape(-1)
    if probe.shape != (4,):
        raise UnphysicalStateError("probe must be a 4-dimensional state vector")
    if not abs(np.vdot(probe, probe).real - 1.0) <= PURITY:  # then its projector is a state
        raise UnphysicalStateError("probe state vector is not normalized")
    gen_a, gen_b = np.asarray(gen_a, dtype=float), np.asarray(gen_b, dtype=float)
    if gen_a.shape != gen_b.shape or gen_a.shape[-1:] != (3,) or gen_a.ndim > 2:
        shapes = f"{gen_a.shape} and {gen_b.shape}"
        raise DegenerateVectorError(f"expected two 3-vectors or two (s, 3) stacks, got {shapes}")
    pair = algebra.lift(algebra.su2_element(np.stack([gen_a, gen_b], axis=-2)))
    projector = probe[:, None] * probe.conj()[None, :]  # np.outer's product
    traces = weak_comm_trace_oracle(pair, projector)[..., 0, 1]
    return complex(traces) if gen_a.ndim == 1 else traces


@dataclass(frozen=True, eq=False)
class QfimReport:
    """Everything one run of the estimation analysis produces.

    ``qfi_max`` holds |Y_l|^2, read off the generators the QFIM is built from;
    ``weak_comm_residuals`` holds the magnitudes |Tr[[H_a, H_b] rho]|;
    ``precision_bounds`` is the single-shot standard-deviation floor per
    parameter (infinite where the parameter is not identifiable); ``attainable``
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
        """Every field by name, in declaration order, with arrays as nested lists."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in values.items()}


def scheme_generators(scheme: SchemeConfig, x) -> np.ndarray:
    """Closed-form generators Y_l of every parameter at ``x``, one row each.

    The control enters through S = X + X_c.  A partial that vanishes at
    ``x`` (for example the azimuth at a pole) gives Y_l = 0: zero
    information.  The closed forms describe exp(-i N t (X + X_c).J), which
    the segment product equals only without control: a product-mode scheme
    with a nonzero control raises ``InexactCompositionError``.
    """
    if scheme.mode == PRODUCT and any(scheme.control.tolist()):  # -0.0 counts as zero
        raise InexactCompositionError(
            f"product mode with the nonzero control {scheme.control.tolist()} is not the merged "
            "exponential the closed forms describe; use merged mode or a zero control")
    return closed_form_generator(
        scheme.effective_coefficients(x), scheme.partials_at(x), scheme.total_time
    )


def _precision_bounds(gens: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Single-shot standard-deviation floor per parameter: 1/dist(Y_l, span O_l).

    O_l holds the other rows of ``gens`` and then r, read as a direction: the
    entangled probe's r = 0 drops out like a zero row.  Scaled by a power of
    two into [1/2, 1), a vector joins the basis a, b where its cross or triple
    product with it is not exactly 0; a third spans R^3: dist = 0.  Else dist
    is |Y_l.(a x b)|/|a x b|, |Y_l x a|/|a| or |Y_l|: Cramer's rule where the
    QFIM F is invertible, else e_l^T F^+ e_l where e_l lies in range(F), and
    inf where it does not.  The rule runs on Python floats throughout, with
    ``algebra.cross3`` for the cross products and the three-term dot products
    written out, and builds one array: the result.
    """
    rows, bounds, spanning = gens.tolist(), [], []
    # the nonzero vectors of O_1, ..., O_d, scaled, with their row indices (r is index d)
    for k, (v1, v2, v3) in enumerate(rows + [r.tolist()]):
        if v1 or v2 or v3:
            e = -math.frexp(max(abs(v1), abs(v2), abs(v3)))[1]
            spanning.append((k, [math.ldexp(v1, e), math.ldexp(v2, e), math.ldexp(v3, e)]))
    for ell, y in enumerate(rows):
        a = w = None  # the basis so far: a, then w = a x b
        for k, v in spanning:
            if k == ell:
                continue
            if a is None:
                a = v
            elif w is None:
                w = normal if any(normal := algebra.cross3(a, v)) else None
            elif w[0] * v[0] + w[1] * v[1] + w[2] * v[2] != 0.0:  # O_l spans R^3
                bounds.append(math.inf)
                break
        else:
            if w is not None:
                dist = abs(y[0] * w[0] + y[1] * w[1] + y[2] * w[2]) / math.hypot(*w)
            elif a is not None:
                dist = math.hypot(*algebra.cross3(y, a)) / math.hypot(*a)
            else:
                dist = math.hypot(*y)
            bounds.append(1.0 / dist if dist > 0.0 else math.inf)
    return np.array(bounds)


def build_report(
    scheme: SchemeConfig, x, probe_kind: str, r=None, parameter_names: tuple = ()
) -> QfimReport:
    """Assemble the QFIM, maxima, residuals, bounds and attainability verdict.

    Every per-parameter number is read off the closed-form generators Y_l,
    built once; the maxima are |Y_l|^2.  A pure qubit probe needs a unit
    Bloch vector ``r``, and one within ``PURITY`` of unit length is read as
    r/|r|: the QFIM is ``qfim_pure(Y, r)`` and the residuals are
    the magnitudes of ``weak_comm_matrix(Y, r)``.  The entangled probe needs
    none: its reduced state is I/2, so its QFIM is ``qfim_pure`` at r = 0 and
    every residual vanishes (``entangled_weak_comm`` checks this on 4x4
    matrices).  The slack ATTAINABILITY * largest maximum, free of the units
    of dX, is the verdict's only: ``_precision_bounds`` takes none.

    Scaling every gradient by a power of two c scales the QFIM, maxima and
    residuals by c^2 and the bounds by 1/c, and keeps the verdict, exactly
    unless a rounding in either report falls below 2^-1022, where fewer bits
    are kept and the two reports agree only to the formulas' rounding error.

    A controlled product-mode scheme, which the closed forms do not
    describe, raises ``InexactCompositionError`` (see ``scheme_generators``).
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
        length = algebra.euclidean_norm(r)
        if not abs(length - 1.0) <= PURITY:
            raise UnphysicalStateError("pure-probe analysis requires |r| = 1; the variance "
                                       "formula is not the QFI for mixed probes")
        if length != 1.0:  # every field, like the bounds, reads r as a direction
            r = r / length
    elif probe_kind == ENTANGLED_WITH_ANCILLA:
        r = np.zeros(3)
    else:
        raise ValueError(f"unknown probe kind {probe_kind!r}")

    norms = _squared_norms(gens)
    maxima, largest = np.array(norms), max(norms, default=0.0)
    qfim = qfim_pure(gens, r)
    if not np.isfinite(qfim).all():
        raise OverflowError(f"a QFIM entry overflows double precision, with |Y|^2 = {norms}")
    if probe_kind == PURE_QUBIT:
        residuals = np.abs(weak_comm_matrix(gens, r))
    else:  # r = 0: every residual vanishes
        residuals = np.zeros(qfim.shape)

    slack = ATTAINABILITY * largest
    attainable = bool(
        residuals.max(initial=0.0) <= slack and (qfim.diagonal() >= maxima - slack).all()
    )
    return QfimReport(
        qfim=qfim,
        qfi_max=maxima,
        weak_comm_residuals=residuals,
        precision_bounds=_precision_bounds(gens, r),
        attainable=attainable,
        probe_kind=probe_kind,
        parameter_names=tuple(parameter_names),
    )
