"""Quantum Fisher information for su(2) parametrization processes.

Closed-form generators, QFI matrices and control-enhanced maxima for
sequential estimation schemes on a qubit, every formula cross-checked
against brute-force matrix oracles, plus the spin-1/2 magnetometry worked
example and a CLI that emits the corresponding data tables.
"""

__version__ = "0.1.0"

from .algebra import (
    angle_between,
    cross,
    density,
    nested_cross,
    purity,
    su2_element,
    su2_exp,
)
from .errors import (
    DegenerateVectorError,
    DimensionalityError,
    NormalizationError,
    SeriesDepthError,
    StepSizeError,
    Su2QfiError,
    UnphysicalStateError,
)
from .generators import (
    closed_form_generator,
    numeric_generator,
    series_generator,
)
from .magnetometry import (
    FieldPoint,
    magnetometry_scheme,
    precision_curves,
)
from .oracles import (
    entangled_qfim_fd,
    qfim_trace_oracle,
    sld_oracle,
    variance_qfi_oracle,
    weak_comm_trace_oracle,
)
from .qfi import (
    BELL_PHI_PLUS,
    ENTANGLED_WITH_ANCILLA,
    PURE_QUBIT,
    QfimReport,
    build_report,
    entangled_qfi,
    entangled_weak_comm,
    qfi_max,
    qfi_pure,
    qfim_pure,
    weak_comm_residual,
)
from .scheme import (
    SchemeConfig,
    affine_scheme,
    build_total_unitary,
    characterize,
    design_control,
    gap_profile,
)

__all__ = [name for name in dir() if not name.startswith("_")]
