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
    su2_element,
    su2_exp,
)
from .errors import (
    DegenerateVectorError,
    DimensionalityError,
    InexactCompositionError,
    SeriesDepthError,
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
    BELL_PHI_PLUS,
    entangled_qfim_fd,
    qfim_trace_oracle,
    sld_oracle,
    variance_qfi_oracle,
    weak_comm_trace_oracle,
)
from .qfi import (
    ENTANGLED_WITH_ANCILLA,
    PURE_QUBIT,
    QfimReport,
    build_report,
    entangled_weak_comm,
    qfi_max,
    qfim_pure,
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
