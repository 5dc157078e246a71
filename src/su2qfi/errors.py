"""Exception taxonomy for su2qfi."""


class Su2QfiError(ValueError):
    """Base class for all su2qfi errors."""

    @property
    def code(self) -> str:
        """The name the CLI prints in ``error[code]:``; the class name by default."""
        return type(self).__name__


class DegenerateVectorError(Su2QfiError):
    """A zero-length vector was given where a direction is required."""


class SeriesDepthError(Su2QfiError):
    """A nested-commutator series did not converge within the term cap."""


class UnphysicalStateError(Su2QfiError):
    """A Bloch vector or density matrix violates physicality constraints."""


class DimensionalityError(Su2QfiError):
    """More parameters were requested than the dynamics can encode."""


class InexactCompositionError(Su2QfiError):
    """The closed forms do not describe the scheme's composition exactly."""

    code = "product-mode-inexact"
