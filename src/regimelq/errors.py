"""Exception hierarchy shared by all regimelq modules."""


class RegimeLQError(Exception):
    """Base class for all errors raised by this package."""


# --- linear algebra -------------------------------------------------------

class DimensionMismatch(RegimeLQError):
    """Operands have incompatible shapes."""


class AsymmetryExceeded(RegimeLQError):
    """A matrix required to be symmetric deviates beyond the tolerance."""


class _SpectralRefusal(RegimeLQError):
    """A spectral guard's refusal; ``member`` indexes its matrix in a stack."""

    def __init__(self, message, member=None):
        super().__init__(message)
        self.member = member


class NearSingular(_SpectralRefusal):
    """A matrix inversion was refused: zero eigenvalue or condition number
    above the configured threshold."""


class PsdViolation(_SpectralRefusal):
    """A matrix required to be positive semidefinite has an eigenvalue at
    or below the negative tolerance."""


# --- problem definition ---------------------------------------------------

class StructuralError(RegimeLQError):
    """Problem data is structurally inconsistent (dimensions, grids)."""


class AssumptionViolation(RegimeLQError):
    """Definiteness assumptions on the cost coefficients do not hold."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class OutOfRange(RegimeLQError):
    """Time, regime or node argument outside its admissible range."""


# --- regime chain ---------------------------------------------------------

class NegativeOffDiagonal(RegimeLQError):
    """Generator matrix has a negative off-diagonal rate."""


class RowSumNonzero(RegimeLQError):
    """Generator matrix row does not sum to zero."""


class TooFewRegimes(RegimeLQError):
    """Fewer than two regimes declared."""


# --- solvers --------------------------------------------------------------

class NoConvergence(RegimeLQError):
    """An iterative scheme did not reach its tolerance within the allowed
    number of iterations.  ``residual_history`` carries the progress made."""

    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])


class StepFailure(RegimeLQError):
    """An integration step produced a state beyond the blow-up guard."""


class SingularState(RegimeLQError):
    """A forward state matrix lost invertibility (determinant guard)."""


class BlowUp(RegimeLQError):
    """A simulated path exceeded the state-norm guard."""

    def __init__(self, message, path_index=None):
        super().__init__(message)
        self.path_index = path_index


# --- configuration / persistence ------------------------------------------

class ConfigError(RegimeLQError):
    """Base class for configuration problems."""


class ParseError(ConfigError):
    """Configuration file could not be parsed."""


class UnknownKey(ConfigError):
    """Configuration contains a key this package does not understand."""


class RangeError(ConfigError):
    """Configuration value outside its documented range."""


class IoError(RegimeLQError):
    """Reading or writing an artifact file failed."""
