"""Exception types shared across the library."""


class CantorFramesError(Exception):
    """Base class for all library errors."""


class SingularMatrix(CantorFramesError):
    pass


class NonExpandingMatrix(CantorFramesError):
    pass


class DuplicateDigits(CantorFramesError):
    pass


class DimensionMismatch(CantorFramesError):
    pass


class AtomBudgetExceeded(CantorFramesError):
    pass


class ToleranceUnreachable(CantorFramesError):
    pass


class NotCertifiedPacking(CantorFramesError):
    pass


class NoWitnessFound(CantorFramesError):
    def __init__(self, message, max_overlap=None, suggested_level=None):
        super().__init__(message)
        self.max_overlap = max_overlap
        self.suggested_level = suggested_level


class SizeMismatch(CantorFramesError):
    pass


class HadamardCheckFailed(CantorFramesError):
    pass


class EigenBudgetExceeded(CantorFramesError):
    pass


class EmptyFrequencySet(CantorFramesError):
    pass


class ZeroNormInput(CantorFramesError):
    pass


class SingularA4(CantorFramesError):
    """The lower-right block of the linear map is not invertible."""
