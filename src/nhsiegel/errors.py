"""Exception types shared across the package."""


class NhsiegelError(Exception):
    """Base class for all errors raised by this package."""


class EigenIterationError(NhsiegelError):
    """A symmetric eigensolve was given non-finite entries or did not converge."""


class NotPositiveDefiniteError(NhsiegelError):
    """A matrix required to be positive definite is not."""


class SingularMatrixError(NhsiegelError):
    """A matrix that must be inverted is numerically singular."""


class ReductionBudgetError(NhsiegelError):
    """Fundamental-domain reduction exceeded its step budget."""


class UnsupportedWeightError(NhsiegelError):
    """Requested representation lies outside the supported family."""


class RepMismatchError(NhsiegelError):
    """Vectors from different representations were combined."""


class TailDivergenceError(NhsiegelError):
    """Tail estimate requested on a region where the series need not converge."""


class InvalidExponentError(NhsiegelError):
    """Growth exponent below the certified threshold."""


class FormDataError(NhsiegelError):
    """A form package or form file violates its data contract."""
