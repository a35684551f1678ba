"""Exception types shared across the package.

Bad input raises ValueError, or FormDataError for form and points files,
and the CLI exits 2 on either; NhsiegelError and its other subclasses mean
a numerical failure, on which the CLI exits 1."""


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


class TailDivergenceError(NhsiegelError):
    """Tail estimate requested on a region where the series need not converge."""


class FormDataError(NhsiegelError):
    """A form package or form file violates its data contract."""
