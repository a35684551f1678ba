"""Exception types shared across the package.

Bad input raises ValueError, or its subclass FormDataError for form and
points files, and the CLI exits 2 on either; NhsiegelError and its
subclasses mean a numerical failure, on which the CLI exits 1."""


class NhsiegelError(Exception):
    """Base class for the numerical failures of this package."""


class EigenIterationError(NhsiegelError):
    """A symmetric eigensolve was given non-finite entries or did not converge."""


class SingularMatrixError(NhsiegelError):
    """A matrix that must be inverted is numerically singular, or a point
    the library computed (by ``act``, the reduction or a sampler) has an
    imaginary part that is not positive definite."""


class ReductionBudgetError(NhsiegelError):
    """Fundamental-domain reduction exceeded its step budget."""


class TailDivergenceError(NhsiegelError):
    """The tail estimate overflowed a float, ran out of its iteration budget,
    or was asked for at a computed Y that is not positive definite."""


class FormDataError(ValueError):
    """A form package, form file or points file violates its data contract."""
