"""Exception types shared across the library."""


class UltrawaveError(Exception):
    """Base class for all library-specific errors."""


class ParameterError(UltrawaveError, ValueError):
    """An argument violates a precondition (bad p, empty set, arity mismatch, ...)."""


class UnknownBallError(UltrawaveError, KeyError):
    """A ball id does not identify a vertex of the tree it was used with."""


class SpaceValidationError(UltrawaveError, ValueError):
    """A tree fails a structural invariant (measure additivity, diameters, ...)."""

    def __init__(self, message: str, ball: int | None = None):
        super().__init__(message)
        self.ball = ball


class DegenerateBallError(UltrawaveError, ValueError):
    """A ball has fewer than two positive-measure maximal subballs."""


class UnsupportedTailError(UltrawaveError, ValueError):
    """An analytic tail was requested for a symbol/tree combination without one."""


class DivergenceError(UltrawaveError, ArithmeticError):
    """The upward extension series for a symbol does not converge."""


class NonFiniteError(UltrawaveError, ArithmeticError):
    """A result holds NaN or infinity, which JSON output cannot represent."""


class DomainError(UltrawaveError, ValueError):
    """A value lies outside the domain an operation is defined on."""


class AnchorError(UltrawaveError, ValueError):
    """The anchor ball of a generalized function has zero measure."""


class FileFormatError(UltrawaveError, ValueError):
    """A data file does not parse or violates its schema."""

    def __init__(self, message: str, location: str | None = None):
        if location:
            message = f"{location}: {message}"
        super().__init__(message)
        self.location = location


class UnsolvableError(UltrawaveError):
    """The right-hand side has nonzero coefficients at characteristic vertices."""

    def __init__(self, violations):
        self.violations = list(violations)
        detail = "; ".join(str(v) for v in self.violations)
        super().__init__(f"necessary solvability conditions violated: {detail}")


class IllConditionedError(UltrawaveError, ArithmeticError):
    """A right-hand side coefficient sits on a near-characteristic eigenvalue."""

    def __init__(self, indices):
        self.indices = list(indices)
        detail = "; ".join(str(v) for v in self.indices)
        super().__init__(f"near-characteristic eigenvalues under the data: {detail}")
