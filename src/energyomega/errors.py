"""Exception types shared across the library."""


class EnergyOmegaError(Exception):
    """Base class for all library errors."""


class ValidationError(EnergyOmegaError):
    """A candidate energy function failed validation."""


class SlopeTooSmall(ValidationError):
    pass


class NonMonotone(ValidationError):
    pass


class NegativeValue(ValidationError):
    pass


class MalformedPieces(ValidationError):
    pass


class DimensionMismatch(EnergyOmegaError):
    pass


class BadAcceptingCount(EnergyOmegaError):
    pass


class BudgetExceeded(EnergyOmegaError):
    pass


class AlphabetMismatch(EnergyOmegaError):
    pass


class EpsilonInOmegaBase(EnergyOmegaError):
    pass


class InvalidRegrouping(EnergyOmegaError):
    pass


class InvalidGroupTable(EnergyOmegaError):
    pass


class UnknownIdentity(EnergyOmegaError):
    pass


class ParseError(EnergyOmegaError):
    pass


class VerificationFailed(EnergyOmegaError):
    """Algebraic answer and relaxation oracle disagree."""

