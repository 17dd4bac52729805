"""Exception types shared across the package."""


class DomainError(ValueError):
    """A parameter lies outside its admissible range."""


class ShapeError(ValueError):
    """Vector or matrix dimensions are incompatible."""


class TruncationError(ValueError):
    """Probability mass folded by truncation exceeds the allowed bound."""


class InsufficientDataError(ValueError):
    """A histogram or sample is empty where counts are required."""


class ConditioningError(RuntimeError):
    """A linear solve was refused because the system is too ill-conditioned."""


class QuasiDistributionWarning(UserWarning):
    """A vector meant as a probability distribution carries negative entries."""
