"""Exception types shared across the package."""
from __future__ import annotations

__all__ = [
    "CapaxError",
    "DimensionMismatch",
    "NotUnitary",
    "IndexOutOfRange",
    "SingularMatrix",
    "ParseError",
    "NonRealCoefficient",
    "CombinatorialOverflow",
    "IllConditionedGrid",
    "EmptySupport",
    "DeltaTooLarge",
    "InfeasibleMoment",
    "SupportViolation",
    "SingularMarginal",
    "NotSupported",
    "SingularEvaluation",
    "ConfigError",
]


class CapaxError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(CapaxError, ValueError):
    """Operands have incompatible shapes for the requested operation."""


class NotUnitary(CapaxError, ValueError):
    """A matrix expected to be unitary fails the unitarity check."""


class IndexOutOfRange(CapaxError, IndexError):
    """A basis index component lies outside the valid 1-based range."""


class SingularMatrix(CapaxError, ValueError):
    """A matrix required to be invertible (or strictly positive) is not."""


class ParseError(CapaxError, ValueError):
    """Malformed JSON or CSV input; the message names the offending field."""


class NonRealCoefficient(CapaxError, ValueError):
    """A coefficient that must be real carries a non-negligible imaginary part."""


class CombinatorialOverflow(CapaxError, ValueError):
    """An enumeration would exceed the configured combinatorial ceiling."""


class IllConditionedGrid(CapaxError, ValueError):
    """The interpolation grid is too ill conditioned to fit coefficients."""


class EmptySupport(CapaxError, ValueError):
    """All weights of an exponential sum fall below the support threshold."""


class DeltaTooLarge(CapaxError, ValueError):
    """A perturbation radius violates its required upper bound."""


class InfeasibleMoment(CapaxError, ValueError):
    """The moment target lies outside the convex hull of the support."""


class SupportViolation(CapaxError, ValueError):
    """A probability vector puts mass where the reference weight is zero."""


class SingularMarginal(CapaxError, ValueError):
    """A scaling marginal is numerically singular: its eigenvalues span more
    than 1e12. The capacity need not be zero; cap then flags
    ScalingSingularMarginal and keeps its direct value."""


class NotSupported(CapaxError, ValueError):
    """The requested operation is outside the supported parameter range."""


class SingularEvaluation(CapaxError, ValueError):
    """A determinant that must be positive evaluated to zero or below."""


class ConfigError(CapaxError, ValueError):
    """Invalid configuration file or key, or an option out of range, such as restarts < 1."""
