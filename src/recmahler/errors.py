"""Exception types shared across the package.

Every error raised deliberately by this package derives from RecMahlerError,
so callers can catch the whole family without masking genuine bugs
(TypeError, AttributeError and friends stay untouched).
"""


class RecMahlerError(Exception):
    """Base class for all package-specific errors."""


class GradeMismatch(RecMahlerError):
    """Sum or difference of exact values with different nonzero pi grades."""


class DivisionByZero(RecMahlerError, ZeroDivisionError):
    """Division of an exact value by an exact zero."""


class PoleEvaluation(RecMahlerError):
    """Evaluation of a rational function at one of its poles."""


class RepeatedPole(RecMahlerError):
    """A rational function with a repeated pole where a sum of simple poles
    is required."""


class NonIntegerPole(RecMahlerError):
    """A sum of simple poles built with a pole that is not an integer."""


class OddExponent(RecMahlerError):
    """Laurent polynomial constructed with an odd exponent."""


class ZeroArgument(RecMahlerError):
    """Laurent evaluation at x = 0."""


class ZeroRoot(RecMahlerError):
    """A root vector containing zero, which cannot be inverted."""


class ZeroPolynomial(RecMahlerError):
    """Root finding on the identically-zero polynomial."""


class DegenerateLeadingCoefficient(RecMahlerError):
    """Root finding on a coefficient vector whose leading entry is zero."""


class ComputationFailed(RecMahlerError):
    """A computation on valid input that could not produce its result."""


class NoConvergence(ComputationFailed):
    """An iterative routine failed to reach its tolerance in the step budget."""


class NodeOnZero(ComputationFailed):
    """Log-integral quadrature hit an exact zero of the integrand."""


class EvaluationOverflow(ComputationFailed):
    """A float value, or a term of the sum that gives it, overflows a double."""


class StepTooLarge(RecMahlerError):
    """Finite-difference step too coarse for the requested stencil."""


class StepTooSmall(RecMahlerError):
    """Finite-difference step too fine to move every coordinate of the point."""


class IndexOutOfRange(RecMahlerError):
    """Index outside the meaningful range of a coefficient family."""


class DimensionTooLarge(RecMahlerError):
    """A deliberately small-scale oracle asked to run beyond its size cap."""
