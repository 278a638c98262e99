"""Exception types shared across the package."""


class TpdsError(Exception):
    """Base class for all package-specific errors."""


class NotInV(TpdsError):
    """Vector is outside the set where the sign-change count is well defined."""


class DimensionMismatch(TpdsError):
    """A shape or an index that does not fit: a non-square or empty matrix,
    a 1-based index outside 1..n, a factorization with no factors."""


class InvalidArgument(TpdsError):
    """An argument value outside the ones a call accepts: a negative zero
    tolerance, a count that is not an integer >= its least value (0 for a
    grid, 1 for samples or iterates), a step or tolerance that is not a
    positive finite number."""


class NonFiniteInput(TpdsError):
    """A nan or infinite value: a vector entry given to a sign count, or a
    minor that came out non-finite from a non-finite matrix entry or overflow.
    Also a Python int too large for a float."""


class SizeLimitExceeded(TpdsError):
    """Exhaustive minor enumeration refused for too-large matrices."""


class NotTridiagonal(TpdsError):
    pass


class NotTN(TpdsError):
    pass


class PivotBreakdown(TpdsError):
    """Neville elimination hit a zero pivot above a nonzero entry."""


class SpectralViolation(TpdsError):
    """Eigenstructure of a supposedly oscillatory matrix is inconsistent."""


class ZeroVector(TpdsError):
    pass


class RankDeficient(TpdsError):
    pass


class OrderOutOfRange(TpdsError):
    pass


class ExprSyntaxError(TpdsError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ExprTooDeep(TpdsError):
    """An expression nested deeper than ``exprlang.MAX_DEPTH`` levels."""


class UnknownIdentifier(TpdsError):
    pass


class UnboundVariable(TpdsError):
    pass


class DomainError(TpdsError):
    """Evaluation left the real domain (division by zero, log of nonpositive, ...)."""


class EmptySegments(TpdsError):
    pass


class OutOfInterval(TpdsError):
    pass


class IntegrationSuspect(TpdsError):
    """Warning-grade: a consistency identity failed beyond tolerance."""


class TrivialSolution(TpdsError):
    pass


class MonotonicityViolation(TpdsError):
    def __init__(self, message, times=()):
        super().__init__(message)
        self.times = tuple(times)


class NoApplicablePair(TpdsError):
    """No first-coordinate zero followed by a nonzero sample was found."""


class NotPeriodic(TpdsError):
    pass


class FloquetViolation(TpdsError):
    pass


class LeadingCoefficientZero(TpdsError):
    pass


class BandViolation(TpdsError):
    pass


class LeftDomain(TpdsError):
    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class NoMonotoneTail(TpdsError):
    pass


class AssumptionViolated(TpdsError):
    pass


class NoConvergence(TpdsError):
    pass


class UnknownFigure(TpdsError):
    pass


class SpecFileError(TpdsError):
    pass
