"""Exception hierarchy shared by all modules."""


class DrinfeldError(Exception):
    """Base class for every error raised by this package."""


class NotOddPrime(DrinfeldError):
    """The field characteristic must be an odd prime."""


class BadDegree(DrinfeldError):
    """A degree or index parameter is outside its allowed range."""


class DivisionByZero(DrinfeldError):
    """Division by the zero polynomial or zero rational function."""


class MixedField(DrinfeldError):
    """Operands belong to different coefficient fields."""


class ZeroSeries(DrinfeldError):
    """The operation needs a series with a nonzero coefficient in its window."""


class PrecisionExceeded(DrinfeldError):
    """A coefficient at or beyond the precision bound was requested."""


class ZeroInput(DrinfeldError):
    """The zero polynomial is not a valid argument here."""


class NotMonic(DrinfeldError):
    """A monic polynomial is required."""


class EmptySpace(DrinfeldError):
    """The requested space of modular forms is zero."""


class DivisionNotExact(DrinfeldError):
    """An exact division left a remainder; this signals an internal bug."""


class NotUnitriangular(DrinfeldError):
    """A matrix proved unitriangular is not; this signals an internal bug."""


class NonIntegralCoefficient(DrinfeldError):
    """A coefficient expected to lie in F_q[T] has a nontrivial denominator."""


class BadPair(DrinfeldError):
    """The pair (a, b) does not satisfy the congruence parameter equation."""


class BadWeight(DrinfeldError):
    """A form expression does not live in the expected weight/type space."""


class HypothesisViolated(DrinfeldError):
    """A stated hypothesis of a congruence check fails; the message names it."""


class ExprError(DrinfeldError, ValueError):
    """An expression could not be parsed or evaluated."""
