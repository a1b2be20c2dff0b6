"""Exception hierarchy shared by all modules."""


class CodingError(Exception):
    """Base class for every error raised by this package."""


class NonPrime(CodingError):
    pass


class UnsupportedSize(CodingError):
    pass


class FieldMismatch(CodingError):
    pass


class LengthMismatch(CodingError):
    pass


class ShapeMismatch(CodingError):
    pass


class DivisionByZero(CodingError, ZeroDivisionError):
    pass


class ZeroCode(CodingError):
    pass


class Infeasible(CodingError):
    pass


class ConstraintViolation(CodingError):
    pass


class DualityFailure(CodingError):
    pass


class FormulaMismatch(CodingError):
    pass


class NegativeLogicalDim(CodingError):
    pass


class DependentGenerators(CodingError):
    pass


class LengthExceedsDegree(CodingError):
    pass
