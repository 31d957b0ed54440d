"""Exception types shared across the package."""


class BellboundError(Exception):
    """Base class for all errors raised by this package."""


class SizeLimitError(BellboundError):
    """An input exceeds a documented size guard."""


class DomainError(BellboundError):
    """An argument is outside the domain where the operation is defined."""


class MatrixFormatError(BellboundError):
    """A matrix or certificate document failed to parse or validate."""


class DimensionMismatchError(BellboundError):
    """Operands have incompatible shapes."""
