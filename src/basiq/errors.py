"""Exception types shared across the package."""


class BasiqError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(BasiqError, ValueError):
    """Array dimensions are inconsistent with what an operation requires."""


class InvalidInputError(BasiqError, ValueError):
    """An input value violates the operation's preconditions."""


class ParseError(BasiqError, ValueError):
    """A file does not conform to its declared format.

    Messages name the offending file and, where possible, the line or
    record index.
    """


class UnsupportedConfigError(BasiqError, ValueError):
    """A configuration value is rejected rather than silently reinterpreted."""


class UncertifiedSolveError(BasiqError):
    """A sparse solve stopped with its duality gap above the tolerance."""
