"""Exception types shared across the package."""


class TorlinkError(Exception):
    """Base class for package-specific errors."""


class UnsupportedOrderError(TorlinkError):
    """A query needs obstruction data for an order the database does not cover."""


class DataValidationError(TorlinkError):
    """An external data file failed a strict content check."""


class ParseError(TorlinkError):
    """A file could not be parsed; the message names the line when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
