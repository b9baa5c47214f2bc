"""Exception types shared across the package."""

from __future__ import annotations


class PolyconjError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(PolyconjError, ValueError):
    """A scalar argument is outside its documented domain."""


class InvalidElementError(PolyconjError, ValueError):
    """An exponent vector does not belong to the given group context."""


class OracleTooLargeError(PolyconjError):
    """A brute-force enumeration would exceed its configured size cap."""


class StateLimitError(PolyconjError):
    """A reachability sweep touched more states than allowed."""


class SoundnessError(PolyconjError):
    """A produced witness failed the equation it is supposed to satisfy.

    Raised instead of returning an unchecked result; seeing this error
    means a solver, reduction, or pullback has a bug (or was handed a
    witness that does not belong to the instance).
    """


class InvalidPromiseError(PolyconjError):
    """A search was promised a solvable instance but none exists."""


class NotAllEvenError(PolyconjError):
    """The reachability sweep requires every even coordinate to be even."""


class InstanceParseError(PolyconjError, ValueError):
    """Malformed instance text; carries a 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
