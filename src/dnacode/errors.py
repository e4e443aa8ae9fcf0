"""Exception hierarchy.

Validation errors map to CLI exit code 2, resource-cap errors to exit
code 3; any computed verdict (including NOT_CORRECTING) exits 0.
"""

from __future__ import annotations


class DnaCodeError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(DnaCodeError, ValueError):
    """Malformed or inconsistent input."""


class WrongCount(ValidationError):
    pass


class WrongLength(ValidationError):
    pass


class DuplicateIndex(ValidationError):
    pass


class DuplicateStrand(ValidationError):
    pass


class ShapeMismatch(ValidationError):
    """Inputs that must share a shape disagree with each other: two
    messages with different (M, L, l), strands of different (L, l), or a
    pool whose read length is not L."""


class SizeMismatch(ValidationError):
    pass


class WrongPoolSize(ValidationError):
    pass


class TooFewCodewords(ValidationError):
    pass


class DuplicateCodeword(ValidationError):
    pass


class ParamMismatch(ValidationError):
    """Inputs disagree with the parameters: the common (M, L, l) of the
    messages is not the one SystemParams fixes, or file headers conflict."""


class EdNonZero(ValidationError):
    pass


class FileFormatError(ValidationError):
    """Bad input file; carries the offending path and line number."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        where = ""
        if path is not None:
            where = f"{path}:{line}: " if line is not None else f"{path}: "
        super().__init__(where + message)
        self.path = path
        self.line = line


class ResourceCapExceeded(DnaCodeError):
    """An enumeration would exceed its configured cap."""


class SpaceTooLarge(ResourceCapExceeded):
    def __init__(self, count: int, cap: int, what: str = "enumeration"):
        super().__init__(f"{what} has {count} candidates, exceeding the cap of {cap}")
        self.count = count
        self.cap = cap


class TooLargeForExact(ResourceCapExceeded):
    def __init__(self, limit: int):
        super().__init__(f"exact search limited to {limit} vertices, got more than {limit}")
        self.limit = limit
