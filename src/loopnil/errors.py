"""Exceptions shared across the package."""


class LoopnilError(Exception):
    """Base class for every error raised by this package."""


class CapExceeded(LoopnilError):
    """A configured resource cap would be exceeded; the computation is refused
    up front instead of degrading."""


class InternalInvariantError(LoopnilError):
    """An internal consistency check failed.  Always a bug, never bad input."""


class InputError(LoopnilError):
    """Rejected input.  ``code`` distinguishes malformed JSON (1), schema
    violations (2) and simplicial-identity violations (3)."""

    code = 2

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail if detail is not None else {}


class MalformedJson(InputError):
    code = 1


class SchemaViolation(InputError):
    code = 2


class IdentityViolation(InputError):
    code = 3
