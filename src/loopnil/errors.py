"""Exceptions shared across the package, and the CLI's error contract.

Each class carries its own process exit code and the ``code`` and ``kind``
of its JSON error report, so this module is the one table from error to
report; the CLI reads the three attributes off whatever it catches.
"""


class LoopnilError(Exception):
    """Base class for every error raised by this package.  A bare one is a
    schema-level refusal: exit 2, code 2, kind ``schema``.  ``detail`` is an
    optional mapping the report adds when it is nonempty."""

    exit, code, kind = 2, 2, "schema"

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail if detail is not None else {}


class CapExceeded(LoopnilError):
    """A configured resource cap would be exceeded; the computation is refused
    up front instead of degrading."""

    exit, code, kind = 3, 3, "resource-cap"


class InternalInvariantError(LoopnilError):
    """An internal consistency check failed.  Always a bug, never bad input."""

    exit, code, kind = 4, 4, "internal-invariant"


class InputError(LoopnilError):
    """Rejected input, exit 2.  ``code`` distinguishes malformed JSON (1),
    schema violations (2) and simplicial-identity violations (3)."""


class MalformedJson(InputError):
    code, kind = 1, "malformed-json"


class SchemaViolation(InputError):
    pass


class IdentityViolation(InputError):
    code, kind = 3, "simplicial-identity"
