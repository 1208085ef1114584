"""Resource caps with environment overrides, and integers in text.

Collection blows up superexponentially in the nilpotency class, so every
expensive entry point checks a cap before starting and fails loudly with
:class:`~loopnil.errors.CapExceeded` rather than degrading or truncating.
An override takes the one integer syntax of :func:`ascii_int`, which the
CLI's options and word exponents and the decimal strings of JSON input
share; :func:`decimal` is the way back, for reports.
"""

import os
import sys
from dataclasses import dataclass

from .errors import CapExceeded

ENV_MAX_HALL_RANK = "LOOPNIL_MAX_HALL_RANK"
ENV_MAX_DEGREE = "LOOPNIL_MAX_DEGREE"
ENV_MAX_CLASS = "LOOPNIL_MAX_CLASS"
ENV_MAX_LAYER_RANK = "LOOPNIL_MAX_LAYER_RANK"

DEFAULT_MAX_HALL_RANK = 512
DEFAULT_MAX_DEGREE = 6
DEFAULT_MAX_CLASS = 4
DEFAULT_MAX_LAYER_RANK = 150_000


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return ascii_int(raw, name)
    except ValueError:
        raise CapExceeded(f"{name} must be an integer, got {quoted(raw)}") from None


@dataclass(frozen=True)
class Caps:
    """Effective resource limits for one computation."""

    max_hall_rank: int = DEFAULT_MAX_HALL_RANK
    max_degree: int = DEFAULT_MAX_DEGREE
    max_class: int = DEFAULT_MAX_CLASS
    max_layer_rank: int = DEFAULT_MAX_LAYER_RANK

    def check_hall_rank(self, rank: int, context: str) -> None:
        if rank > self.max_hall_rank:
            raise CapExceeded(
                f"{context}: total Hall rank {rank} exceeds cap "
                f"{self.max_hall_rank} (override with {ENV_MAX_HALL_RANK})"
            )

    def check_degree(self, degree: int, context: str) -> None:
        if degree > self.max_degree:
            raise CapExceeded(
                f"{context}: simplicial degree {degree} exceeds cap "
                f"{self.max_degree} (override with {ENV_MAX_DEGREE})"
            )

    def check_class(self, cls: int, context: str) -> None:
        if cls > self.max_class:
            raise CapExceeded(
                f"{context}: nilpotency class {cls} exceeds cap "
                f"{self.max_class} (override with {ENV_MAX_CLASS})"
            )

    def check_layer_rank(self, label: str, rank: int, context: str) -> None:
        """Refuses a basis of ``rank`` elements; ``label`` names the count."""
        if rank > self.max_layer_rank:
            raise CapExceeded(
                f"{context}: {label} = {rank} exceeds cap "
                f"{self.max_layer_rank} (override with {ENV_MAX_LAYER_RANK})"
            )


def current_caps() -> Caps:
    """Caps from the environment, falling back to the defaults."""
    return Caps(
        max_hall_rank=_env_int(ENV_MAX_HALL_RANK, DEFAULT_MAX_HALL_RANK),
        max_degree=_env_int(ENV_MAX_DEGREE, DEFAULT_MAX_DEGREE),
        max_class=_env_int(ENV_MAX_CLASS, DEFAULT_MAX_CLASS),
        max_layer_rank=_env_int(ENV_MAX_LAYER_RANK, DEFAULT_MAX_LAYER_RANK),
    )


def ascii_digits(text):
    """Nonempty and only 0-9: ``str.isdigit`` also accepts superscripts and
    other scripts' digits, and ``int`` also accepts underscores."""
    return text.isascii() and text.isdigit()


def ascii_int(text, what=None):
    """An optional sign, then :func:`ascii_digits`; the one integer syntax
    of text from outside the program.  Raises ``ValueError`` on any other
    text, and on digits past Python's int-to-str conversion limit, which
    are refused instead as a cap on ``what`` when it is given."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not ascii_digits(digits):
        raise ValueError(f"invalid integer {text!r}")
    try:
        return int(text)
    except ValueError:
        if what is None:
            raise
        raise CapExceeded(
            f"{what} of {len(digits)} digits exceeds the "
            f"{sys.get_int_max_str_digits()}-digit limit of integer conversion"
        ) from None


def quoted(text):
    """``repr`` of a text from outside the program for a report: whole up
    to 20 characters, else its first 20 and its length."""
    return repr(text) if len(text) <= 20 else f"{text[:20]!r}... ({len(text)} characters)"


def decimal(value):
    """``str`` of an integer, refused as a cap past Python's int-to-str limit."""
    try:
        return str(value)
    except ValueError:
        digits = (abs(value).bit_length() - 1) * 30103 // 100000 + 1  # log10(2) ~ 0.30103
        raise CapExceeded(
            f"an integer of about {digits} decimal digits exceeds the "
            f"{sys.get_int_max_str_digits()}-digit limit of integer printing"
        ) from None
