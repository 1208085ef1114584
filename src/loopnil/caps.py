"""Resource caps with environment overrides.

Collection blows up superexponentially in the nilpotency class, so every
expensive entry point checks a cap before starting and fails loudly with
:class:`~loopnil.errors.CapExceeded` rather than degrading or truncating.
"""

import os
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
        return int(raw)
    except ValueError:
        raise CapExceeded(f"{name} must be an integer, got {raw!r}") from None


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
