"""One benchmark query: what to call, and how to check what it returned."""

from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Query:
    kind: str
    run: Callable[[], object]
    # returns None when the output is right, else a description of the fault
    check: Callable[[object], Optional[str]]
    # a query that fails today because of a known fault, expected to raise
    known_fault: bool = False


class QueryFailed(Exception):
    """A request that the program refused, e.g. a CLI exit code other than 0."""
