"""Finitely generated abelian groups as rank plus torsion coefficients."""

from dataclasses import dataclass

from .errors import InternalInvariantError


@dataclass(frozen=True)
class AbelianInvariants:
    """Canonical value of a finitely generated abelian group.

    ``torsion`` entries are >= 2 and each divides the next, so the
    representation is unique.
    """

    rank: int
    torsion: tuple = ()

    def __post_init__(self):
        if self.rank < 0:
            raise InternalInvariantError("negative rank")
        object.__setattr__(self, "torsion", tuple(int(t) for t in self.torsion))
        prev = None
        for t in self.torsion:
            if t < 2:
                raise InternalInvariantError(f"torsion coefficient {t} < 2")
            if prev is not None and t % prev:
                raise InternalInvariantError("torsion coefficients must form a divisibility chain")
            prev = t

    def to_json(self):
        return {"rank": self.rank, "torsion": list(self.torsion)}
