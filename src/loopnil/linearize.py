"""Simplicial abelian groups, reduced linearization, Moore-complex homotopy.

Homotopy is the homology of the unnormalized complex (alternating face
sums), read off sparse invariant factors; a vanishing Moore-cycle group
answers 0 early, and every computed answer checks that the boundary squares
to zero.

Degrees are produced on demand through provider callbacks, so no global
degree cap is baked into a value; each homology query fixes its own cap.
"""

from . import intmat
from .abelian import AbelianInvariants
from .errors import InternalInvariantError, LoopnilError, UnsupportedTorsion
from .simplicial import require_valid


class SimplicialAbelianGroup:
    """Degreewise finitely generated abelian groups with integer face maps
    acting on chosen generating sets; homotopy reads only the faces.

    The face callback gives each map as ``{col: value}`` rows of nonzero
    entries, one row per generator of the target degree and one column per
    generator of the source degree."""

    def __init__(self, rank_fn, face_fn, torsion_fn=None, name=""):
        self._rank_fn = rank_fn
        self._face_fn = face_fn
        self._torsion_fn = torsion_fn
        self.name = name
        self._ranks = {}
        self._faces = {}

    def rank(self, q):
        if q < 0:
            return 0
        if q not in self._ranks:
            self._ranks[q] = self._rank_fn(q)
        return self._ranks[q]

    def torsion(self, q):
        if q < 0 or self._torsion_fn is None:
            return ()
        return tuple(self._torsion_fn(q))

    def face_rows(self, q, i):
        """d_i from degree q to degree q-1 as ``{col: value}`` rows."""
        if not (q >= 1 and 0 <= i <= q):
            raise LoopnilError(f"face d_{i} undefined in degree {q}")
        rows = self._faces.get((q, i))
        if rows is None:
            rows = self._face_fn(q, i)
            m, n = self.rank(q - 1), self.rank(q)
            if len(rows) != m or any(
                not isinstance(row, dict)
                or (row and (min(row) < 0 or max(row) >= n or 0 in row.values()))
                for row in rows
            ):
                raise InternalInvariantError(
                    f"d_{i} in degree {q}: expected {m} rows of nonzero {{col: value}} "
                    f"entries with columns below {n}"
                )
            self._faces[(q, i)] = rows
        return rows

    def face_matrix(self, q, i):
        """Dense matrix of d_i from degree q to degree q-1 (rows index the
        target)."""
        return intmat.dense_rows(self.face_rows(q, i), self.rank(q))


def reduced_linearization(space):
    """Free simplicial abelian group on a reduced space modulo the basepoint
    ray: degree q is free on all q-simplices except the basepoint degeneracy,
    with induced face maps."""
    require_valid(space)

    def basis(q):
        base = space.base_ref(q)
        return [r for r in space.refs(q) if r != base]

    cache = {}

    def cached_basis(q):
        if q not in cache:
            refs = basis(q)
            cache[q] = (refs, {r: i for i, r in enumerate(refs)})
        return cache[q]

    def rank(q):
        return len(cached_basis(q)[0])

    def induced(q, target, simplex_map):
        refs, _ = cached_basis(q)
        _, tgt_index = cached_basis(target)
        rows = [{} for _ in tgt_index]
        for j, ref in enumerate(refs):
            row = tgt_index.get(simplex_map(ref))
            if row is not None:
                rows[row][j] = 1
        return rows

    def face(q, i):
        return induced(q, q - 1, lambda ref: space.face(ref, i))

    return SimplicialAbelianGroup(rank, face, name=f"Zred({space.name})")


def moore_homology(group, s):
    """pi_s of a simplicial abelian group: the homology at degree s of its
    Moore complex N_q = ker d_1 .. ker d_q with differential d_0.

    Computed from the unnormalized complex with boundary sum (-1)^i d_i,
    which has the same homology (Dold-Kan; Goerss-Jardine, Simplicial
    Homotopy Theory, III.2).  With n_s the rank in degree s, r_s the rank of
    the boundary out of it and F the invariant factors of the boundary into
    it, H_s has rank n_s - r_s - len(F) and torsion the factors other than 1;
    no kernel basis or transform is built.  When the degree-s faces have no
    common kernel the Moore cycles vanish and 0 is returned before any
    degree-(s+1) face is built.  Otherwise the composite of the two
    boundaries is checked to vanish."""
    if s < 0:
        raise LoopnilError(f"degree must be >= 0, got {s}")
    for q in range(0, s + 2):
        if group.torsion(q):
            raise UnsupportedTorsion(
                f"degree {q} of {group.name or 'group'} has torsion; Moore homology "
                "here requires free degrees"
            )
    n_s = group.rank(s)
    if n_s == 0:
        return AbelianInvariants(0, ())
    low, r_s = [], 0
    if s > 0:
        faces = _sparse_faces(group, s)
        if len(intmat.sparse_invariant_factors(r for f in faces for r in f)) == n_s:
            return AbelianInvariants(0, ())
        low = _alternating_sum(faces)
        r_s = len(intmat.sparse_invariant_factors(low))
    high = _alternating_sum(_sparse_faces(group, s + 1))
    for row in low:
        acc = {}
        for j, x in row.items():
            for k, y in high[j].items():
                acc[k] = acc.get(k, 0) + x * y
        if any(acc.values()):
            raise InternalInvariantError(
                f"boundary squared is nonzero at degree {s} of {group.name or 'group'}"
            )
    facs = intmat.sparse_invariant_factors(high)
    return AbelianInvariants(n_s - r_s - len(facs), tuple(x for x in facs if x != 1))


def _sparse_faces(group, q):
    """The faces d_0 .. d_q out of degree q as lists of ``{col: value}`` rows."""
    return [group.face_rows(q, i) for i in range(q + 1)]


def _alternating_sum(faces):
    """Rows of sum (-1)^i d_i for the sparse faces d_0 .. d_q."""
    out = [{} for _ in faces[0]]
    for i, face in enumerate(faces):
        sign = -1 if i % 2 else 1
        for acc, row in zip(out, face):
            for j, x in row.items():
                y = acc.get(j, 0) + sign * x
                if y:
                    acc[j] = y
                else:
                    del acc[j]
    return out
