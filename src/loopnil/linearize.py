"""Simplicial abelian groups and their Moore-complex homotopy.

Homotopy is the homology of the normalized complex: the alternating face
sums on the basis elements outside the degenerate subgroup, which a group
declares per degree when its degeneracies send basis elements to basis
elements.  Answers are read off sparse invariant factors, and every computed
answer checks that the boundary squares to zero.

Degrees are produced on demand through provider callbacks; nothing here
knows of spaces or caps (``tower.LayerObject.abelian`` builds the groups).
"""

from . import intmat
from .abelian import AbelianInvariants
from .errors import InternalInvariantError, LoopnilError


class SimplicialAbelianGroup:
    """Degreewise free abelian groups of finite rank with integer face maps
    on chosen bases; homotopy reads only the faces.

    ``face_fn(q, i, cols)`` gives d_i from degree q to degree q-1 as
    ``{col: value}`` rows of nonzero entries, one row per basis element of
    degree q-1 and one column per source basis index in ``cols``, in list
    order.  ``degenerate_fn(q)``, when given, names the indices of the basis
    elements that span the degenerate subgroup in degree q; a group that
    names none has no degenerate subgroup."""

    def __init__(self, rank_fn, face_fn, name="", degenerate_fn=None):
        self._rank_fn = rank_fn
        self._face_fn = face_fn
        self._degenerate_fn = degenerate_fn or (lambda q: ())
        self.name = name
        self._ranks = {}
        self._faces = {}
        self._nondegenerate = {}

    def rank(self, q):
        if q < 0:
            return 0
        if q not in self._ranks:
            self._ranks[q] = self._rank_fn(q)
        return self._ranks[q]

    def face_rows(self, q, i):
        """d_i from degree q to degree q-1 as ``{col: value}`` rows on the
        whole basis."""
        if not (q >= 1 and 0 <= i <= q):
            raise LoopnilError(f"face d_{i} undefined in degree {q}")
        rows = self._faces.get((q, i))
        if rows is None:
            rows = self._faces[(q, i)] = self._face(q, i, range(self.rank(q)))
        return rows

    def _face(self, q, i, cols):
        rows = self._face_fn(q, i, cols)
        m, n = self.rank(q - 1), len(cols)
        if len(rows) != m or any(
            not isinstance(row, dict)
            or (row and (min(row) < 0 or max(row) >= n or 0 in row.values()))
            for row in rows
        ):
            raise InternalInvariantError(
                f"d_{i} in degree {q}: expected {m} rows of nonzero {{col: value}} "
                f"entries with columns below {n}"
            )
        return rows

    def face_matrix(self, q, i):
        """Dense matrix of d_i from degree q to degree q-1 (rows index the
        target)."""
        return intmat.dense_rows(self.face_rows(q, i), self.rank(q))

    def nondegenerate(self, q):
        """Ascending indices of the degree-q basis elements outside the
        degenerate subgroup."""
        out = self._nondegenerate.get(q)
        if out is None:
            degenerate = set(self._degenerate_fn(q))
            out = self._nondegenerate[q] = [
                j for j in range(self.rank(q)) if j not in degenerate
            ]
        return out

    def boundary_rows(self, q):
        """The normalized boundary sum (-1)^i d_i from degree q to q-1 as
        ``{col: value}`` rows: one row per nondegenerate basis element of
        degree q-1 and one column per nondegenerate basis element of degree
        q, each numbered in ascending order."""
        cols, keep = self.nondegenerate(q), self.nondegenerate(q - 1)
        faces = (self._face(q, i, cols) for i in range(q + 1))
        return _alternating_sum([[rows[r] for r in keep] for rows in faces])


def moore_homology(group, s):
    """pi_s of a simplicial abelian group: the homology at degree s of its
    Moore complex N_q = ker d_1 .. ker d_q with differential d_0.

    Computed on the normalized complex C/D with boundary sum (-1)^i d_i,
    where C is the unnormalized complex and D its degenerate subcomplex,
    spanned by the images of the degeneracies.  D is acyclic and C/D is
    isomorphic to N, so C/D has the homology of N (Dold-Kan; Goerss-Jardine,
    Simplicial Homotopy Theory, III.2).  When every degeneracy sends
    generators to generators, D is spanned by the generators it contains, so
    C/D is free on the nondegenerate generators and its boundary is the
    alternating face sum on them with degenerate target coordinates dropped.
    For a loop-group layer, degree q is Lie_n of the free abelian group on
    the generators, and s_i maps Lie_n(A_{q-1}) onto Lie_n of the span of
    its image S_i = s_i(generators).  Hall sets restrict to sub-alphabets
    (Reutenauer, Free Lie Algebras, ch. 4), so that image is spanned by the
    Hall trees with every leaf in S_i, and D_q by the Hall trees whose leaves
    all lie in one S_i.  A group that names no degenerate generators is
    taken whole, D being 0.

    With N_s the number of nondegenerate generators in degree s, r_s the
    rank of the boundary out of it and F the invariant factors of the
    boundary into it, H_s has rank N_s - r_s - len(F) and torsion the
    factors other than 1; no kernel basis or transform is built.  N_s = 0
    answers 0 before any face is built.  Otherwise the composite of the two
    boundaries is checked to vanish."""
    if s < 0:
        raise LoopnilError(f"degree must be >= 0, got {s}")
    n_s = len(group.nondegenerate(s))
    if n_s == 0:
        return AbelianInvariants(0, ())
    low = group.boundary_rows(s) if s > 0 else []
    r_s = len(intmat.sparse_invariant_factors(low))
    high = group.boundary_rows(s + 1)
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
