"""Simplicial abelian groups, reduced linearization, Moore-complex homotopy.

Degrees are produced on demand through provider callbacks, so no global
degree cap is baked into a value; each homology query fixes its own cap.
"""

from . import intmat
from .abelian import AbelianInvariants
from .errors import InternalInvariantError, LoopnilError, UnsupportedTorsion
from .simplicial import require_valid


class SimplicialAbelianGroup:
    """Degreewise finitely generated abelian groups with integer face and
    degeneracy matrices acting on chosen generating sets."""

    def __init__(self, rank_fn, face_fn, degeneracy_fn, torsion_fn=None, name=""):
        self._rank_fn = rank_fn
        self._face_fn = face_fn
        self._degeneracy_fn = degeneracy_fn
        self._torsion_fn = torsion_fn
        self.name = name
        self._ranks = {}
        self._faces = {}
        self._degens = {}

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

    def face_matrix(self, q, i):
        """Matrix of d_i from degree q to degree q-1 (rows index the target)."""
        if not (q >= 1 and 0 <= i <= q):
            raise LoopnilError(f"face d_{i} undefined in degree {q}")
        key = (q, i)
        if key not in self._faces:
            mat = self._face_fn(q, i)
            self._check_shape(mat, self.rank(q - 1), self.rank(q), f"d_{i} in degree {q}")
            self._faces[key] = mat
        return self._faces[key]

    def degeneracy_matrix(self, q, i):
        if not (q >= 0 and 0 <= i <= q):
            raise LoopnilError(f"degeneracy s_{i} undefined in degree {q}")
        key = (q, i)
        if key not in self._degens:
            mat = self._degeneracy_fn(q, i)
            self._check_shape(mat, self.rank(q + 1), self.rank(q), f"s_{i} in degree {q}")
            self._degens[key] = mat
        return self._degens[key]

    @staticmethod
    def _check_shape(mat, rows, cols, what):
        m = len(mat)
        if m != rows or (m and any(len(r) != cols for r in mat)):
            raise InternalInvariantError(f"{what}: expected {rows}x{cols} matrix")


def reduced_linearization(space):
    """Free simplicial abelian group on a reduced space modulo the basepoint
    ray: degree q is free on all q-simplices except the basepoint degeneracy,
    with induced face and degeneracy matrices."""
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

    def face(q, i):
        refs, _ = cached_basis(q)
        _, tgt_index = cached_basis(q - 1)
        out = intmat.zeros(len(tgt_index), len(refs))
        for j, ref in enumerate(refs):
            img = space.face(ref, i)
            row = tgt_index.get(img)
            if row is not None:
                out[row][j] += 1
        return out

    def degeneracy(q, i):
        refs, _ = cached_basis(q)
        _, tgt_index = cached_basis(q + 1)
        out = intmat.zeros(len(tgt_index), len(refs))
        for j, ref in enumerate(refs):
            img = space.degeneracy(ref, i)
            row = tgt_index.get(img)
            if row is not None:
                out[row][j] += 1
        return out

    return SimplicialAbelianGroup(rank, face, degeneracy, name=f"Zred({space.name})")


def moore_homology(group, s):
    """Homology of the Moore complex N_q = ker d_1 .. ker d_q with
    differential d_0, at degree s.  Exact over Z via Smith normal form."""
    if s < 0:
        raise LoopnilError(f"degree must be >= 0, got {s}")
    for q in range(0, s + 2):
        if group.torsion(q):
            raise UnsupportedTorsion(
                f"degree {q} of {group.name or 'group'} has torsion; Moore homology "
                "here requires free degrees"
            )

    def moore_basis(q):
        """Columns spanning N_q inside degree q."""
        n = group.rank(q)
        if q <= 0:
            return intmat.identity(max(n, 0)), n
        if n == 0:
            return [], 0
        blocks = [group.face_matrix(q, i) for i in range(1, q + 1)]
        stacked = intmat.stack_rows(blocks, n)
        if not stacked:
            return intmat.identity(n), n
        return intmat.kernel_basis(stacked, ncols=n)

    k_s, n_s = moore_basis(s)
    if n_s == 0:
        return AbelianInvariants(0, ())
    k_lo, n_lo = moore_basis(s - 1)
    k_hi, n_hi = moore_basis(s + 1)

    def boundary_coords(k_from, n_from, k_to, n_to, q):
        """Coordinates in the N-basis of d_0 restricted to N_q."""
        if n_from == 0:
            return [[] for _ in range(n_to)], 0
        img = intmat.matmul(group.face_matrix(q, 0), k_from, b_cols=n_from)
        if n_to == 0:
            if any(any(v for v in row) for row in img):
                raise InternalInvariantError("Moore boundary misses the Moore subgroup")
            return [], 0
        return intmat.solve_columns(k_to, img, a_cols=n_to, b_cols=n_from)

    if s == 0:
        cycles, n_cyc = intmat.identity(n_s), n_s
    else:
        c_s, _ = boundary_coords(k_s, n_s, k_lo, n_lo, s)
        cycles, n_cyc = intmat.kernel_basis(c_s, ncols=n_s)
    if n_cyc == 0:
        return AbelianInvariants(0, ())
    c_hi, width = boundary_coords(k_hi, n_hi, k_s, n_s, s + 1)
    if width == 0:
        return AbelianInvariants(n_cyc, ())
    inside, _ = intmat.solve_columns(cycles, c_hi, a_cols=n_cyc, b_cols=width)
    rank, torsion = intmat.cokernel_invariants(inside, ncols=width)
    return AbelianInvariants(rank, tuple(torsion))
