"""Kan loop groups, their lower-central tower, graded layers, and homotopy.

The loop group of a reduced space is free in each degree on the simplices of
one dimension higher that are not s0-degenerate.  Everything downstream is
computed at this group level; classifying-space conventions shift reported
homotopy degrees by one, so pi_s here corresponds to pi_{s+1} of the
delooped object.
"""

from dataclasses import dataclass

from . import intmat
from .caps import current_caps
from .errors import InternalInvariantError, LoopnilError
from .hall import lie_of_map, lie_rows, total_hall_rank, witt_rank
from .linearize import SimplicialAbelianGroup, moore_homology
from .nilpotent import (
    NilpotentHom,
    _check_rank,
    collect,
    invert_free_word,
    layer_matrix,
    reduce_free_word,
)
from .nilq import nilpotent_quotient
from .simplicial import require_valid


class LoopGroup:
    """Free simplicial group on a reduced space: degree-q generators are the
    (q+1)-simplices minus the s0-degenerate ones, with the twisted face
    d_0 g = (d_1 g) * (d_0 g)^-1 and shifted faces/degeneracies otherwise."""

    def __init__(self, space, caps=None):
        require_valid(space)
        self.space = space
        self.caps = caps or current_caps()
        self._gens = {}
        self._index = {}
        self._face_words = {}
        self._degeneracy_words = {}

    def generators(self, q):
        """Generator refs in degree q (cap-checked)."""
        if q < 0:
            return []
        self.caps.check_degree(q, f"loop group of {self.space.name}")
        if q not in self._gens:
            gens = [r for r in self.space.refs(q + 1) if not r.is_s0_degenerate]
            self._gens[q] = gens
            self._index[q] = {r: i for i, r in enumerate(gens)}
        return self._gens[q]

    def gen_count(self, q):
        return len(self.generators(q))

    def _letter(self, q, ref):
        """Generator index of a (q+1)-simplex, or None when it maps to the
        identity (s0-degenerate)."""
        if ref.is_s0_degenerate:
            return None
        self.generators(q)
        idx = self._index[q].get(ref)
        if idx is None:
            raise InternalInvariantError(f"unknown simplex {ref} in degree {q}")
        return idx

    def face_word(self, q, i, g):
        """Image of generator g under d_i as a word over degree q-1."""
        key = (q, i, g)
        word = self._face_words.get(key)
        if word is None:
            if not (1 <= q and 0 <= i <= q):
                raise LoopnilError(f"face d_{i} undefined in loop-group degree {q}")
            ref = self.generators(q)[g]
            if i == 0:
                first = self._letter(q - 1, self.space.face(ref, 1))
                second = self._letter(q - 1, self.space.face(ref, 0))
                parts = []
                if first is not None:
                    parts.append((first, 1))
                if second is not None:
                    parts.append((second, -1))
                word = tuple(reduce_free_word(parts))
            else:
                tgt = self._letter(q - 1, self.space.face(ref, i + 1))
                word = ((tgt, 1),) if tgt is not None else ()
            self._face_words[key] = word
        return word

    def degeneracy_word(self, q, i, g):
        key = (q, i, g)
        word = self._degeneracy_words.get(key)
        if word is None:
            if not (0 <= i <= q):
                raise LoopnilError(f"degeneracy s_{i} undefined in degree {q}")
            ref = self.generators(q)[g]
            tgt = self._letter(q + 1, self.space.degeneracy(ref, i + 1))
            if tgt is None:
                raise InternalInvariantError("degeneracy of a generator vanished")
            word = ((tgt, 1),)
            self._degeneracy_words[key] = word
        return word

    # -- identities ----------------------------------------------------------

    def _apply_word(self, word_of, w):
        out = []
        for g, e in w:
            img = word_of(g)
            if e < 0:
                img = invert_free_word(img)
                e = -e
            for _ in range(e):
                out.extend(img)
        return tuple(reduce_free_word(out))

    def identity_violations(self, max_degree):
        """Simplicial-group identities on generators up to the given degree."""
        bad = []

        def face_map(q, i):
            return lambda g: self.face_word(q, i, g)

        def degen_map(q, i):
            return lambda g: self.degeneracy_word(q, i, g)

        for q in range(0, max_degree + 1):
            for g in range(self.gen_count(q)):
                gen_word = ((g, 1),)
                # d_i d_j = d_{j-1} d_i for i < j (degree >= 2)
                if q >= 2:
                    for j in range(q + 1):
                        for i in range(j):
                            lhs = self._apply_word(
                                face_map(q - 1, i), self.face_word(q, j, g)
                            )
                            rhs = self._apply_word(
                                face_map(q - 1, j - 1), self.face_word(q, i, g)
                            )
                            if lhs != rhs:
                                bad.append((q, g, f"d{i} d{j}"))
                # s_i s_j = s_{j+1} s_i for i <= j
                for j in range(q + 1):
                    for i in range(j + 1):
                        lhs = self._apply_word(
                            degen_map(q + 1, j + 1), self.degeneracy_word(q, i, g)
                        )
                        rhs = self._apply_word(
                            degen_map(q + 1, i), self.degeneracy_word(q, j, g)
                        )
                        if lhs != rhs:
                            bad.append((q, g, f"s{i} s{j}"))
                # d_i s_j relations
                if q >= 0:
                    for j in range(q + 1):
                        for i in range(q + 2):
                            lhs = self._apply_word(
                                face_map(q + 1, i), self.degeneracy_word(q, j, g)
                            )
                            if i == j or i == j + 1:
                                rhs = gen_word
                            elif i < j:
                                rhs = self._apply_word(
                                    degen_map(q - 1, j - 1), self.face_word(q, i, g)
                                ) if q >= 1 else None
                            else:
                                rhs = self._apply_word(
                                    degen_map(q - 1, j), self.face_word(q, i - 1, g)
                                ) if q >= 1 else None
                            if rhs is not None and lhs != rhs:
                                bad.append((q, g, f"d{i} s{j}"))
        return bad


def loop_group(space, caps=None):
    return LoopGroup(space, caps)


# ---------------------------------------------------------------------------
# abelianized loop group (the degree-shifted reduced linearization)


def abelianized_matrix(group, q, i, kind):
    """Integer matrix of d_i (kind 'face') or s_i (kind 'degeneracy') on the
    degreewise abelianization of the loop group."""
    if kind == "face":
        rows = group.gen_count(q - 1)
        cols = group.gen_count(q)
        words = [group.face_word(q, i, g) for g in range(cols)]
    else:
        rows = group.gen_count(q + 1)
        cols = group.gen_count(q)
        words = [group.degeneracy_word(q, i, g) for g in range(cols)]
    out = intmat.zeros(rows, cols)
    for j, word in enumerate(words):
        for g, e in word:
            out[g][j] += e
    return out


# ---------------------------------------------------------------------------
# tower stages


class SimplicialGroupTower:
    """Degreewise class-n quotients of a loop group with collected face and
    degeneracy homomorphisms."""

    def __init__(self, group, n, caps=None):
        caps = caps or group.caps
        caps.check_class(n, f"tower stage over {group.space.name}")
        self.group = group
        self.n = n
        self.caps = caps
        self._homs = {}

    def gen_count(self, q):
        return self.group.gen_count(q)

    def _hom(self, q, i, kind):
        key = (q, i, kind)
        hom = self._homs.get(key)
        if hom is None:
            if kind == "face":
                src = self.gen_count(q)
                tgt = self.gen_count(q - 1)
                words = [self.group.face_word(q, i, g) for g in range(src)]
            else:
                src = self.gen_count(q)
                tgt = self.gen_count(q + 1)
                words = [self.group.degeneracy_word(q, i, g) for g in range(src)]
            images = tuple(
                collect([(g + 1, e) for g, e in w], tgt, self.n, self.caps)
                for w in words
            )
            hom = NilpotentHom(src, tgt, self.n, images)
            self._homs[key] = hom
        return hom

    def face_hom(self, q, i):
        return self._hom(q, i, "face")

    def degeneracy_hom(self, q, i):
        return self._hom(q, i, "degeneracy")

    def truncate(self):
        """The stage one class lower; images truncate compatibly."""
        if self.n <= 1:
            raise LoopnilError("no stage below class 1")
        return SimplicialGroupTower(self.group, self.n - 1, self.caps)


def tower_stage(group, n, caps=None):
    if n < 1:
        raise LoopnilError(f"class must be >= 1, got {n}")
    return SimplicialGroupTower(group, n, caps)


def pi0(stage):
    """Component group of a tower stage: the degree-0 group modulo the
    normal closure of d_0(g) d_1(g)^-1 over degree-1 generators."""
    k0 = stage.gen_count(0)
    relators = []
    for g in range(stage.gen_count(1)):
        w0 = stage.group.face_word(1, 0, g)
        w1 = stage.group.face_word(1, 1, g)
        word = list(w0) + invert_free_word(w1)
        relators.append([(x + 1, e) for x, e in word])
    return nilpotent_quotient(k0, relators, stage.n, stage.caps)


# ---------------------------------------------------------------------------
# graded layers


@dataclass
class LayerMaps:
    """One structure map of the layer computed along both routes."""

    group_matrix: list
    lie_matrix: list

    @property
    def comparison_ok(self):
        return self.group_matrix == self.lie_matrix


class LayerObject:
    """The weight-n graded piece of the tower, computed two ways per map:
    by collection in the degreewise free nilpotent groups, and by applying
    the weight-n Lie functor to the abelianized matrices.  The comparison
    map is the identity on the shared Hall-letter bases."""

    def __init__(self, group, n, caps=None):
        caps = caps or group.caps
        caps.check_class(n, f"layer over {group.space.name}")
        self.group = group
        self.n = n
        self.caps = caps
        self._stage = None
        self._maps = {}

    def rank(self, q):
        return witt_rank(self.group.gen_count(q), self.n)

    def _tower(self):
        if self._stage is None:
            self._stage = tower_stage(self.group, self.n, self.caps)
        return self._stage

    def face_maps(self, q, i):
        """Both routes for d_i on the degree-q layer (q >= 1)."""
        return self._both_routes("face", q, i)

    def degeneracy_maps(self, q, i):
        """Both routes for s_i from the degree-q layer into degree q+1."""
        return self._both_routes("degeneracy", q, i)

    def _both_routes(self, kind, q, i):
        key = (kind, q, i)
        maps = self._maps.get(key)
        if maps is None:
            hom = self._tower()._hom(q, i, kind)
            maps = LayerMaps(layer_matrix(hom, self.n), self._lie_route(lie_of_map, kind, q, i))
            self._maps[key] = maps
        return maps

    def _lie_route(self, lie, kind, q, i):
        """``lie`` (``lie_of_map`` or ``lie_rows``) of the abelianized map."""
        target = q - 1 if kind == "face" else q + 1
        return lie(
            abelianized_matrix(self.group, q, i, kind),
            self.n,
            self.group.gen_count(q),
            self.group.gen_count(target),
        )

    def comparison_ok(self, max_degree):
        """Both routes agree for every structure map among degrees 0..max_degree.

        Refused before any work when a collection engine it needs is over
        the Hall-rank cap."""
        if max_degree >= 1:
            k = max(self.group.gen_count(q) for q in range(max_degree + 1))
            _check_rank(self.caps, k, self.n, total_hall_rank(k, self.n))
        for q in range(1, max_degree + 1):
            for i in range(q + 1):
                if not self.face_maps(q, i).comparison_ok:
                    return False
        for q in range(0, max_degree):
            for i in range(q + 1):
                if not self.degeneracy_maps(q, i).comparison_ok:
                    return False
        return True

    def abelian(self):
        """The Lie-functor side as a simplicial abelian group (the side that
        feeds homotopy computations)."""

        def rank(q):
            return self.rank(q) if q >= 0 else 0

        def face(q, i):
            return self._lie_route(lie_rows, "face", q, i)

        return SimplicialAbelianGroup(
            rank, face, name=f"layer {self.n} of G({self.group.space.name})"
        )


def layer(group, n, caps=None):
    if n < 1:
        raise LoopnilError(f"class must be >= 1, got {n}")
    return LayerObject(group, n, caps)


def layer_homotopy(group, n, s, caps=None):
    """pi_s of the weight-n layer (Lie-functor side), via Moore homology.

    Lie_1 is the identity functor, so layer 1 is the abelianized loop group:
    the reduced linearization of the space shifted through the loop-group
    construction (the basepoint ray and s0-degeneracies die)."""
    caps = caps or group.caps
    if s < 0:
        raise LoopnilError(f"degree must be >= 0, got {s}")
    caps.check_degree(s + 1, f"layer homotopy over {group.space.name}")
    return moore_homology(layer(group, n, caps).abelian(), s)
