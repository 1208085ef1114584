"""Kan loop groups, their lower-central tower, graded layers, and homotopy.

The loop group of a reduced space is free in each degree on the simplices of
one dimension higher that are not s0-degenerate.  Everything downstream is
computed at this group level; classifying-space conventions shift reported
homotopy degrees by one, so pi_s here corresponds to pi_{s+1} of the
delooped object.
"""

import math

from . import intmat
from .caps import current_caps
from .errors import InternalInvariantError, LoopnilError
from .hall import hall_basis, lie_of_map, lie_rows, subalphabet_trees, total_hall_rank, witt_rank
from .linearize import SimplicialAbelianGroup, moore_homology
from .nilpotent import (
    NilpotentElement,
    NilpotentHom,
    _check_rank,
    invert_free_word,
    layer_matrix,
    reduce_free_word,
    rule_system,
)
from .nilq import nilpotent_quotient
from .simplicial import require_valid


class LoopGroup:
    """Free simplicial group on a reduced space: degree-q generators are the
    (q+1)-simplices minus the s0-degenerate ones, with the twisted face
    d_0 g = (d_1 g) * (d_0 g)^-1 and shifted faces/degeneracies otherwise.

    Its caps (the environment's unless given) govern every stage, layer and
    homotopy request built on it, the element arithmetic included."""

    def __init__(self, space, caps=None):
        require_valid(space)
        self.space = space
        self.caps = caps or current_caps()
        self._gens = {}
        self._index = {}
        self._face_words = {}
        self._degeneracy_words = {}

    def generators(self, q):
        """Generator refs in degree q; a degree over the degree cap is
        refused before it is enumerated, and so is never cached."""
        if q < 0:
            return []
        if q not in self._gens:
            self.caps.check_degree(q, f"loop group of {self.space.name}")
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

    def map_words(self, q, i, kind):
        """Target degree and the word of every degree-q generator under d_i
        (kind 'face') or s_i (kind 'degeneracy')."""
        if kind == "face":
            target, word_of = q - 1, self.face_word
        else:
            target, word_of = q + 1, self.degeneracy_word
        return target, [word_of(q, i, g) for g in range(self.gen_count(q))]

    def degeneracy_masks(self, q):
        """Bit i of entry g is set when generator g of degree q is the image
        of a generator under s_i, i < q.  Here s_i is the space's s_{i+1},
        and a simplex lies in the image of s_j exactly when j occurs in its
        Eilenberg-Zilber degeneracy word."""
        return [sum(1 << (j - 1) for j in ref.degeneracies) for ref in self.generators(q)]

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


loop_group = LoopGroup


# ---------------------------------------------------------------------------
# abelianized loop group (layer 1: the degree-shifted reduced chains)


def abelianized_matrix(group, q, i, kind):
    """Integer matrix of d_i (kind 'face') or s_i (kind 'degeneracy') on the
    degreewise abelianization of the loop group."""
    target, words = group.map_words(q, i, kind)
    out = intmat.zeros(group.gen_count(target), len(words))
    for j, word in enumerate(words):
        for g, e in word:
            out[g][j] += e
    return out


# ---------------------------------------------------------------------------
# tower stages


class SimplicialGroupTower:
    """Degreewise class-n quotients of a loop group with collected face and
    degeneracy homomorphisms; caps are the loop group's."""

    def __init__(self, group, n):
        if n < 1:
            raise LoopnilError(f"class must be >= 1, got {n}")
        group.caps.check_class(n, f"tower stage over {group.space.name}")
        self.group = group
        self.n = n
        self._homs = {}

    def _hom(self, q, i, kind):
        """d_i or s_i out of degree q, each generator's word collected by the
        target's engine; loop-group words use only the target's letters.
        The source's engine is resolved under the same caps, because
        ``layer_matrix`` and ``apply_hom`` look it up without caps."""
        key = (q, i, kind)
        hom = self._homs.get(key)
        if hom is None:
            group, n = self.group, self.n
            target, words = group.map_words(q, i, kind)
            k, caps = group.gen_count(target), group.caps
            rule_system(len(words), n, caps)
            engine = rule_system(k, n, caps)
            images = tuple(NilpotentElement(k, n, tuple(engine.collect(w))) for w in words)
            hom = self._homs[key] = NilpotentHom(len(words), k, n, images)
        return hom

    def face_hom(self, q, i):
        return self._hom(q, i, "face")

    def degeneracy_hom(self, q, i):
        return self._hom(q, i, "degeneracy")

    def truncate(self):
        """The stage one class lower; images truncate compatibly."""
        return SimplicialGroupTower(self.group, self.n - 1)


tower_stage = SimplicialGroupTower


def pi0(stage):
    """Component group of a tower stage: the degree-0 group modulo the
    normal closure of d_0(g) d_1(g)^-1 over degree-1 generators."""
    group = stage.group
    _, d0 = group.map_words(1, 0, "face")
    _, d1 = group.map_words(1, 1, "face")
    relators = [
        [(x + 1, e) for x, e in list(w0) + invert_free_word(w1)] for w0, w1 in zip(d0, d1)
    ]
    return nilpotent_quotient(group.gen_count(0), relators, stage.n, group.caps)


# ---------------------------------------------------------------------------
# graded layers


class LayerObject:
    """The weight-n graded piece of the tower, computed two ways per map:
    by collection in the degreewise free nilpotent groups, and by applying
    the weight-n Lie functor to the abelianized matrices.  The comparison
    map is the identity on the shared Hall-letter bases.  Caps are the loop
    group's."""

    def __init__(self, group, n):
        if n < 1:
            raise LoopnilError(f"class must be >= 1, got {n}")
        group.caps.check_class(n, f"layer over {group.space.name}")
        self.group = group
        self.n = n

    def rank(self, q):
        return witt_rank(self.group.gen_count(q), self.n)

    def normalized_rank(self, q):
        """N_q, the number of nondegenerate Hall trees in degree q, from
        generator counts alone.  An intersection of j of the images
        S_i = s_i(generators) is the image of a j-fold degeneracy from degree
        q - j (Eilenberg-Zilber), so inclusion-exclusion over the q images
        gives N_q = sum_j (-1)^j C(q, j) witt(gen_count(q - j), n)."""
        return sum(
            (-1) ** j * math.comb(q, j) * witt_rank(self.group.gen_count(q - j), self.n)
            for j in range(q + 1)
        )

    def _lie_route(self, lie, q, i, kind, *trees):
        """``lie`` (``lie_of_map``, or ``lie_rows`` with its source trees) of
        the abelianized map."""
        mat = abelianized_matrix(self.group, q, i, kind)
        return lie(mat, self.n, self.group.gen_count(q), len(mat), *trees)

    def comparison_ok(self, max_degree):
        """Both routes agree for every structure map among degrees 0..max_degree,
        compared one map at a time up to the first disagreement.

        Refused before any work when a collection engine it needs is over
        the Hall-rank cap."""
        if max_degree >= 1:
            k = max(self.group.gen_count(q) for q in range(max_degree + 1))
            _check_rank(self.group.caps, k, self.n, total_hall_rank(k, self.n))
        stage = SimplicialGroupTower(self.group, self.n)
        maps = [(q, i, "face") for q in range(1, max_degree + 1) for i in range(q + 1)]
        maps += [(q, i, "degeneracy") for q in range(max_degree) for i in range(q + 1)]
        return all(
            layer_matrix(stage._hom(*m), self.n) == self._lie_route(lie_of_map, *m)
            for m in maps
        )

    def abelian(self):
        """The Lie-functor side as a simplicial abelian group (the side that
        feeds homotopy computations).  Its rank and faces are on the whole
        Hall basis; its degenerate generators in degree q are the Hall trees
        whose leaves all lie in one image s_i(generators), i < q."""
        group, n = self.group, self.n

        def rank(q):
            return self.rank(q) if q >= 0 else 0

        def degenerate(q):
            masks = group.degeneracy_masks(q)
            return subalphabet_trees(len(masks), n, masks)

        def face(q, i, cols):
            basis = hall_basis(group.gen_count(q), n)
            return self._lie_route(lie_rows, q, i, "face", [basis[j] for j in cols])

        return SimplicialAbelianGroup(
            rank, face, name=f"layer {n} of G({group.space.name})", degenerate_fn=degenerate
        )


layer = LayerObject


def layer_homotopy(group, n, s):
    """pi_s of the weight-n layer (Lie-functor side), via Moore homology.

    Refused before any face is built when N_s is nonzero and N_s or
    N_{s+1}, the normalized ranks the homology eliminates over, exceeds the
    layer-rank cap.

    Lie_1 is the identity functor, so layer 1 is the abelianized loop group,
    whose pi_s is the reduced homology H~_{s+1} of the space (Kan; E. B.
    Curtis, Simplicial homotopy theory, 1971)."""
    caps = group.caps
    if s < 0:
        raise LoopnilError(f"degree must be >= 0, got {s}")
    context = f"layer homotopy over {group.space.name}"
    caps.check_degree(s + 1, context)
    lay = LayerObject(group, n)
    if lay.normalized_rank(s):
        for q in (s, s + 1):
            caps.check_layer_rank(f"normalized layer rank N_{q}", lay.normalized_rank(q), context)
    return moore_homology(lay.abelian(), s)
