"""Kan loop groups, their lower-central tower, graded layers, and homotopy.

The loop group of a reduced space is free in each degree on the simplices of
one dimension higher that are not s0-degenerate.  Everything downstream is
computed at this group level; classifying-space conventions shift reported
homotopy degrees by one, so pi_s here corresponds to pi_{s+1} of the
delooped object.

A loop group's generators and the words of its faces and degeneracies are
a function of the space alone: they are built once per space, shared by
every loop group on it and kept for the space's lifetime.  Caps stay with
each loop group, which checks every degree it reads against its own.
"""

import math
import weakref

from .caps import current_caps, quoted
from .errors import InternalInvariantError, LoopnilError
from .hall import hall_basis, lie_rows, subalphabet_trees, witt_rank
from .linearize import SimplicialAbelianGroup, moore_homology
from .nilpotent import check_free_group, hom_from_words, invert_free_word, layer_matrix
from .nilq import nilpotent_quotient
from .simplicial import require_valid


class _Structure:
    """A space's loop-group structure: generators and their index per
    degree, the words of each map, and one word ((g, 1),) per letter g,
    which every map's single-letter words share."""

    def __init__(self):
        self.gens = {}
        self.index = {}
        self.maps = {}
        self._letters = []

    def letters(self, count):
        """The one-letter words of letters 0..count-1, and perhaps more."""
        for g in range(len(self._letters), count):
            self._letters.append(((g, 1),))
        return self._letters


# a space's structure lives exactly as long as the space does
_STRUCTURE = weakref.WeakKeyDictionary()


class LoopGroup:
    """Free simplicial group on a reduced space: degree-q generators are the
    (q+1)-simplices minus the s0-degenerate ones, with the twisted face
    d_0 g = (d_1 g) * (d_0 g)^-1 and shifted faces/degeneracies otherwise.

    The generators and the words of every face and degeneracy depend on
    the space alone, and a space is never mutated after construction, so
    they are built once per space, shared by every loop group on it and
    kept for the space's lifetime.  Its caps (the environment's unless
    given) are its own: they govern every degree it reads, even one
    another group on the space has built, and every stage, layer and
    homotopy request built on it, the element arithmetic included."""

    def __init__(self, space, caps=None):
        require_valid(space)
        self.space = space
        self.caps = caps or current_caps()
        self._checked = set()
        self._shared = _STRUCTURE.get(space)
        if self._shared is None:
            self._shared = _STRUCTURE[space] = _Structure()

    def generators(self, q):
        """Generator refs in degree q.  A degree over this group's degree
        cap is refused before it is read or enumerated; a degree is checked
        once and recorded only when it passes, so an over-cap one is
        refused every time."""
        if q < 0:
            return []
        if q not in self._checked:
            self.caps.check_degree(q, f"loop group of {quoted(self.space.name)}")
            self._checked.add(q)
        gens = self._shared.gens
        if q not in gens:
            gens[q] = [r for r in self.space.refs(q + 1) if not r.is_s0_degenerate]
            self._shared.index[q] = {r: i for i, r in enumerate(gens[q])}
        return gens[q]

    def gen_count(self, q):
        return len(self.generators(q))

    def map_words(self, q, i, kind):
        """Target degree and the word of every degree-q generator under d_i
        (kind 'face') or s_i (kind 'degeneracy'), built in one pass on first
        use on the space; both degrees pass this group's cap on every call.
        A (q+1)-simplex names the generator it is, or the identity when it
        is s0-degenerate; the twisted face (d_1 g)(d_0 g)^-1 is empty
        exactly when both name the same one."""
        if kind not in ("face", "degeneracy"):
            raise LoopnilError(f"map kind must be 'face' or 'degeneracy', got {quoted(str(kind))}")
        face = kind == "face"
        if face and not (1 <= q and 0 <= i <= q):
            raise LoopnilError(f"face d_{i} undefined in loop-group degree {q}")
        if not face and not (0 <= i <= q):
            raise LoopnilError(f"degeneracy s_{i} undefined in degree {q}")
        target = q - 1 if face else q + 1
        gens = self.generators(q)
        count = self.gen_count(target)
        key = (q, i, kind)
        maps = self._shared.maps
        if key not in maps:
            space, index = self.space, self._shared.index[target]
            letters = self._shared.letters(count)

            def letter(ref):
                if ref.is_s0_degenerate:
                    return None
                if ref not in index:
                    raise InternalInvariantError(f"unknown simplex {ref} in degree {target}")
                return index[ref]

            if not face:
                words = [letter(space.degeneracy(ref, i + 1)) for ref in gens]
                if None in words:
                    raise InternalInvariantError("degeneracy of a generator vanished")
                words = [letters[g] for g in words]
            elif i:
                words = [letter(space.face(ref, i + 1)) for ref in gens]
                words = [() if g is None else letters[g] for g in words]
            else:
                words = []
                for ref in gens:
                    first, second = letter(space.face(ref, 1)), letter(space.face(ref, 0))
                    if first == second:
                        words.append(())
                    elif second is None:
                        words.append(letters[first])
                    elif first is None:
                        words.append(((second, -1),))
                    else:
                        words.append(((first, 1), (second, -1)))
            maps[key] = (target, words)
        return maps[key]

    def degeneracy_masks(self, q):
        """Bit i of entry g is set when generator g of degree q is the image
        of a generator under s_i, i < q.  Here s_i is the space's s_{i+1},
        and a simplex lies in the image of s_j exactly when j occurs in its
        Eilenberg-Zilber degeneracy word."""
        return [sum(1 << (j - 1) for j in ref.degeneracies) for ref in self.generators(q)]


loop_group = LoopGroup


# ---------------------------------------------------------------------------
# tower stages


class SimplicialGroupTower:
    """Degreewise class-n quotients of a loop group; each structure map is
    ``hom_from_words`` over the group's ``map_words``.  Caps are the loop
    group's."""

    def __init__(self, group, n):
        if n < 1:
            raise LoopnilError(f"class must be >= 1, got {n}")
        group.caps.check_class(n, f"tower stage over {quoted(group.space.name)}")
        self.group = group
        self.n = n

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
    the weight-n Lie functor to the map's words (``LoopGroup.map_words``),
    both as ``{col: value}`` rows.  The comparison map is the identity on
    the shared Hall-letter bases.  Caps are the loop group's."""

    def __init__(self, group, n):
        if n < 1:
            raise LoopnilError(f"class must be >= 1, got {n}")
        group.caps.check_class(n, f"layer over {quoted(group.space.name)}")
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

    def comparison_ok(self, max_degree):
        """Both routes agree for every structure map among degrees 0..max_degree,
        compared one map at a time up to the first disagreement.

        Refused before any work when a collection engine it needs is over
        the Hall-rank cap."""
        group, n = self.group, self.n
        if max_degree >= 1:
            k = max(group.gen_count(q) for q in range(max_degree + 1))
            check_free_group(group.caps, k, n)
        maps = [(q, i, "face") for q in range(1, max_degree + 1) for i in range(q + 1)]
        maps += [(q, i, "degeneracy") for q in range(max_degree) for i in range(q + 1)]

        def routes_agree(q, i, kind):
            target, words = group.map_words(q, i, kind)
            k = group.gen_count(target)
            return layer_matrix(hom_from_words(words, k, n, group.caps), n) == lie_rows(words, n, k)

        return all(routes_agree(*m) for m in maps)

    def abelian(self):
        """The Lie-functor side as a simplicial abelian group (the side that
        feeds homotopy computations).  Its rank and faces are on the whole
        Hall basis; its degenerate generators in degree q are the Hall trees
        whose leaves all lie in one image s_i(generators), i < q."""
        group, n = self.group, self.n

        def degenerate(q):
            masks = group.degeneracy_masks(q)
            return subalphabet_trees(len(masks), n, masks)

        def face(q, i, cols):
            basis = hall_basis(group.gen_count(q), n)
            target, words = group.map_words(q, i, "face")
            return lie_rows(words, n, group.gen_count(target), [basis[j] for j in cols])

        name = f"layer {n} of G({quoted(group.space.name)})"
        return SimplicialAbelianGroup(self.rank, face, name=name, degenerate_fn=degenerate)


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
    context = f"layer homotopy over {quoted(group.space.name)}"
    caps.check_degree(s + 1, context)
    lay = LayerObject(group, n)
    if lay.normalized_rank(s):
        for q in (s, s + 1):
            caps.check_layer_rank(f"normalized layer rank N_{q}", lay.normalized_rank(q), context)
    return moore_homology(lay.abelian(), s)
