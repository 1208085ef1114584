"""Class-n quotients of finitely presented groups, layer by layer.

The quotient G/Γ_{n+1}G of G = <x_1..x_k | r_1..r_m> is computed inside the
free class-n group: the normal closure of the relators is generated, modulo
weight n+1, by the left-normed commutators of relators with generators; the
weight-w layer of the quotient is then the cokernel of the weight-w leading
forms of closure elements supported in weights >= w.  Echelon reduction is
performed with exact group operations so deeper weights carry honest
corrections, and each reduction stage feeds the next one with the elements
needed to generate the kernel (zero-reduced leftovers plus commutators of
pivots with everything seen so far).
"""

from dataclasses import dataclass

from . import intmat
from .abelian import AbelianInvariants
from .caps import current_caps
from .errors import LoopnilError
from .hall import witt_rank
from .nilpotent import NilpotentElement, collect, nil_commutator, nil_multiply, nil_power


@dataclass(frozen=True)
class PolycyclicQuotient:
    """Per-weight-layer invariants of a class-n quotient together with the
    relations of a polycyclic generating sequence (Hall letters modulo the
    computed relation lattice).

    ``pivots`` holds the echelonized closure elements themselves: the
    weight-w slice of each pivot of lowest weight w spans the relation
    lattice of that layer, and the deeper slices are the carry tails making
    the power relations consistent.
    """

    k: int
    n: int
    layers: tuple  # AbelianInvariants per weight 1..n
    pivots: tuple  # echelonized NilpotentElement relators

    @property
    def relations(self):
        return tuple(str(p) for p in self.pivots)

    def to_json(self):
        return {
            "class": self.n,
            "layers": [inv.to_json() for inv in self.layers],
            "relations": list(self.relations),
        }


def _saturate(relator_elements, gens, n):
    """Subgroup generators of the normal closure modulo weight n+1:
    left-normed commutators of relators with ``gens``, the generators and
    their inverses."""
    out = []
    frontier = [e for e in relator_elements if not e.is_identity]
    depth = 0
    while frontier and depth < n:
        out.extend(frontier)
        nxt = []
        for e in frontier:
            low = e.lowest_weight()
            if low is None or low >= n:
                continue
            for g in gens:
                c = nil_commutator(e, g)
                if not c.is_identity:
                    nxt.append(c)
        frontier = nxt
        depth += 1
    return out


def _echelon_weight(active, w):
    """Group-exact integer echelon of the weight-w leading rows.

    Returns (pivots, leftovers): pivot elements have independent weight-w
    parts; leftovers were reduced to lowest weight > w.
    """
    pivots = []  # list of (leading column, element)
    leftovers = []
    queue = list(active)
    while queue:
        e = queue.pop()
        while True:
            row = e.weight_slice(w)
            lead = next((j for j, v in enumerate(row) if v), None)
            if lead is None:
                if not e.is_identity:
                    leftovers.append(e)
                break
            slot = next((p for p in pivots if p[0] == lead), None)
            if slot is None:
                pivots.append((lead, e))
                pivots.sort(key=lambda p: p[0])
                break
            _, p = slot
            pv = p.weight_slice(w)[lead]
            ev = row[lead]
            q = ev // pv
            if q:
                e = nil_multiply(e, nil_power(p, -q))
                continue
            # |ev| < |pv|: swap roles so the smaller entry becomes the pivot
            pivots.remove(slot)
            pivots.append((lead, e))
            pivots.sort(key=lambda p: p[0])
            e = p
    return [p for _, p in pivots], leftovers


def nilpotent_quotient(k, relators, n, caps=None):
    """Layers and polycyclic relations of the class-n quotient of the group
    presented by k generators and the given relator words.

    Relators may be free words (lists of (generator, exponent) pairs) or
    ready NilpotentElement values in the matching free class-n group.
    """
    caps = caps or current_caps()
    if n < 1:
        raise LoopnilError(f"class must be >= 1, got {n}")
    gens = [collect([(i, e)], k, n, caps) for i in range(1, k + 1) for e in (1, -1)]
    elements = []
    for r in relators:
        if isinstance(r, NilpotentElement):
            if (r.k, r.n) != (k, n):
                raise LoopnilError("relator lives in the wrong ambient group")
            elements.append(r)
        else:
            elements.append(collect(r, k, n, caps))

    basket = _saturate(elements, gens, n)
    all_pivots = []
    layers = []
    for w in range(1, n + 1):
        active = []
        rest = []
        for e in basket:
            low = e.lowest_weight()
            if low is None:
                continue
            (active if low == w else rest).append(e)
        pivots, leftovers = _echelon_weight(active, w)
        rank_w = witt_rank(k, w)
        if pivots:
            rows = [p.weight_slice(w) for p in pivots]
            cols = intmat.transpose(rows, ncols=rank_w)
            layers.append(AbelianInvariants(*intmat.cokernel_invariants(cols, ncols=len(rows))))
        else:
            layers.append(AbelianInvariants(rank_w, ()))
        # generators of the next-weight part of the closure: everything not
        # yet consumed plus commutators of the new pivots with generators,
        # all pivots so far, and the whole remaining basket
        basket = rest + leftovers
        if w < n:
            partners = gens + all_pivots + pivots + basket
            for p in pivots:
                for q in partners:
                    lo_q = q.lowest_weight()
                    if lo_q is not None and w + lo_q <= n:
                        c = nil_commutator(p, q)
                        if not c.is_identity:
                            basket.append(c)
        all_pivots.extend(pivots)
    return PolycyclicQuotient(k, n, tuple(layers), tuple(all_pivots))


def free_nilpotent_layers(k, n):
    """Layer invariants of the free class-n group (empty relator set)."""
    return tuple(AbelianInvariants(witt_rank(k, w), ()) for w in range(1, n + 1))
