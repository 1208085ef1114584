"""Class-n quotients of finitely presented groups, layer by layer.

The quotient G/Γ_{n+1}G of G = <x_1..x_k | r_1..r_m> is computed inside the
free class-n group F (free group modulo weight n+1), where the relators
generate a normal subgroup N.  A basket of candidates starts as the
relators.  At each weight w an echelon reduction by exact group operations
turns the candidates of lowest weight w into pivots, whose weight-w slices
are independent, and leftovers of higher lowest weight; the leftovers and
the commutators [p, x_i] of each new pivot p with the generators go back
into the basket.  This is the layer-by-layer scheme of W. Nickel,
"Computing nilpotent quotients of finitely presented groups" (DIMACS
Ser. 25, 1996).

Why it suffices.  Let H be the subgroup generated by the pivots of all
weights, and H_v the one generated by the pivots of weight >= v.

* The echelon uses only unimodular group operations, so every candidate
  ever placed in the basket, each relator among them, lies in H; and
  H <= N, since every candidate is built from relators by products and
  commutators with generators.
* [p, x_i] lies in H_{w+1} for each pivot p of weight w, so
  p^{x_i} = p [p, x_i] lies in H_w and H_v^{x_i} <= H_v for every v.
  Subgroups of a finitely generated nilpotent group satisfy the ascending
  chain condition, so the chain H_v <= H_v^{x_i^-1} <= H_v^{x_i^-2} <= ...
  stops, which gives H_v^{x_i} = H_v: each H_v is normal.  Since H contains
  the relators, H = N.
* By normality [p, g] lies in H_{v+1} for every pivot p of weight v and
  every g in F, so H_v/H_{v+1} is central in F/H_{v+1} and generated by the
  weight-v pivots.  Their weight-v slices are independent, so an element
  of H_v inside Γ_{v+1} lies in H_{v+1}; by induction H ∩ Γ_w = H_w.
* Layer w of the quotient is Γ_w N/Γ_{w+1} N = Γ_w/Γ_{w+1}(N ∩ Γ_w), the
  free Lie layer L_w modulo the image of H_w: the span of the weight-w
  slices of the weight-w pivots.  Nothing else needs commuting.
"""

from dataclasses import dataclass

from . import intmat
from .abelian import AbelianInvariants
from .caps import current_caps
from .errors import LoopnilError
from .hall import witt_rank
from .nilpotent import collect, nil_commutator, nil_multiply, nil_power


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


def _echelon_weight(active, w):
    """Group-exact integer echelon of the weight-w leading rows.

    Returns (pivots, leftovers): pivot elements have independent weight-w
    parts; leftovers were reduced to lowest weight > w.
    """
    pivots = {}  # leading column -> element
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
            p = pivots.get(lead)
            if p is None:
                pivots[lead] = e
                break
            q = row[lead] // p.weight_slice(w)[lead]
            if q:
                e = nil_multiply(e, nil_power(p, -q))
                continue
            # e's lead entry is smaller than p's: swap roles so it becomes the pivot
            pivots[lead] = e
            e = p
    return [pivots[c] for c in sorted(pivots)], leftovers


def nilpotent_quotient(k, relators, n, caps=None):
    """Layers and polycyclic relations of the class-n quotient of the group
    presented by k generators and the given relator words.

    Each relator is a free word, a list of (generator, exponent) pairs with
    generators in 1..k.
    """
    caps = caps or current_caps()
    if n < 1:
        raise LoopnilError(f"class must be >= 1, got {n}")
    gens = [collect([(i, 1)], k, n, caps) for i in range(1, k + 1)]
    basket = []
    for word in relators:
        r = collect(word, k, n, caps)
        if not r.is_identity:
            basket.append(r)

    all_pivots = []
    layers = []
    for w in range(1, n + 1):
        active = []
        rest = []
        for e in basket:
            (active if e.lowest_weight() == w else rest).append(e)
        pivots, leftovers = _echelon_weight(active, w)
        # the slices as rows: a matrix and its transpose share their
        # invariant factors
        facs = intmat.sparse_invariant_factors(
            {j: v for j, v in enumerate(p.weight_slice(w)) if v} for p in pivots
        )
        layers.append(
            AbelianInvariants(witt_rank(k, w) - len(facs), [x for x in facs if x != 1])
        )
        # the rest of the closure: everything not yet consumed plus the
        # commutators of the final weight-w pivots with the generators
        basket = rest + leftovers
        if w < n:
            for p in pivots:
                for g in gens:
                    c = nil_commutator(p, g)
                    if not c.is_identity:
                        basket.append(c)
        all_pivots.extend(pivots)
    return PolycyclicQuotient(k, n, tuple(layers), tuple(all_pivots))


def free_nilpotent_layers(k, n):
    """Layer invariants of the free class-n group (empty relator set)."""
    return tuple(AbelianInvariants(witt_rank(k, w), ()) for w in range(1, n + 1))
