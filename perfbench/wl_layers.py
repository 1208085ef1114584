"""The ``layers`` workload: layer-homotopy sweeps over s, two-route
comparisons, and one query that fails today.

A stream sweeps ``layer_homotopy(loop_group(X), n, s)`` over s for classes
1 to 4 on S^2, S^3, M(Z/2,2), M(Z/3,2), S^1 v S^2, S^2 v S^2, a wedge of
circles and a random two-complex, each sweep stopping where the next degree
would cost seconds.  The stream then compares both layer routes
(``LayerObject.comparison_ok``) where the Hall-rank cap allows, and asks for
``pi0`` of a class-4 stage over a wedge of seven circles with a raised
Hall-rank cap, which fails today because the lookups below ``pi0`` fall back
to the default cap.  The seed draws the wedge, the random complex and the
order of the queries.

Checks:

* class 1: the homology of the space, shifted by one (Kan), from the
  nondegenerate chain complex;
* wedges of circles: pi_0 of layer n has the Witt rank, higher pi vanish;
* every comparison holds;
* classes 2 and above: the unnormalized complex of the Lie-route layer,
  wherever its matrices are small enough for the reference to finish
  promptly.
"""

import reference
import spaces
from loopnil import Caps, SimplicialSet, layer, layer_homotopy, loop_group, pi0, tower_stage
from loopnil.tower import LayerObject
from query import Query

# largest rank(s) * rank(s+1) of a layer the reference Moore homology takes on
REFERENCE_CELLS = 40_000

FIXED = {
    "s2": spaces.space("s2", spaces.sphere_cells(2)),
    "s3": spaces.space("s3", spaces.sphere_cells(3)),
    "m22": spaces.space("moore_2_2", spaces.moore2_cells(2)),
    "m32": spaces.space("moore_3_2", spaces.moore2_cells(3)),
    "s1vs2": spaces.wedge("s1vs2", spaces.sphere_cells(1), spaces.sphere_cells(2)),
    "s2vs2": spaces.wedge("s2vs2", spaces.sphere_cells(2), spaces.sphere_cells(2)),
}

# highest degree s swept per (space, class); the next one costs seconds
SWEEPS = {
    "s2": {1: 5, 2: 5, 3: 5, 4: 5},
    "s3": {1: 5, 2: 5, 3: 4, 4: 3},
    "m22": {1: 5, 2: 5, 3: 3, 4: 2},
    "m32": {1: 5, 2: 3, 3: 1},
    "s1vs2": {1: 5, 2: 5, 3: 5, 4: 3},
    "s2vs2": {1: 5, 2: 5, 3: 5},
    "wedge": {1: 5, 2: 5, 3: 5, 4: 3},
    "complex": {1: 4, 2: 1},
}

# (space, class, degrees compared) within the Hall-rank cap
COMPARISONS = [
    ("s2", 2, 3), ("s2", 3, 3), ("s2", 4, 3),
    ("s3", 2, 3), ("s3", 3, 3), ("s3", 4, 3),
    ("m22", 2, 3), ("m22", 3, 3),
    ("s1vs2", 2, 3), ("s2vs2", 2, 3),
    ("wedge", 2, 3), ("wedge", 3, 3),
]

FAULT_CIRCLES = 7
FAULT_CLASS = 4
FAULT_CAPS = Caps(max_hall_rank=1000)


def lie_route(space, n):
    """Rank and face callbacks of the Lie-route layer, for the reference."""
    lay = LayerObject(loop_group(space), n)
    simp = lay.abelian()
    return (lambda q: simp.rank(q) if q >= 0 else 0), simp.face_matrix


def make_stream(rng, workdir):
    wedge_k = rng.randint(1, 3)
    cx = spaces.random_two_complex(rng, "complex", 2, rng.randint(1, 2))
    sources = dict(FIXED, wedge=spaces.wedge_of_circles(wedge_k), complex=cx)
    parsed = {name: SimplicialSet.from_json(obj) for name, obj in sources.items()}

    queries = []
    for name, classes in SWEEPS.items():
        space = parsed[name]
        for n, top in classes.items():
            for s in range(top + 1):

                def run(space=space, n=n, s=s):
                    inv = layer_homotopy(loop_group(space), n, s)
                    return inv.rank, list(inv.torsion)

                check = homotopy_check(name, sources[name], space, n, s, wedge_k)
                queries.append(Query(f"homotopy-{name}", run, check))

    for name, n, degrees in COMPARISONS:

        def run(space=parsed[name], n=n, degrees=degrees):
            return layer(loop_group(space), n).comparison_ok(degrees)

        queries.append(Query("comparison", run, lambda ok: None if ok is True else "routes disagree"))

    fault_space = SimplicialSet.from_json(spaces.wedge_of_circles(FAULT_CIRCLES))

    def run_fault():
        q = pi0(tower_stage(loop_group(fault_space, caps=FAULT_CAPS), FAULT_CLASS))
        return [(inv.rank, list(inv.torsion)) for inv in q.layers]

    want = [(reference.witt_count(FAULT_CIRCLES, w), []) for w in range(1, FAULT_CLASS + 1)]
    queries.append(
        Query(
            "pi0-raised-cap",
            run_fault,
            lambda got: None if got == want else f"layers {got}, expected {want}",
            known_fault=True,
        )
    )
    rng.shuffle(queries)
    return queries


def homotopy_check(name, space_json, space, n, s, wedge_k):
    def check(got):
        if n == 1:
            want = reference.chain_homology(space_json, s + 1)
        elif name == "wedge":
            want = (reference.witt_count(wedge_k, n) if s == 0 else 0, [])
        else:
            rank, face = lie_route(space, n)
            if rank(s) * rank(s + 1) > REFERENCE_CELLS:
                return None
            want = reference.moore_homology(rank, face, s)
        want = (want[0], list(want[1]))
        return None if tuple(got) == want else f"pi_{s} of layer {n}: {got}, expected {want}"

    return check
