"""Differential testing on randomly generated two-dimensional spaces.

Spaces with cells in dimensions <= 2 over a one-vertex skeleton satisfy the
simplicial identities for any face assignment, so they make an unbounded
family of valid inputs with arbitrary first-homology presentation matrices.
"""

import json
import random

from loopnil.cli import run_command
from loopnil.simplicial import BASEPOINT, SimplicialSet, basepoint_ref, nondegenerate, validate
from loopnil.tower import layer, layer_homotopy, loop_group

import oracles


def random_two_complex(rng, max_edges=3, max_faces=3):
    edges = [f"e{i}" for i in range(rng.randint(0, max_edges))]
    tris = [f"t{i}" for i in range(rng.randint(0, max_faces))]
    star = nondegenerate(BASEPOINT)
    faces = {e: (star, star) for e in edges}
    one_simplices = [nondegenerate(e) for e in edges] + [basepoint_ref(1)]
    for t in tris:
        faces[t] = tuple(rng.choice(one_simplices) for _ in range(3))
    cells = [[BASEPOINT]]
    if edges or tris:
        cells.append(edges)
    if tris:
        cells.append(tris)
    return SimplicialSet(f"random2({rng.random():.6f})", cells, faces)


def test_random_spaces_validate():
    rng = random.Random(41)
    for _ in range(50):
        space = random_two_complex(rng)
        assert validate(space) == [], space.to_json()


def test_random_space_homology_matches_chain_oracle(tmp_path):
    # through the CLI, so degree 0 and the layer-1 route are both covered
    rng = random.Random(42)
    path = tmp_path / "space.json"
    for _ in range(30):
        space = random_two_complex(rng)
        path.write_text(json.dumps(space.to_json()))
        for s in range(0, 4):
            code, out = run_command(["homology", str(path), "--degree", str(s)])
            got = json.loads(out)["result"]
            want = oracles.space_homology(space, s)
            assert code == 0 and (got["rank"], got["torsion"]) == want, space.to_json()


def test_random_space_loop_group_identities_and_kan_formula():
    rng = random.Random(43)
    for _ in range(12):
        space = random_two_complex(rng, max_edges=2, max_faces=2)
        g = loop_group(space)
        assert g.identity_violations(3) == []
        for s in range(0, 3):
            got = layer_homotopy(g, 1, s)
            want = oracles.space_homology(space, s + 1)
            assert (got.rank, list(got.torsion)) == want, space.to_json()


def test_random_space_layer_comparison():
    rng = random.Random(44)
    for _ in range(8):
        space = random_two_complex(rng, max_edges=2, max_faces=2)
        g = loop_group(space)
        assert layer(g, 2).comparison_ok(3), space.to_json()
