import itertools

import pytest

from loopnil import simplicial
from loopnil.errors import SchemaViolation
from loopnil.simplicial import (
    BASEPOINT,
    SimplexRef,
    SimplicialSet,
    basepoint_ref,
    degenerate_ref,
    moore_space,
    nondegenerate,
    point,
    sphere,
    standard_space,
    validate,
    wedge,
    wedge_of_circles,
)


def test_sphere_one_is_minimal_circle():
    s1 = sphere(1)
    assert s1.n_cells(0) == [BASEPOINT]
    assert s1.n_cells(1) == ["e"]
    assert s1.faces["e"] == (nondegenerate(BASEPOINT), nondegenerate(BASEPOINT))
    assert validate(s1) == []


def test_sphere_two():
    s2 = sphere(2)
    assert sum(len(s2.n_cells(q)) for q in range(3)) == 2
    # all three faces of the 2-cell are s0 of the basepoint
    assert s2.faces["e"] == (basepoint_ref(1),) * 3
    assert validate(s2) == []


def test_empty_wedge_is_point():
    w0 = wedge_of_circles(0)
    assert w0.n_cells(0) == [BASEPOINT]
    assert w0.top_dim == 0
    assert validate(w0) == []


def test_standard_space_dispatch_and_validation():
    for space in [
        standard_space("sphere", 1),
        standard_space("sphere", 3),
        standard_space("wedge_of_circles", 2),
        standard_space("moore", 2, 2),
        standard_space("moore", 3, 2),
        standard_space("moore", 5, 1),
    ]:
        assert validate(space) == []
    with pytest.raises(simplicial.LoopnilError):
        standard_space("torus")
    with pytest.raises(simplicial.LoopnilError):
        standard_space("sphere", 0)
    with pytest.raises(simplicial.LoopnilError):
        standard_space("moore", 1, 2)


def test_wedge_counts_and_unit_law():
    s1 = sphere(1)
    s2 = sphere(2)
    w = wedge(s1, s2)
    assert validate(w) == []
    assert sum(len(w.n_cells(q)) for q in range(w.top_dim + 1)) == 3
    w2 = wedge(s1, sphere(1))
    ref = wedge_of_circles(2)
    assert [len(w2.n_cells(q)) for q in range(2)] == [
        len(ref.n_cells(q)) for q in range(2)
    ]
    unit = wedge(point(), s1)
    assert [len(unit.n_cells(q)) for q in range(unit.top_dim + 1)] == [1, 1]


def test_ref_enumeration_counts():
    # number of q-simplices with nondegenerate base of dimension m is C(q, q-m)
    s2 = sphere(2)
    for q in range(6):
        refs = s2.refs(q)
        expected = 1 + (len(list(itertools.combinations(range(q), q - 2))) if q >= 2 else 0)
        assert len(refs) == expected
        assert len(set(refs)) == len(refs)


def test_degeneracy_word_canonicalization():
    # s1 s1 = s2 s1 and s0 s0 = s1 s0
    r = nondegenerate("c")
    assert degenerate_ref(degenerate_ref(r, 0), 0).degeneracies == (1, 0)
    assert degenerate_ref(degenerate_ref(r, 1), 1).degeneracies == (2, 1)
    assert degenerate_ref(degenerate_ref(r, 0), 2).degeneracies == (2, 0)


def test_simplicial_identities_on_all_refs():
    # d_i d_j = d_{j-1} d_i for i < j, on every simplex of every fixture
    for space in [sphere(1), sphere(2), wedge_of_circles(2), moore_space(2, 2)]:
        assert validate(space) == []
        for q in range(2, 6):
            for ref in space.refs(q):
                for j in range(q + 1):
                    for i in range(j):
                        lhs = space.face(space.face(ref, j), i)
                        rhs = space.face(space.face(ref, i), j - 1)
                        assert lhs == rhs, (space.name, ref, i, j)


def test_mixed_identities_on_refs():
    space = moore_space(2, 2)
    for q in range(1, 5):
        for ref in space.refs(q):
            for j in range(q + 1):
                up = space.degeneracy(ref, j)
                for i in range(q + 2):
                    res = space.face(up, i)
                    if i == j or i == j + 1:
                        assert res == ref
                    elif i < j:
                        assert res == space.degeneracy(space.face(ref, i), j - 1)
                    else:
                        assert res == space.degeneracy(space.face(ref, i - 1), j)


def test_validate_reports_retargeted_face():
    s1 = sphere(1)
    broken = SimplicialSet(
        "broken",
        [[BASEPOINT], ["e"]],
        {"e": (nondegenerate(BASEPOINT), nondegenerate("ghost"))},
    )
    report = broken.violations()
    assert any(v["simplex"] == "e" and v["rule"] == "face-target" for v in report)
    assert validate(s1) == []


def test_validate_reports_identity_violation():
    # a 2-cell whose faces cannot satisfy d0 d1 = d0 d0
    bad = SimplicialSet(
        "bad",
        [[BASEPOINT], ["x"], ["t"]],
        {
            "x": (nondegenerate(BASEPOINT), nondegenerate(BASEPOINT)),
            "t": (
                nondegenerate("x"),
                basepoint_ref(1),
                basepoint_ref(1),
            ),
        },
    )
    report = bad.violations()
    # d0 t = x has faces (*, *) while d1 t is degenerate; identities still hold
    # here, so construct a genuinely broken one: face dimensions disagree
    worse = SimplicialSet(
        "worse",
        [[BASEPOINT], ["x"]],
        {"x": (SimplexRef((0,), BASEPOINT), nondegenerate(BASEPOINT))},
    )
    report = worse.violations()
    assert any(v["rule"] == "face-dimension" for v in report)


@pytest.mark.parametrize(
    "cells, faces",
    [
        # s5 of the vertex as a 1-simplex: only s0 applies in dimension 0
        (
            [[BASEPOINT], [], ["t"]],
            {"t": (SimplexRef((5,), BASEPOINT), basepoint_ref(1), basepoint_ref(1))},
        ),
        # s1 of the vertex next to 1-cell faces
        (
            [[BASEPOINT], ["e"], ["t"]],
            {
                "e": (nondegenerate(BASEPOINT), nondegenerate(BASEPOINT)),
                "t": (nondegenerate("e"), SimplexRef((1,), BASEPOINT), nondegenerate("e")),
            },
        ),
    ],
)
def test_validate_reports_degeneracy_out_of_range(cells, faces):
    report = validate(SimplicialSet("bad", cells, faces))
    assert report == [
        {"simplex": "t", "rule": "canonical-form", "detail": report[0]["detail"]}
    ]
    assert report[0]["detail"].endswith("to a 0-simplex")


def test_json_roundtrip():
    for space in [sphere(2), wedge_of_circles(3), moore_space(4, 2)]:
        obj = space.to_json()
        back = SimplicialSet.from_json(obj)
        assert back.to_json() == obj
        assert validate(back) == []


def test_json_schema_violations():
    good = sphere(1).to_json()
    dup = {
        "name": "dup",
        "simplices": [
            [{"id": "*", "faces": []}],
            [
                {"id": "e", "faces": [{"degeneracies": [], "base": "*"}] * 2},
                {"id": "e", "faces": [{"degeneracies": [], "base": "*"}] * 2},
            ],
        ],
    }
    with pytest.raises(SchemaViolation):
        SimplicialSet.from_json(dup)
    bad_word = {
        "name": "w",
        "simplices": [
            [{"id": "*", "faces": []}],
            [{"id": "e", "faces": [{"degeneracies": [], "base": "*"}] * 2}],
            [
                {
                    "id": "t",
                    "faces": [{"degeneracies": [0, 1], "base": "*"}] * 3,
                }
            ],
        ],
    }
    with pytest.raises(SchemaViolation):
        SimplicialSet.from_json(bad_word)
    two_vertices = {
        "name": "v",
        "simplices": [[{"id": "*", "faces": []}, {"id": "p", "faces": []}]],
    }
    with pytest.raises(SchemaViolation):
        SimplicialSet.from_json(two_vertices)
    # JSON false is not the index 0, although Python's bool is an int
    bool_index = sphere(2).to_json()
    bool_index["simplices"][2][0]["faces"] = [{"degeneracies": [False], "base": "*"}] * 3
    with pytest.raises(SchemaViolation, match="degeneracies must be nonnegative ints"):
        SimplicialSet.from_json(bool_index)
    assert SimplicialSet.from_json(good).violations() == []
