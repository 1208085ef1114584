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


def test_standard_spaces_validate():
    for space in [
        sphere(1),
        sphere(3),
        wedge_of_circles(2),
        moore_space(2, 2),
        moore_space(3, 2),
        moore_space(5, 1),
    ]:
        assert validate(space) == []
    with pytest.raises(simplicial.LoopnilError):
        sphere(0)
    with pytest.raises(simplicial.LoopnilError):
        moore_space(1, 2)


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


def test_duplicate_ids_are_one_rule():
    # direct construction and JSON input are refused by the same check, also
    # when the two cells lie in different dimensions
    star = nondegenerate(BASEPOINT)
    with pytest.raises(SchemaViolation) as direct:
        SimplicialSet("d", [[BASEPOINT], ["e", "e"]], {"e": (star, star)})
    edge = {"id": "e", "faces": [{"degeneracies": [], "base": "*"}] * 2}
    with pytest.raises(SchemaViolation) as parsed:
        SimplicialSet.from_json({"name": "d", "simplices": [[{"id": "*", "faces": []}], [edge] * 2]})
    for exc in (direct.value, parsed.value):
        assert (str(exc), exc.detail) == ("duplicate simplex id 'e'", {"id": "e"})
    across = sphere(2).to_json()
    across["simplices"][1] = [edge]
    with pytest.raises(SchemaViolation, match="duplicate simplex id 'e'"):
        SimplicialSet.from_json(across)


def _json_face(word, base=BASEPOINT):
    return {"degeneracies": list(word), "base": base}


@pytest.mark.parametrize(
    "cells, faces, simplices, message, detail",
    [
        # faces on the vertex
        (
            [[BASEPOINT]],
            {BASEPOINT: (nondegenerate(BASEPOINT),)},
            [[{"id": "*", "faces": [_json_face([])]}]],
            "vertices have no faces",
            {"id": "*"},
        ),
        # a vertex other than the basepoint
        (
            [["v"]],
            {},
            [[{"id": "v", "faces": []}]],
            'dimension 0 must hold exactly the vertex "*"',
            {},
        ),
        # an edge without faces
        (
            [[BASEPOINT], ["e"]],
            {},
            [[{"id": "*", "faces": []}], [{"id": "e", "faces": []}]],
            "simplex 'e' needs 2 faces, got 0",
            {"id": "e"},
        ),
        # a face word that does not strictly decrease
        (
            [[BASEPOINT], [], ["t"]],
            {"t": (SimplexRef((0, 1), BASEPOINT),) + (basepoint_ref(1),) * 2},
            [
                [{"id": "*", "faces": []}],
                [],
                [{"id": "t", "faces": [_json_face([0, 1])] + [_json_face([0])] * 2}],
            ],
            "face 0 of 't': degeneracy word must be strictly decreasing",
            {"id": "t"},
        ),
    ],
)
def test_per_cell_rules_are_checked_at_construction(cells, faces, simplices, message, detail):
    # a space built in Python and one read from JSON are refused by the same
    # check, with the same message and detail
    with pytest.raises(SchemaViolation) as direct:
        SimplicialSet("c", cells, faces)
    with pytest.raises(SchemaViolation) as parsed:
        SimplicialSet.from_json({"name": "c", "simplices": simplices})
    for exc in (direct.value, parsed.value):
        assert (str(exc), exc.detail) == (message, detail)


def test_construction_checks_ids_before_cells():
    # the edge "e" is a duplicate and, read as the 2-cell's faces, would
    # also have the wrong face count; the duplicate is reported
    e2 = (basepoint_ref(1),) * 3
    with pytest.raises(SchemaViolation, match="duplicate simplex id 'e'"):
        SimplicialSet("d", [[BASEPOINT], ["e"], ["e"]], {"e": e2})
    # an empty cell list has no basepoint
    with pytest.raises(SchemaViolation, match="dimension 0 must hold exactly"):
        SimplicialSet("none", [], {})
    # the vertex may carry an empty face entry, as JSON input gives it
    assert validate(SimplicialSet("p", [[BASEPOINT]], {BASEPOINT: ()})) == []
