"""Every committed CLI fixture's numeric content, rederived from the
independent oracles (the byte freeze itself is exercised by fixture-check)."""

import json

from loopnil.cli import data_path, run_command

import oracles


def fixture_map():
    with open(data_path("fixtures.json")) as fh:
        spec = json.load(fh)
    return {f["name"]: f for f in spec["fixtures"]}


def result_of(name):
    fixtures = fixture_map()
    entry = fixtures[name]
    argv = [tok.replace("$DATA", data_path()) for tok in entry["argv"]]
    code, out = run_command(argv)
    assert code == entry["expect_exit"]
    return json.loads(out).get("result")


def test_witt_fixtures_against_necklaces():
    assert result_of("witt-2-3") == oracles.witt_by_necklaces(2, 3) == 2
    assert result_of("witt-4-6") == oracles.witt_by_necklaces(4, 6) == 670


def test_hall_fixtures_against_enumeration():
    got = result_of("hall-basis-2-3")
    want = oracles.hall_trees_exhaustive(2, 3)
    assert got["count"] == len(want) == 2
    got32 = result_of("hall-basis-3-2")
    assert got32["count"] == len(oracles.hall_trees_exhaustive(3, 2)) == 3


def test_homology_fixtures_against_chain_oracle():
    from loopnil.simplicial import moore_space, sphere

    cases = [
        ("homology-s2-2", sphere(2), 2, (1, [])),
        ("homology-s1-1", sphere(1), 1, (1, [])),
        ("homology-moore22-2", moore_space(2, 2), 2, (0, [2])),
        ("homology-moore22-3", moore_space(2, 2), 3, (0, [])),
    ]
    for name, space, s, expect in cases:
        got = result_of(name)
        o_rank, o_torsion = oracles.space_homology(space, s)
        assert (got["rank"], got["torsion"]) == (o_rank, o_torsion) == expect


def test_collect_fixture_against_free_reduction():
    got = result_of("collect-ba")
    assert got["normal_form"] == [
        {"letter": "x1", "exponent": 1},
        {"letter": "x2", "exponent": 1},
        {"letter": "[x2,x1]", "exponent": 1},
    ]
    # the identity behind the expected value: ab * (b^-1 a^-1 b a) == ba
    lhs = [(1, 1), (2, 1), (2, -1), (1, -1), (2, 1), (1, 1)]
    assert oracles.words_equal(lhs, [(2, 1), (1, 1)])


def test_cross_effect_fixtures_trivial():
    for name in ("cross-effect-2-unit", "cross-effect-2-wide", "cross-effect-3-unit"):
        got = result_of(name)
        assert got["kernel"] == {"rank": 0, "torsion": []}


def test_pi0_fixtures_against_witt():
    got = result_of("tower-pi0-wedge2-2")
    assert [l["rank"] for l in got["layers"]] == [
        oracles.witt_by_necklaces(2, 1),
        oracles.witt_by_necklaces(2, 2),
    ]
    got3 = result_of("tower-pi0-wedge2-3")
    assert [l["rank"] for l in got3["layers"]] == [2, 1, 2]
    s2 = result_of("tower-pi0-s2-2")
    assert all(l == {"rank": 0, "torsion": []} for l in s2["layers"])


def test_layer_homotopy_fixtures_against_moore_oracle():
    from loopnil.simplicial import moore_space, sphere, wedge_of_circles
    from loopnil.tower import loop_group
    from loopnil.hall import lie_of_map, witt_rank

    cases = [
        ("layer-homotopy-s2-1-1", sphere(2), 1, 1, (1, [])),
        ("layer-homotopy-wedge2-1-0", wedge_of_circles(2), 1, 0, (2, [])),
        ("layer-homotopy-s2-2-2", sphere(2), 2, 2, (1, [])),
        ("layer-homotopy-s2-4-3", sphere(2), 4, 3, (0, [2])),
        ("layer-homotopy-moore22-1-1", moore_space(2, 2), 1, 1, (0, [2])),
    ]
    for name, space, n, s, expect in cases:
        got = result_of(name)
        assert (got["rank"], got["torsion"]) == expect, name
        g = loop_group(space)

        def rank_fn(q):
            return witt_rank(g.gen_count(q), n) if q >= 0 else 0

        def face_fn(q, i):
            return lie_of_map(
                oracles.abelianized_matrix(g, q, i, "face"),
                n,
                src_k=g.gen_count(q),
                tgt_k=g.gen_count(q - 1),
            )

        o_rank, o_torsion = oracles.moore_homology_oracle(rank_fn, face_fn, s)
        assert (o_rank, o_torsion) == expect, name


def test_error_fixtures_cover_every_error_path():
    fixtures = fixture_map()
    kinds = set()
    for name, entry in fixtures.items():
        if not name.startswith("error-"):
            continue
        argv = [tok.replace("$DATA", data_path()) for tok in entry["argv"]]
        code, out = run_command(argv)
        assert code == entry["expect_exit"] == 2
        rep = json.loads(out)
        if "error" in rep:
            kinds.add(rep["error"]["code"])
        else:
            assert rep["result"]["ok"] is False
            kinds.add("validate-report")
    assert kinds == {1, 2, 3, "validate-report"}
