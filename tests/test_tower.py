import math
import time
import tracemalloc

import pytest

import oracles


from loopnil.abelian import AbelianInvariants
from loopnil.hall import capped_hall_rank, lie_of_map, lie_rows, witt_rank
from loopnil.linearize import moore_homology
from loopnil.nilpotent import hom_from_words, rule_system, NilpotentElement
from loopnil.nilq import free_nilpotent_layers
from loopnil.simplicial import moore_space, point, sphere, wedge, wedge_of_circles
from loopnil.tower import (
    layer,
    layer_homotopy,
    loop_group,
    pi0,
    tower_stage,
)

FIXTURES = [sphere(1), sphere(2), wedge(sphere(1), sphere(1)), moore_space(2, 2)]


def tower_rank(k, n):
    """Total Hall rank of the free class-n group on k generators."""
    return capped_hall_rank(k, n, math.inf)[0]


def stage_hom(stage, q, i, kind):
    """A tower stage's d_i or s_i out of degree q: each word of the loop
    group's map collected in the target's class-n group."""
    group = stage.group
    target, words = group.map_words(q, i, kind)
    return hom_from_words(words, group.gen_count(target), stage.n, group.caps)


def test_loop_group_checks_the_degree_cap_once_per_degree():
    from loopnil.caps import Caps
    from loopnil.errors import CapExceeded

    checked = []

    class CountingCaps(Caps):
        def check_degree(self, degree, context):
            checked.append(degree)
            super().check_degree(degree, context)

    g = loop_group(sphere(2), CountingCaps(max_degree=2))
    for _ in range(3):
        g.gen_count(2)
        g.map_words(2, 0, "face")
    assert checked == [2, 1]
    # an over-cap degree is never cached, so it is refused every time
    for _ in range(2):
        with pytest.raises(CapExceeded, match="degree 3 exceeds cap 2"):
            g.gen_count(3)
    assert checked == [2, 1, 3, 3]


def test_map_words_builds_each_map_once(monkeypatch):
    from loopnil.simplicial import SimplicialSet

    g = loop_group(moore_space(2, 2))
    calls = []
    face = SimplicialSet.face
    monkeypatch.setattr(
        SimplicialSet, "face", lambda self, ref, i: calls.append(i) or face(self, ref, i)
    )
    target, words = g.map_words(2, 0, "face")
    # d_0 reads the space's d_1 and d_0 of each of the three generators
    assert (target, len(words), len(calls)) == (1, 3, 6)
    assert g.map_words(2, 0, "face")[1] is words
    assert len(calls) == 6


def test_loop_groups_on_one_space_share_its_structure(monkeypatch):
    from loopnil.simplicial import SimplicialSet

    space = moore_space(2, 2)
    first = loop_group(space)
    maps = [(2, 0, "face"), (2, 1, "face"), (3, 3, "face")]
    maps += [(1, 0, "degeneracy"), (2, 2, "degeneracy")]
    built = {key: first.map_words(*key) for key in maps}
    counts = [first.gen_count(q) for q in range(4)]
    calls = []
    refs, face = SimplicialSet.refs, SimplicialSet.face
    monkeypatch.setattr(
        SimplicialSet, "refs", lambda self, q: calls.append(("refs", q)) or refs(self, q)
    )
    monkeypatch.setattr(
        SimplicialSet, "face", lambda self, ref, i: calls.append(("face", i)) or face(self, ref, i)
    )
    second = loop_group(space)
    assert [second.gen_count(q) for q in range(4)] == counts
    for key, value in built.items():
        assert second.map_words(*key) is value
    assert second.degeneracy_masks(3) == first.degeneracy_masks(3)
    assert calls == []
    # another space of the same shape builds its own
    loop_group(moore_space(2, 2)).map_words(2, 0, "face")
    assert [c for c in calls if c[0] == "refs"] == [("refs", 3), ("refs", 2)]


def test_caps_stay_per_loop_group_on_a_shared_space():
    from loopnil.caps import Caps
    from loopnil.errors import CapExceeded

    space = sphere(2)
    wide = loop_group(space, Caps(max_degree=6))
    wide.gen_count(3)
    wide.map_words(3, 0, "face")
    narrow = loop_group(space, Caps(max_degree=2))
    with pytest.raises(CapExceeded, match="degree 3 exceeds cap 2"):
        narrow.gen_count(3)
    with pytest.raises(CapExceeded, match="degree 3 exceeds cap 2"):
        narrow.map_words(3, 0, "face")
    with pytest.raises(CapExceeded, match="degree 3 exceeds cap 2"):
        narrow.degeneracy_masks(3)
    # a map into an over-cap degree is refused as well, though built
    wide.map_words(2, 0, "degeneracy")
    with pytest.raises(CapExceeded, match="degree 3 exceeds cap 2"):
        narrow.map_words(2, 0, "degeneracy")
    assert narrow.gen_count(2) == wide.gen_count(2)


def test_map_words_rejects_undefined_maps_without_generators():
    from loopnil.errors import LoopnilError

    g = loop_group(point())
    assert g.gen_count(0) == 0
    with pytest.raises(LoopnilError, match="face d_0 undefined in loop-group degree 0"):
        g.map_words(0, 0, "face")
    with pytest.raises(LoopnilError, match="face d_3 undefined in loop-group degree 2"):
        g.map_words(2, 3, "face")
    with pytest.raises(LoopnilError, match="degeneracy s_2 undefined in degree 1"):
        g.map_words(1, 2, "degeneracy")


def test_map_words_refuses_an_unknown_kind():
    from loopnil import tower
    from loopnil.errors import LoopnilError

    space = sphere(1)
    g = loop_group(space)
    for kind in ("bogus", "Face", None):
        with pytest.raises(LoopnilError, match="map kind must be 'face' or 'degeneracy'"):
            g.map_words(1, 0, kind)
    # nothing is kept under an unknown kind
    assert tower._STRUCTURE[space].maps == {}


def test_loop_groups_on_one_space_validate_it_once(monkeypatch):
    from loopnil.simplicial import SimplicialSet

    found = []
    find = SimplicialSet._find_violations
    monkeypatch.setattr(
        SimplicialSet, "_find_violations", lambda self: found.append(self) or find(self)
    )
    space = moore_space(2, 2)
    for _ in range(3):
        loop_group(space)
    assert found == [space]
    # callers get their own copy of the kept report
    space.violations().append("noise")
    assert space.violations() == []


def test_degeneracy_masks_mark_the_degeneracy_images():
    for space in FIXTURES + [sphere(3), moore_space(3, 2)]:
        g = loop_group(space)
        for q in range(5):
            masks = [0] * g.gen_count(q)
            for i in range(q):
                for h in range(g.gen_count(q - 1)):
                    ((img, _),) = g.map_words(q - 1, i, "degeneracy")[1][h]
                    masks[img] |= 1 << i
            assert g.degeneracy_masks(q) == masks, (space.name, q)


def test_generator_counts():
    g = loop_group(sphere(1))
    assert [g.gen_count(q) for q in range(4)] == [1, 1, 1, 1]
    gw = loop_group(wedge_of_circles(3))
    assert gw.gen_count(0) == 3
    gp = loop_group(point())
    assert all(gp.gen_count(q) == 0 for q in range(4))
    gs2 = loop_group(sphere(2))
    assert [gs2.gen_count(q) for q in range(5)] == [0, 1, 2, 3, 4]


def test_simplicial_group_identities():
    for space in FIXTURES + [sphere(3)]:
        g = loop_group(space)
        assert oracles.loop_group_identity_violations(g, 4) == [], space.name


def test_identity_check_reports_a_corrupted_face_word():
    # in the loop group of M(Z/2,2), generator 0 of degree 2 is s_0 of the
    # one generator g of degree 1, so d_1 of it must be g; one extra letter
    # there breaks d_1 s_0 = 1 in degree 1 and identities above it
    g = loop_group(moore_space(2, 2))
    assert g.map_words(1, 0, "degeneracy")[1][0] == g.map_words(2, 1, "face")[1][0] == ((0, 1),)
    assert oracles.loop_group_identity_violations(g, 3) == []
    g.map_words(2, 1, "face")[1][0] = ((0, 2),)
    bad = oracles.loop_group_identity_violations(g, 3)
    assert (1, 0, "d1 s0") in bad
    assert (3, 0, "d0 d2") in bad


def test_loop_linearization_matches_shifted_reduction():
    # abelianized loop group ranks: |X_{q+1}| minus the s0-degenerate part
    g = loop_group(sphere(1))
    a = layer(g, 1).abelian()
    assert [a.rank(q) for q in range(4)] == [1, 1, 1, 1]
    for q in range(1, 4):
        for i in range(q + 1):
            assert a.face_matrix(q, i) == oracles.abelianized_matrix(g, q, i, "face")
    # first homotopy of the abelianization equals first reduced homology
    assert moore_homology(a, 0) == AbelianInvariants(1, ())


def test_pi0_of_wedges_matches_free_nilpotent():
    for k in (0, 1, 2):
        space = wedge_of_circles(k)
        g = loop_group(space)
        for n in (1, 2, 3):
            q = pi0(tower_stage(g, n))
            assert q.layers == free_nilpotent_layers(k, n), (k, n)


def test_pi0_of_sphere_trivial():
    g = loop_group(sphere(2))
    for n in (1, 2, 3):
        q = pi0(tower_stage(g, n))
        assert all(l == AbelianInvariants(0) for l in q.layers)


def test_pi0_class_one_is_first_homology():
    for space in FIXTURES:
        g = loop_group(space)
        q = pi0(tower_stage(g, 1))
        (ab,) = q.layers
        assert (ab.rank, list(ab.torsion)) == oracles.space_homology(space, 1), space.name


def test_stage_maps_commute_with_truncation():
    g = loop_group(wedge(sphere(1), sphere(1)))
    s3 = tower_stage(g, 3)
    s2 = s3.truncate()
    for q in (1, 2):
        for i in range(q + 1):
            h3 = stage_hom(s3, q, i, "face")
            h2 = stage_hom(s2, q, i, "face")
            for img3, img2 in zip(h3.images, h2.images):
                assert img3.truncate(2) == img2


def test_layer_comparison_is_isomorphism():
    for space in FIXTURES:
        g = loop_group(space)
        for n in (1, 2, 3):
            lay = layer(g, n)
            assert lay.comparison_ok(3), (space.name, n)


def test_layer_ranks():
    g = loop_group(sphere(1))
    assert layer(g, 2).rank(1) == witt_rank(1, 2) == 0
    gw = loop_group(wedge_of_circles(2))
    assert layer(gw, 2).rank(0) == 1


def test_stages_and_layers_start_at_class_one():
    from loopnil.errors import LoopnilError
    from loopnil.tower import LayerObject, SimplicialGroupTower

    g = loop_group(sphere(2))
    for make in (LayerObject, SimplicialGroupTower):
        with pytest.raises(LoopnilError, match="class must be >= 1, got 0"):
            make(g, 0)
    with pytest.raises(LoopnilError, match="class must be >= 1, got 0"):
        tower_stage(g, 1).truncate()


def test_layer_one_equals_abelianization():
    for space in FIXTURES:
        g = loop_group(space)
        lay = layer(g, 1)
        lin = lay.abelian()
        for q in range(1, 4):
            for i in range(q + 1):
                ab = oracles.abelianized_matrix(g, q, i, "face")
                assert lie_of_map(ab, 1, g.gen_count(q), g.gen_count(q - 1)) == ab
                assert lin.face_matrix(q, i) == ab


def test_layer_faces_sparse_rows_equal_dense_lie_route():
    for space in FIXTURES:
        g = loop_group(space)
        for n in (2, 3):
            simp = layer(g, n).abelian()
            for q in range(1, 4):
                for i in range(q + 1):
                    ab = oracles.abelianized_matrix(g, q, i, "face")
                    lie = lie_of_map(ab, n, g.gen_count(q), g.gen_count(q - 1))
                    assert simp.face_matrix(q, i) == lie, (space.name, n, q, i)


def test_layer_homotopy_memory_stays_small():
    # built as dense matrices, the five degree-4 faces of this layer
    # (1,938 x 8,990 each) peaked at about 700 MB
    tracemalloc.start()
    try:
        inv = layer_homotopy(loop_group(moore_space(3, 2)), 3, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inv == AbelianInvariants(0, ())
    assert peak < 100 * 2**20, f"peak {peak / 2**20:.0f} MB"


NORMALIZED_SPACES = [
    ("s2", lambda: sphere(2)),
    ("s3", lambda: sphere(3)),
    ("s2vs2", lambda: wedge(sphere(2), sphere(2))),
    ("moore_2_2", lambda: moore_space(2, 2)),
    ("moore_3_2", lambda: moore_space(3, 2)),
]

# largest rank(s) * rank(s + 1) of the full complex the oracle is given
ORACLE_CELLS = 40_000


@pytest.mark.parametrize("name,space_fn", NORMALIZED_SPACES)
def test_normalized_layer_homotopy_matches_unnormalized_oracle(name, space_fn):
    # the oracle takes the Moore-basis route on the full faces of every
    # Hall tree, degenerate ones included
    space = space_fn()
    checked = 0
    for n in (2, 3, 4):
        full = layer(loop_group(space), n).abelian()
        for s in range(5):
            if full.rank(s) * full.rank(s + 1) > ORACLE_CELLS:
                continue
            got = layer_homotopy(loop_group(space), n, s)
            want = oracles.moore_homology_oracle(
                lambda q: full.rank(q) if q >= 0 else 0, full.face_matrix, s
            )
            assert (got.rank, list(got.torsion)) == want, (name, n, s)
            checked += 1
    assert checked == {"s2": 15, "s3": 14, "s2vs2": 12, "moore_2_2": 12, "moore_3_2": 7}[name]


@pytest.mark.parametrize("name,space_fn", NORMALIZED_SPACES)
def test_normalized_rank_counts_the_nondegenerate_trees(name, space_fn):
    g = loop_group(space_fn())
    for n in (1, 2, 3, 4):
        lay = layer(g, n)
        simp = lay.abelian()
        for q in range(6):
            if lay.rank(q) <= 30_000:
                assert lay.normalized_rank(q) == len(simp.nondegenerate(q)), (name, n, q)


def test_normalized_ranks_of_the_large_layers():
    m32 = layer(loop_group(moore_space(3, 2)), 4)
    assert [m32.normalized_rank(q) for q in range(6)] == [0, 18, 1584, 21357, 107271, 258795]
    assert [m32.rank(q) for q in range(6)] == [0, 18, 1620, 26163, 202275, 1024650]
    s2vs2 = layer(loop_group(wedge(sphere(2), sphere(2))), 3)
    assert [s2vs2.normalized_rank(q) for q in range(4, 7)] == [0, 0, 0]


def test_layer_homotopy_refused_by_the_normalized_rank():
    from loopnil.caps import DEFAULT_MAX_LAYER_RANK, Caps
    from loopnil.errors import CapExceeded

    # M(Z/3,2) class 4: s = 3 needs N_4 = 107,271, s = 4 needs N_5 = 258,795
    assert 107_271 <= DEFAULT_MAX_LAYER_RANK < 258_795
    g = loop_group(moore_space(3, 2))
    start = time.process_time()
    with pytest.raises(CapExceeded, match="N_5 = 258795 exceeds cap"):
        layer_homotopy(g, 4, 4)
    assert time.process_time() - start < 1.0
    # N_s = 0 answers 0 whatever the cap; a nonzero N_s or N_{s+1} over it
    # is refused
    none = Caps(max_layer_rank=0)
    g = loop_group(wedge(sphere(2), sphere(2)), none)
    assert layer_homotopy(g, 3, 5) == AbelianInvariants(0)
    with pytest.raises(CapExceeded, match="N_2 = 1 exceeds cap 0"):
        layer_homotopy(loop_group(sphere(2), none), 2, 2)


def test_layer_rank_cap_reads_the_environment(monkeypatch):
    from loopnil.caps import ENV_MAX_LAYER_RANK, current_caps

    monkeypatch.setenv(ENV_MAX_LAYER_RANK, "17")
    assert current_caps().max_layer_rank == 17


def test_tower_exactness_rank_additivity_and_composites():
    for space in FIXTURES:
        g = loop_group(space)
        for n in (2, 3):
            lay = layer(g, n)
            for q in range(0, 4):
                k_q = g.gen_count(q)
                assert lay.rank(q) == tower_rank(k_q, n) - tower_rank(k_q, n - 1)
                # inject a weight-n Hall letter into the class-n group and
                # truncate to class n-1: must die
                sys = rule_system(k_q, n)
                for letter in sys.letters_of_weight(n):
                    vec = [0] * sys.rank
                    vec[letter] = 1
                    elt = NilpotentElement(k_q, n, tuple(vec))
                    assert elt.truncate(n - 1).is_identity


def test_kan_formula_class_one():
    # pi_s of the abelianized loop group equals reduced H_{s+1} of the space
    for space in FIXTURES:
        g = loop_group(space)
        for s in range(0, 4):
            got = layer_homotopy(g, 1, s)
            want = oracles.space_homology(space, s + 1)
            assert (got.rank, list(got.torsion)) == want, (space.name, s)


def test_layer_homotopy_point_trivial():
    g = loop_group(point())
    for n in (1, 2, 3):
        for s in range(0, 3):
            assert layer_homotopy(g, n, s) == AbelianInvariants(0)


def test_layer_homotopy_wedge_rank():
    g = loop_group(wedge(sphere(1), sphere(1)))
    assert layer_homotopy(g, 1, 0) == AbelianInvariants(2, ())


def test_pi0_naturality_surjection():
    # stage-n component layers surject onto stage-(n-1) ones: same leading
    # layers, one extra layer at the top
    g = loop_group(wedge_of_circles(2))
    for n in (2, 3):
        qn = pi0(tower_stage(g, n))
        qm = pi0(tower_stage(g, n - 1))
        assert qn.layers[: n - 1] == qm.layers


def test_pi0_raised_cap_reuses_engine_and_lower_cap_refuses():
    # a caller's raised cap governs the whole request, elements included;
    # a later default-cap request for the same free group is still refused
    from loopnil.caps import Caps
    from loopnil.errors import CapExceeded
    from loopnil.nilpotent import collect

    g = loop_group(wedge_of_circles(7), caps=Caps(max_hall_rank=1000))
    q = pi0(tower_stage(g, 4))
    assert [inv.rank for inv in q.layers] == [7, 21, 112, 588]
    assert all(not inv.torsion for inv in q.layers)
    with pytest.raises(CapExceeded):
        collect([(1, 1)], 7, 4)


def test_comparison_refused_before_any_engine_is_built():
    # degree 3 of the loop group of M(Z/3,2) has 18 generators; the class-3
    # engine on them has Hall rank 2109, over the default cap of 512
    from loopnil import nilpotent
    from loopnil.errors import CapExceeded

    # nor any rule or letter ring element added to the class tables
    before = set(nilpotent._systems), set(nilpotent._class_rules), set(nilpotent._class_polys)
    lay = layer(loop_group(moore_space(3, 2)), 3)
    with pytest.raises(CapExceeded, match="free class-3 group on 18 generators"):
        lay.comparison_ok(3)
    assert (set(nilpotent._systems), set(nilpotent._class_rules), set(nilpotent._class_polys)) == before


def test_comparison_reads_only_the_loop_group_caps(monkeypatch):
    # the engines are built afresh under an environment cap of 5; the class-2
    # engine on the 3 generators of degree 2 (Hall rank 6) is first needed
    # as the source of d_i out of degree 2, and the loop group's cap allows it
    from loopnil import nilpotent
    from loopnil.caps import ENV_MAX_HALL_RANK, Caps

    # the class tables keep no caps, so they are left as they are
    monkeypatch.setattr(nilpotent, "_systems", {})
    monkeypatch.setenv(ENV_MAX_HALL_RANK, "5")
    assert layer(loop_group(sphere(2), Caps(max_hall_rank=100)), 2).comparison_ok(3)


def test_comparison_fails_when_the_routes_disagree(monkeypatch):
    # a comparison that never looked at the Lie route would pass every other
    # test; shifting one entry of each Lie-route map must fail it
    from loopnil import tower

    lay = layer(loop_group(wedge_of_circles(2)), 2)
    assert lay.comparison_ok(3)
    calls = []

    def shifted(cols, n, tgt_k):
        rows = lie_rows(cols, n, tgt_k)
        calls.append(rows)
        rows[0][0] = rows[0].get(0, 0) + 1
        return rows

    monkeypatch.setattr(tower, "lie_rows", shifted)
    assert lay.comparison_ok(3) is False
    # the first map already disagrees, so no other is compared
    assert len(calls) == 1


def test_tower_homs_satisfy_identities_in_normal_form():
    from loopnil.nilpotent import compose_homs

    g = loop_group(moore_space(2, 2))
    stage = tower_stage(g, 2)

    def d(q, i):
        return stage_hom(stage, q, i, "face")

    def s(q, i):
        return stage_hom(stage, q, i, "degeneracy")

    for q in (2, 3):
        for j in range(q + 1):
            for i in range(j):
                lhs = compose_homs(d(q - 1, i), d(q, j))
                rhs = compose_homs(d(q - 1, j - 1), d(q, i))
                assert lhs == rhs, (q, i, j)
    for q in (0, 1):
        for j in range(q + 1):
            for i in range(j + 1):
                lhs = compose_homs(s(q + 1, j + 1), s(q, i))
                rhs = compose_homs(s(q + 1, i), s(q, j))
                assert lhs == rhs, (q, i, j)
