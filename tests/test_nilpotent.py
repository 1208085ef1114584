import inspect
import random
import time

import pytest

from loopnil import hall, nilpotent
from loopnil.caps import current_caps
from loopnil.errors import CapExceeded, LoopnilError
from loopnil.nilpotent import (
    apply_hom,
    collect,
    compose_homs,
    generator_element,
    graded_layer,
    hom_from_words,
    identity_element,
    identity_hom,
    invert_free_word,
    layer_matrix,
    nil_commutator,
    nil_inverse,
    nil_multiply,
    nil_power,
    NilpotentElement,
    projection_hom,
    rule_system,
    RuleSystem,
)

import oracles


def _count_lookups(monkeypatch):
    """Route ``nilpotent.rule_system`` through a wrapper that logs the name
    of each function that calls it."""
    log = []
    original = nilpotent.rule_system

    def counted(*args, **kwargs):
        log.append(inspect.currentframe().f_back.f_code.co_name)
        return original(*args, **kwargs)

    monkeypatch.setattr(nilpotent, "rule_system", counted)
    return log


def random_word(rng, k, syllables=5, max_exp=3):
    return [
        (rng.randint(1, k), rng.choice([e for e in range(-max_exp, max_exp + 1) if e]))
        for _ in range(rng.randint(0, syllables))
    ]


def test_collect_identity_word():
    e = collect([(1, 1), (1, -1)], 2, 2)
    assert e.is_identity


def test_collect_ba_example():
    # ba = ab [b,a] with the convention [x, y] = x^-1 y^-1 x y
    got = collect([(2, 1), (1, 1)], 2, 2)
    sys = rule_system(2, 2)
    assert [sys.letter_str(i) for i in range(sys.rank)] == ["x1", "x2", "[x2,x1]"]
    assert got.exponents == (1, 1, 1)
    # free-group check of the expected identity: ab * b^-1 a^-1 b a == ba
    lhs = [(1, 1), (2, 1)] + [(2, -1), (1, -1), (2, 1), (1, 1)]
    assert oracles.words_equal(lhs, [(2, 1), (1, 1)])


def test_collect_abelianization():
    got = collect([(1, 1), (2, 1)] * 3, 2, 1)
    assert got.exponents == (3, 3)


def test_group_axioms_small():
    e = identity_element(2, 3)
    a = generator_element(2, 3, 1)
    b = generator_element(2, 3, 2)
    assert nil_multiply(a, nil_inverse(a)) == e
    assert nil_multiply(e, b) == b
    assert nil_multiply(b, e) == b


@pytest.mark.parametrize("k,n", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)])
def test_group_axioms_random(k, n, monkeypatch):
    rng = random.Random(97 * k + n)
    lookups = _count_lookups(monkeypatch)
    for _ in range(60):
        u = collect(random_word(rng, k), k, n)
        v = collect(random_word(rng, k), k, n)
        w = collect(random_word(rng, k), k, n)
        assert nil_multiply(nil_multiply(u, v), w) == nil_multiply(u, nil_multiply(v, w))
        assert nil_multiply(u, nil_inverse(u)).is_identity
        assert nil_multiply(nil_inverse(u), u).is_identity
        # an element keeps its engine: an operation looks it up once, to
        # build its result, and a method that builds none looks up nothing
        for op, args in [
            (nil_multiply, (u, v)),
            (nil_inverse, (u,)),
            (nil_commutator, (u, v)),
            (NilpotentElement.truncate, (u, 1)),
        ]:
            lookups.clear()
            op(*args)
            assert lookups == ["__post_init__"], op
        lookups.clear()
        u.lowest_weight(), u.weight_slice(n), u.to_json(), str(u), u.word(), u.is_identity
        assert lookups == []


@pytest.mark.parametrize("k,n", [(2, 3), (3, 2), (3, 4)])
def test_collect_constant_on_reduction_classes(k, n):
    rng = random.Random(13 * k + n)
    for _ in range(40):
        w = random_word(rng, k)
        padded = []
        for g, e in w:
            padded.append((g, e))
            if rng.random() < 0.5:
                j = rng.randint(1, k)
                padded.append((j, 2))
                padded.append((j, -2))
        assert collect(w, k, n) == collect(padded, k, n)
        assert collect(oracles.reduce_word(w), k, n) == collect(w, k, n)
        conj = invert_free_word(w) + w
        assert collect(conj, k, n).is_identity or True
        assert collect(w + invert_free_word(w), k, n).is_identity


@pytest.mark.parametrize("k,n", [(2, 3), (2, 4), (3, 3), (3, 4)])
def test_collect_matches_ring_embedding(k, n):
    # the symbolic collection and the truncated-ring normal form must agree
    rng = random.Random(7 * k + n)
    sys = rule_system(k, n)
    for _ in range(25):
        w = random_word(rng, k)
        elt = collect(w, k, n)
        poly = dict(sys.ring.one)
        for g, e in w:
            poly = sys.ring.mul(poly, sys.ring.power(sys.ring.gen_unit(g - 1), e))
        assert list(elt.exponents) == sys.extract(poly)
        assert oracles.vector_to_poly(sys, elt.exponents) == poly


def test_truncation_tower_compatibility():
    rng = random.Random(3)
    for _ in range(30):
        w = random_word(rng, 3)
        full = collect(w, 3, 4)
        for m in (1, 2, 3):
            assert full.truncate(m) == collect(w, 3, m)


def test_power_and_commutator():
    a = generator_element(2, 3, 1)
    b = generator_element(2, 3, 2)
    assert nil_power(a, 3) == collect([(1, 3)], 2, 3)
    c = nil_commutator(b, a)
    sys = rule_system(2, 3)
    assert c.exponents[sys.index[((2, 1))]] == 1
    assert c.lowest_weight() == 2


def test_graded_layer_identification():
    layer = graded_layer(2, 2, 2)
    assert layer["rank"] == 1
    ((letter, tree),) = layer["letters"]
    assert tree == (2, 1)
    assert graded_layer(2, 3, 3)["rank"] == 2
    assert graded_layer(1, 4, 2)["rank"] == 0
    assert graded_layer(1, 4, 3)["rank"] == 0


def test_apply_hom_identity_swap_kill():
    ident = identity_hom(2, 2)
    u = collect([(2, 1), (1, 2)], 2, 2)
    assert apply_hom(ident, u) == u
    swap = hom_from_words([((1, 1),), ((0, 1),)], 2, 2, current_caps())
    comm = nil_commutator(generator_element(2, 2, 2), generator_element(2, 2, 1))
    swapped = apply_hom(swap, comm)
    assert swapped.exponents == (0, 0, -1)
    kill = hom_from_words([((0, 1),), ()], 2, 2, current_caps())
    assert apply_hom(kill, comm).is_identity


def test_projection_and_product_equations():
    # a hom out of the rank-k group is determined by its projections, and
    # composing a projection with the tuple-of-generators hom is the identity
    k, n = 3, 2
    rng = random.Random(11)
    images = tuple(collect(random_word(rng, 2), 2, n) for _ in range(k))
    f = __import__("loopnil.nilpotent", fromlist=["NilpotentHom"]).NilpotentHom(k, 2, n, images)
    for s in range(1, k + 1):
        comp = compose_homs(f, projection_hom(s, k, n))
        assert comp.images == (images[s - 1],)
    diag = identity_hom(1, n)
    assert compose_homs(projection_hom(1, 1, n), diag).images == diag.images


def test_compose_associative_and_unital():
    rng = random.Random(23)
    from loopnil.nilpotent import NilpotentHom

    for _ in range(10):
        n = rng.randint(1, 3)
        k, l, m, p = (rng.randint(1, 3) for _ in range(4))
        f = NilpotentHom(k, l, n, tuple(collect(random_word(rng, l), l, n) for _ in range(k)))
        g = NilpotentHom(l, m, n, tuple(collect(random_word(rng, m), m, n) for _ in range(l)))
        h = NilpotentHom(m, p, n, tuple(collect(random_word(rng, p), p, n) for _ in range(m)))
        assert compose_homs(h, compose_homs(g, f)) == compose_homs(compose_homs(h, g), f)
        assert compose_homs(identity_hom(l, n), f) == f
        assert compose_homs(f, identity_hom(k, n)) == f


@pytest.mark.parametrize("k,n", [(2, 3), (3, 3), (3, 4)])
def test_layer_matrix_agrees_with_lie_functor(k, n, monkeypatch):
    # group-theoretic collection route vs Lie-functor route on every layer
    rng = random.Random(17 * k + n)
    lookups = _count_lookups(monkeypatch)
    for _ in range(6):
        mat = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
        cols = oracles.word_columns(mat)
        f = hom_from_words(cols, k, n, current_caps())
        for w in range(1, n + 1):
            lookups.clear()
            grp = layer_matrix(f, w)
            assert grp == hall.lie_rows(cols, w, k), (k, n, w, mat)
            assert oracles.nonzero_rows_below(grp, hall.witt_rank(k, w))
            # the layer map indexes by Hall bases and looks up no engine;
            # only the commutator images it builds do, none at weight 1
            assert set(lookups) <= {"__post_init__"} and (w > 1 or not lookups)


def test_layer_matrix_permutation_equivariance():
    import itertools

    k, n = 3, 4
    for perm in itertools.permutations(range(k)):
        mat = [[1 if perm[j] == i else 0 for j in range(k)] for i in range(k)]
        cols = oracles.word_columns(mat)
        f = hom_from_words(cols, k, n, current_caps())
        for w in range(1, n + 1):
            grp = layer_matrix(f, w)
            assert grp == hall.lie_rows(cols, w, k)
            assert oracles.nonzero_rows_below(grp, hall.witt_rank(k, w))


def test_free_nilpotent_heisenberg():
    # class-2 on two generators: [b, a] is central, (ab)^2 = a^2 b^2 [b,a]
    ab = collect([(1, 1), (2, 1)], 2, 2)
    sq = nil_multiply(ab, ab)
    assert sq == collect([(1, 2), (2, 2), (2, -1), (1, -1), (2, 1), (1, 1)], 2, 2)
    assert sq.exponents == (2, 2, 1)


def test_engine_shared_whatever_the_cap():
    from loopnil.caps import Caps

    assert rule_system(2, 3) is rule_system(2, 3, Caps(max_hall_rank=600))


def test_an_element_keeps_its_engine_outside_equality():
    u = collect([(1, 2), (2, -1), (1, 1)], 2, 3)
    assert u.engine is rule_system(2, 3)
    v = NilpotentElement(2, 3, u.exponents)
    object.__setattr__(v, "engine", None)
    assert u == v and hash(u) == hash(v) == hash((2, 3, u.exponents))
    assert repr(u) == f"NilpotentElement(k=2, n=3, exponents={u.exponents!r})"


def test_a_homomorphism_builds_no_source_engine(monkeypatch):
    # a map out of the free group on 5 generators into one on 2: its layer
    # maps read the source's Hall bases, so only the target's engine is built,
    # and the source is still checked against the caps
    from loopnil.caps import Caps

    monkeypatch.setattr(nilpotent, "_systems", {})
    rng = random.Random(5)
    mat = [[rng.randint(-2, 2) for _ in range(5)] for _ in range(2)]
    cols = oracles.word_columns(mat)
    f = hom_from_words(cols, 2, 3, current_caps())
    for w in range(1, 4):
        assert layer_matrix(f, w) == hall.lie_rows(cols, w, 2)
    assert set(nilpotent._systems) == {(2, 3)}
    with pytest.raises(CapExceeded, match="free class-3 group on 40 generators"):
        hom_from_words([()] * 40, 2, 3, Caps(max_hall_rank=100))


def test_element_arithmetic_reads_no_caps(monkeypatch):
    # once the engine exists, element operations do not consult the
    # environment: an unparsable cap there does not disturb them
    a = collect([(1, 1)], 2, 2)
    b = collect([(2, 1)], 2, 2)
    monkeypatch.setenv("LOOPNIL_MAX_HALL_RANK", "many")
    assert nil_multiply(b, a).exponents == (1, 1, 1)
    assert nil_commutator(b, a).exponents == (0, 0, 1)


@pytest.mark.parametrize(
    "make, args",
    [
        (generator_element, (2, 10**5, 1)),
        (identity_element, (2, 10**5)),
        (NilpotentElement, (2, 10**5, ())),
    ],
    ids=["generator", "identity", "element"],
)
def test_element_constructors_are_refused_by_the_hall_rank_cap(make, args):
    # an element reads its length from its group's engine, so building one
    # over the cap is refused after a dozen Witt ranks, as collect is
    started = time.process_time()
    with pytest.raises(CapExceeded, match="free class-100000 group on 2 generators"):
        make(*args)
    assert time.process_time() - started < 1


def test_truncate_below_class_one_is_refused():
    elt = collect([(1, 1), (2, 1)], 2, 3)
    assert elt.truncate(1).exponents == (1, 1)
    with pytest.raises(LoopnilError, match="n >= 1"):
        elt.truncate(0)


# ---------------------------------------------------------------------------
# ring powers, extraction and the per-weight solver


def random_group_like(sys, rng, bound=3, low=1):
    """Ordered product of random letter powers, on letters of weight >= low."""
    vec = [rng.randint(-bound, bound) if w >= low else 0 for w in sys.weights]
    return oracles.vector_to_poly(sys, vec)


@pytest.mark.parametrize("k,n", [(2, 4), (3, 4), (2, 5)])
def test_ring_power_matches_repeated_mul(k, n):
    rng = random.Random(31 * k + n)
    sys = rule_system(k, n)
    ring = sys.ring
    for _ in range(4):
        p = random_group_like(sys, rng)
        p_inv = ring.power(p, -1)
        assert ring.is_one(ring.mul(p_inv, p))
        assert ring.is_one(ring.mul(p, p_inv))
        rep, rep_inv = ring.one, ring.one
        for e in range(0, 7):
            assert ring.power(p, e) == rep
            assert ring.power(p, -e) == rep_inv
            rep = ring.mul(rep, p)
            rep_inv = ring.mul(rep_inv, p_inv)
        for _ in range(3):
            a = rng.randint(-10**5, 10**5)
            b = rng.randint(-10**5, 10**5)
            assert ring.mul(ring.power(p, a), ring.power(p, b)) == ring.power(p, a + b)


def test_ring_power_requires_constant_term_one():
    from loopnil.errors import InternalInvariantError

    ring = rule_system(2, 3).ring
    with pytest.raises(InternalInvariantError):
        ring.power({(): 2, (0,): 1}, 3)
    with pytest.raises(InternalInvariantError):
        ring.power({(0,): 1}, -1)


def test_extract_inverts_vector_to_poly():
    rng = random.Random(5)
    sys = rule_system(3, 4)
    for bound in (1, 3, 10**4):
        for _ in range(15):
            vec = [rng.randint(-bound, bound) for _ in range(sys.rank)]
            assert sys.extract(oracles.vector_to_poly(sys, vec)) == vec


@pytest.mark.parametrize("k,n", [(4, 5), (5, 5)])
def test_solve_weight_reads_top_weight_combinations(k, n):
    # the top-weight parts of the letters, including those no single
    # monomial separates, combined with wide coefficients
    from loopnil.caps import Caps

    rng = random.Random(13 * k + n)
    sys = rule_system(k, n, Caps(max_hall_rank=1000))
    parts = {i: sys.ring.homogeneous(sys.letter_poly(i), n) for i in sys.letters_of_weight(n)}
    for _ in range(3):
        want = {i: rng.randint(-(10**3), 10**3) for i in parts}
        target = {}
        for i, e in want.items():
            for m, c in parts[i].items():
                target[m] = target.get(m, 0) + e * c
        assert sys._solve_weight(n, target) == {i: e for i, e in want.items() if e}


@pytest.mark.parametrize("poly", [{(): 1, (0, 1): 1}, {(): 1, (0, 1): 1, (1, 0): 1}])
def test_extract_rejects_non_lie_input(poly):
    from loopnil.errors import InternalInvariantError

    with pytest.raises(InternalInvariantError):
        rule_system(2, 2).extract(poly)


@pytest.mark.parametrize("k,n", [(2, 5), (3, 4), (2, 6)])
def test_cut_commutator_matches_three_products(k, n):
    rng = random.Random(71 * k + n)
    sys = rule_system(k, n)
    ring = sys.ring
    for _ in range(12):
        p = random_group_like(sys, rng, low=rng.randint(1, n + 1))
        q = random_group_like(sys, rng, low=rng.randint(1, n + 1))
        want = ring.mul(ring.mul(ring.power(p, -1), ring.power(q, -1)), ring.mul(p, q))
        assert ring.commutator(p, q) == want


def _direct_tail(sys, hi, a, lo, b):
    """[hi^a, lo^b] from three full ring products and one extraction."""
    ring = sys.ring
    u, v = sys.letter_poly(hi), sys.letter_poly(lo)
    inv = ring.mul(ring.power(u, -a), ring.power(v, -b))
    comm = ring.mul(inv, ring.mul(ring.power(u, a), ring.power(v, b)))
    vec = sys.extract(comm, start_weight=sys.weights[hi] + sys.weights[lo])
    return [(i, e) for i, e in enumerate(vec) if e]


@pytest.mark.parametrize("k,n", [(2, 6), (3, 5), (6, 4)])
def test_pair_rules_match_direct_derivation(k, n):
    rng = random.Random(97 * k + n)
    sys = rule_system(k, n)
    pairs = [
        (hi, lo)
        for hi in range(sys.rank)
        for lo in range(hi)
        if sys.weights[hi] + sys.weights[lo] <= n
    ]
    chosen = rng.sample(pairs, 10) + [(1, 0), pairs[-1]]
    for hi, lo in chosen:
        for _ in range(3):
            a = rng.choice([rng.randint(-6, 6), rng.randint(-10**5, 10**5)])
            b = rng.choice([rng.randint(-6, 6), rng.randint(-10**5, 10**5)])
            assert sys.block_tail(hi, a, lo, b) == _direct_tail(sys, hi, a, lo, b), (hi, a, lo, b)
        assert sys.block_tail(hi, -10**5, lo, 10**5) == _direct_tail(sys, hi, -10**5, lo, 10**5)


def _count_calls(obj, name, log):
    """Route obj.name through a wrapper that appends its arguments to log."""
    original = getattr(obj, name)

    def counted(*args, **kwargs):
        log.append(args)
        return original(*args, **kwargs)

    setattr(obj, name, counted)


def _empty_class_tables(monkeypatch):
    """Start from empty class tables, so that every rule is derived afresh."""
    monkeypatch.setattr(nilpotent, "_class_polys", {})
    monkeypatch.setattr(nilpotent, "_class_rules", {})


def _leaf_set(tree):
    if isinstance(tree, int):
        return {tree}
    return _leaf_set(tree[0]) | _leaf_set(tree[1])


def _pattern(sys, hi, lo):
    """The trees of the letters hi and lo with the leaves of both renumbered
    1..m, keeping their order."""
    u, v = sys.letters[hi], sys.letters[lo]
    rank = {x: j for j, x in enumerate(sorted(_leaf_set(u) | _leaf_set(v)), 1)}

    def relabel(t):
        return rank[t] if isinstance(t, int) else (relabel(t[0]), relabel(t[1]))

    return relabel(u), relabel(v)


def _is_pattern(sys, hi, lo):
    leaves = _leaf_set(sys.letters[hi]) | _leaf_set(sys.letters[lo])
    return leaves == set(range(1, len(leaves) + 1))


def _commuting(sys, hi, lo):
    return sys.weights[hi] + sys.weights[lo] > sys.n


def _fresh_rule(sys, hi, lo):
    """The rule of the letters hi > lo derived in the ring on the pair itself,
    with its trees read as the engine's letters."""
    top_a, top_b, points, terms = sys._derive_rule(hi, lo)
    return top_a, top_b, points, tuple((sys.index[t], cs) for t, cs in terms)


def test_one_rule_per_letter_pair(monkeypatch):
    # on empty class tables each engine keeps one rule per letter pair, but
    # derives one only per pattern, on the pattern's own letters, with one
    # extraction per grid point; a pair whose pattern is held is mapped with
    # no extraction
    _empty_class_tables(monkeypatch)
    rng = random.Random(12)
    sys = RuleSystem(3, 4)
    built, extracted = [], []
    _count_calls(sys, "_derive_rule", built)
    _count_calls(sys, "extract", extracted)
    exps = [-10**5, -7, -1, 1, 2, 3, 10**5]
    for _ in range(40):
        sys.collect([(rng.randrange(sys.rank), rng.choice(exps)) for _ in range(8)])
    assert built and all(_is_pattern(sys, hi, lo) for hi, lo in built)
    assert not any(_commuting(sys, hi, lo) for hi, lo in built)
    patterns = [(sys.letters[hi], sys.letters[lo]) for hi, lo in built]
    assert len(set(patterns)) == len(patterns) == len(nilpotent._class_rules)
    assert {_pattern(sys, hi, lo) for hi, lo in sys._rules} == set(patterns)
    assert len(built) < len(sys._rules)
    grid = {pair: len(nilpotent._class_rules[(sys.n, *pair)][2]) for pair in patterns}
    assert len(extracted) == sum(grid.values())
    # a fresh pair whose pattern is held costs no extraction
    held = next(
        (hi, lo)
        for hi in range(sys.rank)
        for lo in range(hi)
        if not _commuting(sys, hi, lo) and (hi, lo) not in sys._rules
        and not _is_pattern(sys, hi, lo) and _pattern(sys, hi, lo) in grid
    )
    before = len(extracted), len(built)
    sys.block_tail(held[0], 10**5, held[1], -10**5)
    assert (len(extracted), len(built)) == before
    # a fresh pattern: one extraction per grid point, then none for any exponents
    hi, lo = next(
        (hi, lo)
        for hi in range(sys.rank)
        for lo in range(hi)
        if not _commuting(sys, hi, lo) and _pattern(sys, hi, lo) not in grid
    )
    sys.block_tail(hi, 1, lo, 1)
    rule = sys._rules[hi, lo]
    assert len(built) == before[1] + 1 and _is_pattern(sys, *built[-1])
    assert len(extracted) - before[0] == len(rule[2])
    for a, b in [(5, -3), (-10**5, 2), (10**5, 10**5), (0, 7)]:
        sys.block_tail(hi, a, lo, b)
    assert len(extracted) - before[0] == len(rule[2])
    assert sys._rules[hi, lo] is rule and len(built) == before[1] + 1
    # every rule the engine holds equals a derivation on its own pair
    rules = dict(sys._rules)
    _empty_class_tables(monkeypatch)
    assert all(_fresh_rule(sys, hi, lo) == rule for (hi, lo), rule in rules.items())


@pytest.mark.parametrize("n", [3, 4, 5])
def test_engines_of_one_class_share_rules(n, monkeypatch):
    # engines k = 2..5 built in ascending order derive only on patterns, and
    # no pattern twice: engine k + 1 maps a rule whose pattern an earlier
    # engine derived from the class table, with no extraction
    _empty_class_tables(monkeypatch)
    rng = random.Random(53 * n)
    exps = (-10**4, -2, -1, 1, 3)
    derived_patterns, engines = set(), []
    for k in range(2, 6):
        sys = RuleSystem(k, n)
        derived, extracted = [], []
        _count_calls(sys, "_derive_rule", derived)
        _count_calls(sys, "extract", extracted)
        for _ in range(12):
            sys.collect([(rng.randrange(k), rng.choice(exps)) for _ in range(6 - n // 2)])
        assert all(_is_pattern(sys, hi, lo) for hi, lo in derived)
        patterns = {(sys.letters[hi], sys.letters[lo]) for hi, lo in derived}
        assert len(patterns) == len(derived) and not patterns & derived_patterns
        held = {_pattern(sys, hi, lo) for hi, lo in sys._rules}
        assert held <= patterns | derived_patterns
        grid = sum(len(nilpotent._class_rules[(n, *pair)][2]) for pair in patterns)
        assert len(extracted) == grid
        mapped = [pair for pair in sys._rules if _pattern(sys, *pair) in derived_patterns]
        assert k == 2 or mapped
        derived_patterns |= patterns
        engines.append(sys)
    assert len(nilpotent._class_rules) == len(derived_patterns)
    # each rule and each letter ring element equals a fresh derivation, on
    # the letter pair itself, by the engine's own ring; an engine reads its
    # letter ring elements from the class table
    table = dict(nilpotent._class_polys)
    for sys in engines:
        rules = dict(sys._rules)
        polys = {i: table[n, t] for i, t in enumerate(sys.letters) if (n, t) in table}
        assert polys
        _empty_class_tables(monkeypatch)
        assert all(_fresh_rule(sys, hi, lo) == rule for (hi, lo), rule in rules.items())
        fresh = RuleSystem(sys.k, n)
        assert all(fresh.letter_poly(i) == p for i, p in polys.items())


@pytest.mark.parametrize("k,n", [(6, 4), (5, 5)])
def test_relabeled_rules_match_direct_derivation(k, n, monkeypatch):
    # pairs whose leaves are not 1..m get their rule from a derivation on
    # their pattern, relabeled; it must give the tails of the pair itself
    _empty_class_tables(monkeypatch)
    rng = random.Random(89 * k + n)
    sys = RuleSystem(k, n)
    built = []
    _count_calls(sys, "_derive_rule", built)
    pairs = [
        (hi, lo)
        for hi in range(sys.rank)
        for lo in range(hi)
        if not _commuting(sys, hi, lo) and not _is_pattern(sys, hi, lo)
    ]
    chosen = rng.sample(pairs, 8) + [pairs[0], pairs[-1]]
    for hi, lo in chosen:
        for a, b in [(10**5, -10**5), (-10**5, 3), (rng.randint(-6, 6), 10**5)]:
            assert sys.block_tail(hi, a, lo, b) == _direct_tail(sys, hi, a, lo, b), (hi, a, lo, b)
    assert built and all(_is_pattern(sys, hi, lo) for hi, lo in built)


@pytest.mark.parametrize(
    "k,n,rules",
    [(3, 3, 6), (4, 3, 6), (5, 3, 6), (6, 3, 6), (3, 4, 25), (4, 4, 36), (5, 4, 36), (6, 4, 36)],
)
def test_a_class_table_holds_one_rule_per_pattern(k, n, rules, monkeypatch):
    # every non-commuting letter pair of the engine, on empty class tables:
    # the table ends with one rule per pattern on at most min(k, 2 n) leaves
    _empty_class_tables(monkeypatch)
    sys = RuleSystem(k, n)
    built = []
    _count_calls(sys, "_derive_rule", built)
    for hi in range(sys.rank):
        for lo in range(hi):
            sys.block_tail(hi, 1, lo, 1)
    assert len(built) == len(set(built)) == len(nilpotent._class_rules) == rules
    assert all(_is_pattern(sys, hi, lo) for hi, lo in built)


def test_concurrent_engines_of_one_class_match_a_sequential_run(monkeypatch):
    # workers collect at once on the engines (3, 4), (4, 4) and (6, 4), which
    # derive patterns into and map them from one class table; a short switch
    # interval makes the threads interleave inside rule derivation
    from concurrent.futures import ThreadPoolExecutor
    from sys import getswitchinterval, setswitchinterval

    def work(seed):
        rng = random.Random(seed)
        out = []
        for j in range(30):
            k = (3, 4, 6)[(seed + j) % 3]
            u = collect(random_word(rng, k, syllables=4), k, 4)
            assert nil_multiply(u, nil_inverse(u)).is_identity
            out.append(u.exponents)
        return out

    seeds = range(4)
    monkeypatch.setattr(nilpotent, "_systems", {})
    _empty_class_tables(monkeypatch)
    interval = getswitchinterval()
    setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(work, seeds, timeout=60))
    finally:
        setswitchinterval(interval)
    monkeypatch.setattr(nilpotent, "_systems", {})
    _empty_class_tables(monkeypatch)
    assert results == [work(seed) for seed in seeds]


def test_extract_peels_the_top_weight_linearly():
    # 1 + a random combination of the 624 weight-5 letters at (5, 5): every
    # weight passes n / 2, so no peel needs a ring product
    rng = random.Random(55)
    sys = RuleSystem(5, 5)
    top = sys.letters_of_weight(5)
    want = [0] * sys.rank
    poly = {(): 1}
    for i in top:
        want[i] = e = rng.randint(-(10**3), 10**3)
        for m, c in sys.letter_poly(i).items():
            if m:
                poly[m] = poly.get(m, 0) + e * c
    poly = {m: c for m, c in poly.items() if c}
    mul = []
    _count_calls(sys.ring, "mul", mul)
    started = time.process_time()
    assert sys.extract(poly) == want
    assert time.process_time() - started < 2
    assert mul == []


def test_commuting_pairs_build_nothing():
    sys = RuleSystem(2, 3)
    tails, extracted = [], []
    _count_calls(sys, "block_tail", tails)
    _count_calls(sys, "extract", extracted)
    w2 = sys.letters_of_weight(2).start
    w3, w3b = sys.letters_of_weight(3)
    # every inversion pairs letters whose weights sum past the class
    word = [(0, 1), (1, 1), (w3b, 2), (w2, 1), (w3, -1), (w2, 5)]
    assert sys.collect(word) == [1, 1, 6, -1, 2]
    assert tails == [] and extracted == [] and sys._rules == {}
    assert sys.block_tail(w3, 5, 0, -7) == []
    assert extracted == [] and sys._rules == {}


# integer unitriangular evaluation: 1 + N with N strictly upper triangular of
# size n + 1 sends the free class-n group into UT(n + 1, Z)


def _mat_mul(a, b):
    size = len(a)
    return [[sum(a[i][t] * b[t][j] for t in range(size)) for j in range(size)] for i in range(size)]


def _unit(size):
    return [[int(i == j) for j in range(size)] for i in range(size)]


def _unit_inverse(m):
    # (1 + N)^-1 = sum_j (-N)^j, finite because N is nilpotent
    size = len(m)
    neg = [[int(i == j) - m[i][j] for j in range(size)] for i in range(size)]
    out, term = _unit(size), _unit(size)
    for _ in range(size):
        term = _mat_mul(term, neg)
        out = [[out[i][j] + term[i][j] for j in range(size)] for i in range(size)]
    return out


def _unit_power(m, m_inv, e):
    base = m if e >= 0 else m_inv
    out = _unit(len(m))
    for _ in range(abs(e)):
        out = _mat_mul(out, base)
    return out


def _group_eval_tree(tree, gens, memo):
    """Group commutators x^-1 y^-1 x y of the generator matrices, memoized
    per tree as (value, inverse)."""
    if tree not in memo:
        if isinstance(tree, int):
            x = gens[tree - 1]
        else:
            x, x_inv = _group_eval_tree(tree[0], gens, memo)
            y, y_inv = _group_eval_tree(tree[1], gens, memo)
            x = _mat_mul(_mat_mul(x_inv, y_inv), _mat_mul(x, y))
        memo[tree] = (x, _unit_inverse(x))
    return memo[tree]


def test_class5_collection_matches_unitriangular_evaluation():
    # four generators at class 5: 204 weight-5 letters, whose exponents are
    # read through the Dynkin map
    k, n = 4, 5
    rng = random.Random(45)
    words = [[(1, 1), (2, 1), (3, -1), (4, 1), (1, -1), (2, -1)]]
    words += [random_word(rng, k, syllables=6) for _ in range(3)]
    started = time.process_time()
    forms = [collect(word, k, n) for word in words]
    elapsed = time.process_time() - started
    sys = rule_system(k, n)
    for _ in range(2):
        nils = [oracles.random_strict_upper(rng, n + 1) for _ in range(k)]
        gens = [[[int(i == j) + x for j, x in enumerate(row)] for i, row in enumerate(nil)] for nil in nils]
        memo = {}
        for word, form in zip(words, forms):
            want = _unit(n + 1)
            for g, e in word:
                want = _mat_mul(want, _unit_power(*_group_eval_tree(g, gens, memo), e))
            got = _unit(n + 1)
            for i, e in form.word():
                got = _mat_mul(got, _unit_power(*_group_eval_tree(sys.letters[i], gens, memo), e))
            assert got == want, word
        # weight-5 letters are central; their group value is 1 + the Lie value
        for i in sys.letters_of_weight(n):
            lie = oracles.eval_tree_matrix(sys.letters[i], nils)
            value, _ = _group_eval_tree(sys.letters[i], gens, memo)
            assert value == [[int(a == b) + lie[a][b] for b in range(n + 1)] for a in range(n + 1)]
    assert elapsed < 10, f"class-5 collection took {elapsed:.1f}s"


def _unit_binomial_power(m, e):
    """(1 + N)^e = sum_j C(e, j) N^j for any integer e, finite because N is
    nilpotent; for the wide exponents of normal forms."""
    size = len(m)
    nil = [[m[i][j] - int(i == j) for j in range(size)] for i in range(size)]
    out, term, binom = _unit(size), _unit(size), 1
    for j in range(1, size):
        binom = binom * (e - j + 1) // j
        term = _mat_mul(term, nil)
        out = [[out[a][b] + binom * term[a][b] for b in range(size)] for a in range(size)]
    return out


def _form_value(form, gens, memo):
    sys = rule_system(form.k, form.n)
    out = _unit(form.n + 1)
    for i, e in form.word():
        value, _ = _group_eval_tree(sys.letters[i], gens, memo)
        out = _mat_mul(out, _unit_binomial_power(value, e))
    return out


def test_products_and_powers_match_unitriangular_evaluation():
    # six generators at class 4 (406 letters); powers have wide normal-form
    # exponents, so forms are evaluated by binomial powers, words by repeated
    # multiplication
    k, n = 6, 4
    rng = random.Random(64)
    sys = rule_system(k, n)
    nils = [oracles.random_strict_upper(rng, n + 1) for _ in range(k)]
    gens = [[[int(i == j) + x for j, x in enumerate(row)] for i, row in enumerate(nil)] for nil in nils]
    memo = {}
    for i in (0, sys.letters_of_weight(2).start, sys.rank - 1):
        value, value_inv = _group_eval_tree(sys.letters[i], gens, memo)
        for e in (-3, 2, 5):
            assert _unit_binomial_power(value, e) == _unit_power(value, value_inv, e)
    for _ in range(4):
        u = collect(random_word(rng, k, syllables=4), k, n)
        v = collect(random_word(rng, k, syllables=4), k, n)
        u_val, v_val = _form_value(u, gens, memo), _form_value(v, gens, memo)
        assert _form_value(nil_multiply(u, v), gens, memo) == _mat_mul(u_val, v_val)
        e = rng.choice([rng.randint(-50, 50), rng.choice((-50, 50))])
        power = _unit_power(u_val, _unit_inverse(u_val), e)
        assert _form_value(nil_power(u, e), gens, memo) == power


@pytest.mark.parametrize("k,n", [(2, 8), (3, 5), (6, 4)])
def test_collect_onto_a_normal_form(k, n):
    # collect(word, vec) continues from the normal form vec
    rng = random.Random(29 * k + n)
    sys = rule_system(k, n)
    for _ in range(3):
        words = []
        for _ in range(2):
            word = [(g - 1, e) for g, e in random_word(rng, k, syllables=4)]
            word.append((rng.randrange(k), rng.choice((-1, 1)) * rng.randint(1, 10**5)))
            rng.shuffle(word)
            words.append(word)
        u, word = words
        vec = sys.collect(u)
        got = sys.collect(word, vec)
        assert got == sys.collect([(i, e) for i, e in enumerate(vec) if e] + word)
        assert got == sys.collect(u + word)
        assert sys.collect([], vec) == vec


def test_ascending_word_needs_no_tails():
    rng = random.Random(5)
    sys = RuleSystem(3, 4)
    tails = []
    _count_calls(sys, "block_tail", tails)
    for _ in range(20):
        letters = sorted(rng.sample(range(sys.rank), 6))
        word = [(i, rng.choice((-10**5, -2, 1, 3))) for i in letters]
        vec = sys.collect(word)
        assert vec == [dict(word).get(i, 0) for i in range(sys.rank)]
    assert tails == []


@pytest.mark.parametrize("k,n", [(2, 5), (3, 4)])
def test_powers_add_exponents(k, n):
    rng = random.Random(37 * k + n)
    for _ in range(4):
        u = collect(random_word(rng, k), k, n)
        a, b = (rng.choice([rng.randint(-(10**5), 10**5), rng.randint(-9, 9)]) for _ in range(2))
        assert nil_multiply(nil_power(u, a), nil_power(u, b)) == nil_power(u, a + b)


def test_layer_matrix_evaluates_each_subtree_once(monkeypatch):
    k, n = 3, 4
    rng = random.Random(34)
    mat = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
    cols = oracles.word_columns(mat)
    f = hom_from_words(cols, k, n, current_caps())
    calls = []
    original = nilpotent.nil_commutator

    def counted(u, v):
        calls.append((u, v))
        return original(u, v)

    monkeypatch.setattr(nilpotent, "nil_commutator", counted)
    sys = rule_system(k, n)
    for w in range(1, n + 1):
        subtrees = set()
        stack = [sys.letters[i] for i in sys.letters_of_weight(w)]
        while stack:
            tree = stack.pop()
            if not isinstance(tree, int):
                subtrees.add(tree)
                stack += tree
        calls.clear()
        grp = layer_matrix(f, w)
        assert grp == hall.lie_rows(cols, w, k)
        assert oracles.nonzero_rows_below(grp, hall.witt_rank(k, w))
        assert len(calls) == len(subtrees), w


@pytest.mark.parametrize("w", [0, 5])
def test_weights_out_of_range_are_refused(w):
    k, n = 2, 4
    elt = collect([(1, 2), (2, 1)], k, n)
    with pytest.raises(LoopnilError, match=f"weight {w} out of range 1..4"):
        elt.weight_slice(w)
    with pytest.raises(LoopnilError, match=f"weight {w} out of range 1..4"):
        layer_matrix(identity_hom(k, n), w)
    with pytest.raises(LoopnilError, match=f"weight {w} out of range 1..4"):
        graded_layer(k, n, w)


# commutators by sifting: [u, v] = (vu)^-1 (uv), with RuleSystem.solve reading
# the quotient of two normal forms letter by letter

SIFT_GROUPS = [(1, 4), (3, 1), (2, 6), (3, 5), (4, 4), (6, 4), (4, 5)]


def _random_forms(sys, rng, count):
    """``count`` seeded normal-form pairs of the engine, every third form
    with an exponent +-(10^5 + r), then (u, u), (1, v) and (u, 1)."""

    def form(j):
        word = [(g - 1, e) for g, e in random_word(rng, sys.k, syllables=4)]
        if j % 3 == 0:
            word.append((rng.randrange(sys.k), rng.choice((-1, 1)) * (10**5 + rng.randrange(1000))))
            rng.shuffle(word)
        return NilpotentElement(sys.k, sys.n, tuple(sys.collect(word)))

    pairs = [(form(2 * j), form(2 * j + 1)) for j in range(count - 3)]
    u, v = form(0), form(1)
    one = identity_element(sys.k, sys.n)
    return pairs + [(u, u), (one, v), (u, one)]


def _word_route(u, v):
    """[u, v] by collecting the free word u^-1 v^-1 u v from the identity."""
    word = invert_free_word(u.word()) + invert_free_word(v.word()) + list(u.word() + v.word())
    return tuple(rule_system(u.k, u.n).collect(word))


@pytest.mark.parametrize("k,n", SIFT_GROUPS)
def test_solve_reads_the_quotient_of_two_normal_forms(k, n):
    # a * solve(a, b) = b, collected onto a; solve(a, a) = 1
    rng = random.Random(71 * k + n)
    sys = rule_system(k, n)
    zero = [0] * sys.rank
    assert sys.solve(zero, zero) == zero
    for u, v in _random_forms(sys, rng, 12):
        a, b = u.exponents, v.exponents
        d = sys.solve(a, b)
        assert sys.collect([(i, e) for i, e in enumerate(d) if e], a) == list(b)
        assert sys.solve(a, a) == zero


@pytest.mark.parametrize("k,n", SIFT_GROUPS)
def test_commutator_matches_the_four_factor_word(k, n):
    rng = random.Random(31 * k + n)
    for u, v in _random_forms(rule_system(k, n), rng, 30):
        assert nil_commutator(u, v).exponents == _word_route(u, v), (u, v)


@pytest.mark.parametrize("k,n", [(3, 5), (4, 4)])
def test_commutators_satisfy_inversion_and_hall_witt(k, n):
    # [u, v]^-1 = [v, u], and with x^y = y^-1 x y,
    # [[x, y^-1], z]^y [[y, z^-1], x]^z [[z, x^-1], y]^x = 1
    rng = random.Random(17 * k + n)
    forms = [u for pair in _random_forms(rule_system(k, n), rng, 9) for u in pair]

    def conj(a, b):
        return nil_multiply(nil_multiply(nil_inverse(b), a), b)

    def hall_witt_factor(x, y, z):
        return conj(nil_commutator(nil_commutator(x, nil_inverse(y)), z), y)

    for u, v in zip(forms, forms[1:]):
        assert nil_inverse(nil_commutator(u, v)) == nil_commutator(v, u)
    for x, y, z in zip(forms, forms[1:], forms[2:]):
        product = nil_multiply(hall_witt_factor(x, y, z), hall_witt_factor(y, z, x))
        assert nil_multiply(product, hall_witt_factor(z, x, y)).is_identity


@pytest.mark.parametrize("k,n", [(6, 4), (4, 5)])
def test_commutators_match_unitriangular_evaluation(k, n):
    rng = random.Random(83 * k + n)
    nils = [oracles.random_strict_upper(rng, n + 1) for _ in range(k)]
    gens = [[[int(i == j) + x for j, x in enumerate(row)] for i, row in enumerate(nil)] for nil in nils]
    memo = {}
    for u, v in _random_forms(rule_system(k, n), rng, 7):
        u_val, v_val = _form_value(u, gens, memo), _form_value(v, gens, memo)
        want = _mat_mul(_mat_mul(_unit_inverse(u_val), _unit_inverse(v_val)), _mat_mul(u_val, v_val))
        assert _form_value(nil_commutator(u, v), gens, memo) == want


def test_sifted_commutators_look_up_fewer_tails(monkeypatch):
    # a work count, not a time: on warm engines the commutators of a fixed
    # set of pairs look up at most 60 % of the tails that collecting
    # u^-1 v^-1 u v from the identity does
    pairs = []
    for k, n in [(3, 5), (4, 5)]:
        pairs += _random_forms(rule_system(k, n), random.Random(59 * k + n), 20)
    for u, v in pairs:
        assert nil_commutator(u, v).exponents == _word_route(u, v)
    tails = []
    original = RuleSystem.block_tail

    def counted(self, *args):
        tails.append(args)
        return original(self, *args)

    monkeypatch.setattr(RuleSystem, "block_tail", counted)
    for u, v in pairs:
        nil_commutator(u, v)
    sifted = len(tails)
    for u, v in pairs:
        _word_route(u, v)
    word = len(tails) - sifted
    assert sifted <= 0.6 * word, (sifted, word)


def _sift_steps(sys, a, b):
    """For each letter where sifting a^-1 b records an exponent, whether
    that letter has a nonzero mover then, with every step collected."""
    cur, steps = list(a), []
    for i, want in enumerate(b):
        d = want - cur[i]
        if d:
            steps.append(any(cur[i + 1 : sys._mover_stop[i]]))
            cur = sys.collect([(i, d)], cur)
    return steps


@pytest.mark.parametrize("k,n", [(2, 6), (3, 5), (4, 4)])
def test_solve_collects_only_at_steps_with_a_mover(k, n, monkeypatch):
    # a step whose movers are all zero is a bare addition: solve collects
    # once per step with a nonzero mover and at no other step
    _empty_class_tables(monkeypatch)
    sys = RuleSystem(k, n)
    rng = random.Random(37 * k + n)
    forms = [tuple(sys.collect([(g - 1, e) for g, e in random_word(rng, k)])) for _ in range(24)]
    zero = [0] * sys.rank
    calls = []
    _count_calls(sys, "collect", calls)
    # 1^-1 b is sifted by bare steps alone
    for b in forms:
        assert sys.solve(zero, b) == list(b)
    assert not calls
    with_mover = 0
    for a, b in zip(forms, forms[1:]):
        steps = _sift_steps(sys, a, b)
        calls.clear()
        d = sys.solve(a, b)
        assert len(calls) == sum(steps), (a, b)
        with_mover += sum(steps)
        assert sys.collect([(i, e) for i, e in enumerate(d) if e], a) == list(b)
    assert with_mover


@pytest.mark.parametrize("k,n", SIFT_GROUPS)
def test_sifted_inverse_matches_the_reversed_word(k, n):
    # u^-1 sifted as u^-1 1 equals the reversed word of inverse letter powers
    sys = rule_system(k, n)
    for u, v in _random_forms(sys, random.Random(23 * k + n), 12):
        for x in (u, v):
            assert nil_inverse(x).exponents == tuple(sys.collect(invert_free_word(x.word())))


def test_quotients_leave_list_inputs_unmodified():
    sys = rule_system(3, 4)
    for u, v in _random_forms(sys, random.Random(61), 10):
        a, b = list(u.exponents), list(v.exponents)
        sys.solve(a, b)
        nil_inverse(NilpotentElement(3, 4, a))
        nil_commutator(NilpotentElement(3, 4, a), NilpotentElement(3, 4, b))
        assert (a, b) == (list(u.exponents), list(v.exponents))


def test_powers_and_images_collect_nothing_onto_the_identity(monkeypatch):
    # nil_power starts from the first odd power of its base and apply_hom
    # from its first letter's image, so no collection starts from an
    # explicit identity vector
    k, n = 3, 4
    rng = random.Random(43)
    # generic images: no bracket of them is trivial at class 4
    words = [[(0, 2), (1, -1)], [(1, 1), (2, 3)], [(2, -1), (0, 1), (1, 2)]]
    f = hom_from_words(words, k, n, current_caps())
    elements = [collect(random_word(rng, k), k, n) for _ in range(6)]
    onto_identity = []
    original = RuleSystem.collect

    def counted(self, word, vec=None):
        onto_identity.append(vec is not None and not any(vec))
        return original(self, word, vec)

    monkeypatch.setattr(RuleSystem, "collect", counted)
    for u in elements:
        if u.is_identity:
            continue
        for e in (1, 2, 6, 7, -5, 10**5 + 3):
            nil_power(u, e)
        apply_hom(f, u)
    assert onto_identity and not any(onto_identity)
    assert apply_hom(f, identity_element(k, n)).is_identity
