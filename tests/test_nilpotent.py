import random
import time

import pytest

from loopnil import hall, nilpotent
from loopnil.errors import LoopnilError
from loopnil.nilpotent import (
    apply_hom,
    collect,
    compose_homs,
    generator_element,
    graded_layer,
    hom_from_matrix,
    identity_element,
    identity_hom,
    invert_free_word,
    layer_matrix,
    nil_commutator,
    nil_inverse,
    nil_multiply,
    nil_power,
    projection_hom,
    reduce_free_word,
    rule_system,
    RuleSystem,
)

import oracles


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
def test_group_axioms_random(k, n):
    rng = random.Random(97 * k + n)
    for _ in range(60):
        u = collect(random_word(rng, k), k, n)
        v = collect(random_word(rng, k), k, n)
        w = collect(random_word(rng, k), k, n)
        assert nil_multiply(nil_multiply(u, v), w) == nil_multiply(u, nil_multiply(v, w))
        assert nil_multiply(u, nil_inverse(u)).is_identity
        assert nil_multiply(nil_inverse(u), u).is_identity


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
        assert collect(reduce_free_word(w), k, n) == collect(w, k, n)
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
        assert sys.vector_to_poly(elt.exponents) == poly


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
    swap = hom_from_matrix([[0, 1], [1, 0]], 2)
    comm = nil_commutator(generator_element(2, 2, 2), generator_element(2, 2, 1))
    swapped = apply_hom(swap, comm)
    assert swapped.exponents == (0, 0, -1)
    kill = hom_from_matrix([[1, 0], [0, 0]], 2)
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
def test_layer_matrix_agrees_with_lie_functor(k, n):
    # group-theoretic collection route vs Lie-functor route on every layer
    rng = random.Random(17 * k + n)
    for _ in range(6):
        mat = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
        f = hom_from_matrix(mat, n)
        for w in range(1, n + 1):
            grp = layer_matrix(f, w)
            lie = hall.lie_of_map(mat, w, src_k=k, tgt_k=k)
            assert grp == lie, (k, n, w, mat)


def test_layer_matrix_permutation_equivariance():
    import itertools

    k, n = 3, 4
    for perm in itertools.permutations(range(k)):
        mat = [[1 if perm[j] == i else 0 for j in range(k)] for i in range(k)]
        f = hom_from_matrix(mat, n)
        for w in range(1, n + 1):
            assert layer_matrix(f, w) == hall.lie_of_map(mat, w, src_k=k, tgt_k=k)


def test_free_nilpotent_heisenberg():
    # class-2 on two generators: [b, a] is central, (ab)^2 = a^2 b^2 [b,a]
    ab = collect([(1, 1), (2, 1)], 2, 2)
    sq = nil_multiply(ab, ab)
    assert sq == collect([(1, 2), (2, 2), (2, -1), (1, -1), (2, 1), (1, 1)], 2, 2)
    assert sq.exponents == (2, 2, 1)


def test_engine_shared_whatever_the_cap():
    from loopnil.caps import Caps

    assert rule_system(2, 3) is rule_system(2, 3, Caps(max_hall_rank=600))


def test_element_arithmetic_reads_no_caps(monkeypatch):
    # once the engine exists, element operations do not consult the
    # environment: an unparsable cap there does not disturb them
    a = collect([(1, 1)], 2, 2)
    b = collect([(2, 1)], 2, 2)
    monkeypatch.setenv("LOOPNIL_MAX_HALL_RANK", "many")
    assert nil_multiply(b, a).exponents == (1, 1, 1)
    assert nil_commutator(b, a).exponents == (0, 0, 1)


# ---------------------------------------------------------------------------
# ring powers, extraction and the per-weight solver


def random_group_like(sys, rng, bound=3, low=1):
    """Ordered product of random letter powers, on letters of weight >= low."""
    vec = [rng.randint(-bound, bound) if w >= low else 0 for w in sys.weights]
    return sys.vector_to_poly(vec)


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
            assert sys.extract(sys.vector_to_poly(vec)) == vec


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


def test_one_rule_per_letter_pair():
    rng = random.Random(12)
    sys = RuleSystem(3, 4)
    built, extracted = [], []
    _count_calls(sys, "_pair_rule", built)
    _count_calls(sys, "extract", extracted)
    exps = [-10**5, -7, -1, 1, 2, 3, 10**5]
    for _ in range(40):
        sys.collect([(rng.randrange(sys.rank), rng.choice(exps)) for _ in range(8)])
    assert built and len(built) == len(set(built)) == len(sys._rules)
    assert set(built) == set(sys._rules)
    assert all(sys.weights[hi] + sys.weights[lo] <= sys.n for hi, lo in built)
    assert len(extracted) == sum(len(rule[2]) for rule in sys._rules.values())
    # a fresh pair: one extraction per grid point, then none for any exponents
    hi, lo = next(
        (hi, lo)
        for hi in range(sys.rank)
        for lo in range(hi)
        if sys.weights[hi] + sys.weights[lo] <= sys.n and (hi, lo) not in sys._rules
    )
    before = len(extracted)
    sys.block_tail(hi, 1, lo, 1)
    rule = sys._rules[hi, lo]
    assert len(extracted) - before == len(rule[2])
    for a, b in [(5, -3), (-10**5, 2), (10**5, 10**5), (0, 7)]:
        sys.block_tail(hi, a, lo, b)
    assert len(extracted) - before == len(rule[2])
    assert sys._rules[hi, lo] is rule and built.count((hi, lo)) == 1


def test_commuting_pairs_build_nothing():
    sys = RuleSystem(2, 3)
    tails, extracted = [], []
    _count_calls(sys, "block_tail", tails)
    _count_calls(sys, "extract", extracted)
    w2 = sys.weight_range[2].start
    w3, w3b = sys.weight_range[3]
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
    for i in (0, sys.weight_range[2].start, sys.rank - 1):
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
    f = hom_from_matrix(mat, n)
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
        assert layer_matrix(f, w) == hall.lie_of_map(mat, w, src_k=k, tgt_k=k)
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
