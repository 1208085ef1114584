import random
import time

import pytest

from loopnil import hall

import oracles


def test_hall_basis_small():
    assert hall.hall_basis(2, 1) == (1, 2)
    assert hall.hall_basis(2, 2) == ((2, 1),)
    assert hall.hall_basis(2, 3) == (((2, 1), 1), ((2, 1), 2))


def test_hall_basis_matches_exhaustive_enumeration():
    for k in range(1, 4):
        for n in range(1, 6):
            assert list(hall.hall_basis(k, n)) == oracles.hall_trees_exhaustive(k, n)


def test_witt_rank_examples():
    assert hall.witt_rank(2, 2) == 1
    assert hall.witt_rank(2, 3) == 2
    assert hall.witt_rank(3, 2) == 3


def test_witt_rank_vs_necklace_oracle():
    for k in range(0, 5):
        for n in range(1, 7):
            assert hall.witt_rank(k, n) == oracles.witt_by_necklaces(k, n)


def test_hall_count_equals_witt():
    for k in range(0, 5):
        for n in range(1, 7):
            assert len(hall.hall_basis(k, n)) == hall.witt_rank(k, n)


def test_normalize_antisymmetry_basics():
    assert hall.lie_normalize([((1, 1), 1)], 2, 2).is_zero
    e = hall.lie_normalize([((1, 2), 1)], 2, 2)
    assert e.coeffs == (((2, 1), -1),)
    e2 = hall.lie_normalize([(((1, 2), 1), 1)], 2, 3)
    want = hall.lie_normalize([((((2, 1)), 1), -1)], 2, 3)
    assert e2.coeffs == want.coeffs


def _random_tree(rng, k, weight):
    if weight == 1:
        return rng.randint(1, k)
    w = rng.randint(1, weight - 1)
    return (_random_tree(rng, k, w), _random_tree(rng, k, weight - w))


@pytest.mark.parametrize("seed", range(40))
def test_normalize_matches_matrix_representation(seed):
    # evaluate both the raw tree and its Hall expansion on random strictly
    # upper triangular matrices; the representation respects weight
    rng = random.Random(seed)
    k = rng.randint(2, 3)
    n = rng.randint(2, 5)
    tree = _random_tree(rng, k, n)
    expanded = hall.lie_normalize([(tree, 1)], k, n)
    size = n + 1
    assignment = [oracles.random_strict_upper(rng, size) for _ in range(k)]
    direct = oracles.eval_tree_matrix(tree, assignment)
    total = [[0] * size for _ in range(size)]
    for t, c in expanded.coeffs:
        mat = oracles.eval_tree_matrix(t, assignment)
        for i in range(size):
            for j in range(size):
                total[i][j] += c * mat[i][j]
    assert direct == total


@pytest.mark.parametrize("seed", range(25))
def test_antisymmetry_and_jacobi(seed):
    rng = random.Random(1000 + seed)
    k = rng.randint(2, 3)
    wu = rng.randint(1, 2)
    wv = rng.randint(1, 2)
    ww = rng.randint(1, 2)
    u = _random_tree(rng, k, wu)
    v = _random_tree(rng, k, wv)
    w = _random_tree(rng, k, ww)
    anti = hall.lie_normalize([((u, v), 1), ((v, u), 1)], k, wu + wv)
    assert anti.is_zero
    jac = hall.lie_normalize(
        [(((u, v), w), 1), (((v, w), u), 1), (((w, u), v), 1)], k, wu + wv + ww
    )
    assert jac.is_zero


def test_normalize_rejects_non_homogeneous():
    with pytest.raises(hall.LoopnilError):
        hall.lie_normalize([((1, 2), 1), (1, 1)], 2, 2)


def test_normalize_is_linear_and_idempotent():
    rng = random.Random(5)
    for _ in range(10):
        k, n = 2, 4
        t1 = _random_tree(rng, k, n)
        t2 = _random_tree(rng, k, n)
        a = hall.lie_normalize([(t1, 3)], k, n)
        b = hall.lie_normalize([(t2, -2)], k, n)
        both = hall.lie_normalize([(t1, 3), (t2, -2)], k, n)
        assert (a + b).coeffs == both.coeffs
        again = hall.lie_normalize(both.coeffs, k, n)
        assert again.coeffs == both.coeffs


def test_lie_of_map_identity_and_swap():
    ident = hall.lie_of_map([[1, 0], [0, 1]], 3)
    assert ident == [[1, 0], [0, 1]]
    swap = hall.lie_of_map([[0, 1], [1, 0]], 2)
    assert swap == [[-1]]
    proj = hall.lie_of_map([[1, 0]], 2, src_k=2, tgt_k=1)
    assert proj == []


@pytest.mark.parametrize("seed", range(6))
def test_lie_rows_on_chosen_trees_are_columns_of_the_whole(seed):
    rng = random.Random(4000 + seed)
    k, l, n = rng.randint(2, 4), rng.randint(1, 4), rng.randint(1, 4)
    f = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(l)]
    basis = hall.hall_basis(k, n)
    cols = sorted(rng.sample(range(len(basis)), len(basis) // 2))
    whole = hall.lie_rows(f, n, k, l)
    some = hall.lie_rows(f, n, k, l, [basis[j] for j in cols])
    assert some == [
        {p: row[j] for p, j in enumerate(cols) if j in row} for row in whole
    ]


@pytest.mark.parametrize("k,n", [(3, 1), (3, 3), (4, 4), (5, 3)])
def test_subalphabet_trees_are_the_trees_inside_one_subalphabet(k, n):
    rng = random.Random(k * 10 + n)
    masks = [rng.randrange(8) for _ in range(k)]
    inside = [
        j
        for j, t in enumerate(hall.hall_basis(k, n))
        if any(all(masks[g - 1] >> i & 1 for g in hall.tree_leaves(t)) for i in range(3))
    ]
    assert hall.subalphabet_trees(k, n, masks) == inside


@pytest.mark.parametrize("seed", range(15))
def test_lie_of_map_functorial(seed):
    rng = random.Random(2000 + seed)
    k = rng.randint(1, 3)
    l = rng.randint(1, 3)
    m = rng.randint(1, 3)
    n = rng.randint(1, 4)
    f = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(l)]
    g = [[rng.randint(-2, 2) for _ in range(l)] for _ in range(m)]
    gf = [[sum(g[i][t] * f[t][j] for t in range(l)) for j in range(k)] for i in range(m)]
    lhs = hall.lie_of_map(gf, n, src_k=k, tgt_k=m)
    rhs = oracles.matmul(
        hall.lie_of_map(g, n, src_k=l, tgt_k=m),
        hall.lie_of_map(f, n, src_k=k, tgt_k=l),
        hall.witt_rank(k, n),
    )
    assert lhs == rhs


def _expand(tree, f):
    """Multilinear expansion of a tree after substituting the columns of f
    for its leaves, as (bracketing over target generators, coefficient)."""
    if isinstance(tree, int):
        return [(i + 1, row[tree - 1]) for i, row in enumerate(f) if row[tree - 1]]
    return [
        ((ta, tb), ca * cb)
        for ta, ca in _expand(tree[0], f)
        for tb, cb in _expand(tree[1], f)
    ]


@pytest.mark.parametrize("seed", range(20))
def test_lie_of_map_matches_multilinear_expansion(seed):
    rng = random.Random(3000 + seed)
    k = rng.randint(0, 3)
    m = rng.randint(0, 3)
    n = rng.randint(1, 4)
    f = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(m)]
    got = hall.lie_of_map(f, n, src_k=k, tgt_k=m)
    assert len(got) == hall.witt_rank(m, n)
    for j, tree in enumerate(hall.hall_basis(k, n)):
        want = hall.lie_normalize(_expand(tree, f), m, n).vector()
        assert [row[j] for row in got] == want, (f, n, hall.tree_str(tree))


@pytest.mark.parametrize(
    "f,n,src_k,tgt_k,shape",
    [
        ([[1, 0], [0, 1]], 1, None, 1, "1x2"),
        ([[1, 0]], 2, None, 3, "3x2"),
        ([[1, 0]], 2, 3, None, "1x3"),
        ([[1, 0], [1]], 2, None, None, "2x2"),
    ],
)
def test_lie_of_map_rejects_a_matrix_of_the_wrong_shape(f, n, src_k, tgt_k, shape):
    with pytest.raises(hall.LoopnilError, match=f"needs a {shape} matrix"):
        hall.lie_of_map(f, n, src_k=src_k, tgt_k=tgt_k)


def test_cross_effect_kernel_trivial():
    assert hall.cross_effect_kernel(1, [1, 1]).is_trivial
    assert hall.cross_effect_kernel(2, [1, 1, 1]).is_trivial
    assert hall.cross_effect_kernel(3, [1, 1, 1, 1]).is_trivial
    assert hall.cross_effect_kernel(2, [2, 1, 1]).is_trivial


def test_cross_effect_kernel_checks_the_class_cap(monkeypatch):
    from loopnil.errors import CapExceeded

    monkeypatch.delenv("LOOPNIL_MAX_CLASS", raising=False)
    with pytest.raises(CapExceeded, match="class 5"):
        hall.cross_effect_kernel(5, [1] * 6)
    monkeypatch.setenv("LOOPNIL_MAX_CLASS", "5")
    assert hall.cross_effect_kernel(5, [1] * 6).is_trivial


def test_cross_effect_kernel_stays_sparse():
    # Lie_4 on Z^10: 2,475 columns against five stacked collapse maps of
    # 1,008 rows each; intersecting their kernels densely took about 10 s
    started = time.process_time()
    assert hall.cross_effect_kernel(4, [2, 2, 2, 2, 2]).is_trivial
    assert time.process_time() - started < 2


def test_cross_effect_complex_composes_to_zero():
    # signed two-step collapse L0 -> L1 -> L2 vanishes: the sign of the map
    # that drops summand t from the surviving set S is (-1)^(t + #{s in S: s < t})
    for n, ranks in [(2, [1, 1, 1]), (2, [2, 1, 1]), (3, [1, 1, 1, 1])]:
        total = sum(ranks)
        l0_cols = hall.witt_rank(total, n)

        def collapse(subset, drop):
            ranks_from = [r for i, r in enumerate(ranks) if i not in subset]
            pos = [i for i in range(n + 1) if i not in subset].index(drop)
            coll = hall._collapse_matrix(ranks_from, pos)
            src = sum(ranks_from)
            return hall.lie_of_map(coll, n, src_k=src, tgt_k=src - ranks[drop])

        def sign(subset, drop):
            return (-1) ** (drop + sum(1 for s in subset if s < drop))

        def rank_of(subset):
            kept = sum(r for i, r in enumerate(ranks) if i not in subset)
            return hall.witt_rank(kept, n)

        for a in range(n + 1):
            for b in range(a + 1, n + 1):
                via_a = oracles.matmul(collapse((a,), b), collapse((), a), l0_cols)
                via_b = oracles.matmul(collapse((b,), a), collapse((), b), l0_cols)
                s1 = sign((), a) * sign((a,), b)
                s2 = sign((), b) * sign((b,), a)
                rows = rank_of((a, b))
                summed = [
                    [s1 * via_a[i][j] + s2 * via_b[i][j] for j in range(l0_cols)]
                    for i in range(rows)
                ]
                assert all(all(v == 0 for v in row) for row in summed)


@pytest.mark.parametrize("k,wa,wb", [(2, 1, 2), (3, 2, 2), (2, 2, 3), (3, 1, 3)])
def test_lie_element_bracket_matches_normalization(k, wa, wb):
    rng = random.Random(17 * k + 5 * wa + wb)
    basis_a, basis_b = hall.hall_basis(k, wa), hall.hall_basis(k, wb)
    for _ in range(6):
        a, b = rng.choice(basis_a), rng.choice(basis_b)
        got = hall.lie_normalize([(a, 1)], k, wa).bracket(hall.lie_normalize([(b, 1)], k, wb))
        assert got == hall.lie_normalize([((a, b), 1)], k, wa + wb)
        left = [(rng.choice(basis_a), rng.randint(-4, 4)) for _ in range(3)]
        right = [(rng.choice(basis_b), rng.randint(-4, 4)) for _ in range(3)]
        got = hall.lie_normalize(left, k, wa).bracket(hall.lie_normalize(right, k, wb))
        want = hall.lie_normalize(
            [((s, t), c * d) for s, c in left for t, d in right], k, wa + wb
        )
        assert got == want
