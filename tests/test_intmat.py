import random

import pytest

from loopnil import intmat

import oracles


def sparse(a):
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def check_snf(a, ncols=None):
    m, n = intmat.shape(a, ncols)
    before = [row[:] for row in a]
    facs = intmat.smith_normal_form(a, ncols=n)
    assert a == before
    assert len(facs) <= min(m, n)
    prev = None
    for x in facs:
        assert x > 0
        if prev is not None:
            assert x % prev == 0
        prev = x
    return facs


def test_snf_known():
    a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    assert check_snf(a) == [2, 2, 156]
    # a column swap refills the pivot column, so the column operations that
    # follow must act on every row, not the pivot row alone
    a = [
        [-1, -6, -2, 4, 0, 12],
        [-6, -1, 9, -1, 2, 4],
        [-1, -2, 4, 0, 2, -1],
        [1, 0, 4, -6, -2, -1],
    ]
    assert check_snf(a) == [1, 1, 1, 2] == [x for x in oracles.snf_diagonal(a) if x]
    assert intmat.sparse_invariant_factors(sparse(a)) == [1, 1, 1, 2]


def test_snf_zero_and_empty():
    assert check_snf([[0, 0], [0, 0]]) == []
    assert check_snf([], ncols=3) == []
    assert check_snf([[1], [2]], ncols=1) == [1]


@pytest.mark.parametrize("seed", range(30))
def test_snf_random_vs_oracle(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 5)
    n = rng.randint(1, 5)
    a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
    assert check_snf(a) == [x for x in oracles.snf_diagonal(a) if x]
    facs = intmat.sparse_invariant_factors(sparse(a))
    rank, torsion = m - len(facs), [x for x in facs if x != 1]
    o_rank, o_torsion = oracles.invariants_by_minors(a)
    assert (rank, torsion) == (o_rank, o_torsion)


@pytest.mark.parametrize("seed", range(20))
def test_kernel_basis_random(seed):
    rng = random.Random(100 + seed)
    m = rng.randint(1, 5)
    n = rng.randint(1, 6)
    a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
    # the tests' integer kernel, which the chain and Moore oracles build on
    basis = oracles._integer_kernel(a, n)
    p = len(basis[0])
    assert p == oracles.kernel_rank_by_fractions(a)
    assert all(all(v == 0 for v in row) for row in oracles.matmul(a, basis, p))


@pytest.mark.parametrize("seed", range(8))
def test_snf_larger_random_self_consistent(seed):
    # the leftmost-pivot oracle blows up at this size (the failure mode the
    # minimal-pivot selection exists for), so check transpose invariance and
    # the rational rank instead
    rng = random.Random(500 + seed)
    m = rng.randint(6, 8)
    n = rng.randint(6, 8)
    a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
    facs = check_snf(a)
    at = intmat.transpose(a, ncols=n)
    assert check_snf(at) == facs
    assert len(facs) == n - oracles.kernel_rank_by_fractions(a, n)


def test_snf_divisibility_repair_stress():
    # diagonally dominant inputs that force many gcd/lcm pair fixes
    a = [
        [6, 0, 0, 0],
        [0, 10, 0, 0],
        [0, 0, 15, 0],
        [0, 0, 0, 7],
    ]
    assert check_snf(a) == [1, 1, 30, 210] == oracles.snf_diagonal(a)


def snf_factors(a):
    # the tests' own Smith form: the package's dense core is the residue
    # step of sparse_invariant_factors, so it cannot be its reference
    return [x for x in oracles.snf_diagonal(a) if x]


@pytest.mark.parametrize("seed", range(20))
def test_invariant_factors_sparse_unit_matrices(seed):
    # +-1 entries at low density, the shape of the layer boundaries: most
    # factors come from unit pivots, fill-in leaves a residue for the rest
    rng = random.Random(900 + seed)
    m = rng.randint(1, 14)
    n = rng.randint(1, 14)
    a = [[rng.choice((0, 0, 0, 0, 1, -1)) for _ in range(n)] for _ in range(m)]
    assert intmat.sparse_invariant_factors(sparse(a)) == snf_factors(a)


@pytest.mark.parametrize("seed", range(12))
def test_invariant_factors_without_unit_entries(seed):
    # no entry is +-1, so everything goes to the dense residue
    rng = random.Random(1200 + seed)
    m = rng.randint(1, 6)
    n = rng.randint(1, 6)
    a = [[rng.choice((0, 0, 2, -2, 3, 4, -6, 9)) for _ in range(n)] for _ in range(m)]
    want = snf_factors(a)
    assert intmat.sparse_invariant_factors(sparse(a)) == want
    for prev, x in zip(want, want[1:]):
        assert x % prev == 0


def test_invariant_factors_zero_and_empty_shapes():
    assert intmat.sparse_invariant_factors(sparse([[0, 0, 0], [0, 0, 0]])) == []
    # an empty matrix has no factors whatever its shape; the cokernel rank
    # rows - len(F) is 3 for a 3 x 0 matrix and 0 for a 0 x 2 one
    assert intmat.sparse_invariant_factors(sparse([])) == []
    facs = intmat.sparse_invariant_factors(sparse([[], [], []]))
    assert (3 - len(facs), facs) == (3, [])
    assert 0 - len(intmat.sparse_invariant_factors(sparse([]))) == 0
    # a unit pivot split off next to a residue keeps the divisibility chain
    assert intmat.sparse_invariant_factors(sparse([[1, 0, 0], [0, 2, 0], [0, 0, 4]])) == [1, 2, 4]


def test_sparse_invariant_factors_leaves_input_alone():
    rows = [{0: 1, 2: -1}, {0: 1, 1: 2}, {}, {2: 4}]
    before = [dict(r) for r in rows]
    dense = [[r.get(j, 0) for j in range(3)] for r in rows]
    assert intmat.sparse_invariant_factors(rows) == snf_factors(dense)
    assert rows == before
