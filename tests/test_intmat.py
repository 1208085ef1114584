import math
import random
import time

import pytest

from loopnil import intmat

import oracles


def sparse(a):
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def check_snf(a):
    m, n = oracles.shape(a)
    before = [row[:] for row in a]
    facs = intmat.smith_normal_form(a)
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
    # clearing the pivot row leaves remainders in other rows of the pivot
    # column, so the column operations must act on every row, not the
    # pivot row alone
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
    assert check_snf([]) == []
    assert check_snf([[1], [2]]) == [1]


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


def _random_6_to_8(seed):
    rng = random.Random(500 + seed)
    m = rng.randint(6, 8)
    n = rng.randint(6, 8)
    return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]


def _random_12(seed):
    rng = random.Random(seed)
    return [[rng.randint(-9, 9) for _ in range(12)] for _ in range(12)]


def _few_units_20(seed):
    # few +-1 entries, so unit pivots leave most of the matrix to the dense core
    rng = random.Random(seed)
    return [[rng.choice((0,) * 8 + (2, -2, 1, 3)) for _ in range(20)] for _ in range(20)]


@pytest.mark.parametrize(
    "a",
    [pytest.param(_random_6_to_8(s), id=str(s)) for s in range(8)]
    # a swap-and-restart elimination blows up on these: 0.56-74 s on the
    # 12 x 12 inputs, more than 3 s on the 20 x 20 ones
    + [pytest.param(_random_12(s), id=f"12x12-{s}") for s in range(5)]
    + [pytest.param(_few_units_20(s), id=f"20x20-few-units-{s}") for s in range(3)],
)
def test_snf_larger_random_self_consistent(a):
    # factor by factor against the oracle's alternating Hermite reductions,
    # which share no pivot choice with the least-entry loop, then transpose
    # invariance, the sparse route, the rational rank and, on a square
    # input, the determinant
    started = time.process_time()
    facs = check_snf(a)
    assert oracles.snf_diagonal(a) == facs
    assert check_snf(oracles.transpose(a)) == facs
    assert intmat.sparse_invariant_factors(sparse(a)) == facs
    assert time.process_time() - started < 2
    m, n = oracles.shape(a)
    assert len(facs) == n - oracles.kernel_rank_by_fractions(a)
    if m == n:
        det = abs(oracles.det_by_fractions(a))
        assert (math.prod(facs) if len(facs) == n else 0) == det


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
