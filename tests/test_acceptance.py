"""Acceptance suite: one test per release criterion, exact arithmetic only.

Each criterion prints a PASS line with its runtime (run with ``pytest -s``
to see them); the stated time budgets are asserted as hard bounds.
"""

import itertools
import json
import math
import random
import time

from loopnil.abelian import AbelianInvariants
from loopnil.cli import run_command
from loopnil.caps import current_caps
from loopnil.hall import capped_hall_rank
from loopnil.hall import cross_effect_kernel, hall_basis, lie_of_map, lie_rows, witt_rank
from loopnil.nilpotent import (
    collect,
    graded_layer,
    hom_from_words,
    layer_matrix,
    nil_inverse,
    nil_multiply,
    rule_system,
    NilpotentElement,
)
from loopnil.nilq import free_nilpotent_layers
from loopnil.simplicial import moore_space, sphere, wedge, wedge_of_circles
from loopnil.tower import (
    layer,
    layer_homotopy,
    loop_group,
    pi0,
    tower_stage,
)

import oracles

FIXTURE_SPACES = [sphere(1), sphere(2), wedge(sphere(1), sphere(1)), moore_space(2, 2)]


def tower_rank(k, n):
    """Total Hall rank of the free class-n group on k generators."""
    return capped_hall_rank(k, n, math.inf)[0]


# first nonvanishing layer-homotopy degree of the 2-sphere per class, within
# the window s <= 5; None records that every degree in the window vanished
# (derived once with the independent Smith oracle and frozen here)
CURTIS_FIRST_NONVANISHING = {1: 1, 2: 2, 3: None, 4: 3}
CURTIS_WINDOW = 5
CURTIS_VALUES = {(1, 1): (1, ()), (2, 2): (1, ()), (4, 3): (0, (2,))}


def _announce(name, started, budget):
    elapsed = time.monotonic() - started
    print(f"ACCEPT {name}: PASS ({elapsed:.2f}s, budget {budget}s)")
    assert elapsed < budget, f"{name} exceeded its {budget}s budget"


def test_accept_hall_witt_counts():
    started = time.monotonic()
    for k in range(0, 5):
        for n in range(1, 7):
            assert len(hall_basis(k, n)) == witt_rank(k, n), (k, n)
    _announce("hall-witt-counts", started, 1)


def test_accept_pbw_layers_and_permutations():
    started = time.monotonic()
    for k in range(1, 4):
        for n in range(1, 5):
            for w in range(1, n + 1):
                lay = graded_layer(k, n, w)
                assert lay["rank"] == witt_rank(k, w)
                for letter, tree in lay["letters"]:
                    assert rule_system(k, n).letters[letter] == tree
            for perm in itertools.permutations(range(k)):
                mat = [[1 if perm[j] == i else 0 for j in range(k)] for i in range(k)]
                cols = oracles.word_columns(mat)
                f = hom_from_words(cols, k, n, current_caps())
                for w in range(1, n + 1):
                    grp = layer_matrix(f, w)
                    assert grp == lie_rows(cols, w, k)
                    assert oracles.nonzero_rows_below(grp, witt_rank(k, w))
    _announce("pbw-layers-permutations", started, 5)


def test_accept_collection_soundness():
    started = time.monotonic()
    for k in range(1, 4):
        for n in range(1, 5):
            rng = random.Random(10_000 * k + n)
            for _ in range(1000):
                words = [
                    [
                        (rng.randint(1, k), rng.choice((-3, -2, -1, 1, 2, 3)))
                        for _ in range(rng.randint(0, 6))
                    ]
                    for _ in range(3)
                ]
                u, v, w = (collect(word, k, n) for word in words)
                assert nil_multiply(nil_multiply(u, v), w) == nil_multiply(
                    u, nil_multiply(v, w)
                )
                assert nil_multiply(u, nil_inverse(u)).is_identity
                assert collect(oracles.reduce_word(words[0]), k, n) == u
    _announce("collection-soundness", started, 30)


def test_accept_cross_effect_kernels():
    started = time.monotonic()
    for n in range(1, 5):
        assert cross_effect_kernel(n, [1] * (n + 1)) == AbelianInvariants(0), n
    assert cross_effect_kernel(2, [2, 1, 1]) == AbelianInvariants(0)
    _announce("cross-effect-kernels", started, 10)


def test_accept_kan_formula():
    started = time.monotonic()
    for space in FIXTURE_SPACES:
        g = loop_group(space)
        for s in range(0, 4):
            got = layer_homotopy(g, 1, s)
            want = oracles.space_homology(space, s + 1)
            assert (got.rank, list(got.torsion)) == want, (space.name, s)
    # the torsion case is genuinely exercised
    g = loop_group(moore_space(2, 2))
    assert layer_homotopy(g, 1, 1) == AbelianInvariants(0, (2,))
    _announce("kan-formula", started, 60)


def test_accept_layer_identification():
    started = time.monotonic()
    for space in FIXTURE_SPACES:
        g = loop_group(space)
        for n in (1, 2, 3):
            assert layer(g, n).comparison_ok(4), (space.name, n)
    _announce("layer-identification", started, 60)


def test_accept_tower_exactness():
    started = time.monotonic()
    for space in FIXTURE_SPACES:
        g = loop_group(space)
        for n in (2, 3):
            lay = layer(g, n)
            for q in range(0, 5):
                k_q = g.gen_count(q)
                assert lay.rank(q) == tower_rank(k_q, n) - tower_rank(k_q, n - 1)
                sys = rule_system(k_q, n)
                for letter in sys.letters_of_weight(n):
                    vec = [0] * sys.rank
                    vec[letter] = 1
                    elt = NilpotentElement(k_q, n, tuple(vec))
                    assert elt.truncate(n - 1).is_identity
    _announce("tower-exactness", started, 30)


def test_accept_pi0_free_nilpotent():
    started = time.monotonic()
    for k in (0, 1, 2):
        g = loop_group(wedge_of_circles(k))
        for n in (1, 2, 3):
            q = pi0(tower_stage(g, n))
            assert q.layers == free_nilpotent_layers(k, n), (k, n)
    _announce("pi0-free-nilpotent", started, 60)


def test_accept_curtis_probe():
    started = time.monotonic()
    g = loop_group(sphere(2))

    def oracle_check(n, s, inv):
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
        assert (o_rank, tuple(o_torsion)) == (inv.rank, inv.torsion), (n, s)

    firsts = {}
    for n in (1, 2, 3, 4):
        firsts[n] = None
        for s in range(0, CURTIS_WINDOW + 1):
            inv = layer_homotopy(g, n, s)
            if s <= 3 or inv != AbelianInvariants(0):
                # the independent Moore implementation confirms the value
                # (vanishing included) wherever its plain elimination scales
                oracle_check(n, s, inv)
            if inv != AbelianInvariants(0):
                firsts[n] = s
                assert (inv.rank, inv.torsion) == CURTIS_VALUES[(n, s)], (n, s)
                break
    assert firsts == CURTIS_FIRST_NONVANISHING
    defined = [firsts[n] for n in (1, 2, 3, 4) if firsts[n] is not None]
    assert defined == sorted(defined), "first nonvanishing degrees must be nondecreasing"
    for n in (1, 2, 3, 4):
        floor = math.ceil(math.log2(n)) if n > 1 else 0
        bound = firsts[n] if firsts[n] is not None else CURTIS_WINDOW + 1
        assert bound >= floor, (n, floor)
    _announce("curtis-probe", started, 120)


def test_accept_cli_determinism():
    started = time.monotonic()
    first = run_command(["fixture-check"])
    second = run_command(["fixture-check"])
    assert first == second
    code, out = first
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["failed"] == 0
    _announce("cli-determinism", started, 60)
