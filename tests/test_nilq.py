import json
import random
import time
from pathlib import Path

import pytest

from loopnil import intmat
from loopnil.abelian import AbelianInvariants
from loopnil.cli import default_names, parse_word
from loopnil.hall import witt_rank
from loopnil.nilpotent import collect, nil_commutator, nil_multiply, nil_power
from loopnil.nilq import free_nilpotent_layers, nilpotent_quotient

import oracles

CORPUS = Path(__file__).parent / "data" / "nilq_corpus.json"


def inv(rank, *torsion):
    return AbelianInvariants(rank, tuple(torsion))


def layer_tuples(q):
    return [(l.rank, tuple(l.torsion)) for l in q.layers]


def test_free_presentation_reproduces_witt_ranks():
    for k in (1, 2, 3):
        for n in (1, 2, 3, 4):
            q = nilpotent_quotient(k, [], n)
            assert q.layers == free_nilpotent_layers(k, n)
            assert all(l.rank == witt_rank(k, w + 1) for w, l in enumerate(q.layers))


def test_heisenberg_layers():
    q = nilpotent_quotient(2, [], 2)
    assert layer_tuples(q) == [(2, ()), (1, ())]


def test_single_torsion_relator():
    q = nilpotent_quotient(1, [[(1, 2)]], 1)
    assert layer_tuples(q) == [(0, (2,))]


def test_commutator_relator_kills_weight_two():
    # [a, b] = a^-1 b^-1 a b as a relator
    rel = [(1, -1), (2, -1), (1, 1), (2, 1)]
    q = nilpotent_quotient(2, [rel], 2)
    assert layer_tuples(q) == [(2, ()), (0, ())]


def test_relator_ab_gives_infinite_cyclic():
    # <a, b | ab> is free of rank 1: layers Z, 0, 0
    q = nilpotent_quotient(2, [[(1, 1), (2, 1)]], 3)
    assert layer_tuples(q) == [(1, ()), (0, ()), (0, ())]


def test_torsion_generator_class_two():
    # <a, b | a^2>: the weight-2 layer picks up 2[b,a]
    q = nilpotent_quotient(2, [[(1, 2)]], 2)
    assert layer_tuples(q) == [(1, (2,)), (0, (2,))]


def test_mixed_weight_relator():
    # a^2 [b,a]: abelianization Z/2 + Z; the weight-2 layer is killed by
    # the closure combinations 2[b,a] and the relator's own leading carry
    rel = [(1, 2), (2, -1), (1, -1), (2, 1), (1, 1)]
    q = nilpotent_quotient(2, [rel], 2)
    assert layer_tuples(q)[0] == (1, (2,))
    # weight-2 layer: relations from [a^2 c, b]-type elements give 2[b,a],
    # and conjugation carries give nothing smaller here
    assert layer_tuples(q)[1] == (0, (2,))


def test_dihedral_style_presentation():
    # <a, b | a^2, b^2>: class-2 layers Z/2 + Z/2, then Z/2 on [b,a]
    q = nilpotent_quotient(2, [[(1, 2)], [(2, 2)]], 2)
    assert layer_tuples(q) == [(0, (2, 2)), (0, (2,))]


def test_perturbed_relator_equivalence():
    # conjugated relators present the same group
    rng = random.Random(4)
    base = [(1, 2), (2, 1)]
    for _ in range(5):
        conj = [(rng.randint(1, 2), rng.choice([-1, 1])) for _ in range(3)]
        rel = [(g, -e) for g, e in reversed(conj)] + base + conj
        q1 = nilpotent_quotient(2, [base], 3)
        q2 = nilpotent_quotient(2, [rel], 3)
        assert q1.layers == q2.layers


def test_quotient_json_shape():
    q = nilpotent_quotient(2, [[(1, 2)]], 2)
    obj = q.to_json()
    assert obj["class"] == 2
    assert [l["rank"] for l in obj["layers"]] == [1, 0]
    assert obj["layers"][0]["torsion"] == [2]
    assert all(isinstance(r, str) for r in obj["relations"])


def test_quaternion_style_presentation():
    # <a, b | a^4, a^2 b^-2, b^-1 a b a>: layers (Z/2)^2, Z/2, then trivial
    rels = [
        [(1, 4)],
        [(1, 2), (2, -2)],
        [(2, -1), (1, 1), (2, 1), (1, 1)],
    ]
    q2 = nilpotent_quotient(2, rels, 2)
    assert layer_tuples(q2) == [(0, (2, 2)), (0, (2,))]
    q3 = nilpotent_quotient(2, rels, 3)
    assert layer_tuples(q3) == [(0, (2, 2)), (0, (2,)), (0, ())]


def test_klein_four_presentation():
    # <a, b | a^2, b^2, (ab)^2> is abelian: the weight-2 layer dies
    rels = [[(1, 2)], [(2, 2)], [(1, 1), (2, 1), (1, 1), (2, 1)]]
    q = nilpotent_quotient(2, rels, 3)
    assert layer_tuples(q) == [(0, (2, 2)), (0, ()), (0, ())]


def test_mod_three_heisenberg_presentation():
    # <a, b | a^3, b^3>: extraspecial-like class-2 quotient
    q = nilpotent_quotient(2, [[(1, 3)], [(2, 3)]], 2)
    assert layer_tuples(q) == [(0, (3, 3)), (0, (3,))]


def test_cyclic_power_tower():
    q = nilpotent_quotient(1, [[(1, 4)]], 3)
    assert layer_tuples(q) == [(0, (4,)), (0, ()), (0, ())]


def test_brute_force_closure_lattice_oracle():
    # completeness probe: the leading form of every bounded product of
    # relator conjugates must lie in the relation lattice the quotient
    # engine computed (membership checked by an exact rational solve on the
    # independent pivot slices, verified integral)
    import itertools

    from loopnil.nilpotent import collect, nil_inverse, nil_multiply, rule_system

    k, n = 2, 3
    sys = rule_system(k, n)
    cases = [
        [[(1, 2)]],
        [[(1, 1), (2, 1)]],
        [[(1, 2), (2, -1), (1, -1), (2, 1), (1, 1)]],
        [[(1, 2)], [(2, 2)]],
    ]
    conj_words = [[]]
    letters = [(1, 1), (1, -1), (2, 1), (2, -1)]
    for length in (1, 2):
        conj_words.extend(list(t) for t in itertools.product(letters, repeat=length))
    for rels in cases:
        base = [collect(r, k, n) for r in rels]
        conjugates = []
        for elt in base:
            for w in conj_words:
                inv = [(g, -e) for g, e in reversed(w)]
                conj = nil_multiply(nil_multiply(collect(inv, k, n), elt), collect(w, k, n))
                conjugates.append(conj)
                conjugates.append(nil_inverse(conj))
        pool = list(conjugates)
        for a in conjugates[:14]:
            for b in conjugates[:14]:
                pool.append(nil_multiply(a, b))
        q = nilpotent_quotient(k, rels, n)
        lattice = {
            w: [p.weight_slice(w) for p in q.pivots if p.lowest_weight() == w]
            for w in range(1, n + 1)
        }
        for e in pool:
            low = e.lowest_weight()
            if low is None:
                continue
            rows = lattice[low]
            vec = e.weight_slice(low)
            rank_w = len(vec)
            assert rows, (rels, low, vec)
            span = intmat.transpose(rows, ncols=rank_w)
            try:
                oracles._solve_in_basis(span, [[v] for v in vec], rank_w, len(rows), 1)
            except AssertionError:
                raise AssertionError(
                    f"closure element outside computed lattice: {rels} weight {low} {vec}"
                ) from None


def test_random_presentations_closure_membership():
    # randomized version of the completeness probe: for arbitrary small
    # presentations, leading forms of products of relator conjugates must
    # lie inside the computed relation lattices
    import itertools
    import random

    from loopnil.nilpotent import collect, nil_inverse, nil_multiply

    k, n = 2, 3
    rng = random.Random(77)
    letters = [(1, 1), (1, -1), (2, 1), (2, -1)]
    conj_words = [[]] + [list(t) for t in itertools.product(letters, repeat=1)] + [
        list(t) for t in itertools.product(letters, repeat=2)
    ]
    for trial in range(20):
        rels = [
            [
                (rng.randint(1, k), rng.choice((-2, -1, 1, 2)))
                for _ in range(rng.randint(1, 4))
            ]
            for _ in range(rng.randint(1, 2))
        ]
        q = nilpotent_quotient(k, rels, n)
        lattice = {
            w: [p.weight_slice(w) for p in q.pivots if p.lowest_weight() == w]
            for w in range(1, n + 1)
        }
        conjugates = []
        for rel in rels:
            base = collect(rel, k, n)
            for w in conj_words:
                inv = [(g, -e) for g, e in reversed(w)]
                conj = nil_multiply(nil_multiply(collect(inv, k, n), base), collect(w, k, n))
                conjugates.append(conj)
        pool = list(conjugates)
        for a in conjugates[:10]:
            for b in conjugates[:10]:
                pool.append(nil_multiply(a, nil_inverse(b)))
        for e in pool:
            low = e.lowest_weight()
            if low is None:
                continue
            rows = lattice[low]
            vec = e.weight_slice(low)
            assert rows, (trial, rels, low, vec)
            span = intmat.transpose(rows, ncols=len(vec))
            try:
                oracles._solve_in_basis(span, [[v] for v in vec], len(vec), len(rows), 1)
            except AssertionError:
                raise AssertionError(
                    f"trial {trial}: closure element escapes lattice {rels} w={low} {vec}"
                ) from None


def test_frozen_corpus_layers():
    # layers of seeded random torsion presentations (classes 2..4), frozen
    # from the closure routine that also commuted pivots with generator
    # inverses, earlier pivots and the whole basket; written by
    # tools/freeze_nilq_corpus.py
    cases = json.loads(CORPUS.read_text())["cases"]
    assert len(cases) == 100
    for case in cases:
        rels = [[tuple(letter) for letter in r] for r in case["relators"]]
        q = nilpotent_quotient(case["k"], rels, case["class"])
        assert [inv.to_json() for inv in q.layers] == case["layers"], case


@pytest.mark.parametrize(
    "k, rels, n, want",
    [
        # Tietze-free: x3 and x4 are words in x1, x2, so the quotients are
        # those of the free group of rank 2: Witt ranks 2, 1, 2, 3
        (4, ["x4 x1^2 x2^-1 x3", "x3 x1^-1 x2"], 4, [(2, ()), (1, ()), (2, ()), (3, ())]),
        # torsion: Z/13 in layer 1 and nothing above it
        (3, ["x1^2 x2^3", "x3^5 x1^-1", "x2^2 x3 x1^2"], 4, [(0, (13,)), (0, ()), (0, ()), (0, ())]),
        # genus-2 surface group: Labute's ranks
        (4, ["x1^-1 x2^-1 x1 x2 x3^-1 x4^-1 x3 x4"], 5, [(4, ()), (5, ()), (16, ()), (45, ()), (144, ())]),
    ],
)
def test_former_cliff_presentations(k, rels, n, want):
    words = [parse_word(r, default_names(k)) for r in rels]
    start = time.process_time()
    q = nilpotent_quotient(k, words, n)
    elapsed = time.process_time() - start
    assert layer_tuples(q) == want
    assert elapsed < 2.0, elapsed


def _sift(e, pivots, n):
    """Divide e by powers of the pivots weight by weight; the remainder."""
    for w in range(1, n + 1):
        vec = e.weight_slice(w)
        if not any(vec):
            continue
        layer = [p for p in pivots if p.lowest_weight() == w]
        assert layer, (w, vec)
        span = intmat.transpose([p.weight_slice(w) for p in layer], ncols=len(vec))
        x = oracles._solve_in_basis(span, [[v] for v in vec], len(vec), len(layer), 1)
        for p, (c,) in zip(layer, x):
            if c:
                e = nil_multiply(e, nil_power(p, -c))
        assert not any(e.weight_slice(w))
    return e


def test_pivots_form_a_consistent_polycyclic_sequence():
    # every relator and every commutator of a pivot with a generator sifts
    # to the identity through the pivots, weight by weight
    rng = random.Random(61)
    exps = (-3, -2, -1, 1, 2, 3)
    sifted = 0
    for _ in range(40):
        k = rng.choice((2, 3))
        n = rng.randint(2, 4)
        rels = [
            [(rng.randint(1, k), rng.choice(exps)) for _ in range(rng.randint(1, 4))]
            for _ in range(rng.randint(1, k))
        ]
        q = nilpotent_quotient(k, rels, n)
        gens = [collect([(i, 1)], k, n) for i in range(1, k + 1)]
        elements = [collect(r, k, n) for r in rels]
        elements += [nil_commutator(p, g) for p in q.pivots for g in gens]
        for e in elements:
            assert _sift(e, q.pivots, n).is_identity, (rels, n, str(e))
        sifted += len(elements)
    assert sifted > 700
