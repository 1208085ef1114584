"""The ``quotients`` workload: class-n quotients requested through the CLI.

Every query is a ``loopnil`` command line (``nilq`` or ``tower pi0``) sent to
``loopnil.cli.run_command``; its JSON input is written during set-up.  A
stream holds a fixed number of rounds; each round draws one presentation of
every kind below and checks the reported layers against a reference:

* one-relator groups whose relator is a product of distinct basic
  commutators (surface groups among them): Labute's ranks;
* Tietze-free presentations, a generator set equal to a word in the others:
  the Witt ranks of the free group of the remaining generators;
* random torsion presentations on two generators: layer 1 is the Smith form
  of the exponent-sum matrix;
* ``pi0`` of M(Z/m, 1): layers Z/m, 0, 0, ...;
* ``pi0`` of a random two-complex: layer 1 is H_1 of its nondegenerate chain
  complex, and all layers agree with ``nilq`` of the presentation read off
  the complex, which is a query of its own.
"""

import json

import reference
import spaces
from loopnil.cli import run_command
from query import Query, QueryFailed

ROUNDS = 6


def commutator(a, b):
    return [(a, -1), (b, -1), (a, 1), (b, 1)]


def commutator_product(rng, k, factors, surface=False):
    """Product of ``factors`` commutators of distinct generator pairs, each
    with a random orientation and sign: its leading form has coefficients
    +-1 on distinct basic commutators, so it is primitive.  With ``surface``
    the pairs are disjoint and cover all 2 * factors generators, a surface
    group relator up to relabelling."""
    if surface:
        gens = rng.sample(range(1, k + 1), 2 * factors)
        chosen = list(zip(gens[::2], gens[1::2]))
    else:
        pairs = [(a, b) for a in range(1, k + 1) for b in range(a + 1, k + 1)]
        chosen = rng.sample(pairs, factors)
    word = []
    for a, b in chosen:
        if rng.random() < 0.5:
            a, b = b, a
        c = commutator(a, b)
        word += c if rng.random() < 0.5 else [(g, -e) for g, e in reversed(c)]
    return word


def random_word(rng, gens, length, small=(-2, -1, 1, 2)):
    return [(rng.choice(gens), rng.choice(small)) for _ in range(length)]


def layer_pairs(report):
    return [(l["rank"], list(l["torsion"])) for l in report["result"]["layers"]]


def cli_query(kind, argv, check):
    def run():
        code, out = run_command(argv)
        if code != 0:
            raise QueryFailed(f"exit {code}: {out.strip()[:200]}")
        return json.loads(out)

    return Query(kind, run, lambda report: check(layer_pairs(report)))


def expect_layers(want):
    def check(got):
        return None if got == want else f"layers {got}, expected {want}"

    return check


class Inputs:
    """Writes input files for one stream."""

    def __init__(self, workdir):
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def write(self, obj):
        self.count += 1
        path = self.dir / f"in{self.count}.json"
        path.write_text(json.dumps(obj))
        return str(path)


def nilq_argv(path, n):
    return ["nilq", path, "--class", str(n)]


def pi0_argv(path, n):
    return ["tower", "pi0", path, "--class", str(n)]


def make_stream(rng, workdir):
    files = Inputs(workdir)
    queries = []
    # every stream holds each torsion order equally often: pi0 cost climbs
    # steeply with m, which sets the number of generators
    moore_orders = [(m, 3) for m in (2, 3, 4)] + [(m, 2) for m in (5, 6, 7)]
    moore_orders *= ROUNDS // len(moore_orders) + 1
    rng.shuffle(moore_orders)
    for (m, moore_class) in moore_orders[:ROUNDS]:
        # Labute: one relator, a product of distinct basic commutators; the
        # genus-1 and genus-2 surface groups among them
        for k, factors, n, surface in (
            (2, 1, 4, True),
            (3, 2, 4, False),
            (4, 2, 3, True),
            (5, 3, 3, False),
        ):
            rel = commutator_product(rng, k, factors, surface)
            path = files.write(spaces.presentation(k, [rel]))
            want = [(reference.labute_rank(k, w), []) for w in range(1, n + 1)]
            queries.append(cli_query("labute", nilq_argv(path, n), expect_layers(want)))

        # Tietze-free: the last generators equal words in the first ones
        for k, free, n in ((2, 1, 4), (3, 1, 3), (3, 2, 3), (4, 2, 2)):
            rels = []
            for g in range(free + 1, k + 1):
                w = random_word(rng, list(range(1, free + 1)), 3)
                rels.append([(g, 1)] + [(x, -e) for x, e in reversed(w)])
            rng.shuffle(rels)
            path = files.write(spaces.presentation(k, rels))
            want = [(reference.witt_count(free, w), []) for w in range(1, n + 1)]
            queries.append(cli_query("tietze", nilq_argv(path, n), expect_layers(want)))

        # torsion: two generators, power relators and a short mixed word
        rels = [
            [(1, rng.randint(2, 6))],
            [(2, rng.randint(2, 6))],
            random_word(rng, [1, 2], 3, small=(-3, -2, -1, 1, 2, 3)),
        ]
        rng.shuffle(rels)
        path = files.write(spaces.presentation(2, rels))
        rank, torsion = reference.cokernel(reference.exponent_sum_matrix(2, rels), 2, len(rels))

        def torsion_check(got, want=(rank, torsion)):
            return None if got[0] == want else f"layer 1 {got[0]}, expected {want}"

        queries.append(cli_query("torsion", nilq_argv(path, 3), torsion_check))

        # pi0 of M(Z/m, 1)
        path = files.write(spaces.moore1(m))
        want = [(0, [m])] + [(0, [])] * (moore_class - 1)
        queries.append(cli_query("pi0-moore", pi0_argv(path, moore_class), expect_layers(want)))

        # pi0 of a random two-complex, and nilq of its read-off presentation
        cx = spaces.random_two_complex(rng, "cx", rng.randint(2, 3), rng.randint(1, 2))
        k, rels = spaces.two_complex_presentation(cx)
        cx_path = files.write(cx)
        pres_path = files.write(spaces.presentation(k, rels))
        h1 = reference.chain_homology(cx, 1)
        shared = {}

        def record(got, shared=shared, h1=h1):
            shared["pi0"] = got
            return None if got[0] == h1 else f"layer 1 {got[0]}, expected H_1 = {h1}"

        def agree(got, shared=shared):
            return None if got == shared.get("pi0") else f"nilq {got} != pi0 {shared.get('pi0')}"

        queries.append(cli_query("pi0-complex", pi0_argv(cx_path, 3), record))
        queries.append(cli_query("nilq-complex", nilq_argv(pres_path, 3), agree))
    return queries
