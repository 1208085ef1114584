"""The ``collect`` workload: arithmetic in free class-n groups.

One stream holds rounds of queries for every (k, n) with k in 2..6 and
n in 2..4, all within the default Hall-rank cap: three collections (one word
with a wide exponent that misses the exponent-keyed tail cache), then a
product, an inverse, a power, a commutator and a homomorphism image built
from the outputs of the first two.  Each answer is checked by evaluating the
normal form in random integer unitriangular matrices against the words it
came from.
"""

import reference
from query import Query
from loopnil import NilpotentHom, apply_hom, collect, nil_commutator, nil_inverse, nil_multiply, nil_power

PAIRS = [(k, n) for n in (2, 3, 4) for k in (2, 3, 4, 5, 6)]
ASSIGNMENTS = 2  # random matrix assignments per free group


# per class n: rounds per stream, letters per word, small exponents; words get
# shorter and exponents smaller where normal forms grow fastest, so that the
# stream's cost is spread over many queries instead of a few
ROUNDS = {2: 3, 3: 3, 4: 6}
LENGTH = {2: 6, 3: 3, 4: 2}
SMALL = {2: (-3, -2, -1, 1, 2, 3), 3: (-2, -1, 1, 2), 4: (-1, 1)}


def random_word(rng, k, n, length):
    """A freely reduced word: no generator twice in a row, so no letters
    merge before collection starts and every word costs a collection."""
    gens = []
    while len(gens) < length:
        g = rng.randint(1, k)
        if not gens or g != gens[-1]:
            gens.append(g)
    return [(g, rng.choice(SMALL[n])) for g in gens]


def wide_word(rng, k, n, length):
    """A small-exponent word with exactly one wide exponent, so every stream
    holds the same number of rules the exponent-keyed cache cannot reuse."""
    word = random_word(rng, k, n, length)
    pos = rng.randrange(length)
    word[pos] = (word[pos][0], rng.choice((-1, 1)) * (10 ** rng.randint(2, 5) + rng.randint(0, 99)))
    return word


class Evaluator:
    """Random unitriangular assignments for one free group, shared by the
    checks of a stream, with the values of Hall letters memoized."""

    def __init__(self, rng, k, n):
        self.assignments = [
            [reference.random_unitriangular(rng, n + 1) for _ in range(k)]
            for _ in range(ASSIGNMENTS)
        ]
        self.letters = [{} for _ in range(ASSIGNMENTS)]

    def normal_form(self, a, elt):
        gens = self.assignments[a]
        memo = self.letters[a]
        out = reference.mat_identity(len(gens[0]))
        for term in elt.to_json():
            letter = term["letter"]
            value = memo.get(letter)
            if value is None:
                value = memo[letter] = reference.eval_tree(reference.parse_letter(letter), gens)
            out = reference.mat_mul(out, reference.mat_power(value, term["exponent"]))
        return out

    def check(self, expect):
        """Check: the output's normal form must evaluate to ``expect(gens)``
        under every assignment."""

        def check(out):
            for a, gens in enumerate(self.assignments):
                if self.normal_form(a, out) != expect(gens):
                    return "normal form evaluates differently from its words"
            return None

        return check


def make_stream(rng, workdir):
    """Queries of one stream; later queries read earlier outputs from
    ``state``, as a client reusing its own results would."""
    queries = []
    evaluators = {}
    for k, n in [(k, n) for k, n in PAIRS for _ in range(ROUNDS[n])]:
        state = {}
        k2 = max(2, k - 1)
        for key in ((k, n), (k2, n)):
            if key not in evaluators:
                evaluators[key] = Evaluator(rng, *key)
        ev = evaluators[(k, n)]
        length = LENGTH[n]
        w1 = random_word(rng, k, n, length)
        w2 = random_word(rng, k, n, length)
        wide = wide_word(rng, k, n, length)
        e = rng.choice((-3, 3))
        images = [random_word(rng, k2, n, 2) for _ in range(k)]

        def q_collect(key, word, k=k, n=n, state=state):
            def run():
                state[key] = collect(word, k, n)
                return state[key]

            return run

        def expect_word(word):
            return lambda gens: reference.eval_word(word, gens)

        def run_multiply(state=state):
            return nil_multiply(state["u"], state["v"])

        def run_inverse(state=state):
            return nil_inverse(state["u"])

        def run_power(state=state, e=e):
            return nil_power(state["v"], e)

        def run_commutator(state=state):
            return nil_commutator(state["u"], state["v"])

        def run_hom(state=state, k=k, k2=k2, n=n, images=images):
            f = NilpotentHom(k, k2, n, tuple(collect(w, k2, n) for w in images))
            return apply_hom(f, state["u"])

        def expect_hom(gens, w1=w1, images=images):
            img = [reference.eval_word(w, gens) for w in images]
            return reference.eval_word(w1, img)

        def inverse_check(base, state=state):
            def check(out):
                bad = base(out)
                if bad is None and not nil_multiply(state["u"], out).is_identity:
                    bad = "u * u^-1 is not the identity"
                return bad

            return check

        def power_expect(gens, w2=w2, e=e):
            return reference.mat_power(reference.eval_word(w2, gens), e)

        def comm_expect(gens, w1=w1, w2=w2):
            return reference.mat_commutator(
                reference.eval_word(w1, gens), reference.eval_word(w2, gens)
            )

        def mul_expect(gens, w1=w1, w2=w2):
            return reference.eval_word(w1 + w2, gens)

        def inv_expect(gens, w1=w1):
            return reference.mat_inverse(reference.eval_word(w1, gens))

        queries += [
            Query("collect", q_collect("u", w1), ev.check(expect_word(w1))),
            Query("collect", q_collect("v", w2), ev.check(expect_word(w2))),
            Query("collect", q_collect("wide", wide), ev.check(expect_word(wide))),
            Query("multiply", run_multiply, ev.check(mul_expect)),
            Query("inverse", run_inverse, inverse_check(ev.check(inv_expect))),
            Query("power", run_power, ev.check(power_expect)),
            Query("commutator", run_commutator, ev.check(comm_expect)),
            Query("apply_hom", run_hom, evaluators[(k2, n)].check(expect_hom)),
        ]
    return queries
