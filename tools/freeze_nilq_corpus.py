"""Write the frozen ``nilq`` corpus that ``tests/test_nilq.py`` checks.

Draws a seeded corpus of random torsion presentations (k = 2 or 3
generators, k relators of one to four letters with exponents +-1..+-3,
class 2..4) and records the layers ``nilpotent_quotient`` reports for each.
The committed file was written by the closure routine that commuted every
relator and pivot with all generators, their inverses and every earlier
pivot; the test asserts that the current routine reproduces its layers.

    PYTHONPATH=src python3 tools/freeze_nilq_corpus.py > tests/data/nilq_corpus.json
"""

import json
import random
import sys

from loopnil.nilq import nilpotent_quotient

SEED = 6
COUNT = 100


def corpus():
    rng = random.Random(SEED)
    exps = (-3, -2, -1, 1, 2, 3)
    out = []
    for _ in range(COUNT):
        k = rng.choice((2, 3))
        n = rng.randint(2, 4)
        rels = [
            [[rng.randint(1, k), rng.choice(exps)] for _ in range(rng.randint(1, 4))]
            for _ in range(k)
        ]
        out.append({"k": k, "class": n, "relators": rels})
    return out


def main():
    cases = []
    for case in corpus():
        rels = [[tuple(letter) for letter in r] for r in case["relators"]]
        q = nilpotent_quotient(case["k"], rels, case["class"])
        case["layers"] = [inv.to_json() for inv in q.layers]
        cases.append(case)
    lines = ",\n".join(json.dumps(c, separators=(",", ":")) for c in cases)
    sys.stdout.write(f'{{"seed":{SEED},"cases":[\n{lines}\n]}}\n')


if __name__ == "__main__":
    main()
