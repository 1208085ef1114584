"""Free nilpotent groups with collection-process normal forms.

Elements of the class-n quotient of a rank-k free group are ordered products
of Hall-basis commutators with integer exponents.  Arithmetic is collection
from the left (Leedham-Green and Soicher; Vaughan-Lee): a normal form is
multiplied by one letter power x^b at a time, which moves left past each
letter y > x it does not commute with as y^e x^b = x^b y^e [y^e, x^b], and
the brackets are collected next.  The rules for those brackets are derived
inside the degree-truncated free associative ring (generators map to
1 + X_i, which is faithful on the class-n quotient).
Normal-form exponents are read back from a ring element weight by weight:
the lowest nonzero part is a Lie polynomial, and the Dynkin map sends it to
its weight times its Hall expansion, computed by :func:`hall.normalize_tree`.

Collection polynomials (P. Hall).  For letters u, v of weights p, q every
normal-form exponent of [u^a, v^b] is sum c_ij C(a, i) C(b, j) over i, j >= 1
with i p + j q <= n, with integer c_ij.  Proof: u^a = sum_i C(a, i) (u - 1)^i
for every integer a, and (u - 1)^i starts in degree i p; likewise for v^b,
u^-a and v^-b.  Call a term C(a, i) C(b, j) X graded when X starts in degree
>= i p + j q.  Products of graded terms are sums of graded terms, because
C(a, i) C(a, i') is an integer combination of C(a, m) with m <= i + i'.  So
each degree-d coefficient of [u^a, v^b] is a combination of C(a, i) C(b, j)
with i p + j q <= d <= n.  Extraction keeps this: a weight-w exponent e is
a rational combination of degree-w coefficients, and the peeled factor
x^-e = sum_m C(-e, m) (x - 1)^m is graded again, since (x - 1)^m starts in
degree m w.  The exponents are integers at every integer (a, b), so the c_ij
are integers (the C(a, i) C(b, j) are a basis of the integer-valued
polynomials), and they vanish for i = 0 or j = 0 because [u^a, v^b] = 1
when a = 0 or b = 0.  Hence one rule per letter pair, interpolated from the
grid i, j >= 1, i p + j q <= n, serves every exponent pair; letters with
p + q > n commute and need none.

One rule per pattern (relabeling).  A rule's pattern is its two Hall trees
with the leaves of both renumbered 1..m in order.  An order-keeping injection
of generators {1..m} -> {1..K} sends Hall trees to Hall trees in the same
tree order (Reutenauer, Free Lie Algebras, ch. 4), so the homomorphism i of
free class-n groups it induces sends a normal form to a normal form; by
uniqueness the normal form of [i u^a, i v^b] is i of that of [u^a, v^b].  So a
rule depends only on (n, pattern), and is derived once, on the pattern's own
letters, which every engine on k >= m generators holds.  An engine maps the
rule's trees back through i to its letters, in the same order.  A letter's
ring element is kept once per (n, tree).

Linear peel.  When 2 w > n and g - 1 has no terms below degree w, let
x_1^e_1 ... x_m^e_m be the weight-w letters read off g.  Every term of
x^-e - 1 + e (x - 1) = sum_{j >= 2} C(-e, j) (x - 1)^j, every cross term of the
product of the x_i^-e_i, and every term of (x_i - 1)(g - 1) has degree
>= 2 w > n, so the peeled element is g - sum_i e_i (x_i - 1): no ring product
is needed.

Quotients by sifting.  [u, v] = u^-1 v^-1 u v = (vu)^-1 (uv), so it is the
quotient a^-1 b of two normal forms, a = vu and b = uv, each one product; u^-1
is the quotient with a = u and b = 1.  Collecting u^-1 v^-1 u v or u's
reversed word would start from inverted normal forms, whose letters descend,
the worst case for collection from the left.  The quotient is sifted (Sims,
Computation with Finitely Presented Groups, ch. 9): walk the letters in order
and, where the current normal form and b differ at letter i by
d = b_i - cur_i, collect x_i^d onto it, which is the addition alone when no
mover is nonzero.  That adds d at letter i and changes no earlier letter, as
every mover and every tail letter comes after i.  So after step i the current
form agrees with b up to i, and b = a x_1^d_1 ... x_r^d_r, a normal form as
its letters ascend: by uniqueness it is a^-1 b.
"""

import math
from bisect import bisect_left, bisect_right
from operator import itemgetter
import threading
from dataclasses import dataclass
from functools import reduce

from .caps import current_caps, decimal
from .errors import InternalInvariantError, LoopnilError
from .hall import capped_hall_rank, hall_basis, normalize_tree, tree_str


# ---------------------------------------------------------------------------
# degree-truncated free associative ring; polynomials are dicts monomial->int
# with monomials tuples of 0-based generator indices

_degree = itemgetter(0)


class TruncatedRing:
    def __init__(self, degree):
        self.degree = degree
        self.one = {(): 1}

    def gen_unit(self, i):
        """1 + X_i for the 0-based generator i."""
        return {(): 1, (i,): 1}

    def mul(self, p, q, cap=None):
        """``p q`` with every term above degree ``cap`` (the ring's degree
        by default) dropped; q's terms are taken by ascending degree."""
        if cap is None:
            cap = self.degree
        right = sorted(zip(map(len, q), q, q.values()), key=_degree)
        out = {}
        for ma, ca in p.items():
            room = cap - len(ma)
            for lb, mb, cb in right:
                if lb > room:
                    break
                key = ma + mb
                v = out.get(key, 0) + ca * cb
                if v:
                    out[key] = v
                elif key in out:
                    del out[key]
        return out

    def power(self, p, e, cap=None):
        """``p ** e`` up to degree ``cap`` (the ring's degree by default) for
        a polynomial with constant term 1 and any integer ``e``: the binomial
        series sum_j C(e, j) (p - 1)^j, finite because (p - 1)^j has no terms
        below degree j."""
        if p.get((), 0) != 1:
            raise InternalInvariantError("power requires constant term 1")
        if cap is None:
            cap = self.degree
        u = {m: c for m, c in p.items() if m and len(m) <= cap}
        out = dict(self.one)
        term = self.one
        binom = 1
        for j in range(1, cap + 1):
            binom = binom * (e - j + 1) // j
            if not binom:
                break
            term = self.mul(term, u, cap) if j > 1 else u
            if not term:
                break
            for m, c in term.items():
                v = out.get(m, 0) + binom * c
                if v:
                    out[m] = v
                elif m in out:
                    del out[m]
        return out

    def commutator(self, p, q):
        """``p^-1 q^-1 p q`` for polynomials with constant term 1, as
        1 + p^-1 q^-1 (pq - qp).  With u = p - 1 and v = q - 1, pq - qp is
        uv - vu and has no terms below degree lo(u) + lo(v) (lo: the lowest
        degree present), so the inverses are needed only up to degree
        ``degree - lo(u) - lo(v)``."""
        u = {m: c for m, c in p.items() if m}
        v = {m: c for m, c in q.items() if m}
        diff = self.bracket(u, v)
        if not diff:
            return dict(self.one)
        cut = self.degree - min(map(len, u)) - min(map(len, v))
        inv = self.mul(self.power(p, -1, cut), self.power(q, -1, cut), cut)
        out = self.mul(inv, diff)
        out[()] = 1
        return out

    def bracket(self, p, q):
        """``pq - qp``."""
        out = self.mul(p, q)
        for m, c in self.mul(q, p).items():
            v = out.get(m, 0) - c
            if v:
                out[m] = v
            elif m in out:
                del out[m]
        return out

    def homogeneous(self, p, w):
        return {m: c for m, c in p.items() if len(m) == w}

    def is_one(self, p):
        return all(c == 0 for m, c in p.items() if m) and p.get((), 0) == 1


# ---------------------------------------------------------------------------
# the collection engine for one (k, n)


class RuleSystem:
    """Hall letters, their ordering, and commutation rules for the free
    class-n quotient on k generators.

    :meth:`collect` multiplies a normal form by a word one letter power at a
    time; a letter power x^b moving left past a letter y^e leaves the tail
    [y^e, x^b] behind, read from the rule of the pair (y, x).  The rule of a
    letter pair hi > lo is its collection polynomial: the
    exponents of [hi^a, lo^b] as integer combinations of C(a, i) C(b, j)
    with i, j >= 1 and i p + j q <= n, for p, q the weights of hi and lo.
    The bound holds because hi^a - 1 = sum_i C(a, i) (hi - 1)^i and
    (hi - 1)^i starts in degree i p in the truncated ring (module docstring).
    A rule is built on the pair's first use and serves every exponent pair;
    pairs with p + q > n commute and get none.  The engines of every
    generator count share one table per class of rules, keyed by pattern
    (the two trees with their leaves renumbered 1..m in order), and of
    letter ring elements, held there once by Hall tree (module docstring);
    each engine keeps its own view of the rules by letter index.

    ``rank``, the count of its letters (the Hall trees of weights 1..n), is
    the size of the group.  Built through :func:`rule_system`, which checks
    the Hall-rank cap first.  After construction the caches, the class
    tables among them (at most one rule per pattern), only grow
    monotonically under locks, so concurrent readers are safe.
    """

    def __init__(self, k, n):
        self.k = k
        self.n = n
        self.letters, self.weights = [], []
        # a weight with no Hall tree is followed by none (only k <= 1 has one)
        for w in range(1, n + 1):
            trees = hall_basis(k, w)
            if not trees:
                break
            self.letters.extend(trees)
            self.weights.extend([w] * len(trees))
        self.rank = len(self.letters)
        self.index = {t: i for i, t in enumerate(self.letters)}
        # end of each letter's movers, the later letters it may not commute
        # with (none when 2 p > n)
        self._mover_stop = [bisect_right(self.weights, n - p) if 2 * p <= n else 0 for p in self.weights]
        self.ring = TruncatedRing(n)
        self._rules = {}
        self._lock = threading.Lock()

    # -- letter data ---------------------------------------------------------

    def letter_str(self, i):
        return tree_str(self.letters[i])

    def letters_of_weight(self, w):
        if not 1 <= w <= self.n:
            raise LoopnilError(f"weight {w} out of range 1..{self.n}")
        return range(bisect_left(self.weights, w), bisect_right(self.weights, w))

    def letter_poly(self, i):
        t = self.letters[i]
        key = (self.n, t)
        p = _class_polys.get(key)
        if p is None:
            if isinstance(t, int):
                p = self.ring.gen_unit(t - 1)
            else:
                p = self.ring.commutator(
                    self.letter_poly(self.index[t[0]]), self.letter_poly(self.index[t[1]])
                )
            with _class_lock:
                p = _class_polys.setdefault(key, p)
        return p

    # -- exponent extraction -------------------------------------------------

    def _solve_weight(self, w, target):
        """Hall coordinates of ``target``, a homogeneous degree-w Lie
        polynomial: the Dynkin map X_i1...X_iw -> [x_i1, ..., x_iw]
        (left-normed) sends every degree-w Lie polynomial P to w P
        (Dynkin-Specht-Wever), so the coordinates are those of the image
        over w."""
        acc = {}
        for mono, c in target.items():
            tree = mono[0] + 1
            for i in mono[1:]:
                tree = (tree, i + 1)
            for t, d in normalize_tree(tree):
                acc[t] = acc.get(t, 0) + c * d
        out = {}
        for t, v in acc.items():
            if v % w:
                raise InternalInvariantError("exponent extraction: non-integer solution")
            if v:
                out[self.index[t]] = v // w
        return out

    # -- normal forms ----------------------------------------------------------

    def extract(self, poly, start_weight=1):
        """Normal-form exponents of a group-like ring element."""
        ring = self.ring
        vec = [0] * self.rank
        g = dict(poly)
        for w in range(start_weight, self.n + 1):
            part = ring.homogeneous(g, w)
            if not part:
                continue
            coeffs = self._solve_weight(w, part)
            if not coeffs:
                continue
            if 2 * w > self.n:
                # the linear peel g - sum e (letter - 1) (module docstring)
                for letter, e in coeffs.items():
                    vec[letter] = e
                    for m, c in self.letter_poly(letter).items():
                        if m:
                            v = g.get(m, 0) - e * c
                            if v:
                                g[m] = v
                            else:
                                del g[m]
            else:
                # the inverse of the ordered product of letter powers, built
                # in reverse order from the inverse powers
                peel = ring.one
                for letter, e in sorted(coeffs.items(), reverse=True):
                    vec[letter] = e
                    peel = ring.mul(peel, ring.power(self.letter_poly(letter), -e))
                g = ring.mul(peel, g)
            if ring.homogeneous(g, w):
                raise InternalInvariantError("weight peeling failed")
        if not ring.is_one(g):
            raise InternalInvariantError("extraction terminated off the identity")
        return vec

    def block_tail(self, hi, a, lo, b, cb=None):
        """Normal-form word of [hi^a, lo^b] for letters hi > lo, a list of
        (letter, exponent) pairs supported on letters of weight >=
        weight(hi) + weight(lo): the pair's collection polynomial evaluated
        at (a, b).  Empty, with no rule built, when that weight exceeds n.
        A caller with many letters hi for one (lo, b) passes ``cb``, the
        binomials ``C(b, 0), C(b, 1), ...`` up to (n - w) // w for w the
        weight of lo, which covers every such pair."""
        rule = self._rules.get((hi, lo))
        if rule is None:
            if self.weights[hi] + self.weights[lo] > self.n:
                return []
            rule = self._pair_rule(hi, lo)
        top_a, top_b, points, terms = rule
        ca = _binomials(a, top_a)
        if cb is None:
            cb = _binomials(b, top_b)
        scale = [ca[i] * cb[j] for i, j in points]
        tail = []
        for letter, coeffs in terms:
            e = sum(c * scale[idx] for idx, c in coeffs)
            if e:
                tail.append((letter, e))
        return tail

    def _pair_rule(self, hi, lo):
        """Collection polynomial of the letters hi > lo, kept as (largest i,
        largest j, the points (i, j), and per letter in ascending order its
        nonzero (point index, c_ij) pairs): the class table's rule of their
        pattern, derived on a miss, with its trees relabeled to this engine's
        letters (module docstring)."""
        u, v = self.letters[hi], self.letters[lo]
        up = sorted(_leaves(u) | _leaves(v))
        down = {x: j for j, x in enumerate(up, 1)}
        pu, pv = _relabel(u, down), _relabel(v, down)
        key = (self.n, pu, pv)
        shared = _class_rules.get(key)
        if shared is None:
            shared = self._derive_rule(self.index[pu], self.index[pv])
            with _class_lock:
                shared = _class_rules.setdefault(key, shared)
        top_a, top_b, points, terms = shared
        back = dict(enumerate(up, 1))
        index = self.index
        rule = (top_a, top_b, points, tuple((index[_relabel(t, back)], cs) for t, cs in terms))
        with self._lock:
            self._rules[hi, lo] = rule
        return rule

    def _derive_rule(self, hi, lo):
        """Collection polynomial of the letters hi > lo, of weights p and q,
        with its letters as Hall trees: the exponent of each letter in
        [hi^a, lo^b] as sum c_ij C(a, i) C(b, j) over i, j >= 1 with
        i p + j q <= n (module docstring).  The values at the grid points
        (a, b) = (i, j) come from ring derivations; c_ij is their Newton
        forward difference, the values on the axes being 0."""
        p, q, n = self.weights[hi], self.weights[lo], self.n
        ring = self.ring
        u, v = self.letter_poly(hi), self.letter_poly(lo)
        top_a, top_b = (n - q) // p, (n - p) // q
        points = [
            (i, j) for i in range(1, top_a + 1) for j in range(1, (n - i * p) // q + 1)
        ]
        u_pows = [ring.one] + [ring.power(u, i) for i in range(1, top_a + 1)]
        v_pows = [ring.one] + [ring.power(v, j) for j in range(1, top_b + 1)]
        first = bisect_left(self.weights, p + q)
        values = {}
        for i, j in points:
            vec = self.extract(ring.commutator(u_pows[i], v_pows[j]), start_weight=p + q)
            values[i, j] = [(letter, e) for letter, e in enumerate(vec[first:], first) if e]
        coeffs = {}
        for idx, (i, j) in enumerate(points):
            acc = {}
            for s in range(1, i + 1):
                for t in range(1, j + 1):
                    sign = -1 if (i + j - s - t) % 2 else 1
                    f = sign * math.comb(i, s) * math.comb(j, t)
                    for letter, e in values[s, t]:
                        acc[letter] = acc.get(letter, 0) + f * e
            for letter, c in acc.items():
                if c:
                    coeffs.setdefault(letter, []).append((idx, c))
        terms = tuple((self.letters[letter], tuple(cs)) for letter, cs in sorted(coeffs.items()))
        return top_a, top_b, points, terms

    def solve(self, a, b):
        """Normal-form exponents of a^-1 b for normal forms ``a`` and ``b``,
        by sifting a copy of ``a``.  Walk the letters in order; where the
        current vector and ``b`` differ at letter i, record d = b_i - cur_i
        and collect x_i^d onto the current vector.  Collecting x_i^d onto a
        normal form adds d at letter i and changes no earlier letter, because
        the movers and the tail letters all come after i (:meth:`collect`);
        with no nonzero mover the step is that addition alone.  So after
        step i the vector agrees with ``b`` up to i, and at the end
        b = a x_1^d_1 ... x_r^d_r.  That product is in ascending letter order,
        so it is a normal form, and by uniqueness it is a^-1 b."""
        out = [0] * self.rank
        cur = list(a)
        for i, want in enumerate(b):
            d = want - cur[i]
            if d:
                out[i] = d
                if any(cur[i + 1 : self._mover_stop[i]]):
                    cur = self.collect([(i, d)], cur)
                else:
                    cur[i] = want
        return out

    def collect(self, word, vec=None):
        """Normal-form exponents of ``vec`` (the identity by default) times a
        word of (letter, exponent) pairs, by collection from the left.

        The word's pairs wait on a stack and are multiplied onto the normal
        form one at a time.  To multiply by x^b, with p the weight of x,
        split the normal form as L M Z: L the letters up to x, M the movers
        y_1^e_1 ... y_m^e_m (the letters after x of weight <= n - p; letters
        are ordered by weight, so they end at the last letter of weight n - p)
        and Z the rest.  Z commutes with x^b, with every mover and with every
        letter of each tail [y_i^e_i, x^b], because these have weights p,
        >= p and >= 2 p while Z has weight > n - p: the sums pass n.  Since
        y^e x^b = x^b y^e [y^e, x^b],

            L M Z x^b = L x^b W Z = (L x^b Z) W,  W = prod_i y_i^e_i [y_i^e_i, x^b].

        So b is added to the exponent of x, the movers are zeroed, Z stays
        where it is, and W goes on the stack to be collected next.  The stack
        empties: every tail letter outweighs the pair it came from, and
        weights stop at n."""
        vec = [0] * self.rank if vec is None else list(vec)
        stops, weights, n = self._mover_stop, self.weights, self.n
        block_tail = self.block_tail
        stack = [(x, b) for x, b in reversed(word) if b]
        while stack:
            x, b = stack.pop()
            stop = stops[x]
            if any(vec[x + 1 : stop]):
                w = weights[x]
                cb = _binomials(b, (n - w) // w)
                for y in range(stop - 1, x, -1):
                    e = vec[y]
                    if e:
                        vec[y] = 0
                        stack += reversed(block_tail(y, e, x, b, cb))
                        stack.append((y, e))
            vec[x] += b
        return vec


def _leaves(t):
    """The set of generators at the leaves of a Hall tree."""
    return {t} if isinstance(t, int) else _leaves(t[0]) | _leaves(t[1])


def _relabel(t, f):
    """A Hall tree with each leaf x replaced by f[x]."""
    return f[t] if isinstance(t, int) else (_relabel(t[0], f), _relabel(t[1], f))


def _binomials(x, top):
    """[C(x, 0), ..., C(x, top)] for any integer x."""
    out = [1]
    for i in range(1, top + 1):
        out.append(out[-1] * (x - i + 1) // i)
    return out


_systems = {}
_systems_lock = threading.Lock()
# the class tables: letter ring elements keyed by (n, tree) and rules keyed by
# (n, hi pattern, lo pattern), shared by the engines of every generator count
_class_polys = {}
_class_rules = {}
_class_lock = threading.Lock()


def rule_system(k, n, caps=None):
    """Shared per-(k, n) collection engine, built on first use.

    The first use checks the total Hall rank against ``caps``, or against
    the environment's caps when none are given.  Later uses check it only
    when the caller passes caps, so element arithmetic reads no environment.
    """
    key = (k, n)
    sys = _systems.get(key)
    if sys is None:
        with _systems_lock:
            sys = _systems.get(key)
            if sys is None:
                if k < 0 or n < 1:
                    raise LoopnilError(f"need k >= 0 and n >= 1, got ({k}, {n})")
                check_free_group(caps or current_caps(), k, n)
                sys = RuleSystem(k, n)
                _systems[key] = sys
    elif caps is not None and sys.rank > caps.max_hall_rank:
        check_free_group(caps, k, n)
    return sys


def check_free_group(caps, k, n):
    """Refuses the free class-n group on k generators past the Hall-rank cap."""
    rank, w = capped_hall_rank(k, n, caps.max_hall_rank)
    early = f" (weights 1..{w} of {n} only: summing stopped early)" if w < n else ""
    caps.check_hall_rank(rank, f"free class-{n} group on {k} generators{early}")


# ---------------------------------------------------------------------------
# free words and nilpotent elements


def invert_free_word(word):
    return [(g, -e) for g, e in reversed(word)]


@dataclass(frozen=True)
class NilpotentElement:
    """Normal form in the free class-n group on k generators: an exponent
    vector over its engine's letters, the Hall bases of weights 1..n."""

    k: int
    n: int
    exponents: tuple

    def __post_init__(self):
        expected = rule_system(self.k, self.n).rank
        if len(self.exponents) != expected:
            raise InternalInvariantError(
                f"exponent vector has length {len(self.exponents)}, expected {expected}"
            )

    @property
    def is_identity(self):
        return not any(self.exponents)

    def lowest_weight(self):
        """Smallest weight carrying a nonzero exponent; None for the identity."""
        sys = rule_system(self.k, self.n)
        for i, e in enumerate(self.exponents):
            if e:
                return sys.weights[i]
        return None

    def weight_slice(self, w):
        """Exponents over the weight-w letters."""
        ids = rule_system(self.k, self.n).letters_of_weight(w)
        return list(self.exponents[ids.start : ids.stop])

    def word(self):
        return tuple((i, e) for i, e in enumerate(self.exponents) if e)

    def truncate(self, m):
        """Image in the class-m quotient (1 <= m <= n)."""
        if m > self.n:
            raise LoopnilError("cannot truncate upwards")
        keep = bisect_right(rule_system(self.k, self.n).weights, m)
        return NilpotentElement(self.k, m, tuple(self.exponents[:keep]))

    def to_json(self):
        sys = rule_system(self.k, self.n)
        return [
            {"letter": sys.letter_str(i), "exponent": e}
            for i, e in enumerate(self.exponents)
            if e
        ]

    def __str__(self):
        sys = rule_system(self.k, self.n)
        parts = [f"{sys.letter_str(i)}^{decimal(e)}" for i, e in self.word()]
        return " ".join(parts) if parts else "1"


def identity_element(k, n):
    return NilpotentElement(k, n, (0,) * rule_system(k, n).rank)


def generator_element(k, n, i):
    if not 1 <= i <= k:
        raise LoopnilError(f"generator {i} out of range 1..{k}")
    vec = [0] * rule_system(k, n).rank
    vec[i - 1] = 1
    return NilpotentElement(k, n, tuple(vec))


def collect(word, k, n, caps=None):
    """Normal form of a free word in the class-n quotient."""
    for g, _ in word:
        if not 1 <= g <= k:
            raise LoopnilError(f"generator {g} out of range 1..{k}")
    sys = rule_system(k, n, caps or current_caps())
    vec = sys.collect([(g - 1, e) for g, e in word])
    return NilpotentElement(k, n, tuple(vec))


def _require_match(u, v):
    if (u.k, u.n) != (v.k, v.n):
        raise LoopnilError(
            f"mismatched ambient groups: ({u.k},{u.n}) vs ({v.k},{v.n})"
        )


def nil_multiply(u, v):
    _require_match(u, v)
    sys = rule_system(u.k, u.n)
    return NilpotentElement(u.k, u.n, tuple(sys.collect(v.word(), u.exponents)))


def nil_inverse(u):
    """u^-1 = u^-1 1, by sifting (module docstring)."""
    sys = rule_system(u.k, u.n)
    return NilpotentElement(u.k, u.n, tuple(sys.solve(u.exponents, [0] * sys.rank)))


def nil_power(u, e):
    if e == 0:
        return identity_element(u.k, u.n)
    base = u if e > 0 else nil_inverse(u)
    e = abs(e)
    # square up to the lowest set bit, which starts the product
    while not e & 1:
        base = nil_multiply(base, base)
        e >>= 1
    out = base
    e >>= 1
    while e:
        base = nil_multiply(base, base)
        if e & 1:
            out = nil_multiply(out, base)
        e >>= 1
    return out


def nil_commutator(u, v):
    """[u, v] = u^-1 v^-1 u v, read as (vu)^-1 (uv) by sifting (module
    docstring)."""
    _require_match(u, v)
    sys = rule_system(u.k, u.n)
    uv = sys.collect(v.word(), u.exponents)
    vu = sys.collect(u.word(), v.exponents)
    return NilpotentElement(u.k, u.n, tuple(sys.solve(vu, uv)))


# ---------------------------------------------------------------------------
# graded layers and homomorphisms


def graded_layer(k, n, w):
    """The identification of the weight-w layer of the free class-n group
    with the weight-w free Lie module: Hall letters on the group side map to
    the identically shaped Hall trees."""
    sys = rule_system(k, n)
    ids = sys.letters_of_weight(w)
    trees = tuple(sys.letters[ids.start : ids.stop])
    return {"rank": len(trees), "letters": tuple(zip(ids, trees)), "trees": trees}


@dataclass(frozen=True)
class NilpotentHom:
    """Homomorphism between free class-n groups, given on generators.

    Any choice of images defines a homomorphism because the source is free
    in the variety of class-n groups.
    """

    src_k: int
    tgt_k: int
    n: int
    images: tuple  # NilpotentElement over tgt_k, one per source generator

    def __post_init__(self):
        if len(self.images) != self.src_k:
            raise LoopnilError("one image per source generator required")
        for img in self.images:
            if (img.k, img.n) != (self.tgt_k, self.n):
                raise LoopnilError("image lives in the wrong group")


def identity_hom(k, n):
    return NilpotentHom(k, k, n, tuple(generator_element(k, n, i) for i in range(1, k + 1)))


def projection_hom(s, k, n):
    """The k-ary projection onto coordinate s: the map from the free rank-1
    group picking out the s-th generator."""
    if not 1 <= s <= k:
        raise LoopnilError(f"projection index {s} out of range 1..{k}")
    return NilpotentHom(1, k, n, (generator_element(k, n, s),))


def hom_from_words(words, tgt_k, n, caps):
    """Homomorphism sending source generator j + 1 to the normal form of
    ``words[j]``, a word of (0-based target generator, exponent) pairs: the
    format of ``LoopGroup.map_words``.  Both engines are resolved under
    ``caps``, the source's too, because :func:`layer_matrix` and
    :func:`apply_hom` look it up without caps."""
    rule_system(len(words), n, caps)
    engine = rule_system(tgt_k, n, caps)
    images = tuple(NilpotentElement(tgt_k, n, tuple(engine.collect(w))) for w in words)
    return NilpotentHom(len(words), tgt_k, n, images)


def _tree_image(f, tree, memo):
    """Image under ``f`` of the group commutator a Hall tree names, with the
    images of its bracket subtrees kept in ``memo``."""
    if isinstance(tree, int):
        return f.images[tree - 1]
    img = memo.get(tree)
    if img is None:
        img = nil_commutator(_tree_image(f, tree[0], memo), _tree_image(f, tree[1], memo))
        memo[tree] = img
    return img


def apply_hom(f, u):
    """Image of ``u``: substitute generator images into the Hall-letter word,
    each bracket subtree evaluated once, and collect."""
    if (u.k, u.n) != (f.src_k, f.n):
        raise LoopnilError("element not in the source of the homomorphism")
    word = u.word()
    if not word:
        return identity_element(f.tgt_k, f.n)
    memo = {}
    sys = rule_system(u.k, u.n)
    return reduce(nil_multiply, (nil_power(_tree_image(f, sys.letters[i], memo), e) for i, e in word))


def compose_homs(g, f):
    """g after f."""
    if (f.tgt_k, f.n) != (g.src_k, g.n):
        raise LoopnilError("homomorphisms do not compose")
    return NilpotentHom(
        f.src_k, g.tgt_k, f.n, tuple(apply_hom(g, img) for img in f.images)
    )


def layer_matrix(f, w):
    """The weight-w layer map induced by ``f``, computed by collection, as
    ``{col: value}`` rows of nonzero entries in the format of
    :func:`hall.lie_rows`: one row per target weight-w Hall letter and one
    column per source weight-w Hall letter."""
    src_sys = rule_system(f.src_k, f.n)
    letters = src_sys.letters_of_weight(w)  # refuses a bad weight before rows are sized
    memo = {}
    rows = [{} for _ in rule_system(f.tgt_k, f.n).letters_of_weight(w)]
    for j, i in enumerate(letters):
        img = _tree_image(f, src_sys.letters[i], memo)
        low = img.lowest_weight()
        if low is not None and low < w:
            raise InternalInvariantError("layer image dropped below its weight")
        for row, e in zip(rows, img.weight_slice(w)):
            if e:
                row[j] = e
    return rows
