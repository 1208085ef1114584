"""Hall bases of basic commutators and free graded Lie algebras over Z.

A Hall tree is either a generator index (int, 1-based) or a pair of Hall
trees.  Trees are ordered by weight first, then recursively; generators in
index order.  A bracket ``[u, v]`` belongs to the Hall family when ``u > v``
and, if ``u = [a, b]``, additionally ``b <= v``.
"""

import math
from functools import lru_cache

from . import intmat
from .abelian import AbelianInvariants
from .caps import current_caps
from .errors import InternalInvariantError, LoopnilError


@lru_cache(maxsize=None)
def tree_key(t):
    """Total order on trees: weight, then leaves before brackets, then
    recursively on the two branches.  Computed once per tree, a bracket's
    weight read from its branches' keys."""
    if isinstance(t, int):
        return (1, 0, t)
    left, right = tree_key(t[0]), tree_key(t[1])
    return (left[0] + right[0], 1, left, right)


def tree_str(t):
    if isinstance(t, int):
        return f"x{t}"
    return f"[{tree_str(t[0])},{tree_str(t[1])}]"


@lru_cache(maxsize=None)
def hall_basis(k, n):
    """The weight-n Hall trees over k generators, canonically ordered."""
    if k < 0 or n < 1:
        raise LoopnilError(f"hall_basis needs k >= 0 and n >= 1, got ({k}, {n})")
    if n == 1:
        return tuple(range(1, k + 1))
    if k <= 1:  # a bracket needs two distinct generators
        return ()
    # every bracket here has weight n, so tree_key orders it by its left key,
    # then its right key; the loops emit that order, since a left key starts
    # with its weight and each basis below (lefts, then rights of one weight)
    # is in tree_key order by induction
    out = []
    for wl in range(1, n):
        rights = [(tree_key(r), r) for r in hall_basis(k, n - wl)]
        for left in hall_basis(k, wl):
            kl = tree_key(left)
            sub = None if isinstance(left, int) else tree_key(left[1])
            for kr, right in rights:
                if kl > kr and (sub is None or sub <= kr):
                    out.append((left, right))
    return tuple(out)


def _mobius(d):
    result = 1
    p = 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            result = -result
        p += 1
    if d > 1:
        result = -result
    return result


@lru_cache(maxsize=None)
def witt_rank(k, n):
    """Rank of the weight-n part of the free Lie ring on k generators:
    (1/n) * sum over d | n of mu(d) * k^(n/d), the divisors in pairs (d, n/d)."""
    if k < 0 or n < 1:
        raise LoopnilError(f"witt_rank needs k >= 0 and n >= 1, got ({k}, {n})")
    if k <= 1:
        return k if n == 1 else 0
    total = 0
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            total += _mobius(d) * k ** (n // d)
            if d * d != n:
                total += _mobius(n // d) * k**d
    if total % n:
        raise InternalInvariantError("Witt sum not divisible by n")
    return total // n


def capped_hall_rank(k, n, cap):
    """``(rank, w)``: the Witt ranks of weights 1..w summed, w the first weight
    where the sum passes ``cap``, or n; about log_k(cap) weights for k >= 2.
    The pre-work sum that the Hall-rank and tree-count caps read."""
    if 0 <= k <= 1 <= n:
        return k, n
    rank = 0
    for w in range(1, n + 1):
        rank += witt_rank(k, w)
        if rank > cap:
            return rank, w
    return rank, n


# ---------------------------------------------------------------------------
# rewriting into the Hall basis


@lru_cache(maxsize=None)
def _reduce_pair(u, v):
    """Hall expansion of [u, v] for Hall trees u, v as a tuple of
    (tree, coefficient) pairs.  Uses antisymmetry and Jacobi only."""
    ku, kv = tree_key(u), tree_key(v)
    if ku == kv:
        return ()
    if ku < kv:
        return tuple((t, -c) for t, c in _reduce_pair(v, u))
    if isinstance(u, int) or tree_key(u[1]) <= kv:
        return (((u, v), 1),)
    # u = [a, b] with b > v: [[a,b],v] = [[a,v],b] + [a,[b,v]]
    a, b = u
    acc = {}
    for t1, c1 in _reduce_pair(a, v):
        for t2, c2 in _bracket_combo(((t1, c1),), ((b, 1),)):
            acc[t2] = acc.get(t2, 0) + c2
    for t1, c1 in _reduce_pair(b, v):
        for t2, c2 in _bracket_combo(((a, 1),), ((t1, c1),)):
            acc[t2] = acc.get(t2, 0) + c2
    return tuple(sorted(((t, c) for t, c in acc.items() if c), key=lambda x: tree_key(x[0])))


def _bracket_combo(left, right):
    """Bilinear bracket of two Hall-basis combinations."""
    acc = {}
    for t1, c1 in left:
        for t2, c2 in right:
            for t, c in _reduce_pair(t1, t2):
                acc[t] = acc.get(t, 0) + c1 * c2 * c
    return tuple((t, c) for t, c in acc.items() if c)


@lru_cache(maxsize=None)
def normalize_tree(tree):
    """Hall expansion of an arbitrary bracket tree, as (tree, coefficient)
    pairs."""
    if isinstance(tree, int):
        return ((tree, 1),)
    left = normalize_tree(tree[0])
    right = normalize_tree(tree[1])
    return _bracket_combo(left, right)


# ---------------------------------------------------------------------------
# functoriality: Lie_n applied to an integer matrix


def lie_of_map(f, n, src_k=None, tgt_k=None):
    """Matrix of Lie_n(f) in Hall bases, for an integer matrix f mapping
    Z^src_k -> Z^tgt_k (rows are targets); the dense form of ``lie_rows``,
    with src_k and tgt_k defaulting to the shape of f."""
    if tgt_k is None:
        tgt_k = len(f)
    if src_k is None:
        src_k = len(f[0]) if f else 0
    if len(f) != tgt_k or any(len(row) != src_k for row in f):
        raise LoopnilError(
            f"Lie_{n}(f) from Z^{src_k} to Z^{tgt_k} needs a {tgt_k}x{src_k} "
            "matrix f (rows are targets)"
        )
    cols = [[(i, row[j]) for i, row in enumerate(f) if row[j]] for j in range(src_k)]
    return intmat.dense_rows(lie_rows(cols, n, tgt_k), witt_rank(src_k, n))


def lie_rows(cols, n, tgt_k, trees=None):
    """Lie_n(f) in Hall bases as ``{col: value}`` rows of nonzero entries,
    one row per weight-n Hall tree over tgt_k generators and one column per
    source tree in ``trees`` (by default every weight-n Hall tree over the
    len(cols) source generators, in order).  The map f is given by its
    columns: ``cols[j]`` holds the nonzero (0-based target, coefficient)
    pairs of source generator j + 1, one pair per target, the word format
    of ``LoopGroup.map_words``.

    Each Hall tree's image is taken once, bottom-up: a generator goes to its
    column of f and a bracket ``(a, b)`` to the bracket of the images of a
    and b, memoized below weight n for the length of the call."""
    images = {j: tuple((i + 1, c) for i, c in col) for j, col in enumerate(cols, 1)}

    def image(tree):
        img = images.get(tree)
        if img is None:
            img = images[tree] = _bracket_combo(image(tree[0]), image(tree[1]))
        return img

    tgt_index = {t: i for i, t in enumerate(hall_basis(tgt_k, n))}
    rows = [{} for _ in tgt_index]
    if trees is None:
        trees = hall_basis(len(cols), n)
    for j, tree in enumerate(trees):
        img = images[tree] if n == 1 else _bracket_combo(image(tree[0]), image(tree[1]))
        for t, c in img:
            rows[tgt_index[t]][j] = c
    return rows


def subalphabet_trees(k, n, masks):
    """Indices of the weight-n Hall trees over k generators whose leaves all
    lie in one of a family of sub-alphabets, where bit i of ``masks[g - 1]``
    says that generator g lies in sub-alphabet i.

    A Hall tree's order and Hall condition compare only generator indices,
    so the Hall trees with leaves in a sub-alphabet are its own Hall basis
    and span the free Lie ring on it inside the free Lie ring on all k."""
    if n == 1:
        return [j for j, m in enumerate(masks) if m]
    common = dict(zip(range(1, k + 1), masks))
    for w in range(2, n):
        for t in hall_basis(k, w):
            common[t] = common[t[0]] & common[t[1]]
    return [j for j, t in enumerate(hall_basis(k, n)) if common[t[0]] & common[t[1]]]


# ---------------------------------------------------------------------------
# cross-effect complex of Lie_n on a tuple of free abelian groups


def cross_effect_kernel(n, ranks):
    """Invariants of ker(L0 -> L1) in the cross-effect complex of Lie_n.

    The common kernel of the n+1 collapse maps is the kernel of their
    stacked rows, whatever their signs; kernels of integer matrices are
    free, so the rank is all there is.

    Needs n >= 1 and n + 1 positive ranks, checked in that order before
    the class and Witt-rank caps."""
    caps, context = current_caps(), f"cross-effect kernel of Lie_{n}"
    if n < 1:
        raise LoopnilError(f"class must be >= 1, got {n}")
    ranks = list(ranks)
    if len(ranks) != n + 1 or any(r < 1 for r in ranks):
        raise LoopnilError(f"{context} needs {n + 1} positive ranks")
    caps.check_class(n, context)
    total = sum(ranks)
    caps.check_layer_rank(f"Witt rank of Lie_{n}(Z^{total})", witt_rank(total, n), context)
    rows, start = [], 0
    for r in ranks:
        # the collapse map sends generators start..start + r - 1 to 0 and
        # keeps the others in order
        kept = [((j, 1),) for j in range(total - r)]
        rows += lie_rows(kept[:start] + [()] * r + kept[start:], n, total - r)
        start += r
    return AbelianInvariants(witt_rank(total, n) - len(intmat.sparse_invariant_factors(rows)))
