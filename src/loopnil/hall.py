"""Hall bases of basic commutators and free graded Lie algebras over Z.

A Hall tree is either a generator index (int, 1-based) or a pair of Hall
trees.  Trees are ordered by weight first, then recursively; generators in
index order.  A bracket ``[u, v]`` belongs to the Hall family when ``u > v``
and, if ``u = [a, b]``, additionally ``b <= v``.
"""

from dataclasses import dataclass
from functools import lru_cache

from . import intmat
from .abelian import AbelianInvariants
from .caps import current_caps
from .errors import InternalInvariantError, LoopnilError


def tree_weight(t):
    if isinstance(t, int):
        return 1
    return tree_weight(t[0]) + tree_weight(t[1])


def tree_key(t):
    """Total order on trees: weight, then leaves before brackets, then
    recursively on the two branches."""
    if isinstance(t, int):
        return (1, 0, t)
    return (tree_weight(t), 1, tree_key(t[0]), tree_key(t[1]))


def tree_str(t):
    if isinstance(t, int):
        return f"x{t}"
    return f"[{tree_str(t[0])},{tree_str(t[1])}]"


def tree_leaves(t, out=None):
    if out is None:
        out = []
    if isinstance(t, int):
        out.append(t)
    else:
        tree_leaves(t[0], out)
        tree_leaves(t[1], out)
    return out


def max_generator(t):
    return max(tree_leaves(t))


@lru_cache(maxsize=None)
def hall_basis(k, n):
    """The weight-n Hall trees over k generators, canonically ordered."""
    if k < 0 or n < 1:
        raise LoopnilError(f"hall_basis needs k >= 0 and n >= 1, got ({k}, {n})")
    if n == 1:
        return tuple(range(1, k + 1))
    # each lower-weight tree's key once; every bracket built here has weight
    # n, so its tree_key order is the order of its two factors' keys
    keys = {t: tree_key(t) for w in range(1, n) for t in hall_basis(k, w)}
    out = []
    for wl in range(1, n):
        rights = [(keys[r], r) for r in hall_basis(k, n - wl)]
        for left in hall_basis(k, wl):
            kl = keys[left]
            sub = None if isinstance(left, int) else keys[left[1]]
            for kr, right in rights:
                if kl > kr and (sub is None or sub <= kr):
                    out.append((left, right))
    out.sort(key=lambda t: (keys[t[0]], keys[t[1]]))
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
    (1/n) * sum over d | n of mu(d) * k^(n/d)."""
    if k < 0 or n < 1:
        raise LoopnilError(f"witt_rank needs k >= 0 and n >= 1, got ({k}, {n})")
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += _mobius(d) * k ** (n // d)
    if total % n:
        raise InternalInvariantError("Witt sum not divisible by n")
    return total // n


@lru_cache(maxsize=None)
def total_hall_rank(k, n):
    """Total Hall rank of the free class-n group on k generators: the
    Witt ranks of weights 1..n summed."""
    return sum(witt_rank(k, w) for w in range(1, n + 1))


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


@dataclass(frozen=True)
class LieElement:
    """Homogeneous integer combination of weight-n Hall trees over k
    generators."""

    k: int
    weight: int
    coeffs: tuple  # sorted tuple of (tree, coefficient)

    def __post_init__(self):
        basis = set(hall_basis(self.k, self.weight))
        for t, c in self.coeffs:
            if t not in basis:
                raise InternalInvariantError(f"{tree_str(t)} is not a Hall tree here")
            if c == 0:
                raise InternalInvariantError("zero coefficient stored")

    @property
    def is_zero(self):
        return not self.coeffs

    def vector(self):
        basis = hall_basis(self.k, self.weight)
        index = {t: i for i, t in enumerate(basis)}
        out = [0] * len(basis)
        for t, c in self.coeffs:
            out[index[t]] = c
        return out

    def __add__(self, other):
        if (self.k, self.weight) != (other.k, other.weight):
            raise LoopnilError("mismatched Lie elements")
        acc = dict(self.coeffs)
        for t, c in other.coeffs:
            acc[t] = acc.get(t, 0) + c
        return _element(self.k, self.weight, acc)

    def __neg__(self):
        return _element(self.k, self.weight, {t: -c for t, c in self.coeffs})

    def scale(self, m):
        return _element(self.k, self.weight, {t: m * c for t, c in self.coeffs})

    def bracket(self, other):
        if self.k != other.k:
            raise LoopnilError("mismatched generator counts")
        acc = dict(_bracket_combo(self.coeffs, other.coeffs))
        return _element(self.k, self.weight + other.weight, acc)

    def __str__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*{tree_str(t)}" for t, c in self.coeffs)


def _element(k, weight, acc):
    coeffs = tuple(
        sorted(((t, c) for t, c in acc.items() if c), key=lambda x: tree_key(x[0]))
    )
    return LieElement(k, weight, coeffs)


def lie_normalize(terms, k, n):
    """Rewrite a formal bracket expression into the Hall basis.

    ``terms`` is an iterable of (tree, coefficient) pairs where trees are
    arbitrary bracketings (not necessarily Hall); the expression must be
    homogeneous of weight n over generators 1..k.
    """
    acc = {}
    for tree, coeff in terms:
        if coeff == 0:
            continue
        if tree_weight(tree) != n:
            raise LoopnilError(
                f"non-homogeneous input: {tree_str(tree)} has weight "
                f"{tree_weight(tree)}, expected {n}"
            )
        if max_generator(tree) > k:
            raise LoopnilError(f"generator out of range in {tree_str(tree)}")
        for t, c in normalize_tree(tree):
            acc[t] = acc.get(t, 0) + coeff * c
    return _element(k, n, acc)


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
    return intmat.dense_rows(lie_rows(f, n, src_k, tgt_k), witt_rank(src_k, n))


def lie_rows(f, n, src_k, tgt_k):
    """Lie_n(f) in Hall bases as ``{col: value}`` rows of nonzero entries,
    one row per weight-n Hall tree over tgt_k generators and one column per
    Hall tree over src_k, for the tgt_k x src_k integer matrix f.

    Each Hall tree's image is taken once, bottom-up: a generator goes to its
    column of f and a bracket ``(a, b)`` to the bracket of the images of a
    and b, memoized below weight n for the length of the call."""
    if len(f) != tgt_k or any(len(row) != src_k for row in f):
        raise LoopnilError(
            f"Lie_{n}(f) from Z^{src_k} to Z^{tgt_k} needs a {tgt_k}x{src_k} "
            "matrix f (rows are targets)"
        )
    images = {
        j: tuple((i + 1, row[j - 1]) for i, row in enumerate(f) if row[j - 1])
        for j in range(1, src_k + 1)
    }

    def image(tree):
        img = images.get(tree)
        if img is None:
            img = images[tree] = _bracket_combo(image(tree[0]), image(tree[1]))
        return img

    tgt_index = {t: i for i, t in enumerate(hall_basis(tgt_k, n))}
    rows = [{} for _ in tgt_index]
    for j, tree in enumerate(hall_basis(src_k, n)):
        img = images[tree] if n == 1 else _bracket_combo(image(tree[0]), image(tree[1]))
        for t, c in img:
            rows[tgt_index[t]][j] = c
    return rows


# ---------------------------------------------------------------------------
# cross-effect complex of Lie_n on a tuple of free abelian groups


def _collapse_matrix(ranks, drop):
    """Projection Z^(sum ranks) -> Z^(sum of ranks without block ``drop``)."""
    total = sum(ranks)
    keep = []
    offset = 0
    for s, r in enumerate(ranks):
        if s != drop:
            keep.extend(range(offset, offset + r))
        offset += r
    out = intmat.zeros(len(keep), total)
    for i, j in enumerate(keep):
        out[i][j] = 1
    return out


def cross_effect_kernel(n, ranks):
    """Invariants of ker(L0 -> L1) in the cross-effect complex of Lie_n.

    The common kernel of the n+1 collapse maps is the kernel of their
    stacked rows, whatever their signs; kernels of integer matrices are
    free, so the rank is all there is."""
    current_caps().check_class(n, f"cross-effect kernel of Lie_{n}")
    ranks = list(ranks)
    if len(ranks) != n + 1:
        raise LoopnilError(f"expected {n + 1} ranks, got {len(ranks)}")
    total = sum(ranks)
    rows = []
    for s, r in enumerate(ranks):
        rows += lie_rows(_collapse_matrix(ranks, s), n, total, total - r)
    return AbelianInvariants(witt_rank(total, n) - len(intmat.sparse_invariant_factors(rows)))
