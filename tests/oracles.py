"""Independent oracles used to derive and cross-check expected test values.

Nothing in here is imported by the main package; each routine deliberately
takes a different algorithmic route than the code it checks.
"""

import itertools
from fractions import Fraction
from math import gcd


# ---------------------------------------------------------------------------
# free group words


def reduce_word(word):
    """Freely reduce a word given as (generator, exponent) pairs."""
    out = []
    for g, e in word:
        if e == 0:
            continue
        if out and out[-1][0] == g:
            merged = out[-1][1] + e
            out.pop()
            if merged:
                out.append((g, merged))
        else:
            out.append((g, e))
    return out


def invert_word(word):
    return [(g, -e) for g, e in reversed(word)]


def words_equal(w1, w2):
    return reduce_word(list(w1)) == reduce_word(list(w2))


def _apply_word(word_of, word):
    """Image of a free word under the endomorphism sending generator g to
    the word ``word_of(g)``, freely reduced."""
    out = []
    for g, e in word:
        img = word_of(g) if e > 0 else invert_word(word_of(g))
        out.extend(list(img) * abs(e))
    return reduce_word(out)


def loop_group_identity_violations(group, max_degree):
    """``(degree, generator, identity)`` for every simplicial-group identity
    that the face and degeneracy words of a loop group break on a generator
    of degree at most ``max_degree``: d_i d_j = d_{j-1} d_i (i < j),
    s_i s_j = s_{j+1} s_i (i <= j), d_i s_j = s_{j-1} d_i (i < j),
    d_j s_j = d_{j+1} s_j = id and d_i s_j = s_j d_{i-1} (i > j + 1)."""

    def face(q, i):
        return group.map_words(q, i, "face")[1].__getitem__

    def degen(q, i):
        return group.map_words(q, i, "degeneracy")[1].__getitem__

    bad = []
    for q in range(max_degree + 1):
        for g in range(group.gen_count(q)):
            for j in range(q + 1):
                # faces out of degree q - 1 exist from q = 2 on
                for i in range(j if q >= 2 else 0):
                    lhs = _apply_word(face(q - 1, i), face(q, j)(g))
                    rhs = _apply_word(face(q - 1, j - 1), face(q, i)(g))
                    if lhs != rhs:
                        bad.append((q, g, f"d{i} d{j}"))
                for i in range(j + 1):
                    lhs = _apply_word(degen(q + 1, j + 1), degen(q, i)(g))
                    rhs = _apply_word(degen(q + 1, i), degen(q, j)(g))
                    if lhs != rhs:
                        bad.append((q, g, f"s{i} s{j}"))
                for i in range(q + 2):
                    lhs = _apply_word(face(q + 1, i), degen(q, j)(g))
                    if i in (j, j + 1):
                        rhs = [(g, 1)]
                    elif q == 0:  # no face out of degree 0
                        continue
                    elif i < j:
                        rhs = _apply_word(degen(q - 1, j - 1), face(q, i)(g))
                    else:
                        rhs = _apply_word(degen(q - 1, j), face(q, i - 1)(g))
                    if lhs != rhs:
                        bad.append((q, g, f"d{i} s{j}"))
    return bad


def abelianized_matrix(group, q, i, kind):
    """Dense integer matrix of d_i (kind 'face') or s_i (kind 'degeneracy')
    on the degreewise abelianization of a loop group, rows indexing the
    target: each generator's word summed into its column."""
    target, words = group.map_words(q, i, kind)
    out = [[0] * len(words) for _ in range(group.gen_count(target))]
    for j, word in enumerate(words):
        for g, e in word:
            out[g][j] += e
    return out


# ---------------------------------------------------------------------------
# Witt ranks by brute-force necklace counting (no Moebius function)


def witt_by_necklaces(k, n):
    """Number of aperiodic length-n necklaces over k letters, divided by n."""
    if n == 1:
        return k
    aperiodic = 0
    for s in itertools.product(range(k), repeat=n):
        period = n
        for p in range(1, n):
            if n % p == 0 and s == s[p:] + s[:p]:
                period = p
                break
        if period == n:
            aperiodic += 1
    assert aperiodic % n == 0
    return aperiodic // n


# ---------------------------------------------------------------------------
# exhaustive Hall-tree enumeration (filters all bracketings)


def _all_trees(k, n):
    if n == 1:
        for i in range(1, k + 1):
            yield i
        return
    for w in range(1, n):
        for left in _all_trees(k, w):
            for right in _all_trees(k, n - w):
                yield (left, right)


def _weight(t):
    return 1 if isinstance(t, int) else _weight(t[0]) + _weight(t[1])


def _key(t):
    if isinstance(t, int):
        return (1, 0, t)
    return (_weight(t), 1, _key(t[0]), _key(t[1]))


def _is_hall(t):
    if isinstance(t, int):
        return True
    left, right = t
    if not (_is_hall(left) and _is_hall(right)):
        return False
    if not _key(left) > _key(right):
        return False
    if not isinstance(left, int) and _key(left[1]) > _key(right):
        return False
    return True


def hall_trees_exhaustive(k, n):
    return sorted((t for t in _all_trees(k, n) if _is_hall(t)), key=_key)


# ---------------------------------------------------------------------------
# a second, independently written Smith normal form (alternating Hermite
# reductions by extended gcd, no pivot search) plus invariants via
# determinant divisors


def _xgcd(a, b):
    """(g, s, t) with g = s a + t b = gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def _hermite_rows(a, ncols):
    """Row echelon form of ``a`` in place: the pivot row clears each row
    below it by subtraction when its entry divides the row's, else by a
    unimodular 2 x 2 extended-gcd combination of the two rows; the entries
    above each pivot are reduced modulo it, which keeps them small."""
    r = 0
    for c in range(ncols):
        if r == len(a):
            break
        for i in range(r + 1, len(a)):
            x, y = a[r][c], a[i][c]
            if x and not y % x:
                f = y // x
                a[i] = [q - f * p for p, q in zip(a[r], a[i])]
            elif y:
                g, s, t = _xgcd(x, y)
                u, v = x // g, y // g
                top, row = a[r], a[i]
                a[r] = [s * p + t * q for p, q in zip(top, row)]
                a[i] = [u * q - v * p for p, q in zip(top, row)]
        if a[r][c]:
            if a[r][c] < 0:
                a[r] = [-p for p in a[r]]
            for i in range(r):
                f = a[i][c] // a[r][c]
                if f:
                    a[i] = [p - f * q for p, q in zip(a[i], a[r])]
            r += 1


def snf_diagonal(mat):
    """Invariant factors (the nonzero Smith diagonal, in divisibility order):
    row and column Hermite reductions alternate until each row and each
    column holds at most one nonzero entry.  Each pass keeps the first
    pivot's absolute value or lowers it to a gcd, and it stays only when the
    pivot divides its row and column, so the alternation ends.  Adjacent
    gcd/lcm pair fixes (valid on diagonal data) then sort the entries into a
    divisibility chain."""
    a = [list(row) for row in mat]
    ncols = len(a[0]) if a else 0
    while True:
        _hermite_rows(a, ncols)
        a = [list(col) for col in zip(*a)] if a else []
        ncols = len(a[0]) if a else 0
        if all(sum(1 for x in row if x) <= 1 for row in a) and all(
            sum(1 for row in a if row[j]) <= 1 for j in range(ncols)
        ):
            break
    diag = [abs(x) for row in a for x in row if x]
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            x, y = diag[i], diag[i + 1]
            if y % x:
                g = gcd(x, y)
                diag[i], diag[i + 1] = g, x * y // g
                changed = True
    return diag


def invariants_by_minors(mat):
    """(rank, torsion) via determinantal divisors; only for tiny matrices."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    r = min(m, n)
    divisors = [1]
    rank = 0
    for k in range(1, r + 1):
        g = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                g = gcd(g, _det([[mat[i][j] for j in cols] for i in rows]))
        if g == 0:
            break
        divisors.append(g)
        rank = k
    factors = [divisors[i + 1] // divisors[i] for i in range(rank)]
    free = m - rank
    torsion = [f for f in factors if f > 1]
    return free, torsion


def _det(mat):
    n = len(mat)
    if n == 0:
        return 1
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        if mat[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
            total += (-1) ** j * mat[0][j] * _det(minor)
    return total


def det_by_fractions(mat):
    """Determinant of a square matrix by elimination over the rationals."""
    a = [[Fraction(v) for v in row] for row in mat]
    det = Fraction(1)
    for t in range(len(a)):
        piv = next((i for i in range(t, len(a)) if a[i][t]), None)
        if piv is None:
            return 0
        if piv != t:
            a[t], a[piv] = a[piv], a[t]
            det = -det
        det *= a[t][t]
        for i in range(t + 1, len(a)):
            f = a[i][t] / a[t][t]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[t])]
    return int(det)


def cokernel_by_snf(mat):
    m = len(mat)
    diag = snf_diagonal(mat)
    nonzero = [d for d in diag if d]
    return m - len(nonzero), [d for d in nonzero if d > 1]


def shape(a, ncols=None):
    """(rows, columns) of a dense matrix; one without rows has ``ncols``."""
    return len(a), len(a[0]) if a else (ncols or 0)


def transpose(a, ncols=None):
    """Transpose of a dense matrix; one without rows has ``ncols`` columns."""
    m, n = shape(a, ncols)
    return [[a[i][j] for i in range(m)] for j in range(n)]


def word_columns(mat):
    """The columns of a dense matrix (rows index the target) as words of
    nonzero (0-based target, coefficient) pairs, the format of
    ``LoopGroup.map_words``."""
    return [tuple((i, row[j]) for i, row in enumerate(mat) if row[j]) for j in range(len(mat[0]))]


def nonzero_rows_below(rows, ncols):
    """Whether every ``{col: value}`` row holds only nonzero entries, in
    columns 0..ncols - 1."""
    return all(x and 0 <= j < ncols for row in rows for j, x in row.items())


def matmul(a, b, cols):
    """a @ b for dense integer matrices, b having ``cols`` columns."""
    return [[sum(x * row[j] for x, row in zip(r, b)) for j in range(cols)] for r in a]


def kernel_rank_by_fractions(mat, ncols=None):
    """Rank of the rational kernel (equals the integer kernel rank)."""
    m = len(mat)
    n = len(mat[0]) if m else (ncols or 0)
    a = [[Fraction(v) for v in row] for row in mat]
    rank = 0
    row = 0
    for col in range(n):
        piv = None
        for i in range(row, m):
            if a[i][col]:
                piv = i
                break
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = 1 / a[row][col]
        a[row] = [v * inv for v in a[row]]
        for i in range(m):
            if i != row and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[row])]
        row += 1
        rank += 1
        if row == m:
            break
    return n - rank


# ---------------------------------------------------------------------------
# homology of a finite simplicial set via its nondegenerate chain complex
# (degenerate faces contribute zero); independent of the Moore-complex path


def chain_homology(cells, faces, s):
    """Reduced homology H~_s from nondegenerate cells.

    ``cells[q]`` lists cell ids of dimension q (the basepoint already
    removed); ``faces[cid]`` gives, per face index, a cell id of one
    dimension lower, or None when the face is degenerate or the basepoint.
    """

    def count(q):
        return len(cells[q]) if 0 <= q < len(cells) else 0

    def boundary(q):
        # count(q-1) x count(q) matrix of alternating face sums
        rows = cells[q - 1] if 0 < q <= len(cells) else []
        cols = cells[q] if 0 <= q < len(cells) else []
        index = {c: i for i, c in enumerate(rows)}
        mat = [[0] * len(cols) for _ in rows]
        for j, cid in enumerate(cols):
            for i, f in enumerate(faces[cid]):
                if f is not None:
                    mat[index[f]][j] += (-1) ** i
        return mat

    n_s = count(s)
    if n_s == 0:
        return 0, []
    d_out = boundary(s)
    d_in = boundary(s + 1)
    kb = _integer_kernel(d_out, n_s)
    p = len(kb[0]) if kb else 0
    assert p == kernel_rank_by_fractions(d_out, n_s)
    coords = _solve_in_basis(kb, d_in, n_s, p, count(s + 1))
    return cokernel_by_snf_from_coords(coords, p)


def space_homology(space, s):
    """Reduced homology H~_s of a loopnil space as (rank, torsion), by
    :func:`chain_homology` on its nondegenerate cells: the basepoint and
    every degenerate face drop out."""
    cells = [space.n_cells(q) for q in range(max(space.top_dim, s + 1) + 1)]
    faces = {}
    for q in range(1, len(cells)):
        for cid in cells[q]:
            faces[cid] = [
                (r.base if not r.degeneracies and r.base != "*" else None)
                for r in space.faces[cid]
            ]
    cells[0] = []
    return chain_homology(cells, faces, s)


def _integer_kernel(mat, ncols):
    a = [row[:] for row in mat]
    m = len(a)
    v = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    t = 0
    r = min(m, ncols)
    while t < r:
        found = None
        for j in range(t, ncols):
            for i in range(t, m):
                if a[i][j]:
                    found = (i, j)
                    break
            if found:
                break
        if not found:
            break
        i0, j0 = found
        a[t], a[i0] = a[i0], a[t]
        for row in a:
            row[t], row[j0] = row[j0], row[t]
        for row in v:
            row[t], row[j0] = row[j0], row[t]
        while True:
            clean = True
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    for j in range(t, ncols):
                        a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        clean = False
            # the nonzero entries of column t, in a and in v; a column
            # operation adds a multiple of them only
            a_t = [(row, row[t]) for row in a if row[t]]
            v_t = [(row, row[t]) for row in v if row[t]]
            for j in range(t + 1, ncols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for row, x in a_t:
                        row[j] -= q * x
                    for row, x in v_t:
                        row[j] -= q * x
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        for row in v:
                            row[t], row[j] = row[j], row[t]
                        a_t = [(row, row[t]) for row in a if row[t]]
                        v_t = [(row, row[t]) for row in v if row[t]]
                        clean = False
            if clean:
                break
        t += 1
    zero_cols = [j for j in range(ncols) if all(a[i][j] == 0 for i in range(m))]
    return [[v[i][j] for j in zero_cols] for i in range(ncols)]


def _solve_in_basis(basis, target, ambient, p, cols):
    """Rational solve of basis @ x = target, verified integral; all columns
    of target ride along one elimination of basis."""
    if p == 0:
        for row in target:
            assert all(val == 0 for val in row)
        return []
    a = [[Fraction(basis[i][j]) for j in range(p)] for i in range(ambient)]
    b = [[Fraction(target[i][c]) for c in range(cols)] for i in range(ambient)]
    sol = _solve_fraction(a, b)
    for row in sol:
        assert all(x.denominator == 1 for x in row)
    return [[int(x) for x in row] for row in sol]


def _solve_fraction(a, b):
    """Solution rows x of a @ x = b for a consistent rational system, the
    right-hand sides being the columns of b; free unknowns are 0."""
    m = len(a)
    n = len(a[0]) if m else 0
    aug = [a[i][:] + b[i][:] for i in range(m)]
    piv_cols = []
    row = 0
    for col in range(n):
        piv = None
        for i in range(row, m):
            if aug[i][col]:
                piv = i
                break
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [v * inv for v in aug[row]]
        for i in range(m):
            if i != row and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[row])]
        piv_cols.append(col)
        row += 1
    for i in range(row, m):
        assert not any(aug[i][n:]), "inconsistent system"
    width = len(aug[0]) - n if m else 0
    sol = [[Fraction(0)] * width for _ in range(n)]
    for r, c in enumerate(piv_cols):
        sol[c] = aug[r][n:]
    return sol


def cokernel_by_snf_from_coords(coords, ambient):
    if not coords or not coords[0]:
        return ambient, []
    diag = snf_diagonal(coords)
    nonzero = [d for d in diag if d]
    return ambient - len(nonzero), [d for d in nonzero if d > 1]


# ---------------------------------------------------------------------------
# independent Moore-complex homology: same matrices, different linear algebra
# (Hermite reductions and fraction solves instead of the package's
# minimal-pivot Smith machinery)


def moore_homology_oracle(rank_fn, face_fn, s):
    """(rank, torsion) of Moore homology at degree s, for a simplicial
    abelian group given by callbacks ``rank_fn(q)`` and ``face_fn(q, i)``."""

    def moore_basis(q):
        n = rank_fn(q) if q >= 0 else 0
        if q <= 0 or n == 0:
            return [[1 if i == j else 0 for j in range(n)] for i in range(n)], n
        stacked = []
        for i in range(1, q + 1):
            stacked.extend(face_fn(q, i))
        if not stacked:
            return [[1 if i == j else 0 for j in range(n)] for i in range(n)], n
        kb = _integer_kernel(stacked, n)
        return kb, (len(kb[0]) if kb else 0)

    k_s, n_s = moore_basis(s)
    if n_s == 0:
        return 0, []
    k_lo, n_lo = moore_basis(s - 1)
    k_hi, n_hi = moore_basis(s + 1)

    def coords(k_from, n_from, k_to, n_to, q):
        if n_from == 0:
            return [[] for _ in range(n_to)]
        rows_to = rank_fn(q - 1)
        img_rows = len(face_fn(q, 0))
        face = face_fn(q, 0)
        img = []
        for i in range(img_rows):
            terms = [(t, x) for t, x in enumerate(face[i][: rank_fn(q)]) if x]
            img.append([sum(x * k_from[t][j] for t, x in terms) for j in range(n_from)])
        return _solve_in_basis(k_to, img, rows_to, n_to, n_from)

    if s == 0:
        cycles = [[1 if i == j else 0 for j in range(n_s)] for i in range(n_s)]
        n_cyc = n_s
    else:
        c_s = coords(k_s, n_s, k_lo, n_lo, s)
        cycles = _integer_kernel(c_s if c_s else [[0] * n_s], n_s)
        n_cyc = len(cycles[0]) if cycles else 0
    if n_cyc == 0:
        return 0, []
    c_hi = coords(k_hi, n_hi, k_s, n_s, s + 1)
    inside = _solve_in_basis(cycles, c_hi, n_s, n_cyc, n_hi)
    return cokernel_by_snf_from_coords(inside, n_cyc)


# ---------------------------------------------------------------------------
# truncated-ring image of a normal form


def vector_to_poly(sys, vec):
    """The ordered product of the letter powers that a normal-form exponent
    vector names, in the truncated ring of the collection engine ``sys``:
    the inverse of its ``extract``."""
    ring = sys.ring
    out = dict(ring.one)
    for i, e in enumerate(vec):
        if e:
            out = ring.mul(out, ring.power(sys.letter_poly(i), e))
    return out


# ---------------------------------------------------------------------------
# strictly upper triangular matrix representation for free Lie checks


def random_strict_upper(rng, size, bound=4):
    mat = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            mat[i][j] = rng.randint(-bound, bound)
    return mat


def mat_bracket(a, b):
    n = len(a)
    ab = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    ba = [[sum(b[i][k] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[ab[i][j] - ba[i][j] for j in range(n)] for i in range(n)]


def eval_tree_matrix(tree, assignment):
    if isinstance(tree, int):
        return assignment[tree - 1]
    return mat_bracket(
        eval_tree_matrix(tree[0], assignment), eval_tree_matrix(tree[1], assignment)
    )
