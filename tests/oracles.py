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
# a second, independently written Smith normal form (leftmost pivot, no
# minimal-entry heuristic) plus invariants via determinant divisors


def snf_diagonal(mat):
    """Diagonal of the Smith form, computed with leftmost-nonzero pivoting."""
    a = [row[:] for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    diag = []
    t = 0
    while t < min(m, n):
        # find any nonzero entry, leftmost column first
        found = None
        for j in range(t, n):
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
        while True:
            reduced = True
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    for j in range(t, n):
                        a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        reduced = False
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for i in range(t, m):
                        a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        reduced = False
            if reduced:
                break
        diag.append(abs(a[t][t]))
        t += 1
    # repair divisibility by gcd/lcm pair fixes (valid on diagonal data)
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            x, y = diag[i], diag[i + 1]
            if x and y and y % x:
                g = gcd(x, y)
                diag[i], diag[i + 1] = g, x * y // g
                changed = True
            if x == 0 and y != 0:
                diag[i], diag[i + 1] = y, 0
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


def cokernel_by_snf(mat):
    m = len(mat)
    diag = snf_diagonal(mat)
    nonzero = [d for d in diag if d]
    return m - len(nonzero), [d for d in nonzero if d > 1]


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
                (r.base if not r.is_degenerate and r.base != "*" else None)
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
# (leftmost-pivot elimination and fraction solves instead of the package's
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
