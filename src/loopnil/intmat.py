"""Exact linear algebra over the integers.

Matrices are plain ``list[list[int]]`` with Python's arbitrary-precision
integers; a matrix with zero rows or columns is represented with explicit
shape arguments where needed.  Dense pivots are chosen by minimal absolute
value because intermediate entry blowup is the known failure mode of integer
elimination.  ``sparse_invariant_factors`` is the one route to invariant
factors: a sparse elimination of unit pivots over ``{col: value}`` rows
that keeps no transform.  The dense Smith form with its transforms,
``smith_normal_form``, is kept for the tests and for the benchmark tracer,
which wraps it by name; no module of the package calls it.
"""

from .errors import InternalInvariantError


def shape(a, ncols=None):
    m = len(a)
    if m:
        return m, len(a[0])
    if ncols is None:
        return 0, 0
    return 0, ncols


def zeros(m, n):
    return [[0] * n for _ in range(m)]


def identity(n):
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = 1
    return out


def copy_matrix(a):
    return [row[:] for row in a]


def transpose(a, ncols=None):
    m, n = shape(a, ncols)
    return [[a[i][j] for i in range(m)] for j in range(n)]


def _swap_rows(mats, i, j):
    if i != j:
        for a in mats:
            a[i], a[j] = a[j], a[i]


def _swap_cols(mats, i, j):
    if i != j:
        for a in mats:
            for row in a:
                row[i], row[j] = row[j], row[i]


def _add_row(mats, dst, src, factor):
    for a in mats:
        a[dst] = [x + factor * y for x, y in zip(a[dst], a[src])]


def _add_col(mats, dst, src, factor):
    for a in mats:
        for row in a:
            if row[src]:
                row[dst] += factor * row[src]


def _negate_row(mats, i):
    for a in mats:
        a[i] = [-x for x in a[i]]


def smith_normal_form(a, ncols=None):
    """Diagonalize ``a`` by unimodular row/column operations.

    Returns ``(d, u, v)`` with ``u @ a @ v == d``, ``d`` diagonal with
    nonnegative entries in a divisibility chain and zeros last.
    """
    m, n = shape(a, ncols)
    d = copy_matrix(a)
    u = identity(m)
    v = identity(n)
    _diagonalize(d, m, n, u, v)
    return d, u, v


def _diagonalize(d, m, n, u=None, v=None):
    """Bring the m x n matrix ``d`` to Smith form in place.  Row operations
    are repeated on ``u`` and column operations on ``v`` only when given, so
    a transform costs nothing unless its caller reads it."""
    rows = (d,) if u is None else (d, u)
    cols = (d,) if v is None else (d, v)
    r = min(m, n)
    t = 0
    while t < r:
        pivot = _find_pivot(d, t, m, n)
        if pivot is None:
            break
        pi, pj = pivot
        _swap_rows(rows, t, pi)
        _swap_cols(cols, t, pj)
        while True:
            # clear column t completely first: row operations against a
            # dirty column let entries in the rest of the matrix mix and
            # blow up, so remainders are swapped into the pivot (strictly
            # shrinking it) and the scan restarts until the column is clean
            while True:
                swapped = False
                for i in range(t + 1, m):
                    val = d[i][t]
                    if val:
                        q = val // d[t][t]
                        if q:
                            _add_row(rows, i, t, -q)
                        if d[i][t]:
                            _swap_rows(rows, t, i)
                            swapped = True
                if not swapped:
                    break
            # with the column clear these column operations touch row t only
            row_swapped = False
            for j in range(t + 1, n):
                val = d[t][j]
                if val:
                    q = val // d[t][t]
                    if q:
                        _add_col(cols, j, t, -q)
                    if d[t][j]:
                        _swap_cols(cols, t, j)
                        row_swapped = True
            if not row_swapped:
                break
        t += 1
    _normalize_diagonal(d, rows, cols, r)


def _find_pivot(d, t, m, n):
    best = None
    where = None
    for i in range(t, m):
        row = d[i]
        for j in range(t, n):
            val = row[j]
            if val:
                a = abs(val)
                if best is None or a < best:
                    best = a
                    where = (i, j)
                    if a == 1:
                        return where
    return where


def _normalize_diagonal(d, rows, cols, r):
    for i in range(r):
        if d[i][i] < 0:
            _negate_row(rows, i)
    # zeros are already last: a pivot step never touches earlier diagonal
    # entries; repair divisibility pairwise
    while True:
        fixed = True
        for i in range(r - 1):
            a, b = d[i][i], d[i + 1][i + 1]
            if a and b and b % a:
                _pair_reduce(d, rows, cols, i, i + 1)
                fixed = False
        if fixed:
            break


def _pair_reduce(d, rows, cols, i, j):
    # turn diag(a, b) with a not dividing b into diag(gcd, +-lcm)
    _add_row(rows, i, j, 1)
    # row i is now (a, b) on columns (i, j); euclid on those two columns
    while d[i][j]:
        q = d[i][i] // d[i][j]
        _add_col(cols, i, j, -q)
        _swap_cols(cols, i, j)
    if d[j][i]:
        q = d[j][i] // d[i][i]
        _add_row(rows, j, i, -q)
        if d[j][i]:
            raise InternalInvariantError("pair reduction failed to clear row")
    if d[i][i] < 0:
        _negate_row(rows, i)
    if d[j][j] < 0:
        _negate_row(rows, j)


def diagonal(d, m=None, n=None):
    if m is None:
        m, n = shape(d)
    r = min(m, n)
    return [d[i][i] for i in range(r)]


def dense_rows(rows, ncols):
    """The matrix with ``ncols`` columns whose rows are the ``{col: value}``
    dicts ``rows``."""
    out = zeros(len(rows), ncols)
    for dense, row in zip(out, rows):
        for j, x in row.items():
            dense[j] = x
    return out


def sparse_invariant_factors(rows):
    """Nonzero invariant factors, in divisibility order, of the integer
    matrix whose rows are given as ``{col: value}`` dicts of nonzero
    entries; no transform is kept and the input is not modified.

    Unit pivots go first, row and column together (Dumas, Saunders and
    Villard, J. Symbolic Comput. 32, 2001): a +-1 entry in a column with the
    fewest entries, on the shortest such row, clears its column by row
    operations, and its row and column then split off a factor 1.  Columns
    wait in buckets by their exact entry count; one without a unit entry
    leaves the buckets until an entry of it changes.  The residue without
    unit entries is diagonalized densely.
    """
    rows = [dict(row) for row in rows if row]
    col_rows = {}
    for r, row in enumerate(rows):
        for c in row:
            col_rows.setdefault(c, set()).add(r)
    # column -> its count, the key of its bucket; None while it waits outside
    bucket_of = {c: len(rs) for c, rs in col_rows.items()}
    buckets = {}
    for c, count in bucket_of.items():
        buckets.setdefault(count, set()).add(c)
    low, top = 1, max(buckets, default=0)
    units = 0
    while low <= top:
        bucket = buckets.get(low)
        if not bucket:
            low += 1
            continue
        c = bucket.pop()
        rs = col_rows[c]
        best = None
        for r in rs:
            if rows[r][c] in (1, -1) and (best is None or len(rows[r]) < len(rows[best])):
                best = r
        if best is None:
            bucket_of[c] = None
            continue
        prow = rows[best]
        rows[best] = {}
        unit = prow[c]
        for r in rs:
            if r == best:
                continue
            row = rows[r]
            f = row[c] * unit
            for j, x in prow.items():
                y = row.get(j, 0) - f * x
                if y:
                    if j not in row:
                        col_rows[j].add(r)
                    row[j] = y
                else:
                    del row[j]
                    if j != c:
                        col_rows[j].discard(r)
        del col_rows[c], bucket_of[c]
        units += 1
        for j in prow:
            if j != c:
                rs = col_rows[j]
                rs.discard(best)
                old = bucket_of[j]
                if old is not None:
                    buckets[old].discard(j)
                count = bucket_of[j] = len(rs)
                if count:
                    buckets.setdefault(count, set()).add(j)
                    if count < low:
                        low = count
                    elif count > top:
                        top = count
    residue = [row for row in rows if row]
    cols = sorted({j for row in residue for j in row})
    dense = [[row.get(j, 0) for j in cols] for row in residue]
    m, n = len(dense), len(cols)
    _diagonalize(dense, m, n)
    return [1] * units + [x for x in diagonal(dense, m, n) if x]
