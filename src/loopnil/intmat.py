"""Exact linear algebra over the integers.

Matrices are plain ``list[list[int]]`` with Python's arbitrary-precision
integers; a matrix with zero rows or columns is represented with explicit
shape arguments where needed.  Invariant factors take one route, and no
transform is kept anywhere on it: ``sparse_invariant_factors`` eliminates
unit pivots over ``{col: value}`` rows, then hands the residue without unit
entries to the dense core ``smith_normal_form``.  Dense pivots are chosen by
minimal absolute value because intermediate entry blowup is the known
failure mode of integer elimination.
"""

from math import gcd


def shape(a, ncols=None):
    m = len(a)
    if m:
        return m, len(a[0])
    if ncols is None:
        return 0, 0
    return 0, ncols


def zeros(m, n):
    return [[0] * n for _ in range(m)]


def transpose(a, ncols=None):
    m, n = shape(a, ncols)
    return [[a[i][j] for i in range(m)] for j in range(n)]


def _swap_cols(a, i, j):
    if i != j:
        for row in a:
            row[i], row[j] = row[j], row[i]


def smith_normal_form(a, ncols=None):
    """Nonzero invariant factors of ``a``, in divisibility order.

    Unimodular row and column operations diagonalize a copy of ``a``; no
    transform is kept and ``a`` is not modified.
    """
    m, n = shape(a, ncols)
    d = [row[:] for row in a]
    diag = []
    for t in range(min(m, n)):
        pivot = _find_pivot(d, t, m, n)
        if pivot is None:
            break
        pi, pj = pivot
        d[t], d[pi] = d[pi], d[t]
        _swap_cols(d, t, pj)
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
                            d[i] = [x - q * y for x, y in zip(d[i], d[t])]
                        if d[i][t]:
                            d[t], d[i] = d[i], d[t]
                            swapped = True
                if not swapped:
                    break
            # a column swap below refills column t, so these column
            # operations act on every row, and the column is cleared again
            row_swapped = False
            for j in range(t + 1, n):
                val = d[t][j]
                if val:
                    q = val // d[t][t]
                    if q:
                        for row in d:
                            if row[t]:
                                row[j] -= q * row[t]
                    if d[t][j]:
                        _swap_cols(d, t, j)
                        row_swapped = True
            if not row_swapped:
                break
        diag.append(abs(d[t][t]))
    # diag(x, y) and diag(gcd, lcm) are equivalent over the integers; after
    # the pass over j, diag[i] divides every later entry
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            x, y = diag[i], diag[j]
            if y % x:
                g = gcd(x, y)
                diag[i], diag[j] = g, x // g * y
    return diag


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
    unit entries goes to :func:`smith_normal_form`.
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
    return [1] * units + smith_normal_form(dense, ncols=len(cols))
