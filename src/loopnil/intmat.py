"""Exact linear algebra over the integers.

The package's matrices are ``{col: value}`` rows of nonzero entries over
Python's arbitrary-precision integers.  Dense ``list[list[int]]`` matrices
appear only in the Smith residue and in :func:`dense_rows`, the converter
behind the package's two dense views.  Invariant factors take one route,
and no transform is kept anywhere on it: ``sparse_invariant_factors``
eliminates unit pivots over ``{col: value}`` rows, then hands the residue
without unit entries to the dense core ``smith_normal_form``.  The dense core always
pivots on an entry of least absolute value.  Every remainder it leaves is
smaller still, so each pass either splits off a factor or shrinks the
pivot, and the multipliers stay small: coefficient growth is the known
failure mode of integer elimination (Kannan and Bachem, SIAM J. Comput. 8,
1979; Havas, Holt and Rees, Linear Algebra Appl. 192, 1993).
"""

from math import gcd


def smith_normal_form(a):
    """Nonzero invariant factors of ``a``, in divisibility order.

    Works on a copy, so ``a`` is not modified.  A nonzero entry p of least
    absolute value, ties by row and then column, reduces its column by row
    operations and its row by column operations to remainders mod p.  When
    both are clear, |p| splits off with its row and column; otherwise a
    remainder, smaller than |p|, is the next pivot.
    """
    d = [row[:] for row in a]
    diag = []
    while any(map(any, d)):
        _, pi, pj = min((abs(x), i, j) for i, row in enumerate(d) for j, x in enumerate(row) if x)
        prow = d[pi]
        p = prow[pj]
        for i, row in enumerate(d):
            q = row[pj] // p
            if q and i != pi:
                d[i] = [x - q * y for x, y in zip(row, prow)]
        qs = [x // p for x in prow]
        qs[pj] = 0
        if any(qs):
            for i, row in enumerate(d):
                c = row[pj]
                if c:
                    d[i] = [x - c * q for x, q in zip(row, qs)]
        if sum(map(bool, d[pi])) == 1 and sum(1 for row in d if row[pj]) == 1:
            diag.append(abs(p))
            del d[pi]
            for row in d:
                del row[pj]
    # diag(x, y) and diag(gcd, lcm) are equivalent over the integers; after
    # the pass over j, diag[i] divides every later entry
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            x, y = diag[i], diag[j]
            if y % x:
                g = gcd(x, y)
                diag[i], diag[j] = g, x // g * y
    return diag


def dense_rows(rows, ncols):
    """The matrix with ``ncols`` columns whose rows are the ``{col: value}``
    dicts ``rows``."""
    out = [[0] * ncols for _ in rows]
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
    return [1] * units + smith_normal_form(dense)
