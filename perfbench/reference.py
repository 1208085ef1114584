"""Reference computations for the benchmark's correctness checks.

Nothing here imports ``loopnil``: each routine takes its own route to the
values the package computes, so a check compares two independent answers.

* unitriangular matrices: a free class-n group maps to the integer
  unitriangular (n+1)x(n+1) matrices, so a normal form and the word it came
  from must evaluate to the same matrix;
* Witt counts by the Moebius formula and Labute ranks from the Lucas sequence
  of 1 - kt + t^2;
* a diagonal-only Smith form (leftmost pivot, no transforms kept);
* reduced homology of a finite simplicial set from its nondegenerate chain
  complex;
* Moore homology of a simplicial abelian group, computed as the homology of
  the unnormalized complex (alternating face sums), which the normalization
  theorem identifies with the Moore complex homology.
"""

from math import gcd

# ---------------------------------------------------------------------------
# integer unitriangular matrices


def random_unitriangular(rng, size, bound=9):
    return [
        [1 if i == j else (rng.randint(-bound, bound) if j > i else 0) for j in range(size)]
        for i in range(size)
    ]


def mat_mul(a, b):
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(i, n):
            v = ai[t]
            if v:
                bt = b[t]
                for j in range(t, n):
                    if bt[j]:
                        oi[j] += v * bt[j]
    return out


def mat_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_inverse(a):
    """Inverse of a unitriangular matrix by back substitution."""
    n = len(a)
    out = mat_identity(n)
    for i in range(n - 2, -1, -1):
        ai = a[i]
        oi = out[i]
        for j in range(i + 1, n):
            oi[j] = -sum(ai[t] * out[t][j] for t in range(i + 1, j + 1))
    return out


def mat_power(a, e):
    if e < 0:
        a, e = mat_inverse(a), -e
    out = None
    while e:
        if e & 1:
            out = a if out is None else mat_mul(out, a)
        e >>= 1
        if e:
            a = mat_mul(a, a)
    return out if out is not None else mat_identity(len(a))


def mat_commutator(a, b):
    """a^-1 b^-1 a b, the convention of the normal forms under test."""
    return mat_mul(mat_mul(mat_inverse(a), mat_inverse(b)), mat_mul(a, b))


def eval_word(word, gens):
    """Value of a free word of (1-based generator, exponent) pairs."""
    out = mat_identity(len(gens[0]))
    for g, e in word:
        out = mat_mul(out, mat_power(gens[g - 1], e))
    return out


def parse_letter(text):
    """Hall letter written ``x3`` or ``[A,B]`` -> generator int or pair."""
    tree, pos = _parse_tree(text, 0)
    if pos != len(text):
        raise ValueError(f"trailing text in letter {text!r}")
    return tree


def _parse_tree(text, pos):
    if text[pos] == "x":
        end = pos + 1
        while end < len(text) and text[end].isdigit():
            end += 1
        return int(text[pos + 1 : end]), end
    if text[pos] != "[":
        raise ValueError(f"bad letter {text!r}")
    left, pos = _parse_tree(text, pos + 1)
    if text[pos] != ",":
        raise ValueError(f"bad letter {text!r}")
    right, pos = _parse_tree(text, pos + 1)
    if text[pos] != "]":
        raise ValueError(f"bad letter {text!r}")
    return (left, right), pos + 1


def eval_tree(tree, gens):
    if isinstance(tree, int):
        return gens[tree - 1]
    return mat_commutator(eval_tree(tree[0], gens), eval_tree(tree[1], gens))


# ---------------------------------------------------------------------------
# ranks of free Lie algebras and one-relator quotients


def mobius(d):
    out = 1
    p = 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            out = -out
        p += 1
    return -out if d > 1 else out


def _necklace_sum(power_sum, n):
    total = sum(mobius(n // d) * power_sum(d) for d in range(1, n + 1) if n % d == 0)
    if total % n:
        raise ArithmeticError("rank sum not divisible by n")
    return total // n


def witt_count(k, n):
    """Rank of the weight-n part of the free Lie ring on k generators."""
    return _necklace_sum(lambda d: k**d, n)


def lucas(k, d):
    """V_d of the Lucas sequence with V_0 = 2, V_1 = k, V_d = k V_{d-1} - V_{d-2}:
    the d-th power sum of the roots of z^2 - kz + 1."""
    prev, cur = 2, k
    if d == 0:
        return prev
    for _ in range(d - 1):
        prev, cur = cur, k * cur - prev
    return cur


def labute_rank(k, n):
    """Rank of the weight-n lower central quotient of a k-generator group with
    one relator whose leading form is a primitive product of commutators
    (Labute 1970): the Witt formula with k^d replaced by V_d."""
    return _necklace_sum(lambda d: lucas(k, d), n)


# ---------------------------------------------------------------------------
# Smith form and homology


def smith_diagonal(mat, ncols):
    """Nonzero invariant factors of an integer matrix, in divisibility order."""
    a = [row[:] for row in mat]
    m = len(a)
    n = ncols
    diag = []
    t = 0
    while t < min(m, n):
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
        if j0 != t:
            for row in a:
                row[t], row[j0] = row[j0], row[t]
        while True:
            clean = True
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    ri, rt = a[i], a[t]
                    for j in range(t, n):
                        if rt[j]:
                            ri[j] -= q * rt[j]
                    if ri[t]:
                        a[t], a[i] = a[i], a[t]
                        clean = False
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for i in range(t, m):
                        if a[i][t]:
                            a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        clean = False
            if clean:
                break
        diag.append(abs(a[t][t]))
        t += 1
    # diagonal entries need not divide one another yet: gcd/lcm pair fixes
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


def cokernel(mat, nrows, ncols):
    """(rank, torsion) of Z^nrows modulo the column lattice of ``mat``."""
    facs = smith_diagonal(mat, ncols)
    return nrows - len(facs), [f for f in facs if f > 1]


def complex_homology(dims, boundary, s):
    """(rank, torsion) of H_s of a chain complex of free modules.

    ``dims(q)`` is the rank of C_q and ``boundary(q)`` the dims(q-1) x dims(q)
    matrix of the differential out of degree q."""
    n_s = dims(s)
    if n_s == 0:
        return 0, []
    rank_out = len(smith_diagonal(boundary(s), n_s)) if s >= 1 and dims(s - 1) else 0
    n_hi = dims(s + 1)
    facs = smith_diagonal(boundary(s + 1), n_hi) if n_hi else []
    return n_s - rank_out - len(facs), [f for f in facs if f > 1]


def chain_homology(space_json, s):
    """Reduced homology H~_s of a reduced simplicial set given as loopnil
    space JSON, from its nondegenerate chain complex: degenerate faces and the
    basepoint contribute zero."""
    levels = space_json["simplices"]
    cells = [[] if q == 0 else [c["id"] for c in level] for q, level in enumerate(levels)]
    faces = {
        c["id"]: [None if f["degeneracies"] else f["base"] for f in c["faces"]]
        for level in levels[1:]
        for c in level
    }

    def dims(q):
        return len(cells[q]) if 0 <= q < len(cells) else 0

    def boundary(q):
        rows = {cid: i for i, cid in enumerate(cells[q - 1])}
        mat = [[0] * dims(q) for _ in range(dims(q - 1))]
        for j, cid in enumerate(cells[q]):
            for i, f in enumerate(faces[cid]):
                if f is not None and f in rows:
                    mat[rows[f]][j] += (-1) ** i
        return mat

    return complex_homology(dims, boundary, s)


def moore_homology(rank, face, s):
    """(rank, torsion) of pi_s of a simplicial abelian group given by
    ``rank(q)`` and face matrices ``face(q, i)`` (rows index degree q-1).

    Uses the unnormalized complex with differential sum (-1)^i d_i; its
    homology equals that of the Moore complex."""

    def boundary(q):
        rows, cols = rank(q - 1), rank(q)
        out = [[0] * cols for _ in range(rows)]
        for i in range(q + 1):
            sign = -1 if i % 2 else 1
            for r, row in enumerate(face(q, i)):
                acc = out[r]
                for c, v in enumerate(row):
                    if v:
                        acc[c] += sign * v
        return out

    return complex_homology(lambda q: rank(q) if q >= 0 else 0, boundary, s)


def exponent_sum_matrix(k, relators):
    """Columns: exponent sums of each relator over generators 1..k."""
    mat = [[0] * len(relators) for _ in range(k)]
    for j, word in enumerate(relators):
        for g, e in word:
            mat[g - 1][j] += e
    return mat
