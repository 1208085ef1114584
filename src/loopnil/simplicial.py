"""Finite reduced simplicial sets with canonical degenerate-simplex encoding.

A q-simplex is a :class:`SimplexRef`: a strictly decreasing degeneracy word
applied to a nondegenerate base cell.  Faces and degeneracies of arbitrary
refs are computed by pushing the operator through the word with the
simplicial identities, so only the faces of nondegenerate cells are stored.

Each rule on a space has one owner: :meth:`SimplicialSet.from_json` checks
JSON shapes and value types; construction the rules about one cell (unique
ids, the basepoint alone in dimension 0, q + 1 faces, decreasing words); and
:meth:`SimplicialSet.violations` how the cells fit together (face targets and
dimensions, the range of each s_j, the simplicial identities).
"""

import itertools
from dataclasses import dataclass

from .caps import quoted
from .errors import IdentityViolation, InternalInvariantError, LoopnilError, SchemaViolation

BASEPOINT = "*"


@dataclass(frozen=True, slots=True)
class SimplexRef:
    """Canonical (Eilenberg-Zilber) form s_{i1} ... s_{ip} applied to a
    nondegenerate cell; the word is strictly decreasing."""

    degeneracies: tuple
    base: str

    def __str__(self):
        if not self.degeneracies:
            return self.base
        ops = " ".join(f"s{j}" for j in self.degeneracies)
        return f"{ops} {self.base}"

    @property
    def is_s0_degenerate(self):
        # the word is strictly decreasing, so s0 occurs iff the last entry is 0
        return bool(self.degeneracies) and self.degeneracies[-1] == 0

    def to_json(self):
        return {"degeneracies": list(self.degeneracies), "base": self.base}


def nondegenerate(cell_id):
    return SimplexRef((), cell_id)


def basepoint_ref(q):
    """The unique degeneracy of the basepoint in dimension q."""
    return SimplexRef(tuple(range(q - 1, -1, -1)), BASEPOINT)


def degenerate_ref(ref, j):
    """Apply s_j to a canonical ref, keeping the word strictly decreasing."""
    word = ref.degeneracies
    out = []
    pos = 0
    while pos < len(word) and word[pos] >= j:
        out.append(word[pos] + 1)
        pos += 1
    out.append(j)
    out.extend(word[pos:])
    return SimplexRef(tuple(out), ref.base)


def decreasing_words(q, p):
    """All strictly decreasing p-tuples with entries in 0..q-1, in a fixed
    deterministic order."""
    for combo in itertools.combinations(range(q), p):
        yield tuple(reversed(combo))


class SimplicialSet:
    """Finite reduced simplicial set.

    ``cells[q]`` lists nondegenerate q-cell ids (dimension 0 holds only the
    basepoint); ``faces[cid]`` holds the q+1 face refs of each cell of
    dimension q >= 1, and nothing or an empty entry for the vertex.

    Construction raises :class:`~loopnil.errors.SchemaViolation` on the
    first broken rule about one cell, ids checked across all dimensions
    first; :meth:`from_json` owns JSON shapes, :meth:`violations` the rules
    on how cells fit together.
    """

    def __init__(self, name, cells, faces):
        self.name = name
        self.cells = [list(c) for c in cells]
        self.faces = {cid: tuple(f) for cid, f in faces.items()}
        self.dim_of = {}
        for q, ids in enumerate(self.cells):
            for cid in ids:
                if cid in self.dim_of:
                    raise SchemaViolation(
                        f"duplicate simplex id {quoted(cid)}", {"id": _short_id(cid)}
                    )
                self.dim_of[cid] = q
        if self.cells[:1] != [[BASEPOINT]]:
            raise SchemaViolation(f'dimension 0 must hold exactly the vertex "{BASEPOINT}"')
        if self.faces.get(BASEPOINT):
            raise SchemaViolation("vertices have no faces", {"id": BASEPOINT})
        for q, ids in enumerate(self.cells[1:], 1):
            for cid in ids:
                refs = self.faces.get(cid, ())
                if len(refs) != q + 1:
                    raise SchemaViolation(
                        f"simplex {quoted(cid)} needs {q + 1} faces, got {len(refs)}",
                        {"id": _short_id(cid)},
                    )
                for i, ref in enumerate(refs):
                    word = ref.degeneracies
                    if any(word[t] <= word[t + 1] for t in range(len(word) - 1)):
                        face = f"face {i} of {quoted(cid)}"
                        raise SchemaViolation(
                            f"{face}: degeneracy word must be strictly decreasing",
                            {"id": _short_id(cid)},
                        )
        self._violations = None

    # -- enumeration --------------------------------------------------------

    @property
    def top_dim(self):
        return len(self.cells) - 1

    def n_cells(self, q):
        if 0 <= q < len(self.cells):
            return list(self.cells[q])
        return []

    def refs(self, q):
        """All q-simplices (degenerate included) in a deterministic order."""
        if q < 0:
            return []
        out = []
        for m in range(min(q, self.top_dim) + 1):
            for cid in self.cells[m]:
                p = q - m
                if p == 0:
                    out.append(SimplexRef((), cid))
                else:
                    for word in decreasing_words(q, p):
                        out.append(SimplexRef(word, cid))
        return out

    # -- face and degeneracy operators --------------------------------------

    def face(self, ref, i):
        """d_i of a ref; valid for 0 <= i <= dim(ref), dim(ref) >= 1."""
        word = ref.degeneracies
        out = []
        ii = i
        for pos, e in enumerate(word):
            if ii < e:
                out.append(e - 1)
            elif ii == e or ii == e + 1:
                return SimplexRef(tuple(out) + word[pos + 1 :], ref.base)
            else:
                out.append(e)
                ii -= 1
        base_dim = self.dim_of[ref.base]
        if base_dim == 0:
            raise InternalInvariantError("face of a vertex requested")
        if not 0 <= ii <= base_dim:
            raise InternalInvariantError(f"face index {ii} out of range for {ref}")
        target = self.faces[ref.base][ii]
        for j in reversed(out):
            target = degenerate_ref(target, j)
        return target

    def degeneracy(self, ref, j):
        return degenerate_ref(ref, j)

    # -- validation ----------------------------------------------------------

    def violations(self):
        """Names every violated structural rule or simplicial identity.  A
        space is never mutated after construction, so the report is found
        once per instance and kept."""
        if self._violations is None:
            self._violations = self._find_violations()
        return list(self._violations)

    def _find_violations(self):
        out = []

        def flag(cid, rule, detail):
            out.append({"simplex": _short_id(cid), "rule": rule, "detail": detail})

        for q in range(1, len(self.cells)):
            for cid in self.cells[q]:
                broken = False
                for i, ref in enumerate(self.faces[cid]):
                    word = ref.degeneracies
                    if ref.base not in self.dim_of:
                        missing = quoted(ref.base)
                        flag(cid, "face-target", f"face {i} refers to missing cell {missing}")
                    elif self.dim_of[ref.base] + len(word) != q - 1:
                        flag(cid, "face-dimension", f"face {i} has dimension != {q - 1}")
                    elif word and word[0] > q - 2:
                        # s_j needs a source of dimension >= j; strict
                        # decrease then bounds the rest of the word
                        detail = f"face {i} applies s{word[0]} to a {q - 2}-simplex"
                        flag(cid, "canonical-form", detail)
                    else:
                        continue
                    broken = True
                if broken or q < 2:
                    continue
                for j in range(q + 1):
                    for i in range(j):
                        lhs = self.face(self.face(nondegenerate(cid), j), i)
                        rhs = self.face(self.face(nondegenerate(cid), i), j - 1)
                        if lhs != rhs:
                            flag(cid, "identity", f"d{i} d{j} != d{j - 1} d{i}")
        return out

    # -- JSON ----------------------------------------------------------------

    def to_json(self):
        dims = []
        for q, ids in enumerate(self.cells):
            level = []
            for cid in ids:
                entry = {"id": cid, "faces": []}
                if q >= 1:
                    entry["faces"] = [r.to_json() for r in self.faces[cid]]
                level.append(entry)
            dims.append(level)
        return {"name": self.name, "simplices": dims}

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise SchemaViolation("top level must be an object")
        name = obj.get("name")
        if not isinstance(name, str):
            raise SchemaViolation('missing or non-string "name"')
        dims = obj.get("simplices")
        if not isinstance(dims, list) or not dims:
            raise SchemaViolation('"simplices" must be a nonempty array per dimension')
        cells = []
        faces = {}
        for q, level in enumerate(dims):
            if not isinstance(level, list):
                raise SchemaViolation(f"dimension {q} must be an array")
            ids = []
            for entry in level:
                if not isinstance(entry, dict):
                    raise SchemaViolation(f"simplex entries in dimension {q} must be objects")
                cid = entry.get("id")
                if not isinstance(cid, str) or not cid:
                    raise SchemaViolation(f"simplex in dimension {q} lacks a string id")
                raw = entry.get("faces")
                if not isinstance(raw, list):
                    raise SchemaViolation(f"simplex {quoted(cid)} lacks a faces array")
                faces[cid] = tuple(_ref_from_json(cid, i, r) for i, r in enumerate(raw))
                ids.append(cid)
            cells.append(ids)
        return cls(name, cells, faces)


def _ref_from_json(cid, i, obj):
    if not isinstance(obj, dict):
        raise SchemaViolation(f"face {i} of {quoted(cid)} must be an object")
    word = obj.get("degeneracies")
    base = obj.get("base")
    if not isinstance(word, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) and x >= 0 for x in word
    ):
        raise SchemaViolation(f"face {i} of {quoted(cid)}: degeneracies must be nonnegative ints")
    if not isinstance(base, str) or not base:
        raise SchemaViolation(f"face {i} of {quoted(cid)}: base must be a cell id")
    return SimplexRef(tuple(word), base)


def _short_id(cid):
    """A cell id in a machine-read record (a ``detail`` or a violation's
    ``simplex``): whole up to 20 characters, else as
    :func:`~loopnil.caps.quoted` shortens it."""
    return cid if len(cid) <= 20 else quoted(cid)


def validate(space):
    """Violation report for a constructed space; empty means ok."""
    return space.violations()


def require_valid(space):
    bad = space.violations()
    if bad:
        raise IdentityViolation(
            f"{quoted(space.name)}: {len(bad)} simplicial violation(s)", {"violations": bad}
        )
    return space


# ---------------------------------------------------------------------------
# standard spaces


def point():
    return SimplicialSet("point", [[BASEPOINT]], {})


def sphere(n):
    """Minimal n-sphere: one cell in dimensions 0 and n."""
    if n < 1:
        raise LoopnilError(f"sphere dimension must be >= 1, got {n}")
    cells = [[BASEPOINT]] + [[] for _ in range(n - 1)] + [["e"]]
    base = basepoint_ref(n - 1)
    faces = {"e": tuple(base for _ in range(n + 1))}
    return SimplicialSet(f"s{n}", cells, faces)


def wedge_of_circles(k):
    """One-point union of k minimal circles; k = 0 gives the point."""
    if k < 0:
        raise LoopnilError(f"wedge size must be >= 0, got {k}")
    if k == 0:
        return point()
    star = nondegenerate(BASEPOINT)
    cells = [[BASEPOINT], [f"x{i}" for i in range(1, k + 1)]]
    faces = {f"x{i}": (star, star) for i in range(1, k + 1)}
    return SimplicialSet(f"wedge{k}", cells, faces)


def _addition_chain(m):
    """An addition chain 1 = c_0, ..., c_L = m (binary square-and-add)."""
    chain = [1]
    steps = []  # (target_index, left_index, right_index)
    for bit in bin(m)[3:]:
        steps.append((len(chain), len(chain) - 1, len(chain) - 1))
        chain.append(2 * chain[-1])
        if bit == "1":
            steps.append((len(chain), len(chain) - 1, 0))
            chain.append(chain[-1] + 1)
    assert chain[-1] == m
    return chain, steps


def moore_space(m, n):
    """A space with reduced homology Z/m concentrated in dimension n.

    For small m one (n+1)-cell suffices (two cells total); larger m uses an
    addition chain of n-cells, each pair of cells carrying one relation.
    """
    if m < 2:
        raise LoopnilError(f"moore torsion order must be >= 2, got {m}")
    if n < 1:
        raise LoopnilError(f"moore dimension must be >= 1, got {n}")
    name = f"moore_{m}_{n}"
    plus_slots = [p for p in range(0, n + 2) if p % 2 == 0]
    minus_slots = [p for p in range(0, n + 2) if p % 2 == 1]
    base_low = basepoint_ref(n - 1)
    base_mid = basepoint_ref(n)

    def relation_faces(assignment):
        # assignment: position -> n-cell id; others are basepoint degeneracies
        return tuple(
            nondegenerate(assignment[p]) if p in assignment else base_mid
            for p in range(n + 2)
        )

    if m <= len(plus_slots):
        cells = [[BASEPOINT]] + [[] for _ in range(n - 1)] + [["a"], ["b"]]
        faces = {"a": tuple(base_low for _ in range(n + 1))}
        faces["b"] = relation_faces({plus_slots[i]: "a" for i in range(m)})
        return SimplicialSet(name, cells, faces)

    chain, steps = _addition_chain(m)
    a_ids = [f"a{i}" for i in range(len(chain))]
    b_ids = [f"b{i}" for i in range(len(steps) + 1)]
    cells = [[BASEPOINT]] + [[] for _ in range(n - 1)] + [a_ids, b_ids]
    faces = {aid: tuple(base_low for _ in range(n + 1)) for aid in a_ids}
    for idx, (tgt, left, right) in enumerate(steps):
        # relation a_left + a_right - a_tgt = 0
        assign = {plus_slots[0]: a_ids[left], plus_slots[1]: a_ids[right]}
        assign[minus_slots[0]] = a_ids[tgt]
        faces[b_ids[idx]] = relation_faces(assign)
    # final relation kills the chain head: a_last = 0
    faces[b_ids[-1]] = relation_faces({plus_slots[0]: a_ids[-1]})
    return SimplicialSet(name, cells, faces)


def wedge(x, y):
    """One-point union, identifying basepoints; cells are relabelled on id
    collision."""
    for space in (x, y):
        require_valid(space)
    rename = {BASEPOINT: BASEPOINT}
    used = set(x.dim_of)
    for cid in y.dim_of:
        if cid == BASEPOINT:
            continue
        new = cid
        while new in used:
            new += "'"
        rename[cid] = new
        used.add(new)
    top = max(x.top_dim, y.top_dim)
    cells = [list(x.n_cells(q)) for q in range(x.top_dim + 1)]
    cells += [[] for _ in range(top - x.top_dim)]
    faces = dict(x.faces)
    for q in range(1, y.top_dim + 1):
        for cid in y.n_cells(q):
            cells[q].append(rename[cid])
            faces[rename[cid]] = tuple(
                SimplexRef(r.degeneracies, rename[r.base]) for r in y.faces[cid]
            )
    out = SimplicialSet(f"wedge({x.name},{y.name})", cells, faces)
    return require_valid(out)
