"""Benchmark inputs written as loopnil JSON: reduced simplicial sets and
group presentations.

Spaces are built here, cell by cell, rather than with the package's own
constructors, so the reference homology in ``reference.chain_homology`` reads
the very cells the program receives.
"""

BASE = "*"


def degenerate_base(q):
    """The basepoint degeneracy in dimension q, as a JSON face reference."""
    return {"degeneracies": list(range(q - 1, -1, -1)), "base": BASE}


def cell_face(cid):
    return {"degeneracies": [], "base": cid}


def space(name, cells):
    """``cells[q]`` maps each nondegenerate q-cell id (q >= 1) to its q+1 faces,
    each a cell id of dimension q-1 or None for the basepoint degeneracy."""
    top = max(cells) if cells else 0
    levels = [[{"id": BASE, "faces": []}]]
    for q in range(1, top + 1):
        levels.append(
            [
                {
                    "id": cid,
                    "faces": [
                        cell_face(f) if f is not None else degenerate_base(q - 1)
                        for f in faces
                    ],
                }
                for cid, faces in cells.get(q, {}).items()
            ]
        )
    return {"name": name, "simplices": levels}


def wedge_of_circles(k):
    return space(f"wedge{k}", {1: {f"x{i}": [None, None] for i in range(1, k + 1)}})


def wedge(name, *parts):
    """One-point union of spaces given as cell dictionaries; ids are prefixed
    by the part's position so they cannot collide."""
    cells = {}
    for pos, part in enumerate(parts):
        for q, level in part.items():
            for cid, faces in level.items():
                cells.setdefault(q, {})[f"p{pos}{cid}"] = [
                    None if f is None else f"p{pos}{f}" for f in faces
                ]
    return space(name, cells)


def sphere_cells(n):
    return {n: {"e": [None] * (n + 1)}}


def moore2_cells(m):
    """Cells of a Moore space M(Z/m, 2) for m in {2, 3}: 2-cells and 3-cells
    whose alternating face sums generate the lattice of relations."""
    if m == 2:
        return {2: {"a": [None, None, None]}, 3: {"b": ["a", None, "a", None]}}
    if m == 3:
        # boundaries 2a - c and a + c span the relations of Z/3 on a, c = 2a
        return {
            2: {"a": [None, None, None], "c": [None, None, None]},
            3: {"b1": ["a", "c", "a", None], "b2": ["a", None, "c", None]},
        }
    raise ValueError(f"no Moore cells for m={m}")


def moore1(m):
    """M(Z/m, 1) by a binary addition chain: 1-cells a_p stand for a^p, and
    each 2-cell with faces (d0, d1, d2) imposes d2 * d0 = d1."""
    cells1 = {"a1": [None, None]}
    cells2 = {}
    p = 1
    for bit in bin(m)[3:]:
        cells1[f"a{2 * p}"] = [None, None]
        cells2[f"sq{2 * p}"] = [f"a{p}", f"a{2 * p}", f"a{p}"]
        p *= 2
        if bit == "1":
            cells1[f"a{p + 1}"] = [None, None]
            cells2[f"inc{p + 1}"] = ["a1", f"a{p + 1}", f"a{p}"]
            p += 1
    # the last generator a_m is killed: d2 * d0 = 1 with d2 = a_m, d0 trivial
    cells2["kill"] = [None, None, f"a{m}"]
    return space(f"moore_{m}_1", {1: cells1, 2: cells2})


def random_two_complex(rng, name, n1, n2):
    """A reduced two-complex with n1 edges and n2 random triangles; a face is
    an edge or, with probability 1/4, the degenerate basepoint."""
    edges = [f"e{i}" for i in range(1, n1 + 1)]
    tris = {}
    for t in range(1, n2 + 1):
        tris[f"t{t}"] = [None if rng.random() < 0.25 else rng.choice(edges) for _ in range(3)]
    return space(name, {1: {e: [None, None] for e in edges}, 2: tris})


def two_complex_presentation(space_json):
    """The presentation of pi_1 read off a two-complex: one generator per
    edge, one relator d2 * d0 * d1^-1 per triangle.  Returns (k, relator
    words over 1-based generators)."""
    levels = space_json["simplices"]
    edges = [c["id"] for c in levels[1]]
    index = {e: i + 1 for i, e in enumerate(edges)}
    relators = []
    for tri in levels[2] if len(levels) > 2 else []:
        d0, d1, d2 = (
            None if f["degeneracies"] else index[f["base"]] for f in tri["faces"]
        )
        word = []
        if d2 is not None:
            word.append((d2, 1))
        if d0 is not None:
            word.append((d0, 1))
        if d1 is not None:
            word.append((d1, -1))
        relators.append(word)
    return len(edges), relators


def word_text(word):
    """A free word as presentation text over generators x1..xk."""
    return " ".join(f"x{g}" if e == 1 else f"x{g}^{e}" for g, e in word)


def presentation(k, relators):
    return {
        "generators": [f"x{i}" for i in range(1, k + 1)],
        "relators": [word_text(w) for w in relators],
    }
