"""Seeded input generators: complexes, matchings and cosheaves as JSON documents.

Everything here is plain Python on vertex indices and cell-id strings; no
``morseflow`` code is used, so the inputs do not depend on the code under
test.  A seed never changes the combinatorial structure of an input, only
the names of its cells (an order-preserving renaming, see ``relabel``).
Runs with different seeds therefore do the same work, and the flow digests
recorded for the canonical names stay valid.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

# Triangulation of the real projective plane on six vertices.
RP2_FACETS = [
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
]

_TOKEN_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789"


class CellComplex:
    """Cells as (id, dim) plus codimension-1 covers as (upper, lower) pairs."""

    def __init__(self, dims: dict, covers):
        self.dims = dict(dims)
        self.covers = sorted(set(covers))
        self.faces = {c: [] for c in self.dims}
        for u, l in self.covers:
            self.faces[u].append(l)

    def cells_of_dim(self, d):
        return sorted(c for c, k in self.dims.items() if k == d)

    def doc(self) -> dict:
        return {
            "cells": [{"id": c, "dim": k} for c, k in sorted(self.dims.items())],
            "covers": [[u, l] for u, l in self.covers],
        }


def _sname(face) -> str:
    return "s" + "_".join(str(v) for v in face)


def simplicial_complex(facets) -> CellComplex:
    """Face poset of the simplicial complex generated by the facets."""
    faces = set()
    for f in facets:
        f = tuple(sorted(set(f)))
        for size in range(1, len(f) + 1):
            faces.update(combinations(f, size))
    dims = {_sname(f): len(f) - 1 for f in faces}
    covers = [
        (_sname(f), _sname(f[:k] + f[k + 1:]))
        for f in faces
        if len(f) > 1
        for k in range(len(f))
    ]
    return CellComplex(dims, covers)


def boundary_simplex(n: int) -> CellComplex:
    """Boundary of the n-simplex, a triangulated (n-1)-sphere."""
    return simplicial_complex(combinations(range(n + 1), n))


def rp2() -> CellComplex:
    return simplicial_complex(RP2_FACETS)


def cycle_graph(n: int) -> CellComplex:
    """n vertices and n edges forming a combinatorial circle."""
    dims = {f"v{i}": 0 for i in range(n)}
    dims.update({f"e{i}": 1 for i in range(n)})
    covers = []
    for i in range(n):
        covers.append((f"e{i}", f"v{i}"))
        covers.append((f"e{i}", f"v{(i + 1) % n}"))
    return CellComplex(dims, covers)


def grid_surface(m: int, n: int, klein: bool) -> CellComplex:
    """An m x n square grid glued into a torus, or into a Klein bottle.

    Squares are given by their vertex 4-cycles and edges by their vertex
    pairs, which is faithful for m, n >= 3.  For the Klein bottle the right
    side is glued to the left with the rows reversed: (m, y) ~ (0, -y).
    """
    if m < 3 or n < 3:
        raise ValueError("grid surfaces need m, n >= 3 to be regular")

    def vertex(i, j):
        if i == m and klein:
            return (0, (-j) % n)
        return (i % m, j % n)

    def vname(v):
        return f"v{v[0]}_{v[1]}"

    dims, covers = {}, []
    for i in range(m):
        for j in range(n):
            dims[vname((i, j))] = 0
    for i in range(m):
        for j in range(n):
            ring = [vertex(i, j), vertex(i + 1, j), vertex(i + 1, j + 1), vertex(i, j + 1)]
            square = f"q{i}_{j}"
            dims[square] = 2
            for a, b in zip(ring, ring[1:] + ring[:1]):
                a, b = sorted((a, b))
                edge = f"e{vname(a)}_{vname(b)}"
                if edge not in dims:
                    dims[edge] = 1
                    covers += [(edge, vname(a)), (edge, vname(b))]
                covers.append((square, edge))
    return CellComplex(dims, covers)


# ---------------------------------------------------------------------------
# Matchings
# ---------------------------------------------------------------------------


def cone_matching(cx: CellComplex):
    """Pair each simplex s without vertex 0 with s + 0, where that is a cell.

    On the boundary of a simplex this leaves exactly two critical cells:
    vertex 0 and the facet opposite it.
    """
    pairs = []
    for cell in cx.dims:
        verts = [int(v) for v in cell[1:].split("_")]
        if 0 in verts:
            continue
        upper = _sname([0] + verts)
        if upper in cx.dims:
            pairs.append((upper, cell))
    return sorted(pairs)


def tree_cotree_matching(cx: CellComplex):
    """Spanning tree of the 1-skeleton plus spanning tree of the dual graph.

    Each non-root vertex is paired with the edge it was reached through and
    each non-root 2-cell with the edge it was reached through in the dual;
    both trees are grown depth first, so gradient paths run long.  Linear in
    the number of cells; leaves one critical vertex, one critical 2-cell per
    closed surface and 2 - chi critical edges.
    """
    vertices = cx.cells_of_dim(0)
    edges = cx.cells_of_dim(1)
    squares = cx.cells_of_dim(2)
    incident = {v: [] for v in vertices}
    for e in edges:
        for v in cx.faces[e]:
            incident[v].append(e)
    pairs = []
    tree_edges = set()
    seen = {vertices[0]}
    stack = [vertices[0]]
    while stack:
        v = stack.pop()
        for e in incident[v]:
            (w,) = [x for x in cx.faces[e] if x != v]
            if w not in seen:
                seen.add(w)
                tree_edges.add(e)
                pairs.append((e, w))
                stack.append(w)
    if squares:
        sides = {e: [] for e in edges}
        for q in squares:
            for e in cx.faces[q]:
                sides[e].append(q)
        seen = {squares[0]}
        stack = [squares[0]]
        while stack:
            q = stack.pop()
            for e in cx.faces[q]:
                if e in tree_edges or len(sides[e]) != 2:
                    continue
                (r,) = [x for x in sides[e] if x != q]
                if r not in seen:
                    seen.add(r)
                    pairs.append((r, e))
                    stack.append(r)
    return sorted(pairs)


def critical_cells(cx: CellComplex, pairs):
    matched = {c for p in pairs for c in p}
    return sorted(c for c in cx.dims if c not in matched)


def matching_doc(pairs) -> dict:
    return {"kind": "classical", "pairs": [list(p) for p in pairs]}


# ---------------------------------------------------------------------------
# Twisted cosheaves
# ---------------------------------------------------------------------------


def _inverse_2x2(m, ring: str):
    (a, b), (c, d) = m
    det = a * d - b * c
    if ring == "Q":
        det_inv = Fraction(1, det)
    else:
        p = int(ring.split(":")[1])
        det_inv = pow(det % p, p - 2, p)
    return [[d * det_inv, -b * det_inv], [-c * det_inv, a * det_inv]]


def _mul_2x2(x, y, ring: str):
    out = [[sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    if ring != "Q":
        p = int(ring.split(":")[1])
        out = [[v % p for v in row] for row in out]
    return out


def _random_twist(rng: random.Random, ring: str):
    """A random 2 x 2 matrix invertible over the given ring (Q or Fp:<p>)."""
    p = None if ring == "Q" else int(ring.split(":")[1])
    while True:
        m = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        if p is not None:
            m = [[v % p for v in row] for row in m]
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        if (det if p is None else det % p) != 0:
            return m


def _scalar(x):
    x = Fraction(x)
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def twisted_cosheaf_doc(cx: CellComplex, ring: str, rng: random.Random) -> dict:
    """Rank-2 constant cosheaf conjugated by a random invertible twist per cell.

    The map on a cover u > l is T_l * T_u^-1.  Diamonds commute and every map
    is invertible over ``ring``, and the cosheaf is isomorphic to the rank-2
    constant one, so its homology is twice the constant homology.
    """
    twist = {c: _random_twist(rng, ring) for c in sorted(cx.dims)}
    maps = {}
    for u, l in cx.covers:
        m = _mul_2x2(twist[l], _inverse_2x2(twist[u], ring), ring)
        maps[f"{u}>{l}"] = [[_scalar(x) for x in row] for row in m]
    return {"ring": ring, "stalks": {c: 2 for c in sorted(cx.dims)}, "maps": maps}


# ---------------------------------------------------------------------------
# Seeded renaming
# ---------------------------------------------------------------------------


def relabel(ids, rng: random.Random) -> dict:
    """Order-preserving map from cell ids to fresh random ids.

    New ids are six characters starting with a digit; sorting them gives the
    same order as sorting the old ids, so every comparison the program makes
    between cell ids, and every output ordering, is unchanged up to names.
    """
    ids = sorted(ids)
    fresh = set()
    while len(fresh) < len(ids):
        fresh.add(rng.choice("0123456789") + "".join(rng.choice(_TOKEN_CHARS) for _ in range(5)))
    return dict(zip(ids, sorted(fresh)))


def rename_doc(doc, names: dict):
    """Apply a renaming to every cell id in a complex, matching or cosheaf document."""
    if "cells" in doc:
        return {
            "cells": [{"id": names[c["id"]], "dim": c["dim"]} for c in doc["cells"]],
            "covers": [[names[u], names[l]] for u, l in doc["covers"]],
        }
    if "pairs" in doc:
        return {"kind": doc["kind"], "pairs": [[names[u], names[l]] for u, l in doc["pairs"]]}
    maps = {}
    for key, m in doc["maps"].items():
        u, _, l = key.partition(">")
        maps[f"{names[u]}>{names[l]}"] = m
    return {"ring": doc["ring"], "stalks": {names[c]: r for c, r in doc["stalks"].items()}, "maps": maps}
