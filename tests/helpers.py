"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, product

ACCEPTANCE_LINES: list = []  # per-criterion pass/fail lines, shown in the summary

from morseflow import (
    Cell,
    ChainComplex,
    Complex,
    Matching,
    Mat,
    SignInconsistency,
    ValidationReport,
    check_acyclic,
    entrance_path_category,
    matching_to_morse_system,
    restriction_category,
    validate_complex,
)
from morseflow.categories import (
    HomPoset,
    Morphism,
    NoAtom,
    Order,
    PCategory,
    _path_compose,
    _path_splittings,
    _walks,
    atom,
    find_homotopy_extremal,
    identity_morphism,
    sort_key,
)
from morseflow.cosheaves import Cosheaf
from morseflow.fixtures import get_fixture
from morseflow.localization import (
    Zigzag,
    ZigzagClass,
    enumerate_zigzags,
    zigzag_class_of,
)
from morseflow.homology import HomologySummary
from morseflow.matchings import (
    ACYCLIC,
    CERTIFIED,
    FAIL,
    MILDNESS_NERVE_DIM,
    MildnessEntry,
    MildnessReport,
    MorseSystem,
    check_pairs,
)
from morseflow.nerves import (
    Simplex,
    SimplicialSetSkeleton,
    geometric_nerve,
    is_degenerate,
    nerve_homology,
    order_complex,
)
from morseflow.rings import QQ, ZZ, mat_inverse, rank_over_field


def cell_name(vertices) -> str:
    return "s" + "_".join(str(v) for v in vertices)


def simplicial_to_complex(facets) -> Complex:
    """Face poset of the simplicial complex generated by the given facets."""
    faces = set()
    for f in facets:
        f = tuple(sorted(set(f)))
        for size in range(1, len(f) + 1):
            faces.update(combinations(f, size))
    cells = [Cell(cell_name(f), len(f) - 1) for f in faces]
    covers = [
        (cell_name(a), cell_name(b))
        for a in faces
        for b in faces
        if len(b) == len(a) - 1 and set(b) <= set(a)
    ]
    return Complex(cells, covers)


def coned_complex(facets) -> Complex:
    """The simplicial complex of the triangles ``facets`` with one 3-cell "cone" on all of them."""
    cx = simplicial_to_complex(facets)
    cells = list(cx.cells) + [Cell("cone", 3)]
    covers = list(cx.covers) + [("cone", cell_name(sorted(f))) for f in facets]
    return Complex(cells, covers)


RP2_FACETS = [
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
]

# Boundary of the tetrahedron (a 2-sphere) and the 7-vertex torus.
SPHERE2_FACETS = list(combinations(range(1, 5), 3))
TORUS_FACETS = [
    tuple(sorted((i + a) % 7 + 1 for a in t)) for i in range(7) for t in ((0, 1, 3), (0, 2, 3))
]




def _klein_vertex(i, j):
    # the 3 x 3 grid glued with a flip: (i, j + 3) ~ (-i, j), (i + 3, j) ~ (i, j)
    if j >= 3:
        i, j = -i, j - 3
    return 3 * (i % 3) + j + 1


# A 9-vertex Klein bottle: each grid square split along its diagonal.
KLEIN_FACETS = [
    tri
    for i in range(3)
    for j in range(3)
    for tri in (
        (_klein_vertex(i, j), _klein_vertex(i + 1, j), _klein_vertex(i + 1, j + 1)),
        (_klein_vertex(i, j), _klein_vertex(i, j + 1), _klein_vertex(i + 1, j + 1)),
    )
]


def random_complex(rng, max_cells=12) -> Complex:
    """Random small simplicial complex, returned as a face poset."""
    n = rng.randint(3, 5)
    vertices = list(range(1, n + 1))
    facets = [(v,) for v in vertices]
    for e in combinations(vertices, 2):
        if rng.random() < 0.6:
            facets.append(e)
    for t in combinations(vertices, 3):
        if all(tuple(sorted(p)) in facets for p in combinations(t, 2)) and rng.random() < 0.4:
            facets.append(t)
    cx = simplicial_to_complex(facets)
    while len(cx.cells) > max_cells:
        top = max(c.dim for c in cx.cells)
        tops = [c.id for c in cx.cells if c.dim == top]
        drop = rng.choice(tops)
        keep = [c for c in cx.cells if c.id != drop]
        covers = [(u, l) for (u, l) in cx.covers if drop not in (u, l)]
        cx = Complex(keep, covers)
    return cx


def random_acyclic_matching(rng, cx: Complex, max_pairs=None) -> Matching:
    """Greedy random matching kept acyclic pair by pair."""
    covers = sorted(cx.covers)
    rng.shuffle(covers)
    chosen: list = []
    used: set = set()
    for u, l in covers:
        if u in used or l in used:
            continue
        candidate = Matching(tuple(chosen + [(u, l)]), "classical")
        if check_acyclic(cx, candidate).ok:
            chosen.append((u, l))
            used.update((u, l))
            if max_pairs is not None and len(chosen) >= max_pairs:
                break
    return Matching(tuple(chosen), "classical")


def count_descending_chains(cx: Complex, x: str, y: str) -> int:
    """Brute-force count of strictly descending cell chains from x to y."""
    memo: dict = {}

    def go(a):
        if a == y:
            return 1
        if a in memo:
            return memo[a]
        total = 0
        for z in cx.strict_faces(a):
            if z == y or cx.is_face(z, y):
                total += go(z)
        memo[a] = total
        return total

    return go(x)


def det_int(rows) -> int:
    """Integer determinant by fraction-free Gaussian elimination (Bareiss)."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(map(int, r)) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def mat_inverse_reference(m: Mat, ring):
    """Inverse of an integer matrix as adj(m) / det(m) in ``Fraction``, mapped into the ring.

    None when it does not exist there: the determinant is 0 over Q, or not a
    unit of the ring (over F_p a multiple of p; over Z anything but +-1).
    """
    n = m.rows
    det = det_int(m.data)
    if det == 0 or not ring.is_unit(ring.normalize(det)):
        return None
    rows = [list(map(int, r)) for r in m.data]

    def cofactor(i, j):
        minor = [r[:j] + r[j + 1:] for k, r in enumerate(rows) if k != i]
        return (-1) ** (i + j) * det_int(minor)

    return Mat.from_rows(
        [[ring.normalize(Fraction(cofactor(j, i), det)) for j in range(n)] for i in range(n)]
    )


def minors_gcd_invariant_factors(m: Mat) -> list[int]:
    """Invariant factors via gcds of k x k minors: f_k = d_k / d_(k-1)."""
    rows, cols = m.rows, m.cols
    data = [list(map(int, r)) for r in m.data]
    out = []
    d_prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                sub = [[data[i][j] for j in ci] for i in ri]
                g = math.gcd(g, det_int(sub))
            if g == 1:
                break
        if g == 0:
            break
        out.append(g // d_prev)
        d_prev = g
    return out


def _gcdext(a: int, b: int):
    """Extended gcd: returns (g, s, t) with s*a + t*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def smith_normal_form_reference(m: Mat) -> list[int]:
    """Nonzero Smith form diagonal of an integer matrix, in divisibility order.

    An independent reference for ``rings.eliminate``, with its own
    algorithm.  The pivot is an entry of least absolute value in the first
    row left, in the shortest column.  Its column, then its row, is cleared: an entry that the pivot
    divides by subtracting a multiple of the pivot line, any other by an
    extended-gcd combination of the two lines, which leaves their gcd as the
    pivot.  This repeats until both are clear.  Then a row with an entry
    that the pivot does not divide is added to the pivot row, and the
    clearing starts again.  Entries are kept by row, with the rows of each
    column, because a nerve's boundary is too large to hold densely.
    """
    rows: dict = {}  # row -> {col: entry}
    cols: dict = {}  # col -> set of rows

    def put(i, j, x):
        if x:
            rows.setdefault(i, {})[j] = x
            cols.setdefault(j, set()).add(i)
        elif j in rows.get(i, ()):
            del rows[i][j]
            cols[j].discard(i)
            if not rows[i]:
                del rows[i]
            if not cols[j]:
                del cols[j]

    def row_op(i, j, s, t, s2, t2):  # rows i, j <- (s*row i + t*row j, s2*row i + t2*row j)
        ri, rj = dict(rows.get(i, {})), dict(rows.get(j, {}))
        for k in ri.keys() | rj.keys():
            x, y = ri.get(k, 0), rj.get(k, 0)
            put(i, k, s * x + t * y)
            put(j, k, s2 * x + t2 * y)

    def col_op(i, j, s, t, s2, t2):  # the same for columns i, j
        ci, cj = set(cols.get(i, ())), set(cols.get(j, ()))
        for k in ci | cj:
            x, y = rows[k].get(i, 0), rows[k].get(j, 0)
            put(k, i, s * x + t * y)
            put(k, j, s2 * x + t2 * y)

    for j, col in enumerate(m.columns):
        for i, x in col:
            put(i, j, int(x))
    diagonal = []
    while rows:
        r = next(iter(rows))
        c = min(rows[r], key=lambda j: (abs(rows[r][j]), len(cols[j]), j))  # least fill-in
        while True:
            for i in sorted(cols[c] - {r}):  # clear column c
                p, x = rows[r][c], rows[i][c]
                if x % p == 0:
                    for k, y in list(rows[r].items()):
                        put(i, k, rows.get(i, {}).get(k, 0) - x // p * y)
                else:
                    g, s, t = _gcdext(p, x)
                    row_op(r, i, s, t, -(x // g), p // g)
            for j in sorted(rows[r].keys() - {c}):  # clear row r
                p, x = rows[r][c], rows[r][j]
                if x % p == 0:
                    for k in list(cols[c]):
                        put(k, j, rows[k].get(j, 0) - x // p * rows[k][c])
                else:
                    g, s, t = _gcdext(p, x)
                    col_op(c, j, s, t, -(x // g), p // g)
            if cols[c] != {r} or rows[r].keys() != {c}:
                continue
            p = rows[r][c]
            bad = None if abs(p) == 1 else next((i for i, row in rows.items() if any(x % p for x in row.values())), None)
            if bad is None:
                break
            row_op(r, bad, 1, 1, 0, 1)
        diagonal.append(abs(rows[r][c]))
        del rows[r], cols[c]
    return diagonal


def random_int_matrix(rng, rows, cols, lo=-4, hi=4) -> Mat:
    return Mat.from_rows([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)], cols)


def random_invertible(rng, n, ring) -> Mat:
    """A random n x n matrix with entries in -2..2 whose determinant is a unit of ``ring``."""
    while True:
        m = Mat.from_rows([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if ring.is_unit(ring.normalize(det_int(m.data))):
            return normalized(m, ring)


def normalized(m: Mat, ring) -> Mat:
    """``m`` with every entry normalized in ``ring``; entries that vanish there are dropped."""
    return Mat.from_rows([[ring.normalize(x) for x in row] for row in m.data], m.cols)


def cosheaf_chain_complex_reference(c: Complex, signs, F: Cosheaf) -> dict:
    """degree -> boundary of the cosheaf complex, each entry summed ``Fraction`` by ``Fraction``.

    Generators are (cell, k) for each cell by dimension and id and each
    basis vector k of its stalk, as in ``cosheaf_chain_complex``.
    """
    gens = [[(x, k) for x in c.cells_of_dim(d) for k in range(F.stalk(x))] for d in range(c.top_dim + 1)]
    sign = pair_signs(c, signs)
    boundaries = {}
    for d in range(1, len(gens)):
        row_of = {g: i for i, g in enumerate(gens[d - 1])}
        dense = [[Fraction(0)] * len(gens[d]) for _ in gens[d - 1]]
        for col, (x, k) in enumerate(gens[d]):
            for y in c.cover_faces[x]:
                block = F.cover_map(x, y).data
                for i in range(F.stalk(y)):
                    dense[row_of[(y, i)]][col] += Fraction(sign[(x, y)]) * Fraction(block[i][k])
        boundaries[d] = Mat.from_rows([[F.ring.normalize(v) for v in row] for row in dense], len(gens[d]))
    return boundaries


def cellular_chain_complex_reference(c: Complex, signs: dict) -> dict:
    """degree -> boundary of the cellular complex over Z, entry by entry from the pair view of the signs."""
    sign = pair_signs(c, signs)
    boundaries = {}
    for d in range(1, c.top_dim + 1):
        lower, upper = c.cells_of_dim(d - 1), c.cells_of_dim(d)
        boundaries[d] = Mat.from_rows([[sign.get((x, y), 0) for x in upper] for y in lower], len(upper))
    return boundaries


def grid_surface_complex(m: int, n: int, klein: bool) -> Complex:
    """An m x n grid of squares glued into a torus, or, with the right side glued to the left
    with the rows reversed, into a Klein bottle; regular for m, n >= 3."""
    def vertex(i, j):
        return f"v{0 if i == m else i}_{(-j if i == m and klein else j) % n}"

    cells, covers = {vertex(i, j): 0 for i in range(m) for j in range(n)}, set()
    for i, j in product(range(m), range(n)):
        ring = [vertex(i, j), vertex(i + 1, j), vertex(i + 1, j + 1), vertex(i, j + 1)]
        cells[f"q{i}_{j}"] = 2
        for a, b in zip(ring, ring[1:] + ring[:1]):
            edge = "e" + "_".join(sorted((a, b)))
            cells[edge] = 1
            covers |= {(edge, a), (edge, b), (f"q{i}_{j}", edge)}
    return Complex(list(cells.items()), sorted(covers))


def random_twisted_cosheaf(rng, cx: Complex, ring, rank=None) -> Cosheaf:
    """Constant cosheaf conjugated by a random invertible matrix per cell.

    Functoriality holds by construction and every map is invertible, so any
    matching has invertible matched extensions.
    """
    rank = rank or rng.randint(1, 2)
    twist = {cid: random_invertible(rng, rank, ring) for cid in cx.ids()}
    inv = {cid: mat_inverse(twist[cid], ring) for cid in cx.ids()}
    maps = {
        (u, l): twist[l].mul(inv[u], ring)
        for (u, l) in cx.covers
    }
    return Cosheaf(ring, {cid: rank for cid in cx.ids()}, maps)


def cycle_graph_complex(n: int) -> Complex:
    """Cyclic graph with n vertices and n edges (a combinatorial circle)."""
    cells = [Cell(f"v{i}", 0) for i in range(n)] + [Cell(f"e{i}", 1) for i in range(n)]
    covers = []
    for i in range(n):
        covers.append((f"e{i}", f"v{i}"))
        covers.append((f"e{i}", f"v{(i + 1) % n}"))
    return Complex(cells, covers)


def dense_rank_over_field(m: Mat, ring) -> int:
    """Reference rank: dense Gaussian elimination, rescanning every row per pivot."""
    rows = [list(map(ring.normalize, row)) for row in m.data]
    rank = 0
    col = 0
    nrows, ncols = m.rows, m.cols
    while rank < nrows and col < ncols:
        piv = next((r for r in range(rank, nrows) if rows[r][col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = ring.inv(rows[rank][col])
        rows[rank] = [ring.normalize(inv * x) for x in rows[rank]]
        for r in range(nrows):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [ring.normalize(x - f * y) for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def validate_complex_reference(c: Complex) -> ValidationReport:
    """Reference validation: finds diamonds by comparing every pair of cells."""
    report = ValidationReport()
    for u, l in sorted(c.covers):
        drop = c.dim(u) - c.dim(l)
        if drop != 1:
            report.add("grading", f"cover ({u}, {l}) drops dimension by {drop}, not 1", (u, l))
    if not report.ok:
        return report
    reach = face_relation_reference(c.cells, c.covers)[3]
    for a, b in sorted(reach):
        if (b, a) in reach:
            report.add("antisymmetry", f"face relation contains a cycle through {a} and {b}", (a, b))
    for e in c.cells_of_dim(1):
        faces = c.cover_faces[e]
        if len(faces) != 2:
            report.add("edge_faces", f"edge {e} has {len(faces)} vertex faces, expected 2", (e,))
    for cell in c.cells:
        if cell.dim >= 1 and not c.cover_faces[cell.id]:
            report.add("no_faces", f"cell {cell.id} of dim {cell.dim} has no faces", (cell.id,))
    for x in c.ids():
        for z, between in diamonds_reference(c, x):
            if len(between) != 2:
                report.add(
                    "diamond",
                    f"interval [{z}, {x}] has {len(between)} intermediate cells, expected 2",
                    (x, z, *between),
                )
    return report


def diamonds_reference(c: Complex, x: str) -> list:
    """Reference diamond scan: every face z of x two dimensions down, with its middle cells."""
    return [
        (z, [y for y in c.cover_faces[x] if (y, z) in c.covers])
        for z in c.ids()
        if c.dim(x) - c.dim(z) == 2 and c.is_face(x, z)
    ]


def face_relation_reference(cells, covers):
    """Eager reference index and face relation of the complex on ``cells`` and ``covers``.

    Returns the ids sorted by (dim, id), the ids of each dimension from -1 to
    one past the top, the top dimension (-1 when empty) and the face relation,
    closed by composing pairs until no new pair appears.
    """
    cells = sorted(cells, key=lambda c: (c.dim, c.id))
    top = max((c.dim for c in cells), default=-1)
    by_dim = {d: [c.id for c in cells if c.dim == d] for d in range(-1, top + 2)}
    reach = {(str(u), str(l)) for u, l in covers}
    while True:
        new = {(a, c) for a, b in reach for b2, c in reach if b == b2} - reach
        if not new:
            return [c.id for c in cells], by_dim, top, frozenset(reach)
        reach |= new


def pair_signs(c: Complex, signs: dict) -> dict:
    """The (upper, lower) pair view of per-cell sign tuples."""
    return {(x, y): s for x, faces in c.cover_faces.items() for y, s in zip(faces, signs[x])}


def assign_incidence_signs_reference(c: Complex) -> dict:
    """Reference signs: parity union-find with path compression over each cell's diamonds."""
    report = validate_complex(c)
    if not report.ok:
        raise SignInconsistency(f"complex fails validation: {report}")
    sign: dict = {}
    for e in c.cells_of_dim(1):
        a, b = sorted(c.cover_faces[e])
        sign[(e, a)] = 1
        sign[(e, b)] = -1
    for d in range(2, c.top_dim + 1):
        for x in sorted(c.cells_of_dim(d)):
            faces = sorted(c.cover_faces[x])
            parent = {y: y for y in faces}
            parity = {y: 0 for y in faces}  # parity to the component root

            def find_with_parity(y):
                root = y
                p = 0
                while parent[root] != root:
                    p ^= parity[root]
                    root = parent[root]
                node = y
                acc = p
                while parent[node] != node:
                    nxt = parent[node]
                    np = parity[node]
                    parent[node] = root
                    parity[node] = acc
                    acc ^= np
                    node = nxt
                return root, p

            for z in sorted({z for y in faces for z in c.cover_faces[y] if c.is_face(x, z) and c.dim(x) - c.dim(z) == 2}):
                pair = [y for y in faces if (y, z) in c.covers]
                if len(pair) != 2:
                    raise SignInconsistency(f"diamond [{z}, {x}] is not a diamond")
                y1, y2 = pair
                want = 1 if sign[(y1, z)] * sign[(y2, z)] == 1 else 0
                r1, p1 = find_with_parity(y1)
                r2, p2 = find_with_parity(y2)
                if r1 == r2:
                    if p1 ^ p2 != want:
                        raise SignInconsistency(
                            f"orientation constraints around {x} are unsatisfiable at diamond [{z}, {x}]"
                        )
                else:
                    parent[r2] = r1
                    parity[r2] = p1 ^ p2 ^ want
            assigned = set()
            for y in faces:
                if y in assigned:
                    continue
                root, p0 = find_with_parity(y)
                for y2 in faces:
                    r2, p2 = find_with_parity(y2)
                    if r2 == root:
                        sign[(x, y2)] = 1 if (p2 ^ p0) == 0 else -1
                        assigned.add(y2)
    return {x: tuple(sign[(x, y)] for y in ys) for x, ys in c.cover_faces.items()}


def entrance_path_category_reference(c) -> PCategory:
    """Reference entrance path category: each hom's single-interior-deletion
    pairs, found by label among its sorted morphisms and closed by ``HomPoset.build``."""
    ids = c.ids()
    paths = {}
    for path in _walks(ids, lambda p: c.strict_faces(p[-1])):
        paths.setdefault((path[0], path[-1]), []).append(path)
    homs = {}
    for (a, b), labels in paths.items():
        els = sorted(Morphism(a, b, lab) for lab in labels)
        by_label = {g.label: g for g in els}
        pairs = [(by_label[g.label[:i] + g.label[i + 1:]], g) for g in els for i in range(1, len(g.label) - 1)]
        homs[(a, b)] = HomPoset.build(els, pairs)
    return PCategory(ids, homs, _path_compose, {cid: identity_morphism(cid) for cid in ids}, _path_splittings)


def hom_poset_from_pairs(elements, pairs):
    """A hom-poset whose order holds exactly ``pairs``, neither closed nor
    checked: for relations that are not orders."""
    els = tuple(elements)
    index = {e: i for i, e in enumerate(els)}
    down = [0] * len(els)
    for a, b in pairs:
        down[index[b]] |= 1 << index[a]
    return HomPoset(Order(els, down))


def close_order_reference(elements, pairs):
    """Reference closure: pairwise fixpoint over the whole relation.

    Returns the reflexive-transitive closure and the set of pairs of distinct
    elements that it makes comparable both ways.
    """
    rel = {(e, e) for e in elements}
    rel.update(pairs)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(rel):
            for (c, d) in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    both = {(a, b) for (a, b) in rel if a != b and (b, a) in rel}
    return frozenset(rel), both


def close_order_warshall(elements, pairs):
    """Reference kernel: Warshall's loop on up-set bitmasks, quadratic in the elements.

    Returns the reflexive-transitive closure over the distinct elements and
    the first violation Warshall's scan meets, or None: the first element,
    in element order, comparable both ways with another, paired with the
    first such other element.
    """
    els = tuple(dict.fromkeys(elements))
    index = {e: i for i, e in enumerate(els)}
    up = [1 << i for i in range(len(els))]
    for a, b in pairs:
        up[index[a]] |= 1 << index[b]
    for k, mk in enumerate(up):  # route every i through k
        bit = 1 << k
        for i, mi in enumerate(up):
            if mi & bit:
                up[i] = mi | mk
    rel, first = set(), None
    for i, m in enumerate(up):
        for j in range(len(els)):
            if m >> j & 1:
                rel.add((els[i], els[j]))
                if first is None and j != i and up[j] >> i & 1:
                    first = (els[i], els[j])
    return frozenset(rel), first


def subsequence(short: tuple, long: tuple) -> bool:
    """Whether ``short`` is a subsequence of ``long``: the reference entrance-path order."""
    it = iter(long)
    return all(x in it for x in short)


def covers_reference(elements, relation) -> list:
    """Reference cover scan: (a, b) covers unless some third element lies strictly between."""
    strict = {(a, b) for (a, b) in relation if a != b}
    out = []
    for a, b in sorted(strict, key=lambda p: (sort_key(p[0]), sort_key(p[1]))):
        if not any((a, c) in strict and (c, b) in strict for c in elements if c not in (a, b)):
            out.append((a, b))
    return out


def contractions_reference(cat, z):
    """Reference contractions: every column of every zigzag scans the splittings afresh."""
    seen = set()
    for i, f in enumerate(z.lefts):
        g1, g2 = z.rights[i], z.rights[i + 1]
        for p_head, a, p in cat.splittings(g1):
            for q, a2, h_tail in cat.splittings(g2):
                if a != a2:
                    continue
                if not cat.leq(f, cat.compose(q, p)):
                    continue
                merged = cat.compose(p_head, h_tail)
                out = Zigzag(
                    z.rights[:i] + (merged,) + z.rights[i + 2:],
                    z.lefts[:i] + z.lefts[i + 1:],
                )
                if out not in seen:
                    seen.add(out)
                    yield out


def reduce_reference(cat, z):
    """Reference reduction: the first reference contraction until none is left."""
    while True:
        nxt = next(contractions_reference(cat, z), None)
        if nxt is None:
            return z
        z = nxt


def erasures_reference(cat, z):
    """Reference erasures: every column of every zigzag scans its hom-posets afresh."""
    seen = set()
    for i, f in enumerate(z.lefts):
        g1, g2 = z.rights[i], z.rights[i + 1]
        for r in cat.hom(f.target, g2.target).elements:
            if cat.leq(g2, cat.compose(f, r)):
                out = Zigzag(
                    z.rights[:i] + (cat.compose(g1, r),) + z.rights[i + 2:],
                    z.lefts[:i] + z.lefts[i + 1:],
                )
                if out not in seen:
                    seen.add(out)
                    yield out
        for r in cat.hom(g1.source, f.source).elements:
            if cat.leq(g1, cat.compose(r, f)):
                out = Zigzag(
                    z.rights[:i] + (cat.compose(r, g2),) + z.rights[i + 2:],
                    z.lefts[:i] + z.lefts[i + 1:],
                )
                if out not in seen:
                    seen.add(out)
                    yield out


def steps_reference(cat, z):
    """Reference single-slot steps: each forward morphism raised to each strictly larger element, slot by slot."""
    for i, g in enumerate(z.rights):
        for g2 in cat.hom(g.source, g.target).elements:
            if g2 != g and cat.leq(g, g2):
                yield Zigzag(z.rights[:i] + (g2,) + z.rights[i + 1:], z.lefts)


def partition_reference(cat, zigzags):
    """Reference partition, one zigzag at a time: each zigzag's position in a
    dict, a union-find slot per position, and every reference contraction of
    every zigzag looked up in that dict.  The classes are the groups in
    zigzag order, each with its first member as canonical."""
    zigzags = list(zigzags)
    index = {zg: p for p, zg in enumerate(zigzags)}
    parent = list(range(len(zigzags)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for zg, p in index.items():
        for tgt in contractions_reference(cat, zg):
            ra, rb = find(p), find(index[tgt])
            if ra != rb:
                parent[rb] = ra
    groups = {}
    for p, zg in enumerate(zigzags):
        groups.setdefault(find(p), []).append(zg)
    return [ZigzagClass(members[0], tuple(members)) for members in groups.values()]


def weakly_indecomposable_reference(cat, f):
    """Reference test: every composite through every object, compared with f;
    only f's two identity factorizations are exempt."""
    x, y = f.source, f.target
    for z in cat.objects:
        for g in cat.hom(x, z).elements:
            for h in cat.hom(z, y).elements:
                if (z == x and cat.is_identity(g) and h == f) or (z == y and g == f and cat.is_identity(h)):
                    continue
                if cat.leq(cat.compose(g, h), f):
                    return False
    return True


def loc_order_reference(cat, ms, w, z, max_len):
    """Reference localized order: the classes of ``partition_reference``, and
    every componentwise pair of same-shape zigzags plus column erasures,
    closed by ``close_order_reference``.

    The zigzags componentwise above z1 are the product of the up-sets of its
    forward morphisms, each read off its hom-poset's order.  Returns the
    classes, the closed relation and the pairs comparable both ways.
    """
    zigzags = list(enumerate_zigzags(cat, ms, w, z, max_len))
    classes = partition_reference(cat, zigzags)
    member_to_class = {m: cls for cls in classes for m in cls.members}
    pairs = set()
    for z1 in zigzags:
        ups = [[g2 for g2 in cat.hom(g.source, g.target).elements if cat.leq(g, g2)] for g in z1.rights]
        for combo in product(*ups):
            z2 = Zigzag(combo, z1.lefts)
            if z2 != z1:
                pairs.add((member_to_class[z1], member_to_class[z2]))
    for zg in zigzags:
        for tgt in erasures_reference(cat, zg):
            pairs.add((member_to_class[zg], member_to_class[tgt]))
    closed, both = close_order_reference(classes, pairs)
    return classes, closed, both


def enumerate_zigzags_reference(cat, ms, w, z, max_len=4):
    """Reference zigzag enumeration: recursive Σ-chains from every arrow, each
    chain dropped at its first empty slot."""
    singleton = all(len(cat.hom(f.source, f.target).elements) == 1 for f in ms.sigma)
    if max_len is None and not singleton:
        raise ValueError("a length bound is required for this system")
    chains = [()]

    def extend(chain):
        chains.append(chain)
        if max_len is not None and len(chain) >= max_len:
            return
        last = chain[-1]
        for f in ms.sigma:
            before = f != last and not cat.hom(last.source, f.target).is_empty()
            if singleton:
                if f in chain or not before:
                    continue
            else:
                if f != last and not before:
                    continue
            extend(chain + (f,))

    if max_len is None or max_len >= 1:
        for f in ms.sigma:
            extend((f,))

    out = []
    for chain in chains:
        if not chain:
            out.extend(Zigzag((g,), ()) for g in cat.hom(w, z).elements)
            continue
        slots = []
        src = w
        feasible = True
        for f in chain:
            els = cat.hom(src, f.target).elements
            if not els:
                feasible = False
                break
            slots.append(els)
            src = f.source
        if feasible:
            last = cat.hom(src, z).elements
            feasible = bool(last)
        if not feasible:
            continue
        slots.append(last)
        for combo in product(*slots):
            out.append(Zigzag(tuple(combo), chain))
    return sorted(set(out), key=Zigzag.key)


def morse_system_reference(cat, arrows) -> MorseSystem:
    """Reference system by the all-pairs scans: f0 before f1 over every sigma x
    sigma pair with hom(f0.source, f1.target) nonempty, in both directions,
    each span over every object, completeness over every arrow's hom, and the
    first cycle by a recursive depth-first search."""
    sigma = tuple(sorted(arrows))
    before = lambda f0, f1: f1 != f0 and not cat.hom(f0.source, f1.target).is_empty()
    successors = {f0: tuple(f1 for f1 in sigma if before(f0, f1)) for f0 in sigma}
    predecessors = {f1: tuple(f0 for f0 in sigma if before(f0, f1)) for f1 in sigma}
    span = {
        f: frozenset(
            w for w in cat.objects
            if not cat.hom(f.source, w).is_empty() and not cat.hom(w, f.target).is_empty()
        )
        for f in sigma
    }
    spanned = set().union(*span.values())
    critical = tuple(sorted(o for o in cat.objects if o not in spanned))
    complete = all(len(cat.hom(f.source, f.target).elements) == 1 for f in sigma)
    cycle = find_cycle_reference(sigma, successors)
    return MorseSystem(sigma, successors, critical, span, predecessors, complete, cycle)


def find_cycle_reference(nodes, succ):
    """The first cycle a recursive depth-first search meets, closed (first ==
    last), or None: searches start at ``nodes`` in order and follow ``succ`` in
    list order, and the witness runs from the node a back edge returns to."""
    done, path = set(), []

    def visit(node):
        path.append(node)
        for nxt in succ[node]:
            if nxt in path:
                return path[path.index(nxt):] + [nxt]
            if nxt not in done:
                cycle = visit(nxt)
                if cycle is not None:
                    return cycle
        done.add(path.pop())
        return None

    for start in nodes:
        if start not in done:
            cycle = visit(start)
            if cycle is not None:
                return cycle
    return None


def check_acyclic_reference(c: Complex, m: Matching) -> ValidationReport:
    """The flow relation searched over strict faces alone, for every kind of matching.

    d -> d' whenever d != d' is a strict face of the partner of d'; the
    witness is the first cycle of ``find_cycle_reference`` from the lower
    cells in sorted order.
    """
    check_pairs(c, m)
    report = ValidationReport()
    partner = {l: u for u, l in m.pairs}
    lowers = sorted(partner)
    succ = {d: [d2 for d2 in lowers if d2 != d and c.is_face(partner[d2], d)] for d in lowers}
    cycle = find_cycle_reference(lowers, succ)
    if cycle is not None:
        report.add("cycle", "matching flow relation has a cycle: " + " < ".join(cycle), tuple(cycle))
    return report


def random_matching(rng, cx: Complex, kind="classical", share=1.0) -> Matching:
    """A random partial matching, acyclic or not: each cover pair (for ``generalized``,
    each face pair) is taken with probability ``share`` when both cells are still free."""
    if kind == "classical":
        candidates = sorted(cx.covers)
    else:
        candidates = [(u, l) for u in cx.ids() for l in cx.strict_faces(u)]
    rng.shuffle(candidates)
    chosen, used = [], set()
    for u, l in candidates:
        if u not in used and l not in used and rng.random() < share:
            chosen.append((u, l))
            used.update((u, l))
    return Matching(tuple(chosen), kind)


def validate_morse_system_reference(cat, ms) -> ValidationReport:
    """Reference axiom check: the exhaustion, lifting and switching axioms over
    every sigma x sigma pair, the order and spans from ``morse_system_reference``."""
    report = ValidationReport()
    ref = morse_system_reference(cat, ms.sigma)
    sigma = ref.sigma
    for f in sigma:
        if f.source == f.target:
            report.add("exhaustion", f"{f} is an endomorphism", (repr(f),))
            continue
        try:
            a = atom(cat, f.source, f.target)
        except NoAtom:
            a = None
        if a != f:
            report.add("exhaustion", f"{f} is not the atom of its hom-poset", (repr(f),))
        for g in sigma:
            if g == f:
                continue
            for obj in (g.source, g.target):
                if obj in ref.span[f]:
                    report.add(
                        "exhaustion",
                        f"{g} touches {obj}, which lies between the endpoints of {f}",
                        (repr(f), repr(g), obj),
                    )
    if ref.cycle is not None:
        names = tuple(repr(x) for x in ref.cycle)
        report.add("order", "order relation has a cycle: " + " -> ".join(names), names)
    for f0, f1 in product(sigma, repeat=2):
        if f0 == f1:
            continue
        for g in cat.hom(f0.source, f1.source).elements:
            for gp in cat.hom(f0.target, f1.target).elements:
                if not cat.leq(cat.compose(f0, gp), cat.compose(g, f1)):
                    continue
                if not any(
                    cat.leq(cat.compose(f0, p), g) and cat.leq(gp, cat.compose(p, f1))
                    for p in cat.hom(f0.target, f1.source).elements
                ):
                    report.add(
                        "lifting",
                        f"square ({f0!r}, {g!r}, {gp!r}, {f1!r}) does not split",
                        (repr(f0), repr(g), repr(gp), repr(f1)),
                    )
    for f0, f1 in product(sigma, repeat=2):
        if f0 == f1 or cat.hom(f0.source, f1.source).is_empty() or cat.hom(f0.target, f1.target).is_empty():
            continue
        try:
            h = atom(cat, f0.source, f1.source)
            ell = atom(cat, f0.target, f1.target)
        except NoAtom:
            report.add("switching", "atom missing for switching square", (repr(f0), repr(f1)))
            continue
        side_a, side_b = cat.compose(f0, ell), cat.compose(h, f1)
        for v in cat.hom(f0.source, f1.target).elements:
            if not (cat.leq(side_a, v) and cat.leq(side_b, v)):
                continue
            if cat.hom(f0.target, f1.source).is_empty():
                report.add(
                    "switching",
                    f"no morphism {f0.target} -> {f1.source} below {v!r}",
                    (repr(f0), repr(f1), repr(v)),
                )
                continue
            try:
                q = atom(cat, f0.target, f1.source)
            except NoAtom:
                report.add("switching", "hom has no atom", (f0.target, f1.source))
                continue
            through = cat.compose(cat.compose(f0, q), f1)
            if not cat.leq(through, v):
                report.add("switching", f"{through!r} is not below {v!r}", (repr(f0), repr(f1), repr(v)))
    return report


def restriction_objects_reference(cat, f) -> list:
    """The objects of the restriction category of f, by a scan of every object."""
    return [z for z in cat.objects if not cat.hom(f.source, z).is_empty() and cat.hom(z, f.target).is_empty()]


def check_mildness_reference(cat, ms) -> MildnessReport:
    """Reference mildness grading: each restriction category keeps the parent's
    homs by a filter of every hom, is loop-free by a test of every pair, and is
    certified past the extremal test by a greedy collapse of its order complex."""
    entries = []
    for f in ms.sigma:
        objs = restriction_objects_reference(cat, f)
        keep = set(objs)
        homs = {(a, b): hp for (a, b), hp in cat._homs.items() if a in keep and b in keep}
        sub = PCategory(objs, homs, cat._compose, {a: cat.identity(a) for a in objs}, cat._splittings)
        loopfree = not any(
            a != b and not sub.hom(a, b).is_empty() and not sub.hom(b, a).is_empty()
            for a in objs for b in objs
        )
        if not loopfree:
            graded = FAIL, "restriction category has a loop"
        elif not objs:
            graded = FAIL, "restriction category is empty"
        elif (extremal := find_homotopy_extremal(sub)) is not None:
            graded = CERTIFIED, f"homotopy-{extremal[1]} object {extremal[0]}"
        elif greedy_collapses_reference(order_complex(objs, lambda a, b: a == b or not sub.hom(a, b).is_empty()))[1]:
            graded = CERTIFIED, "order complex collapses to a point"
        else:
            betti = nerve_homology(geometric_nerve(sub, MILDNESS_NERVE_DIM), QQ).betti()
            if betti and betti[0] == 1 and all(b == 0 for b in betti[1:]):
                graded = ACYCLIC, f"reduced homology vanishes to degree {len(betti) - 1}"
            else:
                graded = FAIL, f"nerve Betti numbers {betti}"
        entries.append(MildnessEntry(f, True, loopfree, *graded))
    return MildnessReport(entries)


def graded_restrictions(cat, ms) -> list:
    """The restriction categories that check_mildness grades by their
    reachability poset: nonempty, loop-free, with no homotopy-extremal object."""
    out = []
    for f in ms.sigma:
        sub = restriction_category(cat, ms, f)
        loops = any(b != a and not sub.hom(b, a).is_empty() for a in sub.objects for b in sub.reachable(a))
        if sub.objects and not loops and find_homotopy_extremal(sub) is None:
            out.append(sub)
    return out


def reachability_order_complex(sub, maxdim=None):
    """The order complex of a category's reachability poset, a <= b when hom(a, b) is nonempty."""
    return order_complex(sub.objects, lambda a, b: a == b or not sub.hom(a, b).is_empty(), maxdim)


def flow_instances():
    """(name, category, system, bound) for 10 random classical matchings and calc63 at L = 2..4."""
    out = []
    rng = random.Random(23)
    while len(out) < 10:
        cx = random_complex(rng, 10)
        m = random_acyclic_matching(rng, cx, max_pairs=3)
        if m.pairs:
            En = entrance_path_category(cx)
            out.append((f"random{len(out)}", En, matching_to_morse_system(cx, m, En), None))
    fx = get_fixture("calc63")
    En = entrance_path_category(fx.complex)
    ms = matching_to_morse_system(fx.complex, fx.matching, En)
    out.extend((f"calc63-L{n}", En, ms, n) for n in (2, 3, 4))
    return out


def flow_compose_reference(cat, flow, c1, c2):
    """Reference flow composition: join the canonical zigzags, reduce afresh and
    find the class by scanning the members of the target hom-poset."""
    z1, z2 = c1.canonical, c2.canonical
    joined = Zigzag(
        z1.rights[:-1] + (cat.compose(z1.rights[-1], z2.rights[0]),) + z2.rights[1:],
        z1.lefts + z2.lefts,
    )
    return zigzag_class_of(flow.hom(z1.source, z2.target), reduce_reference(cat, joined))


def geometric_nerve_reference(cat, maxdim):
    """Reference nerve: recomputes every composite bound once per candidate morphism."""
    objects = sorted(cat.objects)
    simplices = {0: [Simplex((x,), ()) for x in objects]}
    for d in range(1, maxdim + 1):
        level = []
        for s in simplices[d - 1]:
            for x in objects:
                if cat.hom(s.objects[-1], x).is_empty():
                    continue

                def fill(i, acc):
                    if i < 0:
                        fs = tuple(s.fs[j] + (acc[j],) for j in range(d - 1)) + ((acc[d - 1],),)
                        level.append(Simplex(s.objects + (x,), fs))
                        return
                    for m in cat.hom(s.objects[i], x).elements:
                        if all(cat.leq(m, cat.compose(s.f(i, j), acc[j])) for j in range(i + 1, d)):
                            acc2 = list(acc)
                            acc2[i] = m
                            fill(i - 1, acc2)

                fill(d - 1, [None] * d)
        level.sort(key=Simplex.key)
        simplices[d] = level
    return SimplicialSetSkeleton(maxdim, simplices, cat)


def normalized_chain_complex_reference(skel, ring):
    """Reference normalized complex: decides degeneracy again for every simplex and every face."""
    def faces(level):
        for s in level:
            kept = [k for k in range(s.dim + 1) if not is_degenerate(skel.cat, s.face(k))]
            yield [s.face(k) for k in kept], [ring.normalize(1 if k % 2 == 0 else -1) for k in kept]

    gens = [
        [s for s in skel.simplices.get(d, []) if not is_degenerate(skel.cat, s)]
        for d in range(skel.maxdim + 1)
    ]
    return ChainComplex.from_faces(ring, gens, faces)


def homology_reference(cc, ring):
    """Ring-direct homology of a complex over Z: the complex is built again over
    ``ring``, with its entries normalized there and d o d = 0 checked there, and
    every boundary is eliminated over ``ring`` (a rank over a field, the
    dense Smith form over Z)."""
    boundaries = {}
    for n, d in cc.boundaries.items():
        columns = [[(i, ring.normalize(x)) for i, x in col] for col in d.columns]
        boundaries[n] = Mat(d.rows, d.cols, tuple(tuple((i, x) for i, x in col if x) for col in columns))
    direct = ChainComplex(ring, cc.ranks, boundaries)
    if ring.is_field():
        factors = {n: [1] * rank_over_field(direct.boundary(n), ring) for n in range(1, direct.top + 1)}
    else:
        factors = {n: smith_normal_form_reference(direct.boundary(n)) for n in range(1, direct.top + 1)}
    groups = []
    for n in range(direct.top + 1):
        f_n, f_next = factors.get(n, []), factors.get(n + 1, [])
        groups.append((direct.ranks[n] - len(f_n) - len(f_next), tuple(f for f in f_next if f > 1)))
    return HomologySummary(ring.name, tuple(groups))


def random_integer_complex(rng, top=3, max_rank=5, weights=(1, 2, 3, 4, 6)):
    """A random complex over Z and its homology over Z, Q, F_2 and F_3, known by construction.

    Every generator is a cycle that bounds nothing, or one end of a pair
    x -> k*y with k drawn from ``weights``.  Each degree then gets a random
    unimodular change of basis, so the boundaries are dense integer matrices
    whose Smith forms are the pairs' k.  Returns the complex and, by ring
    name, its groups as ``(betti, torsion)`` pairs.
    """
    ranks = [rng.randint(1, max_rank) for _ in range(top + 1)]
    free = [list(range(r)) for r in ranks]  # generators not yet in a pair
    pairs = {n: [] for n in range(1, top + 1)}  # n -> (source in C_n, target in C_(n-1), k)
    for n in range(1, top + 1):
        for _ in range(rng.randint(0, min(ranks[n], ranks[n - 1]))):
            if free[n] and free[n - 1]:
                x = free[n].pop(rng.randrange(len(free[n])))
                y = free[n - 1].pop(rng.randrange(len(free[n - 1])))
                pairs[n].append((x, y, rng.choice(weights)))
    changes = [_random_unimodular(rng, r) for r in ranks]
    boundaries = {}
    for n in range(1, top + 1):
        d = [[0] * ranks[n] for _ in range(ranks[n - 1])]
        for x, y, k in pairs[n]:
            d[y][x] = k
        u, _ = changes[n - 1]
        _, v_inv = changes[n]
        boundaries[n] = u.mul(Mat.from_rows(d, ranks[n]), ZZ).mul(v_inv, ZZ)
    expected = {}
    for name in ("Z", "Q", "Fp:2", "Fp:3"):
        p = int(name[3:]) if name.startswith("Fp:") else None
        groups = []
        for n in range(top + 1):
            divisible = [k for m in (n, n + 1) for _, _, k in pairs.get(m, ()) if p and k % p == 0]
            torsion = ()
            if name == "Z":
                ks = [k for _, _, k in pairs.get(n + 1, ())]
                diagonal = Mat.from_rows([[k if i == j else 0 for j in range(len(ks))] for i, k in enumerate(ks)],
                                         len(ks))
                torsion = tuple(f for f in minors_gcd_invariant_factors(diagonal) if f > 1)
            groups.append((len(free[n]) + len(divisible), torsion))
        expected[name] = tuple(groups)
    return ChainComplex(ZZ, tuple(ranks), boundaries), expected


def _random_unimodular(rng, n):
    """A random n x n integer matrix of determinant +-1 and its inverse, as a product of elementary moves."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    u_inv = [row[:] for row in u]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]  # u <- (I + c e_ij) u
        for row in u_inv:  # u_inv <- u_inv (I - c e_ij)
            row[j] -= c * row[i]
    return Mat.from_rows(u, n), Mat.from_rows(u_inv, n)


def greedy_collapses_reference(skel):
    """Reference greedy collapse: rebuilds every coface list after each collapse.

    Returns the collapses as (face, coface) pairs, in order, and whether the
    complex collapsed to a single vertex.
    """
    cells = {s.objects for level in skel.nondegenerate.values() for s in level}
    if not cells:
        return [], False

    def faces(tup):
        return [tup[:k] + tup[k + 1:] for k in range(len(tup))] if len(tup) > 1 else []

    sequence = []
    changed = True
    while changed:
        changed = False
        cofaces: dict = {}
        for c in cells:
            for f in faces(c):
                cofaces.setdefault(f, []).append(c)
        for f, over in sorted(cofaces.items()):
            if len(over) == 1 and f in cells:
                cells.discard(f)
                cells.discard(over[0])
                sequence.append((f, over[0]))
                changed = True
                break
    return sequence, len(cells) == 1 and len(next(iter(cells))) == 1
