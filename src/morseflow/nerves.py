"""Geometric nerves, order complexes and their normalized chain complexes."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from .categories import PCategory, _bits, _walks, sort_key
from .homology import ChainComplex, HomologySummary, homology
from .rings import ZZ, Ring


@dataclass(frozen=True)
class Simplex:
    """n-simplex of a nerve: objects x_0..x_n plus morphisms f_ij for i < j.

    ``fs[i]`` lists the morphisms from vertex i to vertices i+1..n.  Order
    complexes of posets carry no morphism data (``fs`` is None): their
    simplices are strict chains and are never degenerate.
    """

    objects: tuple
    fs: tuple | None

    @property
    def dim(self) -> int:
        return len(self.objects) - 1

    def f(self, i: int, j: int):
        return self.fs[i][j - i - 1]

    def face(self, k: int) -> "Simplex":
        objs = self.objects[:k] + self.objects[k + 1:]
        if self.fs is None:
            return Simplex(objs, None)
        kept = [i for i in range(self.dim + 1) if i != k]
        fs = tuple(
            tuple(self.f(kept[a], kept[b]) for b in range(a + 1, len(kept)))
            for a in range(len(kept) - 1)
        )
        return Simplex(objs, fs)

    def key(self):
        if self.fs is None:
            return (self.objects, ())
        return (self.objects, tuple(tuple(sort_key(m) for m in row) for row in self.fs))


def is_degenerate(cat: PCategory | None, s: Simplex) -> bool:
    """A simplex collapses at k when vertices k, k+1 repeat with identity glue (chains never do)."""
    for k in range(s.dim):
        if s.objects[k] != s.objects[k + 1]:
            continue
        if not cat.is_identity(s.f(k, k + 1)):
            continue
        if any(s.f(i, k) != s.f(i, k + 1) for i in range(k)):
            continue
        if any(s.f(k, j) != s.f(k + 1, j) for j in range(k + 2, s.dim + 1)):
            continue
        return True
    return False


class SimplicialSetSkeleton:
    """The simplices of a nerve or an order complex through dimension ``maxdim``.

    A d-simplex is stored flat, as ``(objects, ids, degenerate)``: ``ids``
    lists the ids of its morphisms f_ij in row order (i = 0..d-1, then
    j = i+1..d), numbered in one morphism table per skeleton, and
    ``degenerate`` is the bitmask of the positions k where it collapses.
    An order complex's simplices have ``ids == ()`` and are never
    degenerate.  ``simplices`` (every simplex, degenerate ones included) and
    ``nondegenerate`` are the same simplices as ``Simplex`` objects, built
    on first read and kept.

    ``SimplicialSetSkeleton(maxdim, simplices, cat)`` takes ``Simplex``
    lists (dim -> list, in order), keeps them as ``simplices`` and stores
    them flat, deciding degeneracy with ``is_degenerate``;
    ``geometric_nerve`` and ``order_complex`` build the flat form directly.
    """

    def __init__(self, maxdim: int, simplices: dict, cat: PCategory | None = None):
        ids: dict = {}
        levels = {
            d: [(s.objects, tuple(ids.setdefault(f, len(ids)) for row in s.fs or () for f in row),
                 int(is_degenerate(cat, s))) for s in simplices.get(d, [])]
            for d in range(maxdim + 1)
        }
        self._set(maxdim, cat, tuple(ids), levels)
        self._simplices = simplices

    @classmethod
    def _flat(cls, maxdim, cat, morphisms, levels) -> "SimplicialSetSkeleton":
        skel = cls.__new__(cls)
        skel._set(maxdim, cat, morphisms, levels)
        return skel

    def _set(self, maxdim, cat, morphisms, levels):
        self.maxdim = maxdim
        self.cat = cat
        self._morphisms = morphisms  # id -> morphism
        self._levels = levels  # dim -> every (objects, ids, degenerate), in order
        # dim -> the nondegenerate (objects, ids): the generators of the chain complex
        self._nondeg = {d: [(o, i) for o, i, deg in level if not deg] for d, level in levels.items()}
        self._simplices = self._nondegenerate = None
        # the normalized chain complex over Z, built by the first normalized_chain_complex call
        self._chain: ChainComplex | None = None

    @property
    def simplices(self) -> dict:
        """dim -> list of ``Simplex``, degenerate ones included."""
        if self._simplices is None:
            self._simplices = {d: [self._view(o, i) for o, i, _ in level] for d, level in self._levels.items()}
        return self._simplices

    @property
    def nondegenerate(self) -> dict:
        """dim -> list of the nondegenerate ``Simplex``es, in the order of ``simplices``."""
        if self._nondegenerate is None:
            self._nondegenerate = {d: [self._view(o, i) for o, i in level] for d, level in self._nondeg.items()}
        return self._nondegenerate

    def _view(self, objects, ids) -> Simplex:
        if self.cat is None:
            return Simplex(objects, None)
        table = self._morphisms
        return Simplex(objects, tuple(tuple(map(table.__getitem__, ids[a:b])) for a, b in _rows(len(objects) - 1)))

    def sizes(self):
        return {d: len(level) for d, level in self._nondeg.items()}


def _flat_index(d: int, i: int, j: int) -> int:
    """Position of f_ij in the flat ids of a d-simplex."""
    return i * d - i * (i - 1) // 2 + j - i - 1


@lru_cache(maxsize=None)
def _rows(d: int):
    """(start, end) of each row of the flat ids of a d-simplex."""
    return tuple((_flat_index(d, i, i + 1), _flat_index(d, i, d) + 1) for i in range(d))


def _picker(positions):
    """A function taking the tuple of the entries at ``positions`` (itemgetter returns a bare item for one)."""
    if len(positions) == 1:
        (p,) = positions
        return lambda t: (t[p],)
    return itemgetter(*positions) if positions else lambda t: ()


@lru_cache(maxsize=None)
def _join(d: int):
    """For joining (d-1)-simplices s and t into a d-simplex: the ids pickers of
    the front face (last vertex dropped) and back face (vertex 0 dropped) of a
    (d-1)-simplex; per bound f_0j o f_jd on f_(0,d), the positions of f_0j in
    s's ids and of f_jd in t's; the positions of f_(i,d) in the d-simplex's
    ids and of f_(i,d-1) in s's."""
    faces = _face_maps(d - 1)
    bounds = tuple((j - 1, _flat_index(d - 1, j - 1, d - 1)) for j in range(1, d))
    col = tuple(_flat_index(d, i, d) for i in range(d))
    last = tuple(_flat_index(d - 1, i, d - 1) for i in range(d - 1))
    return faces[d - 1][2], faces[0][2], bounds, col, last


@lru_cache(maxsize=None)
def _face_maps(d: int):
    """(sign, objects picker, ids picker) of each face k of a d-simplex."""
    out = []
    for k in range(d + 1):
        kept = [i for i in range(d + 1) if i != k]
        ids = [_flat_index(d, kept[a], kept[b]) for a in range(d) for b in range(a + 1, d)]
        out.append((1 if k % 2 == 0 else -1, _picker(kept), _picker(ids)))
    return tuple(out)


def _number_morphisms(cat: PCategory, objects):
    """One id per morphism, hom by hom, each hom in ``sort_key`` order.

    Returns the table (id -> morphism), per object a the dict b -> the ids
    of ``hom(a, b).elements`` by position (nonempty homs only), and each
    id's rank: the smallest id of its hom with an equal sort key.  Simplices
    with the same objects compare their morphisms within one hom each, so
    comparing ranks compares sort keys.
    """
    table, out, rank = [], {}, []
    for a in objects:
        out[a] = {}
        for b in objects:
            els = cat.hom(a, b).elements
            if not els:
                continue
            keys = [sort_key(f) for f in els]
            order = sorted(range(len(els)), key=keys.__getitem__)
            base = len(table)
            ids = [0] * len(els)
            for r, k in enumerate(order):
                ids[k] = base + r
                rank.append(rank[-1] if r and keys[order[r - 1]] == keys[k] else base + r)
            table.extend(els[k] for k in order)
            out[a][b] = ids
    return tuple(table), out, rank


def geometric_nerve(cat: PCategory, maxdim: int) -> SimplicialSetSkeleton:
    """Simplices are tuples of objects with compatible morphism triangles.

    Beyond dimension 2 a simplex exists exactly when all its triangles do, so
    a d-simplex joins the (d-1)-simplex s on its first d vertices with one, t,
    on its last d, looked up among level d-1 bucketed once by front face; only
    f_(0,d) is new.  Its candidates are the elements of hom(x_0, x_d) below
    every composite f_0j o f_jd: the AND of their down-set masks, each
    composite formed once per nerve.  Morphisms are numbered once, so
    simplices are flat int tuples; degeneracy is decided as each simplex is
    built (``SimplicialSetSkeleton``), and each level is sorted, stably, by
    objects, then by the sort-key ranks of the morphisms row by row.  Tied
    d-simplices of one s have tied t, which sit in their bucket in build
    order, so by induction on d ties keep the order of a column fill.
    """
    objects = sorted(cat.objects)
    table, homs, rank = _number_morphisms(cat, objects)
    is_identity = [cat.is_identity(f) for f in table]
    n = len(table)
    below: dict = {}  # f_id * n + g_id -> down-set mask of f o g in its hom
    levels = {0: [((x,), (), 0) for x in objects]}
    for d in range(1, maxdim + 1):
        front, back, bounds, col, last = _join(d)
        buckets: dict = {}  # front face -> the (d-1)-simplices with it, in level order
        for t in levels[d - 1]:
            buckets.setdefault((t[0][:-1], front(t[1])), []).append(t)
        level = []
        for objs, fids, degenerate in levels[d - 1]:
            x0, y, head = objs[0], objs[-1], fids[:d - 1]
            for t_objs, t_ids, _ in buckets.get((objs[1:], back(fids)), ()):
                x = t_objs[-1]
                first = homs[x0].get(x)  # ids of hom(x_0, x) by position
                if first is None:
                    continue
                mask = (1 << len(first)) - 1
                for p, c in bounds:
                    key = fids[p] * n + t_ids[c]
                    m = below.get(key)
                    if m is None:
                        m = below[key] = cat.hom(x0, x).below_all((cat.compose(table[fids[p]], table[t_ids[c]]),))
                    mask &= m
                grown = objs + (x,)
                for pos in _bits(mask):
                    ids = head + (first[pos],) + t_ids
                    # collapses at k < d - 1 where s does and f_kd = f_(k+1)d, and at d - 1
                    # where x repeats x_(d-1) through an identity and f_i(d-1) = f_id for all i
                    collapsed = 0
                    for k in _bits(degenerate):
                        if ids[col[k]] == ids[col[k + 1]]:
                            collapsed |= 1 << k
                    if x == y and is_identity[ids[col[d - 1]]] and all(fids[p] == ids[col[i]] for i, p in enumerate(last)):
                        collapsed |= 1 << (d - 1)
                    level.append((grown, ids, collapsed))
        level.sort(key=lambda t: (t[0], tuple(map(rank.__getitem__, t[1]))))
        levels[d] = level
    return SimplicialSetSkeleton._flat(maxdim, cat, table, levels)


def order_complex(elements, leq, maxdim: int | None = None) -> SimplicialSetSkeleton:
    """Chains of a finite poset, enumerated directly."""
    elements = sorted(elements, key=_poset_key)
    if maxdim is None:
        maxdim = max(len(elements) - 1, 0)
    above = {a: [b for b in elements if a != b and leq(a, b)] for a in elements}
    levels = {d: [] for d in range(maxdim + 1)}
    for chain in _walks(elements, lambda ch: above[ch[-1]], maxdim):
        levels[len(chain) - 1].append((chain, (), 0))
    return SimplicialSetSkeleton._flat(maxdim, None, (), levels)


def _poset_key(el):
    try:
        return (0, sort_key(el))
    except AttributeError:
        return (1, repr(el))


def normalized_chain_complex(skel: SimplicialSetSkeleton, ring: Ring) -> ChainComplex:
    """The normalized chain complex of a skeleton, read over ``ring``.

    Generators are the nondegenerate flat simplices; face k is taken
    through index maps over the objects and the ids, made once per (d, k),
    and kept when it is a nondegenerate simplex.  The boundary entries are
    integers, so the complex is built over Z once per skeleton, checked
    there (d o d = 0 in plain ints) and kept on the skeleton; every ring
    reads that one complex.
    """
    if skel._chain is None:
        gens = [skel._nondeg[d] for d in range(skel.maxdim + 1)]
        kept = [set(level) for level in gens]

        def faces(s):
            objects, ids = s
            d = len(objects) - 1
            for sign, pick_objects, pick_ids in _face_maps(d):
                face = (pick_objects(objects), pick_ids(ids) if ids else ())
                if face in kept[d - 1]:
                    yield face, sign

        skel._chain = ChainComplex.from_faces(ZZ, gens, faces)
    return skel._chain.over(ring)


def nerve_homology(skel: SimplicialSetSkeleton, ring: Ring) -> HomologySummary:
    """Homology of a nerve skeleton through dimension maxdim, in degrees below maxdim.

    The skeleton's one complex over Z is read over ``ring``: its invariant
    factors are taken in ints, and ``ring`` only decides which are units.
    The top degree is dropped: H_n needs the simplices through n + 1.
    """
    summary = homology(normalized_chain_complex(skel, ring))
    return HomologySummary(summary.ring_name, summary.groups[:skel.maxdim])


def greedy_collapses_to_point(skel: SimplicialSetSkeleton) -> bool:
    """Elementary collapses of the chain complex of a poset, greedily applied.

    Works on order complexes (no morphism data).  Returns True when the
    complex collapses to a single vertex; False is inconclusive.
    """
    cells = {objects for level in skel._nondeg.values() for objects, _ in level}
    if not cells:
        return False
    for _ in _greedy_collapses(cells):
        pass
    return len(cells) == 1 and len(next(iter(cells))) == 1


def _facets(cell):
    return [cell[:k] + cell[k + 1:] for k in range(len(cell))] if len(cell) > 1 else []


def _greedy_collapses(cells: set):
    """Remove the smallest free face of ``cells`` and its one coface until none is free.

    A face is free when it is a cell and exactly one cell has it as a facet.
    Yields each (face, coface) as it is removed.  The coface lists are kept
    across collapses, and a heap holds every face that became free.
    """
    cofaces: dict = {}
    for c in cells:
        for f in _facets(c):
            cofaces.setdefault(f, []).append(c)
    free = [f for f, over in cofaces.items() if len(over) == 1 and f in cells]
    heapq.heapify(free)
    while free:
        f = heapq.heappop(free)
        if f not in cells or len(cofaces[f]) != 1:
            continue  # collapsed already, or lost its coface since it was pushed
        c = cofaces[f][0]
        yield f, c
        for gone in (f, c):
            cells.discard(gone)
            for g in _facets(gone):
                over = cofaces[g]
                over.remove(gone)
                if len(over) == 1 and g in cells:
                    heapq.heappush(free, g)
