"""Geometric nerves, order complexes and their normalized chain complexes."""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

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


@dataclass
class SimplicialSetSkeleton:
    maxdim: int
    simplices: dict  # dim -> list of Simplex (degenerate ones included)
    cat: PCategory | None = None
    nondegenerate: dict = field(init=False)  # dim -> list of the nondegenerate simplices
    # the normalized chain complex over Z, built by the first normalized_chain_complex call
    _chain: ChainComplex | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.nondegenerate = {
            d: [s for s in self.simplices.get(d, []) if not is_degenerate(self.cat, s)]
            for d in range(self.maxdim + 1)
        }

    def sizes(self):
        return {d: len(level) for d, level in self.nondegenerate.items()}


def geometric_nerve(cat: PCategory, maxdim: int) -> SimplicialSetSkeleton:
    """Simplices are tuples of objects with compatible morphism triangles.

    Beyond dimension 2 a simplex exists exactly when all its triangles do, so
    each dimension extends the previous one by a vertex x, filling its column as a walk.
    """
    objects = sorted(cat.objects)
    simplices = {0: [Simplex((x,), ()) for x in objects]}
    for d in range(1, maxdim + 1):
        level = []
        for s in simplices[d - 1]:
            for x in objects:
                hom_last = cat.hom(s.objects[-1], x)
                if hom_last.is_empty():
                    continue

                def succ(col):
                    # col holds f_(d-1, d) .. f_(i+1, d); f_(i, d) lies below every
                    # composite f_(i, j) o f_(j, d), computed once for all candidates.
                    i = d - 1 - len(col)
                    hp = cat.hom(s.objects[i], x)
                    bounds = [cat.compose(s.f(i, j), col[d - 1 - j]) for j in range(i + 1, d)]
                    return [hp.elements[k] for k in _bits(hp.below_all(bounds))]

                for col in _walks(hom_last.elements, succ, d - 1):
                    if len(col) == d:
                        fs = tuple(s.fs[j] + (col[d - 1 - j],) for j in range(d - 1)) + ((col[0],),)
                        level.append(Simplex(s.objects + (x,), fs))
        level.sort(key=Simplex.key)
        simplices[d] = level
    return SimplicialSetSkeleton(maxdim, simplices, cat)


def order_complex(elements, leq, maxdim: int | None = None) -> SimplicialSetSkeleton:
    """Chains of a finite poset, enumerated directly."""
    elements = sorted(elements, key=_poset_key)
    if maxdim is None:
        maxdim = max(len(elements) - 1, 0)
    above = {a: [b for b in elements if a != b and leq(a, b)] for a in elements}
    simplices = {d: [] for d in range(maxdim + 1)}
    for chain in _walks(elements, lambda ch: above[ch[-1]], maxdim):
        simplices[len(chain) - 1].append(Simplex(chain, None))
    return SimplicialSetSkeleton(maxdim, simplices, None)


def _poset_key(el):
    try:
        return (0, sort_key(el))
    except AttributeError:
        return (1, repr(el))


def normalized_chain_complex(skel: SimplicialSetSkeleton, ring: Ring) -> ChainComplex:
    """The normalized chain complex of a skeleton, read over ``ring``.

    Generators are the nondegenerate simplices; degenerate faces are dropped.
    The boundary entries are integers, so the complex is built over Z once
    per skeleton, checked there (d o d = 0 in plain ints) and kept on the
    skeleton; every ring reads that one complex.
    """
    if skel._chain is None:
        gens = [skel.nondegenerate[d] for d in range(skel.maxdim + 1)]
        kept = [set(level) for level in gens]

        def faces(s):
            for k in range(s.dim + 1):
                face = s.face(k)
                if face in kept[s.dim - 1]:
                    yield face, 1 if k % 2 == 0 else -1

        skel._chain = ChainComplex.from_faces(ZZ, gens, faces)
    return skel._chain.over(ring)


def nerve_homology(skel: SimplicialSetSkeleton, ring: Ring) -> HomologySummary:
    """Homology of a nerve skeleton through dimension maxdim, in degrees below maxdim.

    The skeleton's one complex over Z is read over ``ring``: its unit pivots
    are taken in ints and only the core left over meets ``ring``.  The top
    degree is dropped: H_n needs the simplices through n + 1.
    """
    summary = homology(normalized_chain_complex(skel, ring))
    return HomologySummary(summary.ring_name, summary.groups[:skel.maxdim])


def greedy_collapses_to_point(skel: SimplicialSetSkeleton) -> bool:
    """Elementary collapses of the chain complex of a poset, greedily applied.

    Works on order complexes (no morphism data).  Returns True when the
    complex collapses to a single vertex; False is inconclusive.
    """
    cells = {s.objects for level in skel.nondegenerate.values() for s in level}
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
