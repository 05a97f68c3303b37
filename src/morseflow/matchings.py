"""Acyclic partial matchings and the Morse systems they induce.

A matching pairs cells with faces; the classical kind requires codimension 1.
The induced system of atoms on the entrance path category is validated
against four axioms (exhaustion, order, lifting, switching), and each of its
arrows is graded for mildness of its restriction category.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain

from .categories import (
    NoAtom,
    PCategory,
    _bits,
    atom,
    find_homotopy_extremal,
    full_subcategory,
)
from .complexes import Complex, ValidationReport, _read_json
from .nerves import geometric_nerve, nerve_homology
from .rings import QQ

CERTIFIED = "CERTIFIED"
ACYCLIC = "ACYCLIC"
FAIL = "FAIL"
MILDNESS_NERVE_DIM = 4  # the ACYCLIC verdict reads nerve homology through degree 3


class BadPair(Exception):
    """A matched pair violates the face or codimension requirement."""


@dataclass(frozen=True)
class Matching:
    pairs: tuple  # (upper, lower) cell pairs
    kind: str = "classical"  # or "generalized"

    def __post_init__(self):
        if self.kind not in ("classical", "generalized"):
            raise ValueError(f"unknown matching kind {self.kind!r}")
        flat = [c for p in self.pairs for c in p]
        if len(flat) != len(set(flat)):
            raise ValueError("matching is not a partial bijection: a cell occurs twice")

    @staticmethod
    def from_json(text: str) -> "Matching":
        doc = _read_json(text)
        try:
            kind, raw = doc["kind"], doc["pairs"]
            shaped = isinstance(raw, list) and set(map(type, raw)) <= {list} and set(map(len, raw)) <= {2}
            types = set(map(type, chain.from_iterable(raw))) if shaped else set()
            if not shaped or not types <= {str, int}:
                raise TypeError("pairs must be a list of [upper, lower] ids, each a str or an int")
            pairs = tuple((str(u), str(l)) for u, l in raw)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"matching file: expected kind and pairs ({exc})") from exc
        return Matching(pairs, kind)

    def to_json(self) -> str:
        return json.dumps({"kind": self.kind, "pairs": [list(p) for p in self.pairs]}, indent=2)


def check_pairs(c: Complex, m: Matching):
    """Raise BadPair unless every pair is a face pair of the right codimension."""
    dim_of, covers, classical = c.dim_of, c.covers, m.kind == "classical"
    for u, l in m.pairs:
        if u not in dim_of or l not in dim_of:
            raise BadPair(f"pair ({u}, {l}) references an unknown cell")
        if (u, l) not in covers and not c.is_face(u, l):
            raise BadPair(f"{l} is not a face of {u}")
        if classical and dim_of[u] - dim_of[l] != 1:
            raise BadPair(f"classical pair ({u}, {l}) must drop dimension by exactly 1")


def check_acyclic(c: Complex, m: Matching) -> ValidationReport:
    """Empty report iff the flow relation on matched lower cells has no cycle.

    The relation has d -> d' whenever d != d' is a strict face of the
    partner of d'.  For a classical matching on a complex whose covers all
    lower the dimension, only covers can lie on a cycle: a strict face has
    a lower dimension than its cell, so along d -> d' the dimension of d is
    at most dim(partner of d') - 1 = dim(d'), and around a cycle it cannot
    rise, so it is constant; then d is a face of the partner of d' one
    dimension down, which a chain of dimension-lowering covers reaches in
    one cover.  The cover relation is searched first, and the strict-face
    relation only when that finds a cycle, so that the witness is the first
    cycle of the strict-face search, as it is for generalized matchings.
    """
    check_pairs(c, m)
    report = ValidationReport()
    partner = {l: u for u, l in m.pairs}
    lowers = sorted(partner)
    dim_of = c.dim_of
    if m.kind == "classical" and all(dim_of[u] > dim_of[l] for u, l in c.ungraded):  # the others drop it by 1
        if _find_cycle(lowers, _flow_successors(lowers, partner, c.cover_faces.__getitem__)) is None:
            return report
    cycle = _find_cycle(lowers, _flow_successors(lowers, partner, c.strict_faces))
    if cycle is not None:
        report.add("cycle", "matching flow relation has a cycle: " + " < ".join(cycle), tuple(cycle))
    return report


def _flow_successors(lowers, partner, faces) -> dict:
    """d -> the d' != d with d in faces(partner of d'), for d and d' in ``lowers``; lists in sorted order."""
    succ = {d: [] for d in lowers}
    for d2 in lowers:
        for d in faces(partner[d2]):
            if d != d2 and d in succ:
                succ[d].append(d2)
    return succ


def _find_cycle(nodes, succ):
    """The first cycle a depth-first search meets, closed (first == last), or None.

    Searches start at ``nodes`` in order and follow ``succ[node]`` in list
    order; the witness runs down the search path from the node the back edge
    returns to.  The search keeps its own stack, so depth is unbounded.
    """
    depth = {}  # node -> its position on the path while active, -1 once done
    for start in nodes:
        if start in depth:
            continue
        depth[start] = 0
        path, pending = [start], [iter(succ[start])]
        while pending:
            for nxt in pending[-1]:
                d = depth.get(nxt)
                if d is None:
                    depth[nxt] = len(path)
                    path.append(nxt)
                    pending.append(iter(succ[nxt]))
                    break
                if d >= 0:
                    return path[d:] + [nxt]
            else:
                depth[path.pop()] = -1
                pending.pop()
    return None


# ---------------------------------------------------------------------------
# Morse systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MorseSystem:
    sigma: tuple  # Morphism arrows, sorted
    successors: dict  # f -> the arrows g != f with hom(f.source, g.target) nonempty, in sigma order
    critical: tuple  # object ids
    span: dict  # f -> frozenset of the objects between its endpoints
    predecessors: dict  # f -> the arrows g with f in successors[g], in sigma order
    complete: bool  # every arrow spans a singleton hom-poset: descending chains give every zigzag
    cycle: list | None  # the first cycle of the order that _find_cycle meets, closed, or None


def morse_system_from_arrows(cat: PCategory, arrows) -> MorseSystem:
    """Derive the order, critical objects and spans of a system.

    f comes before g when hom(f.source, g.target) is nonempty, so the
    successors of f are the arrows ending at an object that f.source
    reaches; the span of f is the reachable objects that reach f.target.
    The reversed order, its first cycle and completeness are derived here
    too, so their readers never derive them again.
    """
    sigma = tuple(sorted(arrows))
    position = {f: i for i, f in enumerate(sigma)}
    ending_at = {}  # object -> the arrows of sigma with that target
    for g in sigma:
        ending_at.setdefault(g.target, []).append(g)
    successors, span, predecessors = {}, {}, {f: [] for f in sigma}
    for f in sigma:
        reach = cat.reachable(f.source)
        after = [g for z in reach for g in ending_at.get(z, ()) if g != f]
        successors[f] = tuple(sorted(after, key=position.__getitem__))
        span[f] = frozenset(w for w in reach if not cat.hom(w, f.target).is_empty())
        for g in successors[f]:
            predecessors[g].append(f)
    spanned = set().union(*span.values())
    critical = tuple(sorted(o for o in cat.objects if o not in spanned))
    complete = all(len(cat.hom(f.source, f.target)) == 1 for f in sigma)
    predecessors = {f: tuple(before) for f, before in predecessors.items()}
    return MorseSystem(sigma, successors, critical, span, predecessors, complete, _find_cycle(sigma, successors))


def matching_to_morse_system(c: Complex, m: Matching, cat: PCategory) -> MorseSystem:
    """Atoms of hom(upper, lower) for each matched pair, with derived data."""
    check_pairs(c, m)
    arrows = []
    for u, l in m.pairs:
        try:
            a = atom(cat, u, l)
        except NoAtom:
            raise BadPair(f"hom({u}, {l}) has no atom") from None
        if a is None:
            raise BadPair(f"hom({u}, {l}) is empty")
        arrows.append(a)
    return morse_system_from_arrows(cat, arrows)


def validate_morse_system(cat: PCategory, ms: MorseSystem) -> ValidationReport:
    """Exhaustively check the four axioms; each violation carries a witness."""
    report = ValidationReport()
    sigma = ms.sigma

    # Exhaustion, lifting and switching visit only the order pairs (f0, f1),
    # f1 in successors[f0]: hom(f0.source, f1.target) nonempty.  Every pair
    # they can flag is one.  Each needs hom(f0.source, f1.source) nonempty (an
    # endpoint f1.source in the span of f0, or a square's g: f0.source ->
    # f1.source) or hom(f0.source, f1.target) nonempty (f1.target in the
    # span), and the first gives the second by composing with f1.  Each
    # successors[f0] is in sigma order, so the findings keep the order of a
    # scan over sigma x sigma.

    # exhaustion
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
        between = ms.span[f]
        for g in ms.successors[f]:
            for obj in (g.source, g.target):
                if obj in between:
                    report.add(
                        "exhaustion",
                        f"{g} touches {obj}, which lies between the endpoints of {f}",
                        (repr(f), repr(g), obj),
                    )

    # order: the relation generates a partial order iff its digraph is acyclic
    if ms.cycle is not None:
        names = tuple(repr(x) for x in ms.cycle)
        report.add("order", "order relation has a cycle: " + " -> ".join(names), names)

    # lifting: a square (g, gp) with f0 o gp <= g o f1 splits through a p
    # with f0 o p <= g and gp <= p o f1.  Each composite is formed once per
    # pair.  Per g, down-set masks give the gp of its squares and the p below
    # it, and it splits the gp below p o f1 for one of those p.  A composite
    # outside its hom is below nothing.
    for f0 in sigma:
        for f1 in ms.successors[f0]:
            h_g, h_gp = cat.hom(f0.source, f1.source), cat.hom(f0.target, f1.target)
            if h_g.is_empty() or h_gp.is_empty():
                continue
            h_v, ps = cat.hom(f0.source, f1.target), cat.hom(f0.target, f1.source).elements
            ps_below = _landing(h_g, [cat.compose(f0, p) for p in ps])
            gps_below = _landing(h_v, [cat.compose(f0, gp) for gp in h_gp.elements])
            lifted = [h_gp.below_all((cat.compose(p, f1),)) for p in ps]
            for g, down in zip(h_g.elements, h_g.relation.down):
                closed = gps_below(h_v.below_all((cat.compose(g, f1),)))
                if not closed:
                    continue
                split = 0
                for k in _bits(ps_below(down)):
                    split |= lifted[k]
                for j in _bits(closed & ~split):
                    gp = h_gp.elements[j]
                    report.add(
                        "lifting",
                        f"square ({f0!r}, {g!r}, {gp!r}, {f1!r}) does not split",
                        (repr(f0), repr(g), repr(gp), repr(f1)),
                    )

    # switching: the v above both sides are one mask AND, and the composite
    # through the atom q is formed once per pair
    for f0 in sigma:
        for f1 in ms.successors[f0]:
            if cat.hom(f0.source, f1.source).is_empty() or cat.hom(f0.target, f1.target).is_empty():
                continue
            try:
                h = atom(cat, f0.source, f1.source)
                ell = atom(cat, f0.target, f1.target)
            except NoAtom:
                report.add("switching", "atom missing for switching square", (repr(f0), repr(f1)))
                continue
            h_v = cat.hom(f0.source, f1.target)
            tops = h_v.above(cat.compose(f0, ell)) & h_v.above(cat.compose(h, f1))
            if not tops:
                continue
            vs = [h_v.elements[i] for i in _bits(tops)]
            if cat.hom(f0.target, f1.source).is_empty():
                for v in vs:
                    report.add("switching", f"no morphism {f0.target} -> {f1.source} below {v!r}", (repr(f0), repr(f1), repr(v)))
                continue
            try:
                q = atom(cat, f0.target, f1.source)
            except NoAtom:
                for v in vs:
                    report.add("switching", "hom has no atom", (f0.target, f1.source))
                continue
            through = cat.compose(cat.compose(f0, q), f1)
            for i in _bits(tops & ~h_v.above(through)):
                v = h_v.elements[i]
                report.add("switching", f"{through!r} is not below {v!r}", (repr(f0), repr(f1), repr(v)))
    return report


def _landing(hp, composites):
    """Maps a mask of hp's positions to the mask of the composites, by index, at them (none outside hp)."""
    at: dict = {}
    for k, c in enumerate(composites):
        i = hp.relation.index.get(c)
        if i is not None:
            at[i] = at.get(i, 0) | 1 << k
    reach = sum(1 << i for i in at)

    def gather(mask):
        out = 0
        for i in _bits(mask & reach):
            out |= at[i]
        return out

    return gather


# ---------------------------------------------------------------------------
# Restriction categories and mildness
# ---------------------------------------------------------------------------


def restriction_category(cat: PCategory, ms: MorseSystem, f) -> PCategory:
    """Full subcategory on objects reachable from source(f) but not above target(f)."""
    if f not in ms.span:
        raise ValueError(f"{f!r} is not in the system")
    return full_subcategory(cat, [z for z in cat.reachable(f.source) if z not in ms.span[f]])


@dataclass
class MildnessEntry:
    arrow: object
    finite: bool
    loopfree: bool
    verdict: str
    detail: str

    def as_dict(self):
        return {
            "arrow": repr(self.arrow),
            "finite": self.finite,
            "loopfree": self.loopfree,
            "verdict": self.verdict,
            "detail": self.detail,
        }


@dataclass
class MildnessReport:
    entries: list

    @property
    def all_mild(self) -> bool:
        return all(e.verdict in (CERTIFIED, ACYCLIC) and e.finite and e.loopfree for e in self.entries)

    def as_dict(self):
        return {"all_mild": self.all_mild, "entries": [e.as_dict() for e in self.entries]}


def check_mildness(cat: PCategory, ms: MorseSystem) -> MildnessReport:
    """Grade each system arrow by the shape of its restriction category.

    CERTIFIED: a homotopy-extremal object exists, or the reachability poset
    (a <= b when hom(a, b) is nonempty) dismantles by beat points
    (``_dismantles``), so its order complex collapses to a point.  ACYCLIC:
    the reduced homology of the nerve vanishes through degree 3
    (contractibility uncertified).  FAIL otherwise.

    No other collapse of the order complex is tried, and for entrance-path
    and thin categories none could change a verdict.  The restriction
    objects of an arrow u -> l of an entrance-path category En(X) are the
    faces of u that do not contain l.  They are closed under taking faces,
    so they form a subcomplex K, and every entrance path between two of
    them runs through cells of K: the restriction category is En(K).  Its
    nerve has the homotopy type of K (the paper's first theorem, for a
    regular CW complex), and so has the order complex of K's face poset,
    which is En(K)'s reachability poset.  The nerve of a loop-free thin
    category is the order complex of its reachability poset, and a full
    subcategory of a thin category is thin.  So for both, a collapsible
    order complex means a contractible nerve, whose reduced homology
    vanishes in every degree: an entry that a collapse would certify reads
    ACYCLIC, never FAIL, and ``all_mild`` is the same.

    A hand-built category is outside that argument.  Its poset certificates
    read the order complex of the reachability poset, a space that need
    not have the homotopy type of the nerve: two parallel arrows a -> b
    form a chain as a poset, which dismantles, and a circle as a nerve.
    """
    entries = []
    for f in ms.sigma:
        sub = restriction_category(cat, ms, f)
        loopfree = not any(b != a and not sub.hom(b, a).is_empty() for a in sub.objects for b in sub.reachable(a))
        entries.append(MildnessEntry(f, True, loopfree, *_grade(sub, loopfree)))  # finite by construction
    return MildnessReport(entries)


def _grade(sub: PCategory, loopfree: bool):
    """The verdict and detail of one restriction category."""
    if not loopfree:
        return FAIL, "restriction category has a loop"
    if not sub.objects:
        return FAIL, "restriction category is empty"
    if (extremal := find_homotopy_extremal(sub)) is not None:
        return CERTIFIED, f"homotopy-{extremal[1]} object {extremal[0]}"
    if _dismantles(sub.objects, sub.reachable):
        return CERTIFIED, "order complex collapses to a point"
    betti = nerve_homology(geometric_nerve(sub, MILDNESS_NERVE_DIM), QQ).betti()
    if betti and betti[0] == 1 and all(b == 0 for b in betti[1:]):
        return ACYCLIC, f"reduced homology vanishes to degree {len(betti) - 1}"
    return FAIL, f"nerve Betti numbers {betti}"


def _dismantles(objects, reachable) -> bool:
    """Whether the poset on ``objects`` (a <= b for b in ``reachable(a)``, a
    among them) dismantles to one point by removing beat points x: the
    elements strictly below x have a maximum y, or those above a minimum y.

    Every maximal chain through x passes y, so the link of x in the order
    complex is a cone: removing x is a strong collapse (Barmak and Minian,
    DCG 2012), and a poset that dismantles has a collapsible order complex.
    The removal order does not change the core (Stong, Trans. AMS 1966).
    Positions follow a linear extension, by shrinking up-sets: y is the top
    bit of the lower mask or the bottom bit of the upper one.
    """
    order = sorted(objects, key=lambda a: -len(reachable(a)))
    position = {a: i for i, a in enumerate(order)}
    up = [sum(1 << position[b] for b in reachable(a)) for a in order]
    down = [0] * len(up)
    for i, mask in enumerate(up):
        for j in _bits(mask):
            down[j] |= 1 << i
    alive, before = (1 << len(up)) - 1, 0
    while alive != before:  # passes until one removes nothing
        before = alive
        for x in _bits(before):
            below, above = down[x] & alive & ~(1 << x), up[x] & alive & ~(1 << x)
            has_maximum = below and not below & ~down[below.bit_length() - 1]
            has_minimum = above and not above & ~up[(above & -above).bit_length() - 1]
            if has_maximum or has_minimum:
                alive &= ~(1 << x)
    return not alive & (alive - 1)
