"""Zigzags, their contraction rewriter, localized hom-posets and the discrete flow category.

A zigzag alternates forward morphisms of the base category with backward
system arrows.  Two zigzags represent the same localized morphism when they
are connected by contractions: a column (g_i, f_i, g_(i+1)) contracts
through a splitting point a whenever g_i ends with p: a -> y_i, g_(i+1)
starts with q: x_i -> a, and f_i lies below q o p.  ``reduce_zigzag`` is the
one rewriter: it applies the first contraction until none is left, and flow
composition uses it.  The order on classes is generated by single-slot steps
(one forward morphism raised in its hom-poset, which generates the
componentwise order of same-shape zigzags) together with column erasures
(the longer zigzag sits below), closed through the classes.  Every move acts
on one column or one morphism, so a move table computes each once.

For systems whose arrows span singleton hom-posets (classical matchings,
codimension 1) the strictly descending enumeration is complete and no length
bound is needed; otherwise enumeration is truncated and a stabilization loop
compares successive bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .categories import HomPoset, PCategory, _close_order, _walks
from .matchings import MorseSystem

STABILIZATION_NERVE_DIM = 3  # successive bounds must agree on nerve homology through degree 2


class OrderViolation(Exception):
    """Antisymmetry of the localized order failed; carries a witness pair."""


# ---------------------------------------------------------------------------
# Zigzags
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Zigzag:
    rights: tuple  # g_0 .. g_(k+1), morphisms of the base category
    lefts: tuple  # f_0 .. f_k, system arrows (k may be -1)

    def __post_init__(self):
        if len(self.rights) != len(self.lefts) + 1:
            raise ValueError("a zigzag needs one more forward arrow than backward arrows")
        for i, f in enumerate(self.lefts):
            if self.rights[i].target != f.target:
                raise ValueError(f"column {i}: forward target {self.rights[i].target} != {f.target}")
            if self.rights[i + 1].source != f.source:
                raise ValueError(f"column {i}: next forward source != {f.source}")
        # Zigzags key every class lookup: hash the nested fields once.
        # Equality stays field-wise.
        object.__setattr__(self, "_hash", hash((self.rights, self.lefts)))

    def __hash__(self):
        return self._hash

    @property
    def source(self) -> str:
        return self.rights[0].source

    @property
    def target(self) -> str:
        return self.rights[-1].target

    def key(self):
        return (
            len(self.lefts),
            tuple(g.label for g in self.rights),
            tuple(f.label for f in self.lefts),
        )

    def __repr__(self):
        return f"Zigzag({zigzag_to_text(self)!r})"


def zigzag_to_text(z: Zigzag) -> str:
    words = list(z.rights[0].label)
    out = " > ".join(words)
    for f, g in zip(z.lefts, z.rights[1:]):
        out += " < " + f.source
        for cell in g.label[1:]:
            out += " > " + cell
    return out


def zigzag_from_text(cat: PCategory, ms: MorseSystem, text: str) -> Zigzag:
    """Parse the alternating `a > b < c > d` syntax back into a zigzag."""
    tokens = text.replace("<", " < ").replace(">", " > ").split()
    if not tokens or tokens[0] in ("<", ">"):
        raise ValueError("zigzag text must start with a cell")
    by_source = {f.source: f for f in ms.sigma}

    def resolve(path):
        path = tuple(path)
        for g in cat.hom(path[0], path[-1]).elements:
            if g.label == path:
                return g
        raise ValueError(f"no morphism with cell sequence {path}")

    rights, lefts = [], []
    path = [tokens[0]]
    i = 1
    while i < len(tokens):
        sep, cell = tokens[i], tokens[i + 1]
        if sep == ">":
            path.append(cell)
        elif sep == "<":
            rights.append(resolve(path))
            f = by_source.get(cell)
            if f is None or f.target != path[-1]:
                raise ValueError(f"no system arrow {cell} -> {path[-1]}")
            lefts.append(f)
            path = [cell]
        else:
            raise ValueError(f"unexpected token {sep!r}")
        i += 2
    rights.append(resolve(path))
    return Zigzag(tuple(rights), tuple(lefts))


# ---------------------------------------------------------------------------
# Moves
# ---------------------------------------------------------------------------


class _MoveTable:
    """The localization moves of one category, computed once per column.

    A contraction or an erasure replaces one column (g_i, f_i, g_(i+1)) of a
    zigzag by a single forward morphism, and which morphisms qualify depends
    on the column alone; a single-slot step depends on the morphism alone.
    So each column's merged morphisms, each column's erasure replacements and
    each morphism's strictly larger hom-poset elements are computed on first
    use, in first-seen order, and kept for the table's lifetime (one flow
    category or one localized hom-poset).  Zigzags are only spliced.
    """

    def __init__(self, cat: PCategory):
        self.cat = cat
        self._merged: dict = {}  # (g1, f, g2) -> merged morphisms of its contractions
        self._erased: dict = {}  # (g1, f, g2) -> replacements of its erasures
        self._above: dict = {}  # g -> strictly larger elements of its hom-poset

    def merged(self, g1, f, g2) -> tuple:
        """Cancellations of a column through a common splitting point a: g1 ends
        with p: a -> y, g2 starts with q: x -> a, and f lies below q o p."""
        key = (g1, f, g2)
        out = self._merged.get(key)
        if out is None:
            cat = self.cat
            heads = cat.splittings(g2)
            out = []
            for p_head, a, p in cat.splittings(g1):
                for q, a2, h_tail in heads:
                    if a == a2 and cat.leq(f, cat.compose(q, p)):
                        out.append(cat.compose(p_head, h_tail))
            out = self._merged[key] = tuple(dict.fromkeys(out))
        return out

    def erased(self, g1, f, g2) -> tuple:
        """Replacements of a column by one morphism lying above it in the order."""
        key = (g1, f, g2)
        out = self._erased.get(key)
        if out is None:
            cat = self.cat
            out = [
                cat.compose(g1, r)
                for r in cat.hom(f.target, g2.target).elements
                if cat.leq(g2, cat.compose(f, r))
            ]
            out.extend(
                cat.compose(r, g2)
                for r in cat.hom(g1.source, f.source).elements
                if cat.leq(g1, cat.compose(r, f))
            )
            out = self._erased[key] = tuple(dict.fromkeys(out))
        return out

    def above(self, g) -> tuple:
        """The elements strictly above g in its hom-poset, in element order."""
        out = self._above.get(g)
        if out is None:
            hp = self.cat.hom(g.source, g.target)
            out = self._above[g] = tuple(g2 for g2 in hp.elements if g2 != g and hp.leq(g, g2))
        return out

    def contractions(self, z: Zigzag):
        """All one-step cancellations of a column through a common splitting point."""
        return _spliced(z, self.merged)

    def erasures(self, z: Zigzag):
        """Order moves deleting one column; the longer zigzag lies below the result."""
        return _spliced(z, self.erased)

    def reduce(self, z: Zigzag) -> Zigzag:
        """Apply the first contraction until none is left; the result is irreducible."""
        while True:
            nxt = next(self.contractions(z), None)
            if nxt is None:
                return z
            z = nxt


def _spliced(z: Zigzag, replacements):
    """Each zigzag made by replacing one column of z with one of its replacements, once."""
    seen = set()
    for i, f in enumerate(z.lefts):
        for g in replacements(z.rights[i], f, z.rights[i + 1]):
            out = Zigzag(
                z.rights[:i] + (g,) + z.rights[i + 2:],
                z.lefts[:i] + z.lefts[i + 1:],
            )
            if out not in seen:
                seen.add(out)
                yield out


def reduce_zigzag(cat: PCategory, z: Zigzag) -> Zigzag:
    """Apply the first contraction until none is left; the result is irreducible."""
    return _MoveTable(cat).reduce(z)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def _check_max_len(max_len):
    if max_len is not None and max_len < 0:
        raise ValueError(f"the zigzag length bound must be at least 0, not {max_len}")


def enumerate_zigzags(cat: PCategory, ms: MorseSystem, w: str, z: str, max_len=4):
    """All normal-form zigzags from w to z.

    With singleton arrow hom-posets, chains of backward arrows are strictly
    descending and the enumeration is complete whatever the bound; otherwise
    at most ``max_len`` backward arrows are used (and a bound is required).
    """
    _check_max_len(max_len)
    for end in (w, z):
        if end not in cat.objects:
            raise ValueError(f"zigzag endpoint {end!r} is not an object of the category")
    singleton = ms.all_singleton_homs(cat)
    if max_len is None and not singleton:
        raise ValueError("a length bound is required for this system")

    def succ(chain):
        last = chain[-1]
        if singleton:
            return [f for f in ms.sigma if (last, f) in ms.rel and f not in chain]
        return [f for f in ms.sigma if f == last or (last, f) in ms.rel]

    # A chain whose first slot hom(w, f.target) is empty stays empty however
    # it is extended, so walks start only where that slot is filled.
    starts = [f for f in ms.sigma if not cat.hom(w, f.target).is_empty()] if max_len != 0 else []
    chains = [()]
    chains.extend(_walks(starts, succ, None if max_len is None else max_len - 1))
    out = []
    for chain in chains:
        slots = []
        src = w
        for f in chain:
            slots.append(cat.hom(src, f.target).elements)
            src = f.source
        slots.append(cat.hom(src, z).elements)
        out.extend(Zigzag(combo, chain) for combo in product(*slots))
    return sorted(out, key=Zigzag.key)


# ---------------------------------------------------------------------------
# Classes and localized hom-posets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZigzagClass:
    canonical: Zigzag
    members: frozenset

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.canonical, self.members)))
        # Classes are sorted, compared across bounds and keyed in nerve
        # simplices: build the canonical label tuples once.
        object.__setattr__(self, "_key", self.canonical.key())

    def __hash__(self):
        return self._hash

    @property
    def source(self) -> str:
        return self.canonical.source

    @property
    def target(self) -> str:
        return self.canonical.target

    @property
    def label(self) -> tuple:
        return ("[" + zigzag_to_text(self.canonical) + "]",)

    def key(self):
        return self._key

    def __repr__(self):
        return f"[{zigzag_to_text(self.canonical)}]"


def _partition_into_classes(moves: _MoveTable, zigzags):
    parent = {z: z for z in zigzags}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    pool = set(zigzags)
    reducible = set()
    for zg in zigzags:
        for tgt in moves.contractions(zg):
            reducible.add(zg)
            if tgt not in pool:
                raise AssertionError(f"contraction left the enumerated set: {tgt!r}")
            union(zg, tgt)
    groups: dict = {}
    for zg in zigzags:
        groups.setdefault(find(zg), []).append(zg)
    classes = []
    member_to_class: dict = {}
    for members in groups.values():
        irreducible = [m for m in members if m not in reducible]
        canonical = min(irreducible, key=Zigzag.key)
        cls = ZigzagClass(canonical, frozenset(members))
        classes.append(cls)
        for m in members:
            member_to_class[m] = cls
    classes.sort(key=ZigzagClass.key)
    return classes, member_to_class


def _loc_hom(moves: _MoveTable, ms: MorseSystem, w: str, z: str, max_len=4):
    zigzags = enumerate_zigzags(moves.cat, ms, w, z, max_len)
    classes, member_to_class = _partition_into_classes(moves, zigzags)

    # Single-slot steps generate the componentwise order of same-shape
    # zigzags; every step stays in the enumerated product of the slots.
    rel = {(c, c) for c in classes}
    for zg in zigzags:
        below = member_to_class[zg]
        for i, g in enumerate(zg.rights):
            for g2 in moves.above(g):
                step = Zigzag(zg.rights[:i] + (g2,) + zg.rights[i + 1:], zg.lefts)
                rel.add((below, member_to_class[step]))
        for tgt in moves.erasures(zg):
            rel.add((below, member_to_class[tgt]))

    rel = close_order_relation(classes, rel)
    return HomPoset(tuple(classes), rel), member_to_class


def close_order_relation(elements, rel) -> frozenset:
    """Reflexive-transitive closure with an antisymmetry check.

    Raises OrderViolation (with the witness pair) when two distinct elements
    end up comparable in both directions.
    """
    return _close_order(
        elements,
        rel,
        lambda a, b: OrderViolation(f"localized order is not antisymmetric between {a!r} and {b!r}"),
    )


def hom_poset_loc(cat: PCategory, ms: MorseSystem, w: str, z: str, max_len=4) -> HomPoset:
    """Hom-poset of the localization between two objects."""
    return _loc_hom(_MoveTable(cat), ms, w, z, max_len)[0]


def zigzag_class_of(hom: HomPoset, z: Zigzag) -> ZigzagClass:
    for cls in hom.elements:
        if z in cls.members:
            return cls
    raise KeyError(f"{z!r} is in no class of this hom-poset")


# ---------------------------------------------------------------------------
# Essential chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EssentialChain:
    arrows: tuple  # descending system arrows; empty means the trivial chain

    def __repr__(self):
        if not self.arrows:
            return "(1)"
        return "(" + " > ".join(repr(f) for f in self.arrows) + ")"


def essential_chain(cat: PCategory, z: Zigzag) -> EssentialChain:
    """Backward arrows that are neither left- nor right-redundant.

    The arrow at column j is left-redundant when some h into its source
    satisfies h o f_j => g_j, and right-redundant when some l out of its
    target satisfies f_j o l => g_(j+1).
    """
    essential = []
    for j, f in enumerate(z.lefts):
        g_before, g_after = z.rights[j], z.rights[j + 1]
        left = any(
            cat.leq(cat.compose(h, f), g_before)
            for h in cat.hom(g_before.source, f.source).elements
        )
        right = False
        if not left:
            right = any(
                cat.leq(cat.compose(f, ell), g_after)
                for ell in cat.hom(f.target, g_after.target).elements
            )
        if not left and not right:
            essential.append(f)
    return EssentialChain(tuple(essential))


# ---------------------------------------------------------------------------
# Flow categories
# ---------------------------------------------------------------------------


@dataclass
class FlowCategory:
    category: PCategory
    max_len: object  # int or None
    _nerves: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def objects(self):
        return self.category.objects

    def hom(self, a: str, b: str) -> HomPoset:
        return self.category.hom(a, b)

    def nerve(self, maxdim: int):
        """The geometric nerve through ``maxdim``, built once per dimension and kept."""
        from .nerves import geometric_nerve

        skel = self._nerves.get(maxdim)
        if skel is None:
            skel = self._nerves[maxdim] = geometric_nerve(self.category, maxdim)
        return skel


def flow_category(cat: PCategory, ms: MorseSystem, max_len=4) -> FlowCategory:
    """Full localized subcategory on the critical objects."""
    _check_max_len(max_len)
    critical = ms.critical
    singleton = ms.all_singleton_homs(cat)
    effective = None if singleton else max_len
    moves = _MoveTable(cat)
    homs = {}
    lookups = {}
    for m in critical:
        for m2 in critical:
            hp, lookup = _loc_hom(moves, ms, m, m2, effective)
            if not hp.is_empty():
                homs[(m, m2)] = hp
            lookups[(m, m2)] = lookup
    identities = {}
    for m in critical:
        ident = Zigzag((cat.identity(m),), ())
        identities[m] = lookups[(m, m)][ident]

    table = {}  # (c1, c2) -> class of the composite; failures are not stored

    def compose(c1: ZigzagClass, c2: ZigzagClass):
        known = table.get((c1, c2))
        if known is not None:
            return known
        z1, z2 = c1.canonical, c2.canonical
        joined = Zigzag(
            z1.rights[:-1] + (cat.compose(z1.rights[-1], z2.rights[0]),) + z2.rights[1:],
            z1.lefts + z2.lefts,
        )
        reduced = moves.reduce(joined)
        lookup = lookups[(z1.source, z2.target)]
        if reduced not in lookup:
            raise ValueError(
                "composite zigzag leaves the enumerated range; raise the length bound"
            )
        table[(c1, c2)] = cls = lookup[reduced]
        return cls

    pcat = PCategory(critical, homs, compose, identities, name="flow")
    return FlowCategory(pcat, effective)


def _flow_signature(flow: FlowCategory):
    sig = {}
    for m in flow.objects:
        for m2 in flow.objects:
            hp = flow.hom(m, m2)
            keys = {c.key() for c in hp.elements}
            rel = {(a.key(), b.key()) for (a, b) in hp.relation if a != b}
            sig[(m, m2)] = (keys, rel)
    return sig


def stabilized_flow(cat: PCategory, ms: MorseSystem, start_len=4, cap=8):
    """Flow category with a stabilization verdict.

    Singleton systems are complete outright.  Otherwise the bound is raised
    from ``start_len``, at least once and then up to ``cap``, until the
    classes, their order and the truncated nerve homology agree at two
    consecutive bounds; the verdict is then "stable", else "unstable".
    """
    from .nerves import normalized_chain_complex
    from .homology import homology
    from .rings import QQ

    if ms.all_singleton_homs(cat):
        return flow_category(cat, ms, start_len), "complete"

    def verdict_of(flow):
        skel = flow.nerve(STABILIZATION_NERVE_DIM)
        return _flow_signature(flow), homology(normalized_chain_complex(skel, QQ)).betti()

    length = start_len
    flow = flow_category(cat, ms, length)
    previous = verdict_of(flow)
    while True:
        length += 1
        del flow  # a flow keeps its nerve: hold one at a time
        flow = flow_category(cat, ms, length)
        current = verdict_of(flow)
        if current == previous:
            return flow, "stable"
        if length >= cap:
            return flow, "unstable"
        previous = current
