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
on one column or one morphism, so a move table computes each once, as ids
of morphisms, and moves splice zigzags keyed by those ids.

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
    """The localization moves of one category, computed once per column, on morphism ids.

    The table gives each morphism it sees a small int id and keys a zigzag by
    the tuple (g_0, f_0, g_1, ..., g_k) of its ids.  A contraction or an
    erasure replaces one column (g_i, f_i, g_(i+1)) of a zigzag by a single
    forward morphism, and which morphisms qualify depends on the column
    alone; a single-slot step depends on the morphism alone.  So each
    column's merged morphisms, each column's erasure replacements and each
    morphism's strictly larger hom-poset elements are computed on first use,
    in first-seen order, checked once and kept as ids for the table's
    lifetime (one flow category or one localized hom-poset).  Moves splice
    keys; a zigzag is built only to decode a key.
    """

    def __init__(self, cat: PCategory):
        self.cat = cat
        self._ids: dict = {}  # morphism -> id
        self._morphisms: list = []  # id -> morphism
        self._merged: dict = {}  # column ids (g1, f, g2) -> ids of its contractions' merged morphisms
        self._erased: dict = {}  # column ids (g1, f, g2) -> ids of its erasures' replacements
        self._above: dict = {}  # id of g -> ids of the strictly larger elements of its hom-poset

    def _id(self, g) -> int:
        i = self._ids.get(g)
        if i is None:
            i = self._ids[g] = len(self._morphisms)
            self._morphisms.append(g)
        return i

    def key(self, z: Zigzag) -> tuple:
        """The ids of z's morphisms g_0, f_0, g_1, ..., g_k."""
        slots = [None] * (2 * len(z.lefts) + 1)
        slots[0::2] = z.rights
        slots[1::2] = z.lefts
        return tuple(map(self._id, slots))

    def zigzag(self, key) -> Zigzag:
        ms = self._morphisms
        return Zigzag(tuple(ms[i] for i in key[0::2]), tuple(ms[i] for i in key[1::2]))

    def _replacements(self, table, span, moves, key, a, b) -> tuple:
        """Compute and keep the ids of the morphisms ``moves`` finds for key[a:b].

        Each is checked here, once, to span the same endpoints as key[a:b],
        and a mismatch raises the error of building the spliced zigzag.
        """
        ms = self._morphisms
        out = table[span] = tuple(dict.fromkeys(map(self._id, moves(*(ms[i] for i in key[a:b])))))
        first, last = ms[key[a]], ms[key[b - 1]]
        for r in out:
            g = ms[r]
            if g.source != first.source or g.target != last.target:
                self.zigzag(key[:a] + (r,) + key[b:])
                raise ValueError(f"{g!r} does not span {first.source} -> {last.target}")
        return out

    def merged(self, key, i) -> tuple:
        """Ids of the merged morphisms of column i's contractions."""
        col = key[2 * i:2 * i + 3]
        out = self._merged.get(col)
        if out is None:
            out = self._replacements(self._merged, col, self._merge, key, 2 * i, 2 * i + 3)
        return out

    def erased(self, key, i) -> tuple:
        """Ids of the replacements of column i's erasures."""
        col = key[2 * i:2 * i + 3]
        out = self._erased.get(col)
        if out is None:
            out = self._replacements(self._erased, col, self._erase, key, 2 * i, 2 * i + 3)
        return out

    def _merge(self, g1, f, g2):
        """Cancellations of a column through a common splitting point a: g1 ends
        with p: a -> y, g2 starts with q: x -> a, and f lies below q o p."""
        cat = self.cat
        heads = cat.splittings(g2)
        for p_head, a, p in cat.splittings(g1):
            for q, a2, h_tail in heads:
                if a == a2 and cat.leq(f, cat.compose(q, p)):
                    yield cat.compose(p_head, h_tail)

    def _erase(self, g1, f, g2):
        """Replacements of a column by one morphism lying above it in the order."""
        cat = self.cat
        for r in cat.hom(f.target, g2.target).elements:
            if cat.leq(g2, cat.compose(f, r)):
                yield cat.compose(g1, r)
        for r in cat.hom(g1.source, f.source).elements:
            if cat.leq(g1, cat.compose(r, f)):
                yield cat.compose(r, g2)

    def _larger(self, g):
        """The elements strictly above g in its hom-poset, in element order."""
        hp = self.cat.hom(g.source, g.target)
        return (g2 for g2 in hp.elements if g2 != g and hp.leq(g, g2))

    def contraction_keys(self, key) -> list:
        """All one-step cancellations of a column through a common splitting point."""
        return self._splices(key, self.merged)

    def erasure_keys(self, key) -> list:
        """Order moves deleting one column; the longer zigzag lies below the result."""
        return self._splices(key, self.erased)

    def step_keys(self, key) -> list:
        """Single-slot steps: one forward morphism raised in its hom-poset."""
        above = self._above
        out = []
        for a in range(0, len(key), 2):
            ups = above.get(key[a])
            if ups is None:
                ups = self._replacements(above, key[a], self._larger, key, a, a + 1)
            if ups:
                head, tail = key[:a], key[a + 1:]
                out += [head + (r,) + tail for r in ups]
        return out

    def _splices(self, key, replacements) -> list:
        """Each key made by replacing one column with one of its replacements, once."""
        out = []
        for i in range(len(key) // 2):
            rs = replacements(key, i)
            if rs:
                head, tail = key[:2 * i], key[2 * i + 3:]
                out += [head + (r,) + tail for r in rs]
        return list(dict.fromkeys(out)) if len(out) > 1 else out

    def contractions(self, z: Zigzag):
        return map(self.zigzag, self.contraction_keys(self.key(z)))

    def erasures(self, z: Zigzag):
        return map(self.zigzag, self.erasure_keys(self.key(z)))

    def reduce(self, key) -> tuple:
        """Apply the first contraction to a key until none is left; the result is irreducible."""
        i = 0
        while i < len(key) // 2:
            merged = self.merged(key, i)
            if merged:
                key = key[:2 * i] + (merged[0],) + key[2 * i + 3:]
                i = max(i - 1, 0)  # the columns before i - 1 are unchanged and still do not contract
            else:
                i += 1
        return key


def reduce_zigzag(cat: PCategory, z: Zigzag) -> Zigzag:
    """Apply the first contraction until none is left; the result is irreducible."""
    moves = _MoveTable(cat)
    return moves.zigzag(moves.reduce(moves.key(z)))


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

    if singleton:
        def succ(chain):
            return [f for f in ms.successors[chain[-1]] if f not in chain]
    else:  # an arrow may repeat: it follows itself and its successors, in sigma order
        position = {f: i for i, f in enumerate(ms.sigma)}
        again = {f: sorted({f, *after}, key=position.__getitem__) for f, after in ms.successors.items()}

        def succ(chain):
            return again[chain[-1]]

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
    """The classes of the enumerated zigzags under contraction, sorted, on list positions.

    Returns the classes, each zigzag's key mapped to its position, and each
    position's class number.
    """
    index = {moves.key(zg): p for p, zg in enumerate(zigzags)}
    parent = list(range(len(zigzags)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for key, p in index.items():
        for tgt in moves.contraction_keys(key):
            q = index.get(tgt)
            if q is None:
                raise AssertionError(f"contraction left the enumerated set: {moves.zigzag(tgt)!r}")
            ra, rb = find(p), find(q)
            if ra != rb:
                parent[rb] = ra
    groups: dict = {}
    for p in range(len(zigzags)):
        groups.setdefault(find(p), []).append(p)
    # Zigzags come sorted by key, and a contraction drops a column, so it
    # lowers the key: a class's first member is its smallest irreducible one,
    # its canonical, and the groups come sorted by their canonicals.
    classes, number = [], [0] * len(zigzags)
    for n, members in enumerate(groups.values()):
        classes.append(ZigzagClass(zigzags[members[0]], frozenset(zigzags[p] for p in members)))
        for p in members:
            number[p] = n
    return classes, index, number


def _loc_hom(moves: _MoveTable, ms: MorseSystem, w: str, z: str, max_len=4):
    zigzags = enumerate_zigzags(moves.cat, ms, w, z, max_len)
    classes, index, number = _partition_into_classes(moves, zigzags)

    # Single-slot steps generate the componentwise order of same-shape
    # zigzags; every step stays in the enumerated product of the slots.
    # Pairs are gathered as class numbers.
    pairs = {(n, n) for n in range(len(classes))}
    for key, p in index.items():
        below = number[p]
        for tgt in moves.step_keys(key) + moves.erasure_keys(key):
            q = index.get(tgt)
            if q is None:
                raise KeyError(moves.zigzag(tgt))
            pairs.add((below, number[q]))

    rel = close_order_relation(classes, {(classes[a], classes[b]) for a, b in pairs})
    lookup = {key: classes[number[p]] for key, p in index.items()}
    return HomPoset(tuple(classes), rel), lookup


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
        identities[m] = lookups[(m, m)][moves.key(Zigzag((cat.identity(m),), ()))]

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
        cls = lookups[(z1.source, z2.target)].get(moves.reduce(moves.key(joined)))
        if cls is None:
            raise ValueError(
                "composite zigzag leaves the enumerated range; raise the length bound"
            )
        table[(c1, c2)] = cls
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
