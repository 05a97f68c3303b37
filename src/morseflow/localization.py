"""Zigzags, their contraction rewriter, localized hom-posets and the discrete flow category.

A zigzag alternates forward morphisms of the base category with backward
system arrows.  Two zigzags represent the same localized morphism when they
are connected by contractions: a column (g_i, f_i, g_(i+1)) contracts
through a splitting point a whenever g_i ends with p: a -> y_i, g_(i+1)
starts with q: x_i -> a, and f_i lies below q o p.  The move table's
``reduce`` is the one rewriter: it applies the first contraction until none
is left, and ``reduce_zigzag`` and flow composition use it.  The order on
classes is generated by single-slot steps (one forward morphism raised in
its hom-poset, which generates the componentwise order of same-shape
zigzags) together with column erasures (the longer zigzag sits below),
closed through the classes.  Every move replaces one column or one
morphism, so a move table computes each once, as ids of morphisms.  The
zigzags of one Σ-chain are the product of its slots, kept as one block of
grid indices, and every move is index arithmetic between blocks: the class
partition, the order pairs and the class of a composite all work on grid
indices.

For systems whose arrows span singleton hom-posets (classical matchings,
codimension 1) the strictly descending enumeration is complete and no length
bound is needed; otherwise enumeration is truncated and a stabilization loop
compares successive bounds.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate, product, repeat
from operator import mul

from .categories import HomPoset, Order, PCategory, _close_order
from .matchings import MorseSystem

STABILIZATION_NERVE_DIM = 3  # successive bounds must agree on nerve homology through degree 2


class OrderViolation(Exception):
    """Antisymmetry of the localized order failed; carries a witness pair."""


class LocalizationInconsistency(Exception):
    """A move or a composite left the enumerated zigzags: the computation, not the input, is at fault."""


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

    @property
    def source(self) -> str:
        return self.rights[0].source

    @property
    def target(self) -> str:
        return self.rights[-1].target

    def key(self):
        """The zigzag order: fewer backward arrows first, then the forward labels, then the backward ones."""
        return len(self.lefts), tuple(g.label for g in self.rights), tuple(f.label for f in self.lefts)

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
    for sep, cell in zip(tokens[1::2], tokens[2::2] + [None]):
        if sep not in ("<", ">"):
            raise ValueError(f"unexpected token {sep!r}")
        if cell in (None, "<", ">"):
            raise ValueError(f"zigzag text needs a cell after {sep!r}")
        if sep == ">":
            path.append(cell)
        else:
            rights.append(resolve(path))
            f = by_source.get(cell)
            if f is None or f.target != path[-1]:
                raise ValueError(f"no system arrow {cell} -> {path[-1]}")
            lefts.append(f)
            path = [cell]
    rights.append(resolve(path))
    return Zigzag(tuple(rights), tuple(lefts))


# ---------------------------------------------------------------------------
# Moves
# ---------------------------------------------------------------------------


class _MoveTable:
    """The localization moves of one category, computed once per span, on morphism ids.

    The table gives each morphism it sees a small int id and keys a zigzag by
    the tuple (g_0, f_0, g_1, ..., g_k) of its ids.  A move replaces one span
    of a zigzag by a single forward morphism: a contraction (``_merge``) or an
    erasure (``_erase``) replaces a column (g_i, f_i, g_(i+1)), a single-slot
    step (``_larger``) one forward morphism g_i.  Moves take and yield ids and
    read per-id tables, each filled once: a morphism's cuts (the category's
    splittings), its place in its hom-poset (so ``_leq`` is one bit test),
    each composite (``_composites``) and each hom's element ids.  Which morphisms
    qualify depends on the move and the span alone, so each span's
    replacements are computed on first use, in first-seen order, checked once
    and kept in one cache, by move and span, for the lifetime of the category
    that keeps the table (``_moves``).  A hom's ``_Grid`` turns them into
    edges between grid indices, and ``reduce`` rewrites keys with them; a
    zigzag is built only to decode a key.
    """

    def __init__(self, cat: PCategory):
        self.cat = cat
        self._ids: dict = {}  # morphism -> id
        ms = self._morphisms = []  # id -> morphism
        # id -> its hom's order (None when the hom does not hold it), its position there and its down-set mask
        self._home, self._position, self._down = [], [], []
        self._composites = _Memo(lambda ij: self._id(cat.compose(ms[ij[0]], ms[ij[1]])))  # (i, j) -> id of i then j
        # id -> its splittings (p, a, q), in the category's order, as (id of p, a, id of q)
        self._cuts = _Memo(lambda i: [(self._id(p), a, self._id(q)) for p, a, q in cat.splittings(ms[i])])
        self._elements = _Memo(lambda ab: tuple(map(self._id, cat.hom(*ab).elements)))  # (a, b) -> hom(a, b)'s ids
        self._cache: dict = {}  # move -> {ids of a span -> ids of its replacements}

    def _id(self, g) -> int:
        i = self._ids.get(g)
        if i is None:
            i = self._ids[g] = len(self._morphisms)
            self._morphisms.append(g)
            order = self.cat.hom(g.source, g.target).relation
            p = order.index.get(g)
            self._home.append(None if p is None else order)
            self._position.append(p or 0)
            self._down.append(0 if p is None else order.down[p])
        return i

    def _leq(self, i, j):
        """Whether morphism i lies below morphism j: false across homs, else one bit of j's down-set."""
        return self._home[i] is self._home[j] and self._down[j] >> self._position[i] & 1

    def key(self, z: Zigzag) -> tuple:
        """The ids of z's morphisms g_0, f_0, g_1, ..., g_k."""
        return tuple(map(self._id, _slots(z)))

    def find(self, z):
        """z's key if z is a zigzag whose morphisms all have ids, else None; interns nothing."""
        if not isinstance(z, Zigzag):
            return None
        key = tuple(map(self._ids.get, _slots(z)))
        return None if None in key else key

    def zigzag(self, key) -> Zigzag:
        ms = self._morphisms
        return Zigzag(tuple(ms[i] for i in key[0::2]), tuple(ms[i] for i in key[1::2]))

    def _replacements(self, move, key, a, b) -> tuple:
        """Compute and keep the ids of the morphisms ``move`` finds for key[a:b].

        Each is checked here, once, to span the same endpoints as key[a:b],
        and a mismatch raises the error of building the spliced zigzag.
        """
        ms = self._morphisms
        out = self._cache[move][key[a:b]] = tuple(dict.fromkeys(move(*key[a:b])))
        first, last = ms[key[a]], ms[key[b - 1]]
        for r in out:
            g = ms[r]
            if g.source != first.source or g.target != last.target:
                self.zigzag(key[:a] + (r,) + key[b:])
                raise ValueError(f"{g!r} does not span {first.source} -> {last.target}")
        return out

    def reduce(self, key) -> tuple:
        """Apply the first contraction to a key until none is left; the result is irreducible."""
        merge = self._merge
        cache = self._cache.setdefault(merge, {})
        a = 0
        while a < len(key) - 2:
            rs = cache.get(key[a:a + 3])
            if rs is None:
                rs = self._replacements(merge, key, a, a + 3)
            if rs:
                key = key[:a] + (rs[0],) + key[a + 3:]
                a = max(a - 2, 0)  # the columns before the previous one still do not contract
            else:
                a += 2
        return key

    def _merge(self, g1, f, g2):
        """Contractions: cancellations of a column through a common splitting
        point a: g1 ends with p: a -> y, g2 starts with q: x -> a, and f lies
        below q o p."""
        leq, composites, cuts = self._leq, self._composites, self._cuts
        heads = cuts[g2]
        for p_head, a, p in cuts[g1]:
            for q, a2, h_tail in heads:
                if a == a2 and leq(f, composites[q, p]):
                    yield composites[p_head, h_tail]

    def _erase(self, g1, f, g2):
        """Erasures: replacements of a column by one morphism lying above it in
        the order; the longer zigzag lies below the result."""
        ms, leq, composites = self._morphisms, self._leq, self._composites
        for r in self._elements[ms[f].target, ms[g2].target]:
            if leq(g2, composites[f, r]):
                yield composites[g1, r]
        for r in self._elements[ms[g1].source, ms[f].source]:
            if leq(g1, composites[r, f]):
                yield composites[r, g2]

    def _larger(self, g):
        """Single-slot steps: the elements strictly above g in its hom-poset, in element order."""
        m = self._morphisms[g]
        return [h for h in self._elements[m.source, m.target] if h != g and self._leq(g, h)]


class _Grid:
    """The zigzags of one hom as blocks of grid indices, one block per Σ-chain.

    A block is the product of its chain's slots, each slot its hom's element
    ids in element order, so a morphism's coordinate there is its position
    in its hom.  The zigzag at coordinates c_j has the index offset + sum of
    c_j * stride_j, stride_j being the product of the sizes of the later
    slots, as ``product`` lists them; the keys are kept in index order.
    A step stays in its block; a contraction or erasure of column i lands in
    the block of the chain without f_i.  Both blocks share the slots and
    strides outside the span, so a move's edges are runs of indices.
    """

    __slots__ = ("moves", "blocks", "of_chain", "keys")

    def __init__(self, moves: _MoveTable):
        self.moves = moves
        self.blocks = []  # (offset, chain of arrow ids, slots of element ids, strides), in offset order
        self.of_chain = {}  # chain -> its block
        self.keys = []  # index -> the key of its zigzag, to decode an index

    def add(self, chain: tuple, slots: list):
        """Append the block of a chain (arrow ids) whose slots (element ids) are all filled."""
        spans = [None] * (2 * len(slots) - 1)
        spans[0::2], spans[1::2] = slots, zip(chain)  # a one-id slot per arrow
        strides = [*accumulate(map(len, slots[:0:-1]), mul, initial=1)][::-1]
        self.blocks.append((len(self.keys), chain, slots, strides))
        self.of_chain[chain] = self.blocks[-1]
        self.keys += product(*spans)

    def index(self, key: tuple):
        """The grid index of a key, or None when no block holds it."""
        block = self.of_chain.get(key[1::2])
        if block is None:
            return None
        g = block[0] + sum(map(mul, map(self.moves._position.__getitem__, key[0::2]), block[3]))
        return g if g < len(self.keys) and self.keys[g] == key else None

    def order(self) -> list:
        """The grid indices in ``Zigzag.key`` order, on dense ranks of the ids by label."""
        if len(self.keys) < 2:
            return list(range(len(self.keys)))
        ms = self.moves._morphisms
        used = set().union(*self.keys)
        position = {label: r for r, label in enumerate(sorted({ms[i].label for i in used}))}
        rank = {i: position[ms[i].label] for i in used}.__getitem__
        keys = []
        for _, chain, slots, _ in self.blocks:  # per block: its length, its slots' ranks, one-rank slots of its arrows
            keys += product((len(chain),), *map(tuple, map(map, repeat(rank), slots)), *zip(map(rank, chain)))
        return sorted(range(len(keys)), key=keys.__getitem__)

    def edges(self, move, message=""):
        """The edges of ``move`` as runs (source, target, length): source + s goes
        to target + s for s < length.  Each span is looked up once per block,
        and a target block only for a column that has a replacement; a move
        that no block holds raises ``LocalizationInconsistency``.
        """
        moves = self.moves
        cache, position = moves._cache.setdefault(move, {}), moves._position
        width = 1 if move == moves._larger else 3
        for block in self.blocks:
            offset, chain, slots, strides = block
            for i in range(len(slots) if width == 1 else len(chain)):
                if width == 1 and len(slots[i]) == 1:
                    continue  # a singleton slot has no larger element
                target = block if width == 1 else None
                spans = zip(slots[i]) if width == 1 else product(slots[i], chain[i:i + 1], slots[i + 1])
                for c, span in enumerate(spans):
                    rs = cache.get(span)
                    if rs is None:
                        rs = moves._replacements(move, self.keys[offset + c * strides[i + width // 2]], 2 * i, 2 * i + width)
                    if not rs:
                        continue
                    run = strides[i + width // 2]  # the zigzags with the c-th span start at offset + c * run
                    if target is None:
                        target = self.of_chain.get(chain[:i] + chain[i + 1:])
                    for r in rs:
                        p, ids = position[r], target[2][i] if target else ()
                        if p >= len(ids) or ids[p] != r:
                            key = self.keys[offset + c * run]
                            raise LocalizationInconsistency(message + repr(moves.zigzag(key[:2 * i] + (r,) + key[2 * i + width:])))
                        period, start = strides[i] * len(slots[i]), target[0] + p * run
                        for n in range(strides[0] * len(slots[0]) // period):
                            yield offset + c * run + n * period, start + n * run * len(ids), run


class _Memo(dict):
    """A dict that computes each missing value once, by calling ``make`` on its key."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _slots(z: Zigzag) -> list:
    """z's morphisms g_0, f_0, g_1, ..., g_k."""
    slots = [None] * (2 * len(z.lefts) + 1)
    slots[0::2] = z.rights
    slots[1::2] = z.lefts
    return slots


def _moves(cat: PCategory) -> _MoveTable:
    """The category's one move table, built on first use and kept on it."""
    cat._moves = cat._moves or _MoveTable(cat)
    return cat._moves


class Zigzags(Sequence):
    """Zigzags held as indices of one hom's grid; a ``Zigzag`` is built only when an item is read."""

    __slots__ = ("grid", "indices")

    def __init__(self, grid: _Grid, indices: list):
        self.grid, self.indices = grid, indices

    def __len__(self):
        return len(self.indices)

    def __getitem__(self, i):
        return self.grid.moves.zigzag(self.grid.keys[self.indices[i]])

    def __contains__(self, z):
        """Membership by grid index: anything that is not a zigzag of the grid is not a member."""
        key = self.grid.moves.find(z)
        return key is not None and self.grid.index(key) in self.indices


def reduce_zigzag(cat: PCategory, z: Zigzag) -> Zigzag:
    """Apply the first contraction until none is left; the result is irreducible."""
    moves = _moves(cat)
    return moves.zigzag(moves.reduce(moves.key(z)))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def _check_max_len(max_len):
    if max_len is not None and max_len < 0:
        raise ValueError(f"the zigzag length bound must be at least 0, not {max_len}")


def enumerate_zigzags(cat: PCategory, ms: MorseSystem, w: str, z: str, max_len=4) -> Zigzags:
    """All normal-form zigzags from w to z, sorted by ``Zigzag.key``, as a view of their hom's grid.

    A bound that is passed is applied to every system: at most ``max_len``
    backward arrows are used.  With singleton arrow hom-posets
    (``ms.complete``, as in a classical system) chains of backward arrows
    are strictly descending, so ``None`` enumerates them all; only ``None``
    gives the complete enumeration, and it is what ``flow_category`` and
    the CLI pass for such systems.  Any other system needs a bound.
    """
    _check_max_len(max_len)
    for end in (w, z):
        if end not in cat.objects:
            raise ValueError(f"zigzag endpoint {end!r} is not an object of the category")
    if max_len is None and not ms.complete:
        raise ValueError("a length bound is required for this system")

    # A chain yields zigzags only once its last slot hom(f.source, z) is
    # filled, so walks pass only through the arrows from which such an arrow
    # is reachable: one pass over the predecessors finds them.
    live = {f for f in ms.sigma if not cat.hom(f.source, z).is_empty()}
    stack = list(live)
    while stack:
        for f in ms.predecessors[stack.pop()]:
            if f not in live:
                live.add(f)
                stack.append(f)
    after = {f: [g for g in ms.successors[f] if g in live] for f in live}
    if not ms.complete:  # an arrow may repeat: it follows itself and its successors, in sigma order
        position = {f: i for i, f in enumerate(ms.sigma)}
        after = {f: sorted({f, *nxt}, key=position.__getitem__) for f, nxt in after.items()}
    cyclic = ms.complete and ms.cycle is not None  # a singleton chain repeats no arrow, which an acyclic order ensures by itself

    # A chain whose first slot hom(w, f.target) is empty stays empty however
    # it is extended, so walks start only where that slot is filled.
    starts = [f for f in ms.sigma if f in live and not cat.hom(w, f.target).is_empty()] if max_len != 0 else []
    moves = _moves(cat)
    slot, arrow = moves._elements, moves._id
    grid = _Grid(moves)
    if slot[w, z]:
        grid.add((), [slot[w, z]])
    for chain in _chains(starts, after, cyclic, None if max_len is None else max_len - 1):
        last = slot[chain[-1].source, z]
        if last:  # the first slot and each successor's slot are filled: only the last can be empty
            slots, src = [], w
            for f in chain:
                slots.append(slot[src, f.target])
                src = f.source
            slots.append(last)
            grid.add(tuple(map(arrow, chain)), slots)
    return Zigzags(grid, grid.order())


def _chains(starts, after, cyclic, max_steps):
    """Every Σ-chain that begins at a start and follows ``after``, in depth-first preorder.

    The chain is one list, extended and cut in place and yielded each time,
    so a step costs the same at any depth and a reader copies the chains it
    keeps.  Chains take at most ``max_steps`` steps (None: no limit); with
    ``cyclic``, a chain repeats no arrow.
    """
    chain, stack = [], [(f, 0) for f in reversed(starts)]
    while stack:
        f, depth = stack.pop()
        del chain[depth:]
        chain.append(f)
        yield chain
        if max_steps is None or depth < max_steps:
            stack.extend((g, depth + 1) for g in reversed(after[f]) if not (cyclic and g in chain))


# ---------------------------------------------------------------------------
# Classes and localized hom-posets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZigzagClass:
    canonical: Zigzag
    members: Zigzags = field(compare=False)  # the canonical first; classes are equal when their canonicals are

    def __post_init__(self):
        # Classes are sorted, compared across bounds and keyed in nerve
        # simplices: hash the canonical and build its label tuples once.
        object.__setattr__(self, "_hash", hash(self.canonical))
        object.__setattr__(self, "_key", self.canonical.key())

    def __hash__(self):
        return self._hash

    @property
    def source(self) -> str:
        return self.canonical.source

    @property
    def target(self) -> str:
        return self.canonical.target

    def key(self):
        return self._key

    def __repr__(self):
        return f"[{zigzag_to_text(self.canonical)}]"


def _partition_into_classes(zigzags: Zigzags):
    """The classes of the enumerated zigzags under contraction, sorted, and each grid index's class number."""
    grid = zigzags.grid
    parent = list(range(len(grid.keys)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for source, target, run in grid.edges(grid.moves._merge, "contraction left the enumerated set: "):
        for a in range(run):
            ra, rb = find(source + a), find(target + a)
            if ra != rb:
                parent[rb] = ra
    groups: dict = {}
    for g in zigzags.indices:
        groups.setdefault(find(g), []).append(g)
    # Zigzags come sorted by key, and a contraction drops a column, so it
    # lowers the key: a class's first member is its smallest irreducible one,
    # its canonical, and the groups come sorted by their canonicals.
    classes, number = [], parent  # each index's root is no longer needed once grouped
    for n, members in enumerate(groups.values()):
        view = Zigzags(grid, members)
        classes.append(ZigzagClass(view[0], view))
        for g in members:
            number[g] = n
    return classes, number


def _loc_hom(cat: PCategory, ms: MorseSystem, w: str, z: str, max_len=4):
    """The localized hom-poset from w to z, its grid and each grid index's class number."""
    zigzags = enumerate_zigzags(cat, ms, w, z, max_len)
    grid = zigzags.grid
    classes, number = _partition_into_classes(zigzags)

    # Single-slot steps generate the componentwise order of same-shape
    # zigzags; every step stays in its block.  Pairs are gathered as class
    # numbers, a run of edges at a time.
    pairs = set()
    for move in (grid.moves._larger, grid.moves._erase):
        for source, target, run in grid.edges(move):
            pairs.update(zip(number[source:source + run], number[target:target + run]))

    return HomPoset(close_order_relation(classes, {(classes[a], classes[b]) for a, b in pairs})), grid, number


def close_order_relation(elements, rel) -> Order:
    """Reflexive-transitive closure with an antisymmetry check, as an ``Order``.

    Raises OrderViolation (with the witness pair) when two distinct elements
    end up comparable in both directions.
    """
    violation = lambda a, b: OrderViolation(f"localized order is not antisymmetric between {a!r} and {b!r}")
    return _close_order(elements, rel, violation)


def hom_poset_loc(cat: PCategory, ms: MorseSystem, w: str, z: str, max_len=4) -> HomPoset:
    """Hom-poset of the localization between two objects.

    The zigzags are enumerated under ``max_len`` as in ``enumerate_zigzags``:
    the default bound cuts a classical system too, and only ``None`` gives
    its complete hom-poset.
    """
    return _loc_hom(cat, ms, w, z, max_len)[0]


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
    effective = None if ms.complete else max_len
    moves = _moves(cat)
    homs, identities = {}, {}
    partitions = {}  # (m, m2) -> (classes, grid, class numbers)
    for m in critical:
        for m2 in critical:
            hp, grid, number = _loc_hom(cat, ms, m, m2, effective)
            if not hp.is_empty():
                homs[(m, m2)] = hp
            partitions[(m, m2)] = hp.elements, grid, number
            if m == m2:
                identities[m] = hp.elements[number[grid.index((moves._id(cat.identity(m)),))]]

    table = {}  # (c1, c2) -> class of the composite; failures are not stored

    def compose(c1: ZigzagClass, c2: ZigzagClass):
        known = table.get((c1, c2))
        if known is not None:
            return known
        m1, m2 = c1.members, c2.members
        k1, k2 = m1.grid.keys[m1.indices[0]], m2.grid.keys[m2.indices[0]]
        classes, grid, number = partitions[(c1.source, c2.target)]
        g = grid.index(moves.reduce(k1[:-1] + (moves._composites[k1[-1], k2[0]],) + k2[1:]))
        if g is None:
            raise LocalizationInconsistency("composite zigzag leaves the enumerated range; raise the length bound")
        cls = table[(c1, c2)] = classes[number[g]]
        return cls

    pcat = PCategory(critical, homs, compose, identities)
    return FlowCategory(pcat, effective)


def _flow_signature(flow: FlowCategory):
    sig = {}
    for m in flow.objects:
        for m2 in flow.objects:
            hp = flow.hom(m, m2)
            # elements come sorted by key: equal keys align the down-set masks
            sig[(m, m2)] = (tuple(c.key() for c in hp.elements), hp.relation.down)
    return sig


def stabilized_flow(cat: PCategory, ms: MorseSystem, start_len=4, cap=8):
    """Flow category with a stabilization verdict.

    Singleton systems are complete outright.  Otherwise the bound is raised
    from ``start_len``, at least once and then up to ``cap``, until the
    classes, their order and the truncated nerve homology agree at two
    consecutive bounds; the verdict is then "stable", else "unstable".
    """
    from .nerves import nerve_homology
    from .rings import QQ

    if ms.complete:
        return flow_category(cat, ms, start_len), "complete"

    def verdict_of(flow):
        return _flow_signature(flow), nerve_homology(flow.nerve(STABILIZATION_NERVE_DIM), QQ).betti()

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
