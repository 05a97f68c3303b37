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
closed through the classes.  A move table computes the moves of a whole
column of slots at once, as ids of morphisms.  The zigzags of one Σ-chain
are the product of its slots, one block of grid indices, and every move is
index arithmetic between blocks: a hom's edges are flat index lists, and
the class partition, the order pairs and composites work on grid indices.

For systems whose arrows span singleton hom-posets (classical matchings,
codimension 1) the strictly descending enumeration is complete and no length
bound is needed; otherwise enumeration is truncated and a stabilization loop
compares successive bounds.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate, product, repeat
from operator import attrgetter, mul
from typing import NamedTuple

from .categories import HomPoset, Order, PCategory, _bits, _close_order
from .matchings import MorseSystem

STABILIZATION_NERVE_DIM = 3  # successive bounds must agree on nerve homology through degree 2


_label = attrgetter("label")


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
        return len(self.lefts), tuple(map(_label, self.rights)), tuple(map(_label, self.lefts))

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
    """The localization moves of one category, on morphism ids, computed once per column of slots.

    A zigzag is keyed by the tuple (g_0, f_0, g_1, ..., g_k) of its ids.  A contraction or erasure
    replaces a column (g_i, f_i, g_(i+1)) by one morphism, a single-slot step (``_larger``) one g_i,
    and what a move finds depends on the span alone.  The spans (g1, f, g2), g1 in hom(w, y) and g2 in
    hom(x, z) for f: x -> y, form a column of slots (w, f, z): ``_columns`` holds each column's
    contractions and erasures as ``_Table``s on the spans p1 * width + p2 (the positions of g1 and g2),
    ``_steps`` each hom's steps.  They are the one cache, kept with the category (``_moves``), behind
    the grid's edges and ``reduce``, and read per-id memos: cuts, places in hom-posets, composites.
    """

    def __init__(self, cat: PCategory):
        self.cat = cat
        ids = self._ids = _Memo(self._intern)  # morphism -> id
        self._id = ids.__getitem__
        ms = self._morphisms = []  # id -> morphism
        # id -> its hom's order (None when the hom does not hold it), its position there and its down-set mask
        self._home, self._position, self._down = [], [], []
        self._composites = _Memo(lambda ij: ids[cat.compose(ms[ij[0]], ms[ij[1]])])  # (i, j) -> id of i then j
        # id -> its splittings (p, a, q), in the category's order, as (id of p, a, id of q)
        self._cuts = _Memo(lambda i: [(ids[p], a, ids[q]) for p, a, q in cat.splittings(ms[i])])
        self._holders = _Memo(self._group)  # (x, z) -> {a: [(p, q, rest)]}: the cuts through a of its p-th element
        self._elements = _Memo(lambda ab: tuple(map(ids.__getitem__, cat.hom(*ab).elements)))  # (a, b) -> its ids
        self._columns = _Memo(self._column)  # (w, f, z) -> (width, contractions, erasures)
        self._steps = _Memo(self._step_table)  # (a, b) -> the steps of hom(a, b)'s elements

    def _intern(self, g) -> int:
        order = self.cat.hom(g.source, g.target).relation
        p = order.index.get(g)
        self._morphisms.append(g)
        self._home.append(None if p is None else order)
        self._position.append(p or 0)
        self._down.append(0 if p is None else order.down[p])
        return len(self._morphisms) - 1

    def key(self, z: Zigzag) -> tuple:
        """The ids of z's morphisms g_0, f_0, g_1, ..., g_k."""
        return tuple(map(self._id, _slots(z)))

    def zigzag(self, key) -> Zigzag:
        get = self._morphisms.__getitem__
        return Zigzag(tuple(map(get, key[0::2])), tuple(map(get, key[1::2])))

    def _group(self, hom) -> dict:
        holders = {}
        for p, g in enumerate(self._elements[hom]):
            for q, a, rest in self._cuts[g]:
                holders.setdefault(a, []).append((p, q, rest))
        return holders

    def _column(self, column) -> tuple:
        """The contractions and erasures of every span (g1, f, g2) of a column (w, f, z).

        Contractions: g1 ends with p: a -> y, g2 starts with q: x -> a and f <= q o p, matched by a
        in the order of g1's cuts, then of g2's.  Erasures: g1 o r for r in hom(y, z) with g2 <= f o r,
        then r o g2 for r in hom(w, x) with g1 <= r o f, read off the masks of f o r and r o f.
        """
        w, f, z = column
        home, down, composites, elements = self._home, self._down, self._composites, self._elements
        x, y, _ = self._morphisms[f]
        firsts, seconds = elements[w, y], elements[x, z]
        after, before = [[] for _ in seconds], [[] for _ in firsts]  # per g2 (g1), the r that erase it
        order = home[seconds[0]]
        for r in elements[y, z]:
            c = composites[f, r]
            if home[c] is order:
                for p in _bits(down[c]):
                    after[p].append(r)
        order = home[firsts[0]]
        for r in elements[w, x]:
            c = composites[r, f]
            if home[c] is order:
                for p in _bits(down[c]):
                    before[p].append(r)
        f_home, f_bit, width, holders = home[f], 1 << self._position[f], len(seconds), self._holders[x, z]
        contractions, erasures, raised = {}, {}, [p2 for p2, highs in enumerate(after) if highs]
        for p1, (g1, lows) in enumerate(zip(firsts, before)):
            span, merged = p1 * width, {}  # p2 -> the contractions of (g1, f, seconds[p2]), in cut order
            for head, a, p in self._cuts[g1]:
                for p2, q, rest in holders.get(a, ()):
                    c = composites[q, p]
                    if home[c] is f_home and down[c] & f_bit:
                        merged.setdefault(p2, []).append(composites[head, rest])
            for p2 in sorted(merged) if merged else ():
                contractions[span + p2] = tuple(dict.fromkeys(merged[p2]))
            for p2 in range(width) if lows else raised:  # the spans of g1 that erase
                out = [composites[g1, r] for r in after[p2]]
                if lows:
                    out += [composites[r, seconds[p2]] for r in lows]
                erasures[span + p2] = tuple(dict.fromkeys(out))
        if not (contractions or erasures):
            return width, _NO_MOVES, _NO_MOVES
        order = self.cat.hom(w, z).relation
        return width, self._table(contractions, order), self._table(erasures, order)

    def _step_table(self, hom) -> _Table:
        steps = {}
        for p, g in enumerate(self._elements[hom]):
            larger = self._larger(g)
            if larger:
                steps[p] = tuple(dict.fromkeys(larger))
        return self._table(steps, self.cat.hom(*hom).relation)

    def _table(self, found: dict, order: Order) -> _Table:
        """The ``_Table`` of ``found`` (span -> ids, in span order), which should all be elements of ``order``."""
        if not found:
            return _NO_MOVES
        spans, places, held, home, position = [], [], True, self._home, self._position
        for c, rs in found.items():
            for r in rs:
                spans.append(c)
                places.append(position[r])
                held = held and home[r] is order
        return _Table(found, spans, places, held)

    def _larger(self, g):
        """Single-slot steps: the elements strictly above g in its hom-poset, in element order."""
        m, home, down, p = self._morphisms[g], self._home, self._down, self._position[g]
        return [h for h in self._elements[m.source, m.target] if h != g and home[h] is home[g] and down[h] >> p & 1]

    def _misfit(self, key, a, b, rs):
        """The error (what building the spliced zigzag raises, else ``ValueError``) of the first of
        ``rs`` that does not span key[a:b]'s endpoints, or None."""
        ms = self._morphisms
        first, last = ms[key[a]], ms[key[b - 1]]
        for r in rs:
            if ms[r].source != first.source or ms[r].target != last.target:
                try:
                    self.zigzag(key[:a] + (r,) + key[b:])
                except ValueError as error:
                    return error
                return ValueError(f"{ms[r]!r} does not span {first.source} -> {last.target}")
        return None

    def reduce(self, key) -> tuple:
        """Apply the first contraction to a key until none is left; the result is irreducible.

        A span is found in its column by its positions, so each forward morphism of the key must be an
        element of its hom-poset, as each replacement of a ``held`` table is; any other is checked."""
        ms, home, position, columns = self._morphisms, self._home, self._position, self._columns
        a = 0
        while a < len(key) - 2:
            g1, f, g2 = key[a:a + 3]
            width, contractions, _ = columns[ms[g1].source, f, ms[g2].target]
            rs = contractions.found.get(position[g1] * width + position[g2])
            if rs:
                error = None if contractions.held else self._misfit(key, a, a + 3, rs)
                if error or home[rs[0]] is None:
                    raise error or ValueError(f"{ms[rs[0]]!r} is not an element of its hom-poset")
                key = key[:a] + (rs[0],) + key[a + 3:]
                a = max(a - 2, 0)  # the columns before the previous one still do not contract
            else:
                a += 2
        return key


class _Table(NamedTuple):
    """The replacements one move finds across a column of slots (or, for steps, one hom)."""

    found: dict  # span -> the ids of its replacements, for each span that has any, in span order
    spans: list  # each replacement's span, in that order
    places: list  # each replacement's position in the hom it lands in
    held: bool  # whether that hom holds every replacement


_NO_MOVES = _Table({}, [], [], True)


class _Grid:
    """The zigzags of one hom as blocks of grid indices, one block per Σ-chain.

    A block is the product of its chain's slots, each slot its hom's element
    ids in element order.  The zigzag at coordinates c_j (positions in the
    homs) has the index offset + sum of c_j * stride_j, stride_j being the
    product of the sizes of the later slots, as ``product`` lists them; the
    keys are kept in index order.
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

    def edges(self) -> tuple:
        """(sources, targets) of the contractions, of the steps and of the erasures, as flat index lists.

        A step stays in its block; a contraction or erasure of column i lands in the block of the chain
        without f_i (looked up only for a column with a replacement), which shares the slots and strides
        outside the span, so the zigzags that hold one span, and their targets, are index progressions,
        extended as ranges.  A replacement no block holds is refused (``_misfit``, else
        ``LocalizationInconsistency``): a contraction's at once, a step's or an erasure's after the
        traversal, steps first."""
        moves = self.moves
        ms, columns, position = moves._morphisms, moves._columns, moves._position
        found, refused = (([], []), ([], []), ([], [])), [None, None, None]  # contractions, steps, erasures
        for block in self.blocks:
            offset, chain, slots, strides = block
            sites = [(1, i, moves._steps[ms[slot[0]].source, ms[slot[0]].target], block)
                     for i, slot in enumerate(slots) if len(slot) > 1]  # a singleton slot has no step
            for i, f in enumerate(chain):
                _, merged, erased = columns[ms[slots[i][0]].source, f, ms[slots[i + 1][0]].target]
                if merged.found or erased.found:
                    target = self.of_chain.get(chain[:i] + chain[i + 1:])
                    sites += [(move, i, table, target) for move, table in ((0, merged), (2, erased)) if table.found]
            for move, i, table, target in sites:
                width = 1 if move == 1 else 3  # of the span, from key index 2 * i
                run, slot = strides[i + width // 2], target[2][i] if target else ()
                if table.held and target:  # the zigzags that hold span c are offset + c * run + n * period + s
                    period, moved, start = strides[i] * len(slots[i]), run * len(slot), target[0]
                    repeats, (sources, targets) = strides[0] * len(slots[0]) // period, found[move]
                    if repeats == run == 1:
                        sources.extend(map(offset.__add__, table.spans))
                        targets.extend(map(start.__add__, table.places))
                        continue
                    for c, p in zip(table.spans, table.places):  # the longer of the n and s ranges is built in C
                        c, p = offset + c * run, start + p * run
                        if repeats > run:
                            for s in range(run):
                                sources.extend(range(c + s, c + s + repeats * period, period))
                                targets.extend(range(p + s, p + s + repeats * moved, moved))
                        else:
                            for n in range(repeats):
                                sources.extend(range(c + n * period, c + n * period + run))
                                targets.extend(range(p + n * moved, p + n * moved + run))
                    continue
                for c, rs in table.found.items():
                    r = next((r for r in rs if position[r] >= len(slot) or slot[position[r]] != r), None)
                    if r is not None:
                        key = self.keys[offset + c * run]
                        error = moves._misfit(key, 2 * i, 2 * i + width, rs) or LocalizationInconsistency(
                            ("contraction left the enumerated set: " if move == 0 else "")
                            + repr(moves.zigzag(key[:2 * i] + (r,) + key[2 * i + width:])))
                        if move == 0:
                            raise error
                        refused[move] = refused[move] or error
                        break
        error = next(filter(None, refused), None)
        if error:
            raise error
        return found


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
        """Membership by grid index, interning nothing: anything that is not a zigzag of the grid is not a member."""
        key = tuple(map(self.grid.moves._ids.get, _slots(z))) if isinstance(z, Zigzag) else (None,)
        return None not in key and self.grid.index(key) in self.indices


def reduce_zigzag(cat: PCategory, z: Zigzag) -> Zigzag:
    """Apply the first contraction until none is left; the result is irreducible."""
    moves = _moves(cat)
    key = moves.key(z)
    for g in key[0::2]:
        if moves._home[g] is None:
            raise ValueError(f"{moves._morphisms[g]!r} is not an element of its hom-poset")
    return moves.zigzag(moves.reduce(key))


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


def _partition_into_classes(zigzags: Zigzags, sources, targets):
    """The classes of the zigzags under the contraction edges (index lists), sorted, and each index's class number."""
    grid = zigzags.grid
    parent = list(range(len(grid.keys)))
    for a, b in zip(sources, targets):  # union by path halving
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        parent[b] = a
    groups: dict = {}
    for g in zigzags.indices:
        root = g
        while parent[root] != root:
            root = parent[root]
        groups.setdefault(root, []).append(g)
    # Zigzags come sorted by key, and a contraction drops a column, so it
    # lowers the key: a class's first member is its smallest irreducible one,
    # its canonical, and the groups come sorted by their canonicals.
    classes, number, decode = [], parent, grid.moves.zigzag  # each index's root is no longer needed once grouped
    for n, members in enumerate(groups.values()):
        classes.append(ZigzagClass(decode(grid.keys[members[0]]), Zigzags(grid, members)))
        for g in members:
            number[g] = n
    return classes, number


def _loc_hom(cat: PCategory, ms: MorseSystem, w: str, z: str, max_len=4):
    """The localized hom-poset from w to z, its grid and each grid index's class number."""
    zigzags = enumerate_zigzags(cat, ms, w, z, max_len)
    contractions, steps, erasures = zigzags.grid.edges()
    classes, number = _partition_into_classes(zigzags, *contractions)
    # Single-slot steps generate the componentwise order of same-shape
    # zigzags; the order pairs are gathered as class numbers.
    at = number.__getitem__
    pairs = {*zip(map(at, steps[0]), map(at, steps[1])), *zip(map(at, erasures[0]), map(at, erasures[1]))}
    return HomPoset(close_order_relation(classes, [(classes[a], classes[b]) for a, b in pairs])), zigzags.grid, number


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
        middle = moves._composites[k1[-1], k2[0]]  # reduced only if its hom holds it, as it holds the members' morphisms
        g = None if moves._home[middle] is None else grid.index(moves.reduce(k1[:-1] + (middle,) + k2[1:]))
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
