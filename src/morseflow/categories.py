"""Finite poset-enriched categories with explicit hom-posets.

Morphisms are hashable tokens carrying their endpoints.  Entrance paths use
the cell sequence as the token and split by cutting it; thin categories (face
posets, posets) use the endpoint pair and split only through identities;
hand-built categories use arbitrary labels plus a composition table.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Set
from dataclasses import dataclass
from itertools import product
from operator import itemgetter
from typing import NamedTuple


class NoAtom(Exception):
    """A nonempty hom-poset has no atom (the category is not cellular)."""


class Morphism(NamedTuple):
    """A morphism token, hashed, compared and ordered as its field tuple, in C."""

    source: str
    target: str
    label: tuple

    def __repr__(self):
        return f"<{' > '.join(map(str, self.label))}>" if self.label else f"<{self.source}->{self.target}>"


def identity_morphism(obj: str) -> Morphism:
    return Morphism(obj, obj, (obj,))


class Order(Set):
    """A closed order, read as a set of (a, b) pairs meaning a <= b, kept as
    down-set masks: bit i of ``down[j]`` is set when element i is below
    element j, and ``index`` maps each element to its position.  Membership
    tests a bit and ``len`` counts bits; only iteration decodes pairs."""

    __slots__ = ("elements", "down", "index")

    def __init__(self, elements, down):
        self.elements = elements
        self.down = down
        self.index = {e: i for i, e in enumerate(elements)}

    def __contains__(self, pair):
        a, b = pair
        i, j = self.index.get(a), self.index.get(b)
        return i is not None and j is not None and bool(self.down[j] >> i & 1)

    def __len__(self):
        return sum(m.bit_count() for m in self.down)

    def __iter__(self):
        return ((self.elements[i], b) for b, m in zip(self.elements, self.down) for i in _bits(m))


@dataclass(frozen=True)
class HomPoset:
    """Explicit finite poset of morphisms; its order is the ``Order`` that
    ``_close_order`` returns, so ``leq``, ``below_all``, ``above``,
    ``minimum``, ``maximum`` and ``covers`` are operations on its masks.
    """

    relation: Order

    @staticmethod
    def build(elements, pairs) -> "HomPoset":
        """Close the given pairs reflexively and transitively; must stay antisymmetric."""
        violation = lambda a, b: ValueError(f"hom-poset order is not antisymmetric: {a!r} <=> {b!r}")
        return HomPoset(_close_order(elements, pairs, violation))

    @property
    def elements(self) -> tuple:
        return self.relation.elements

    def __len__(self):
        return len(self.elements)

    def is_empty(self) -> bool:
        return not self.elements

    def leq(self, f, g) -> bool:
        return (f, g) in self.relation

    def below_all(self, bounds) -> int:
        """Bitmask of the element positions lying below every bound (all of them for no bound)."""
        down, index = self.relation.down, self.relation.index
        mask = (1 << len(down)) - 1
        for b in bounds:
            mask &= down[index[b]] if b in index else 0
        return mask

    def above(self, f) -> int:
        """Bitmask of the element positions at or above f: those whose down-set holds f (none for a non-element)."""
        i = self.relation.index.get(f)
        return 0 if i is None else sum(1 << j for j, down in enumerate(self.relation.down) if down >> i & 1)

    def minimum(self):
        return next((self.elements[i] for i in _bits(self.below_all(self.elements))), None)

    def maximum(self):
        full = self.below_all(())
        return next((f for f, down in zip(self.elements, self.relation.down) if down == full), None)

    def covers(self):
        """Covering pairs (f, g) of the strict order, for compact reports,
        sorted by the ``sort_key``s of f, then g, ranked once per call."""
        els = self.elements
        keys, rank, r = list(map(sort_key, els)), [0] * len(els), -1
        for i in sorted(range(len(els)), key=keys.__getitem__):
            if r < 0 or keys[i] != last:  # equal keys share a rank
                r, last = r + 1, keys[i]
            rank[i] = r
        strict = [m & ~(1 << i) for i, m in enumerate(self.relation.down)]
        out = []
        for i, m in enumerate(strict):
            below = 0
            for j in _bits(m):
                below |= strict[j]
            out.extend((rank[j] * len(els) + rank[i], j, i) for j in _bits(m & ~below))
        out.sort(key=itemgetter(0))
        return [(els[j], els[i]) for _, j, i in out]

    def check_partial_order(self):
        down = self.relation.down
        for i, f in enumerate(self.elements):
            if not down[i] >> i & 1:
                raise ValueError(f"relation not reflexive at {f}")
        if _close_order(self.elements, self.relation, _not_antisymmetric).down != down:
            raise ValueError("relation not transitive")


_EMPTY_HOM = HomPoset(Order((), []))


def _not_antisymmetric(a, b):
    return ValueError(f"relation not antisymmetric: {a} <=> {b}")


def _bits(mask):
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _walks(starts, succ, max_steps=None):
    """Every walk that begins at a start and follows ``succ``, in depth-first preorder.

    A walk is a tuple of nodes and ``succ(walk)`` lists the nodes that may
    come next, in order.  Walks take at most ``max_steps`` steps (no limit
    for None).  The stack is explicit, so depth is bounded by memory, not
    by the interpreter; there is no cycle guard, so ``succ`` must end every
    walk when there is no step limit.
    """
    stack = [(s,) for s in reversed(tuple(starts))]
    while stack:
        walk = stack.pop()
        yield walk
        if max_steps is None or len(walk) <= max_steps:
            stack.extend(walk + (n,) for n in reversed(tuple(succ(walk))))


def _close_order(elements, pairs, violation):
    """Reflexive-transitive closure of ``pairs`` as an ``Order``, by one strong-component pass.

    Each element points at the elements generated below it (self-pairs are
    ignored).  Tarjan completes an element after every element below it, so
    on acyclic pairs each down-set, in completion order, is the element's
    own bit ORed with the down-sets of the elements generated below it:
    time linear in the elements and pairs.  If the pairs have a cycle,
    raises ``violation(a, b)``: ``a`` is the first element, in element
    order, on a cycle, and ``b`` the smallest other member of its strongly
    connected component, the first two distinct elements that the closure
    would make comparable both ways.
    """
    els = tuple(dict.fromkeys(elements))
    index = {e: i for i, e in enumerate(els)}
    below = [[] for _ in els]
    for a, b in pairs:
        i, j = index[a], index[b]
        if i != j:
            below[j].append(i)
    component, completed = _strong_components(below)
    sizes = Counter(component)
    if len(sizes) < len(els):
        i = next(i for i, c in enumerate(component) if sizes[c] > 1)
        j = next(j for j, c in enumerate(component) if c == component[i] and j != i)
        raise violation(els[i], els[j])
    down = [0] * len(els)
    for i in completed:
        m = 1 << i
        for j in below[i]:
            m |= down[j]
        down[i] = m
    return Order(els, down)


def _strong_components(succ):
    """The strongly connected component number of every node of the digraph
    ``succ`` (node -> list of nodes), and the nodes in completion order, each
    after every node it reaches outside its component (Tarjan, explicit stack)."""
    n = len(succ)
    number, low, component = [None] * n, [0] * n, [None] * n
    stack, completed, count, found = [], [], 0, 0
    for root in range(n):
        if number[root] is not None:
            continue
        number[root] = low[root] = count
        count += 1
        stack.append(root)
        pending = [(root, iter(succ[root]))]
        while pending:
            v, rest = pending[-1]
            for w in rest:
                if number[w] is None:
                    number[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    pending.append((w, iter(succ[w])))
                    break
                if component[w] is None:  # w is on the stack
                    low[v] = min(low[v], number[w])
            else:
                pending.pop()
                if pending:
                    u = pending[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == number[v]:
                    while True:
                        w = stack.pop()
                        component[w] = found
                        completed.append(w)
                        if w == v:
                            break
                    found += 1
    return component, completed


def sort_key(el):
    """Deterministic ordering key for morphism-like tokens."""
    key = getattr(el, "key", None)
    if key is not None:
        return key() if callable(key) else key
    return (el.source, el.target, el.label)


class PCategory:
    """Small category enriched over posets, stored extensionally."""

    def __init__(self, objects, homs, compose_fn, identities, splittings_fn=None):
        self.objects = tuple(objects)
        self._homs = dict(homs)
        self._compose = compose_fn
        self._identities = dict(identities)
        self._splittings = splittings_fn
        self._reachable = None  # object -> reachable objects, built on first read
        self._moves = None  # the localization move table, built on first use
        self._atoms = {}  # (x, y) -> hom(x, y)'s atom, None or the NoAtom it raises, kept on first read

    # -- structure ---------------------------------------------------------

    def hom(self, a: str, b: str) -> HomPoset:
        return self._homs.get((a, b), _EMPTY_HOM)

    def reachable(self, a: str) -> tuple:
        """The objects b with hom(a, b) nonempty, in object order; the index is
        built once, from the keys of the nonempty homs, not by object scans."""
        if self._reachable is None:
            position = {o: i for i, o in enumerate(self.objects)}
            index = {}
            for (x, y), hp in self._homs.items():
                if not hp.is_empty():
                    index.setdefault(x, []).append(y)
            self._reachable = {x: tuple(sorted(ys, key=position.__getitem__)) for x, ys in index.items()}
        return self._reachable.get(a, ())

    def identity(self, a: str):
        return self._identities[a]

    def is_identity(self, f) -> bool:
        return f == self._identities.get(f.source) if hasattr(f, "source") else False

    def compose(self, f, g):
        """Diagrammatic composition: f: x -> y, then g: y -> z."""
        if f.target != g.source:
            raise ValueError(f"cannot compose {f} with {g}")
        return self._compose(f, g)

    def leq(self, f, g) -> bool:
        return self.hom(f.source, f.target).leq(f, g)

    def splittings(self, f):
        """All factorizations f = p o q as (p, mid, q), including the trivial
        ones, by the category's own splitting rule."""
        if self._splittings is None:
            raise ValueError("category has no splitting rule")
        return self._splittings(f)

    # -- axioms ------------------------------------------------------------

    def check_axioms(self):
        """Exhaustive check of the enrichment axioms (desk-scale only)."""
        for (a, b), hp in self._homs.items():
            hp.check_partial_order()
            for f in hp.elements:
                if (f.source, f.target) != (a, b):
                    raise ValueError(f"{f} stored under wrong hom ({a}, {b})")
        for a in self.objects:
            ida = self.identity(a)
            for b in self.objects:
                for f in self.hom(a, b).elements:
                    if self.compose(ida, f) != f or self.compose(f, self.identity(b)) != f:
                        raise ValueError(f"identity law fails at {f}")
        for a, b, c in product(self.objects, repeat=3):
            hab, hbc = self.hom(a, b), self.hom(b, c)
            for f in hab.elements:
                for g in hbc.elements:
                    fg = self.compose(f, g)
                    if fg not in set(self.hom(a, c).elements):
                        raise ValueError(f"composition not closed at {f}, {g}")
            # monotonicity
            for f1 in hab.elements:
                for f2 in hab.elements:
                    if not hab.leq(f1, f2):
                        continue
                    for g1 in hbc.elements:
                        for g2 in hbc.elements:
                            if hbc.leq(g1, g2) and not self.leq(self.compose(f1, g1), self.compose(f2, g2)):
                                raise ValueError("composition is not monotone")
        for a, b, c, d in product(self.objects, repeat=4):
            for f in self.hom(a, b).elements:
                for g in self.hom(b, c).elements:
                    for h in self.hom(c, d).elements:
                        if self.compose(self.compose(f, g), h) != self.compose(f, self.compose(g, h)):
                            raise ValueError("composition not associative")


# ---------------------------------------------------------------------------
# Path-backed categories from a complex
# ---------------------------------------------------------------------------


_tuple_new = tuple.__new__  # _tuple_new(Morphism, fields) is Morphism(*fields) without its Python-level __new__


def _path_compose(f: Morphism, g: Morphism) -> Morphism:
    return _tuple_new(Morphism, (f.source, g.target, f.label + g.label[1:]))


def _path_splittings(f: Morphism):
    source, target, label = f
    return [(_tuple_new(Morphism, (source, mid, label[:i + 1])), mid, _tuple_new(Morphism, (mid, target, label[i:])))
            for i, mid in enumerate(label)]


def entrance_path_category(c) -> PCategory:
    """Entrance paths (strictly descending cell sequences) ordered by subsequence.

    A path with one interior cell deleted is again a path of the same hom,
    because the face relation is transitive, and every subsequence is reached
    by such deletions; so the deletions generate each hom's order.  A deletion
    always shortens a path, so they form no cycle, and the down-set masks are
    filled straight from label positions: taken by increasing length, a
    path's mask is its own bit ORed with the masks of its deletions.
    """
    ids = c.ids()
    cyclic = [a for a in ids if a in c.strict_faces(a)]
    if cyclic:
        raise ValueError(f"face relation contains a cycle through {min(cyclic)}")
    paths = {}  # (src, dst) -> list of label tuples
    for path in _walks(ids, lambda p: c.strict_faces(p[-1])):
        paths.setdefault((path[0], path[-1]), []).append(path)
    homs = {}
    identities = {cid: identity_morphism(cid) for cid in ids}
    for (a, b), labels in paths.items():
        labels.sort()
        index = {lab: i for i, lab in enumerate(labels)}
        down = [0] * len(labels)
        for i in sorted(range(len(labels)), key=lambda i: len(labels[i])):
            lab, m = labels[i], 1 << i
            for k in range(1, len(lab) - 1):
                m |= down[index[lab[:k] + lab[k + 1:]]]
            down[i] = m
        homs[(a, b)] = HomPoset(Order(tuple(Morphism(a, b, lab) for lab in labels), down))
    return PCategory(ids, homs, _path_compose, identities, _path_splittings)


def _poset_compose(f, g):
    """Composition in a thin category: identities drop out, else the endpoints pair up."""
    if f.source == f.target:
        return g
    if g.source == g.target:
        return f
    return Morphism(f.source, g.target, (f.source, g.target))


def _thin_category(ids, targets) -> PCategory:
    """A thin category: an identity on each object, and one morphism a -> b
    for each b in ``targets(a)``.  A morphism splits only through its two
    identities; its token does not decompose."""
    identities = {a: identity_morphism(a) for a in ids}
    homs = {}
    for a in ids:
        homs[(a, a)] = HomPoset.build([identities[a]], [])
        for b in targets(a):
            homs[(a, b)] = HomPoset.build([Morphism(a, b, (a, b))], [])

    def splittings(f):
        if f.source == f.target:
            return [(f, f.source, f)]
        return [(identities[f.source], f.source, f), (f, f.target, identities[f.target])]

    return PCategory(ids, homs, _poset_compose, identities, splittings)


def face_poset_category(c) -> PCategory:
    """One morphism per strict face relation."""
    return _thin_category(c.ids(), c.strict_faces)


def poset_as_pcategory(elements, leq) -> PCategory:
    """View a finite poset as a thin p-category; element i is object ``p{i}``."""
    back = {f"p{i}": e for i, e in enumerate(elements)}
    cat = _thin_category(tuple(back), lambda a: [b for b, e in back.items() if b != a and leq(back[a], e)])
    cat.poset_element = back  # object id -> original poset element
    return cat


def full_subcategory(cat: PCategory, objects) -> PCategory:
    objects = tuple(objects)
    keep = set(objects)
    homs = {(a, b): cat.hom(a, b) for a in objects for b in cat.reachable(a) if b in keep}
    identities = {a: cat.identity(a) for a in objects}
    return PCategory(objects, homs, cat._compose, identities, cat._splittings)


# ---------------------------------------------------------------------------
# Atoms and homotopy-extremal objects
# ---------------------------------------------------------------------------


def atom(cat: PCategory, x: str, y: str):
    """The minimum, weakly indecomposable element of hom(x, y), if any.

    Returns None for an empty hom-poset and raises NoAtom when the hom-poset
    is nonempty but no element satisfies the atom conditions.  The outcome is
    kept on the category, so each hom is searched once.
    """
    if (x, y) not in cat._atoms:
        hp = cat.hom(x, y)
        f = hp.minimum()
        ok = f is not None and _weakly_indecomposable(cat, f) and (x != y or cat.is_identity(f))
        cat._atoms[(x, y)] = None if hp.is_empty() else f if ok else NoAtom(f"hom({x}, {y}) has no atom")
    found = cat._atoms[(x, y)]
    if isinstance(found, NoAtom):
        raise NoAtom(*found.args)
    return found


def _weakly_indecomposable(cat: PCategory, f) -> bool:
    """Whether no composite g o h through an object z lies at or below f, the
    minimum of hom(x, y), apart from f's two identity factorizations.

    Composition is monotone in each argument, so where hom(x, z) and
    hom(z, y) have minima g0 and h0, every composite g o h lies at or above
    g0 o h0: one lies at or below f exactly when g0 o h0 does, and that one
    test decides z.  For z = x and z = y, where the identity factorizations
    are exempt, and where a hom has no minimum, every composite is tested.
    """
    x, y = f.source, f.target
    for z in cat.reachable(x):
        hzy = cat.hom(z, y)
        if hzy.is_empty():
            continue
        hxz = cat.hom(x, z)
        g0, h0 = (None, None) if z in (x, y) else (hxz.minimum(), hzy.minimum())
        if g0 is not None and h0 is not None:
            if cat.leq(cat.compose(g0, h0), f):
                return False
            continue
        for g in hxz.elements:
            for h in hzy.elements:
                if cat.leq(cat.compose(g, h), f):
                    if z == x and cat.is_identity(g) and h == f:
                        continue
                    if z == y and g == f and cat.is_identity(h):
                        continue
                    return False
    return True


def is_cellular(cat: PCategory) -> bool:
    """Every nonempty hom-poset contains an atom."""
    for a in cat.objects:
        for b in cat.objects:
            try:
                atom(cat, a, b)
            except NoAtom:
                return False
    return True


def find_homotopy_extremal(cat: PCategory):
    """An object whose hom-posets all have bottoms (or all have tops), if any.

    Returns (object, "minimal" | "maximal") or None.  Such an object forces
    the classifying space of the category to be contractible.
    """
    orientations = ((HomPoset.minimum, cat.hom, "minimal"), (HomPoset.maximum, lambda a, b: cat.hom(b, a), "maximal"))
    for extreme, hom, kind in orientations:  # every object is tried as minimal before any as maximal
        for w in cat.objects:
            for z in cat.objects:
                e = extreme(hom(w, z))
                if e is None or (w == z and not cat.is_identity(e)):
                    break
            else:
                return w, kind
    return None
