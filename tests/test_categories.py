import random
from itertools import combinations

import pytest

from morseflow import (
    Cell,
    Complex,
    HomPoset,
    Morphism,
    NoAtom,
    PCategory,
    atom,
    entrance_path_category,
    face_poset_category,
    find_homotopy_extremal,
    is_cellular,
    poset_as_pcategory,
)
from morseflow.categories import _close_order, _walks, _weakly_indecomposable, identity_morphism
from morseflow.localization import OrderViolation, close_order_relation

from helpers import (
    KLEIN_FACETS,
    RP2_FACETS,
    TORUS_FACETS,
    close_order_reference,
    close_order_warshall,
    count_descending_chains,
    covers_reference,
    entrance_path_category_reference,
    hom_poset_from_pairs,
    random_complex,
    simplicial_to_complex,
    subsequence,
    weakly_indecomposable_reference,
)
from morseflow.fixtures import FIXTURES, sphere_complex


def test_face_poset_homs_are_singletons():
    Fc = face_poset_category(sphere_complex())
    assert [m.label for m in Fc.hom("t", "w").elements] == [("t", "w")]
    assert Fc.hom("w", "t").is_empty()
    assert len(Fc.hom("x", "x")) == 1


def test_entrance_paths_of_sphere():
    En = entrance_path_category(sphere_complex())
    assert [m.label for m in En.hom("t", "x").elements] == [("t", "x")]
    tw = En.hom("t", "w")
    labels = {m.label for m in tw.elements}
    assert labels == {("t", "w"), ("t", "x", "w"), ("t", "z", "w")}
    short = Morphism("t", "w", ("t", "w"))
    assert tw.leq(short, Morphism("t", "w", ("t", "x", "w")))
    assert tw.leq(short, Morphism("t", "w", ("t", "z", "w")))
    assert not tw.leq(Morphism("t", "w", ("t", "x", "w")), Morphism("t", "w", ("t", "z", "w")))


def test_entrance_path_composition_is_concatenation():
    En = entrance_path_category(sphere_complex())
    tx = Morphism("t", "x", ("t", "x"))
    xw = Morphism("x", "w", ("x", "w"))
    assert En.compose(tx, xw) == Morphism("t", "w", ("t", "x", "w"))


def test_morphisms_hash_compare_and_print_by_their_fields():
    # Equality, hash and order are those of the (source, target, label)
    # tuple, so hom elements keep their label order; repr shows the label.
    f = Morphism("t", "w", ("t", "x", "w"))
    assert f == Morphism("t", "w", ("t", "x", "w")) and hash(f) == hash(("t", "w", ("t", "x", "w")))
    assert f != Morphism("t", "w", ("t", "w")) and f != Morphism("t", "x", ("t", "x", "w"))
    assert (f.source, f.target, f.label) == ("t", "w", ("t", "x", "w"))
    assert repr(f) == str(f) == f"{f}" == "<t > x > w>" and repr(Morphism("a", "b", ())) == "<a->b>"
    for cx in (sphere_complex(), simplicial_to_complex(RP2_FACETS)):
        En = entrance_path_category(cx)
        for a in En.objects:
            for b in En.reachable(a):
                els = list(En.hom(a, b).elements)
                assert els == sorted(els) == sorted(els, key=lambda g: (g.source, g.target, g.label))
                assert {g: i for i, g in enumerate(els)} == {(g.source, g.target, g.label): i for i, g in enumerate(els)}


def test_path_counts_match_chain_counter():
    rng = random.Random(17)
    for _ in range(10):
        cx = random_complex(rng, 10)
        En = entrance_path_category(cx)
        for x in cx.ids():
            for y in cx.ids():
                if x != y and cx.is_face(x, y):
                    assert len(En.hom(x, y)) == count_descending_chains(cx, x, y)


def test_subsequence_order_is_a_partial_order():
    En = entrance_path_category(sphere_complex())
    for a in En.objects:
        for b in En.objects:
            En.hom(a, b).check_partial_order()


def test_entrance_path_order_is_the_subsequence_order():
    # Each hom's order is generated by single interior deletions; closed, it
    # must be the all-pairs subsequence order.
    rng = random.Random(31)
    complexes = [random_complex(rng, 10) for _ in range(20)]
    complexes += [simplicial_to_complex(combinations(range(n + 2), n + 1)) for n in (2, 3)]
    pairs = 0
    for cx in complexes:
        En = entrance_path_category(cx)
        for a in En.objects:
            for b in En.objects:
                hp = En.hom(a, b)
                rel = {(f, g) for f in hp.elements for g in hp.elements if subsequence(f.label, g.label)}
                assert hp.relation == rel, (a, b)
                pairs += len(rel) - len(hp)
    assert pairs > 500


def test_entrance_path_masks_match_the_closed_deletion_pairs():
    # Each hom's down-set masks are filled from label positions, by
    # increasing length; closing the single-deletion pairs with the kernel
    # must give the same elements in the same order and the same masks.
    rng = random.Random(37)
    complexes = [fx.complex for fx in FIXTURES.values()]
    complexes += [simplicial_to_complex(combinations(range(k + 1), k)) for k in (3, 4, 5)]
    complexes += [simplicial_to_complex(facets) for facets in (RP2_FACETS, TORUS_FACETS, KLEIN_FACETS)]
    complexes += [random_complex(rng, 12) for _ in range(30)]
    longest = 0
    for cx in complexes:
        En, ref = entrance_path_category(cx), entrance_path_category_reference(cx)
        assert En.objects == ref.objects
        assert En._homs.keys() == ref._homs.keys()
        for (a, b), hp in ref._homs.items():
            assert En.hom(a, b).elements == hp.elements
            assert En.hom(a, b).relation.down == hp.relation.down
            longest = max(longest, *(len(f.label) for f in hp.elements))
    assert longest == 5  # a 4-cell of the boundary of the 5-simplex down to a vertex


def test_category_axioms_hold_on_fixture():
    En = entrance_path_category(sphere_complex())
    En.check_axioms()
    face_poset_category(sphere_complex()).check_axioms()


def test_atoms():
    S = sphere_complex()
    En = entrance_path_category(S)
    assert atom(En, "t", "w") == Morphism("t", "w", ("t", "w"))
    assert atom(En, "w", "t") is None
    assert is_cellular(En)
    Fc = face_poset_category(S)
    # codimension-1 face arrows do not decompose, so they are atoms
    assert atom(Fc, "x", "y") == Morphism("x", "y", ("x", "y"))
    assert atom(Fc, "b", "z") == Morphism("b", "z", ("b", "z"))
    # t -> w factors through an edge with trivial order, so it is not one
    with pytest.raises(NoAtom):
        atom(Fc, "t", "w")
    assert not is_cellular(Fc)


def test_atoms_are_tested_on_the_minima_of_the_homs_they_factor_through():
    # Through an object z other than x and y whose homs from x and to y have
    # minima g0 and h0, only g0 o h0 is formed: composition is monotone, so it
    # lies below every other composite through z.  On the 3-sphere ∂Δ⁴.
    En = entrance_path_category(simplicial_to_complex(combinations(range(5), 4)))
    composed = []
    compose = En._compose
    En._compose = lambda g, h: composed.append((g, h)) or compose(g, h)
    pairs_of_many = 0
    for x in En.objects:
        for y in En.reachable(x):
            f = En.hom(x, y).minimum()
            del composed[:]
            verdict = _weakly_indecomposable(En, f)
            made = len(composed)
            assert verdict == weakly_indecomposable_reference(En, f), (x, y)
            if not verdict:
                continue
            expected = 0
            for z in En.reachable(x):
                hxz, hzy = En.hom(x, z), En.hom(z, y)
                through_minima = z not in (x, y) and hxz.minimum() is not None and hzy.minimum() is not None
                expected += 1 if through_minima else len(hxz) * len(hzy)
                pairs_of_many += through_minima and len(hxz) * len(hzy) > 1
            assert made == expected, (x, y)
    assert pairs_of_many > 20


def _two_incomparable_arrows_category():
    f = Morphism("a", "b", ("f",))
    g = Morphism("a", "b", ("g",))
    ia, ib = identity_morphism("a"), identity_morphism("b")
    homs = {
        ("a", "a"): HomPoset.build([ia], []),
        ("b", "b"): HomPoset.build([ib], []),
        ("a", "b"): HomPoset.build([f, g], []),
    }

    def compose(u, v):
        if u.source == u.target:
            return v
        if v.source == v.target:
            return u
        raise AssertionError

    return PCategory(["a", "b"], homs, compose, {"a": ia, "b": ib})


def test_incomparable_hom_has_no_atom():
    cat = _two_incomparable_arrows_category()
    with pytest.raises(NoAtom):
        atom(cat, "a", "b")
    assert not is_cellular(cat)


def test_a_category_without_a_splitting_rule_refuses_to_split():
    cat = _two_incomparable_arrows_category()
    with pytest.raises(ValueError, match="no splitting rule"):
        cat.splittings(cat.hom("a", "b").elements[0])


def test_homotopy_extremal_on_posets():
    chain = poset_as_pcategory([0, 1, 2], lambda a, b: a <= b)
    assert find_homotopy_extremal(chain) == ("p0", "minimal")
    # every object is tried as minimal before any as maximal: the top p0 comes first but is not returned
    falling = poset_as_pcategory([2, 1, 0], lambda a, b: a <= b)
    assert find_homotopy_extremal(falling) == ("p2", "minimal")
    # two minimal elements under a top: only the top is extremal
    vee = poset_as_pcategory(["a", "b", "top"], lambda a, b: a == b or b == "top")
    assert find_homotopy_extremal(vee) == ("p2", "maximal")
    # 8-element crown: alternating minimal and maximal elements around a cycle
    crown = poset_as_pcategory(
        list(range(8)),
        lambda a, b: a == b or (a % 2 == 0 and b in ((a + 1) % 8, (a - 1) % 8)),
    )
    assert find_homotopy_extremal(crown) is None


def test_composition_is_monotone():
    En = entrance_path_category(sphere_complex())
    for a, b, c in (("t", "x", "w"), ("t", "z", "y"), ("b", "x", "y")):
        hab, hbc = En.hom(a, b), En.hom(b, c)
        for f1 in hab.elements:
            for f2 in hab.elements:
                if not hab.leq(f1, f2):
                    continue
                for g1 in hbc.elements:
                    for g2 in hbc.elements:
                        if hbc.leq(g1, g2):
                            assert En.leq(En.compose(f1, g1), En.compose(f2, g2))


def _random_relation(rng, acyclic):
    """Shuffled elements and random generating pairs, forward-only along a random order if acyclic."""
    n = rng.randint(1, 9)
    els = [Morphism("a", "b", (i,)) for i in rng.sample(range(n), n)]
    p = rng.random() * 0.5
    if acyclic:
        order = rng.sample(els, n)
        return els, [(x, y) for i, x in enumerate(order) for y in order[i + 1:] if rng.random() < p]
    return els, [(x, y) for x in els for y in els if x != y and rng.random() < p / 2]


def test_order_closure_matches_the_pairwise_reference():
    rng = random.Random(11)
    violations = orders = 0
    for trial in range(400):
        els, pairs = _random_relation(rng, acyclic=trial % 2 == 0)
        closed, both = close_order_reference(els, pairs)
        if both:
            violations += 1
            with pytest.raises(ValueError) as exc:
                HomPoset.build(els, pairs)
            assert any(f"{a!r} <=> {b!r}" in str(exc.value) for a, b in both)
            with pytest.raises(OrderViolation) as exc:
                close_order_relation(els, pairs)
            assert any(f"{a!r} and {b!r}" in str(exc.value) for a, b in both)
            with pytest.raises(ValueError, match="not antisymmetric"):
                hom_poset_from_pairs(els, closed).check_partial_order()
            continue
        orders += 1
        hp = HomPoset.build(els, pairs)
        assert hp.relation == closed
        assert close_order_relation(els, pairs) == closed
        hp.check_partial_order()
        assert hp.covers() == covers_reference(els, closed)
        unclosed = frozenset(pairs) | {(e, e) for e in els}
        if unclosed != closed:
            with pytest.raises(ValueError, match="not transitive"):
                hom_poset_from_pairs(els, unclosed).check_partial_order()
    assert violations > 25 and orders > 200


class _Violation(Exception):
    pass


class _Keyed:
    """A hom element with a given sort key, so that two elements can share one."""

    def __init__(self, name, key):
        self.name, self.key = name, key

    def __repr__(self):
        return self.name


def test_covers_come_sorted_by_key_ranks_whatever_the_element_order():
    # A diamond whose elements are listed against their key order: the
    # covers are sorted by the keys of both ends, as the reference sorts them.
    top, left, right, bottom = (Morphism("x", "y", ("x", mid, "y")) for mid in ("d", "c", "b", "a"))
    diamond = HomPoset.build([top, left, right, bottom], [(bottom, left), (bottom, right), (left, top), (right, top)])
    assert diamond.covers() == covers_reference(diamond.elements, diamond.relation)
    assert diamond.covers() == [(bottom, right), (bottom, left), (right, top), (left, top)]
    # Equal keys share a rank, so pairs whose keys tie keep the order in which
    # they are found: by upper element, then lower element, in element order.
    p, q, r, s = _Keyed("p", 2), _Keyed("q", 1), _Keyed("r", 1), _Keyed("s", 0)
    for els, found in (([p, q, r, s], [(q, p), (r, p), (s, q), (s, r)]), ([p, r, q, s], [(r, p), (q, p), (s, r), (s, q)])):
        tied = HomPoset.build(els, [(s, q), (s, r), (q, p), (r, p)])
        assert tied.covers() == sorted(found, key=lambda pair: (pair[0].key, pair[1].key))
    # two chains a1 < b2 and a2 < b1 tie on both keys: b1 is found first, though a1 comes before a2
    a1, a2, b1, b2 = _Keyed("a1", 0), _Keyed("a2", 0), _Keyed("b1", 1), _Keyed("b2", 1)
    assert HomPoset.build([a1, a2, b1, b2], [(a1, b2), (a2, b1)]).covers() == [(a2, b1), (a1, b2)]


def test_sweep_closure_matches_warshall():
    # Duplicate elements and self-pairs included; on a cycle the sweep must
    # raise the pair Warshall's scan meets first.
    rng = random.Random(15)
    cyclic = 0
    for trial in range(3000):
        els, pairs = _random_relation(rng, acyclic=trial % 3 == 2)
        if trial % 3 == 0 and len(els) > 1:  # close a random cycle
            ring = rng.sample(els, rng.randint(2, len(els)))
            pairs += zip(ring, ring[1:] + ring[:1])
        els += rng.sample(els, rng.randint(0, len(els)))
        pairs += [(e, e) for e in rng.choices(els, k=rng.randint(0, 2))]
        rng.shuffle(pairs)
        closed, both = close_order_reference(els, pairs)
        warshall, first = close_order_warshall(els, pairs)
        assert warshall == closed and (first is None) == (not both)
        if first is None:
            assert _close_order(els, pairs, _Violation) == closed
            continue
        cyclic += 1
        with pytest.raises(_Violation) as exc:
            _close_order(els, pairs, _Violation)
        assert exc.value.args == first
    assert 900 < cyclic < 1500


def test_mask_scans_match_brute_force():
    rng = random.Random(11)
    orders = 0
    for trial in range(400):
        els, pairs = _random_relation(rng, acyclic=trial % 2 == 0)
        closed, both = close_order_reference(els, pairs)
        tops = [e for e in els if all((g, e) in closed for g in els)]
        if both:  # not an order, but a directly constructed relation still has its top test
            assert hom_poset_from_pairs(els, closed).maximum() == (tops[0] if tops else None)
            continue
        orders += 1
        hp = HomPoset.build(els, pairs)
        # the kernel's down-sets are the reference closure's
        assert hp.relation.down == [sum(1 << i for i, a in enumerate(els) if (a, b) in closed) for b in els]
        # the same masks whether the poset was built or closed again from a closed relation
        for poset in (hp, HomPoset.build(els, closed)):
            for _ in range(5):
                bounds = rng.sample(els, rng.randint(0, min(3, len(els))))
                below = [i for i, e in enumerate(els) if all((e, b) in closed for b in bounds)]
                assert poset.below_all(bounds) == sum(1 << i for i in below)
            bottoms = [e for e in els if all((e, g) in closed for g in els)]
            assert poset.minimum() == (bottoms[0] if bottoms else None)
            assert poset.maximum() == (tops[0] if tops else None)
            assert poset.covers() == covers_reference(els, closed)
            for e in els:
                assert poset.above(e) == sum(1 << j for j, g in enumerate(els) if (e, g) in closed)
            assert poset.above(object()) == 0  # a non-element is below nothing
    assert orders > 200
    assert HomPoset.build((), ()).minimum() is None
    assert HomPoset.build((), ()).maximum() is None
    assert HomPoset.build((), ()).below_all(()) == 0


def test_walks_are_depth_first_preorder_with_a_step_bound():
    succ = {"a": ["b", "c"], "b": ["d"], "c": ["d"], "d": []}
    nxt = lambda walk: succ[walk[-1]]
    walks = ["".join(w) for w in _walks(["a", "c"], nxt)]
    assert walks == ["a", "ab", "abd", "ac", "acd", "c", "cd"]
    assert ["".join(w) for w in _walks(["a", "c"], nxt, 1)] == ["a", "ab", "ac", "c", "cd"]
    assert ["".join(w) for w in _walks(["a", "c"], nxt, 0)] == ["a", "c"]
    assert list(_walks([], nxt)) == []


def test_walks_follow_a_10000_node_path_without_recursion():
    n = 10_000
    count, last = 0, None
    for walk in _walks([0], lambda w: [w[-1] + 1] if w[-1] + 1 < n else []):
        count += 1
        last = walk
    assert count == n
    assert last == tuple(range(n))


def test_entrance_paths_refuse_a_cyclic_face_relation():
    loop = Complex([Cell("a", 0), Cell("b", 0)], [["a", "b"], ["b", "a"]])
    with pytest.raises(ValueError, match="cycle through a"):
        entrance_path_category(loop)
