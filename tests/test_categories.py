import random

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
from morseflow.categories import _walks, identity_morphism
from morseflow.localization import OrderViolation, close_order_relation

from helpers import close_order_reference, count_descending_chains, covers_reference, random_complex
from morseflow.fixtures import sphere_complex


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


def test_homotopy_extremal_on_posets():
    chain = poset_as_pcategory([0, 1, 2], lambda a, b: a <= b)
    found = find_homotopy_extremal(chain)
    assert found is not None
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
                HomPoset(tuple(els), closed).check_partial_order()
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
                HomPoset(tuple(els), unclosed).check_partial_order()
    assert violations > 25 and orders > 200


def test_mask_scans_match_brute_force():
    rng = random.Random(11)
    orders = 0
    for trial in range(400):
        els, pairs = _random_relation(rng, acyclic=trial % 2 == 0)
        closed, both = close_order_reference(els, pairs)
        tops = [e for e in els if all((g, e) in closed for g in els)]
        if both:  # not an order, but a directly constructed relation still has its top test
            assert HomPoset(tuple(els), closed).maximum() == (tops[0] if tops else None)
            continue
        orders += 1
        hp = HomPoset.build(els, pairs)
        # the same masks whether the poset was built or constructed from a closed relation
        for poset in (hp, HomPoset(tuple(els), closed)):
            for _ in range(5):
                bounds = rng.sample(els, rng.randint(0, min(3, len(els))))
                below = [i for i, e in enumerate(els) if all((e, b) in closed for b in bounds)]
                assert poset.below_all(bounds) == sum(1 << i for i in below)
            bottoms = [e for e in els if all((e, g) in closed for g in els)]
            assert poset.minimum() == (bottoms[0] if bottoms else None)
            assert poset.maximum() == (tops[0] if tops else None)
            assert poset.covers() == covers_reference(els, closed)
    assert orders > 200
    assert HomPoset((), frozenset()).minimum() is None
    assert HomPoset((), frozenset()).maximum() is None
    assert HomPoset((), frozenset()).below_all(()) == 0


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
