import random
import re
import sys
from itertools import combinations

import pytest

from morseflow import (
    Matching,
    OrderViolation,
    QQ,
    atom,
    entrance_path_category,
    enumerate_zigzags,
    essential_chain,
    face_poset_category,
    flow_category,
    geometric_nerve,
    hom_poset_loc,
    homology,
    matching_to_morse_system,
    morse_system_from_arrows,
    normalized_chain_complex,
    order_complex,
    poset_as_pcategory,
    reduce_zigzag,
    stabilized_flow,
    validate_morse_system,
    zigzag_from_text,
    zigzag_to_text,
)
from morseflow import localization, matchings
from morseflow.categories import Morphism, Order
from morseflow.localization import Zigzag, _MoveTable, zigzag_class_of

from helpers import (
    contractions_reference,
    cycle_graph_complex,
    enumerate_zigzags_reference,
    erasures_reference,
    flow_compose_reference,
    flow_instances,
    loc_order_reference,
    random_acyclic_matching,
    random_complex,
    reduce_reference,
    simplicial_to_complex,
    steps_reference,
)
from morseflow.fixtures import get_fixture, sphere_complex


def _sphere_setup():
    S = sphere_complex()
    En = entrance_path_category(S)
    ms = matching_to_morse_system(S, Matching((("x", "y"), ("b", "z")), "classical"), En)
    return S, En, ms


def _zz(cat, ms, text):
    return zigzag_from_text(cat, ms, text)


def test_reduce_mirror_cancellation():
    _, En, ms = _sphere_setup()
    z = _zz(En, ms, "t > z < b > z > w")
    assert zigzag_to_text(reduce_zigzag(En, z)) == "t > z > w"


def test_reduce_forward_cancellation():
    _, En, ms = _sphere_setup()
    z = _zz(En, ms, "t > x > y < x > w")
    assert zigzag_to_text(reduce_zigzag(En, z)) == "t > x > w"


def test_reduce_fixes_plain_morphisms():
    _, En, ms = _sphere_setup()
    z = _zz(En, ms, "t > x > w")
    assert reduce_zigzag(En, z) == z


def test_text_round_trip():
    _, En, ms = _sphere_setup()
    for text in ("t > w", "t > z < b > y < x > w", "t > z < b > z > w"):
        assert zigzag_to_text(_zz(En, ms, text)) == text


def test_text_refuses_a_separator_where_a_cell_belongs():
    _, En, ms = _sphere_setup()
    for text, message in (("t >", "needs a cell after '>'"), ("t > x <", "needs a cell after '<'"),
                          ("t > > w", "needs a cell after '>'"), ("t w", "unexpected token 'w'")):
        with pytest.raises(ValueError, match=message):
            _zz(En, ms, text)


def test_generalized_enumeration_requires_a_bound():
    S = sphere_complex()
    En = entrance_path_category(S)
    ms = matching_to_morse_system(S, Matching((("b", "y"),), "generalized"), En)
    with pytest.raises(ValueError):
        enumerate_zigzags(En, ms, "t", "w", None)


def test_enumeration_counts():
    _, En, ms = _sphere_setup()
    zs = enumerate_zigzags(En, ms, "t", "w", None)
    assert len(zs) == 12
    assert list(enumerate_zigzags(En, ms, "w", "t", None)) == []
    plain = enumerate_zigzags(En, ms, "t", "w", 0)
    assert {z.rights[0].label for z in plain} == {("t", "w"), ("t", "x", "w"), ("t", "z", "w")}
    assert all(not z.lefts for z in plain)


def test_localized_hom_poset_of_sphere_matching():
    _, En, ms = _sphere_setup()
    hp = hom_poset_loc(En, ms, "t", "w", None)
    texts = {zigzag_to_text(c.canonical) for c in hp.elements}
    assert texts == {
        "t > w",
        "t > x > w",
        "t > z > w",
        "t > y < x > w",
        "t > z < b > w",
        "t > z < b > x > w",
        "t > z > y < x > w",
        "t > z < b > y < x > w",
    }
    covers = {
        (zigzag_to_text(a.canonical), zigzag_to_text(b.canonical)) for a, b in hp.covers()
    }
    assert covers == {
        ("t > w", "t > x > w"),
        ("t > w", "t > z > w"),
        ("t > y < x > w", "t > x > w"),
        ("t > y < x > w", "t > z > y < x > w"),
        ("t > z < b > w", "t > z > w"),
        ("t > z < b > w", "t > z < b > x > w"),
        ("t > z < b > y < x > w", "t > z < b > x > w"),
        ("t > z < b > y < x > w", "t > z > y < x > w"),
    }


def test_identifications_of_raw_zigzags():
    _, En, ms = _sphere_setup()
    hp = hom_poset_loc(En, ms, "t", "w", None)
    pairs = [
        ("t > x > y < x > w", "t > x > w"),
        ("t > z < b > z > w", "t > z > w"),
        ("t > z < b > x > y < x > w", "t > z < b > x > w"),
        ("t > z < b > z > y < x > w", "t > z > y < x > w"),
    ]
    for long, short in pairs:
        assert zigzag_class_of(hp, _zz(En, ms, long)) is zigzag_class_of(hp, _zz(En, ms, short))


def test_hom_order_complex_is_a_circle():
    _, En, ms = _sphere_setup()
    hp = hom_poset_loc(En, ms, "t", "w", None)
    oc = order_complex(hp.elements, hp.leq)
    assert homology(normalized_chain_complex(oc, QQ)).betti()[:2] == (1, 1)


def test_face_poset_localization_has_four_classes_with_bottom():
    S = sphere_complex()
    Fc = face_poset_category(S)
    ms = matching_to_morse_system(S, Matching((("x", "y"), ("b", "z")), "classical"), Fc)
    hp = hom_poset_loc(Fc, ms, "t", "w", None)
    assert len(hp.elements) == 4
    bottom = hp.minimum()
    assert bottom is not None
    assert zigzag_to_text(bottom.canonical) == "t > z < b > y < x > w"


def test_both_thin_builders_localize_the_face_poset_alike():
    # the face poset built directly and as a poset: both split only through identities
    fx = get_fixture("calc62")
    cx = fx.complex
    Fc = face_poset_category(cx)
    Pc = poset_as_pcategory(cx.ids(), lambda a, b: a == b or cx.is_face(a, b))
    name = {e: p for p, e in Pc.poset_element.items()}
    ms_f = matching_to_morse_system(cx, fx.matching, Fc)
    ms_p = morse_system_from_arrows(Pc, [atom(Pc, name[u], name[l]) for u, l in fx.matching.pairs])
    assert len(hom_poset_loc(Fc, ms_f, "t", "w", None)) == 4
    assert len(hom_poset_loc(Pc, ms_p, name["t"], name["w"], None)) == 4
    betti = [
        homology(normalized_chain_complex(geometric_nerve(flow_category(cat, ms, None).category, 3), QQ)).betti()[:3]
        for cat, ms in ((Fc, ms_f), (Pc, ms_p))
    ]
    assert betti[0] == betti[1] == (1, 0, 0)


def test_trivial_system_reproduces_entrance_paths():
    S = sphere_complex()
    En = entrance_path_category(S)
    ms = matching_to_morse_system(S, Matching((), "classical"), En)
    hp = hom_poset_loc(En, ms, "t", "w", None)
    assert len(hp.elements) == 3
    base = En.hom("t", "w")
    for c1 in hp.elements:
        for c2 in hp.elements:
            g1 = c1.canonical.rights[0]
            g2 = c2.canonical.rights[0]
            assert hp.leq(c1, c2) == base.leq(g1, g2)


def test_reduction_stays_in_class():
    _, En, ms = _sphere_setup()
    hp = hom_poset_loc(En, ms, "t", "w", None)
    for cls in hp.elements:
        for member in cls.members:
            assert reduce_zigzag(En, member) in cls.members


def _assert_matches_reference(cat, ms, w, z, max_len):
    hp = hom_poset_loc(cat, ms, w, z, max_len)
    classes, closed, both = loc_order_reference(cat, ms, w, z, max_len)
    assert not both
    assert hp.elements == tuple(classes)
    assert list(hp.elements) == sorted(hp.elements, key=lambda cls: cls.canonical.key())
    assert hp.relation == closed


def _grid_instances():
    """(name, category, system, bounds, cell pairs): flow_instances() and the
    cyclic 4-cycle system at bounds 6 and None with every cell pair, and
    calc63 at L = 1..6 with its critical pairs and the non-critical (b, y)."""
    instances = []
    for name, En, ms, bound in flow_instances():
        instances.append((name, En, ms, (bound,), [(w, z) for w in En.objects for z in En.objects]))
    cx = cycle_graph_complex(4)
    En = entrance_path_category(cx)
    ms = matching_to_morse_system(cx, Matching(tuple((f"e{i}", f"v{(i + 1) % 4}") for i in range(4))), En)
    instances.append(("4-cycle", En, ms, (6, None), [(w, z) for w in En.objects for z in En.objects]))
    fx = get_fixture("calc63")
    En = entrance_path_category(fx.complex)
    ms = matching_to_morse_system(fx.complex, fx.matching, En)
    pairs = [(w, z) for w in ms.critical for z in ms.critical] + [("b", "y")]
    instances.append(("calc63", En, ms, (1, 2, 3, 4, 5, 6), pairs))
    return instances


def test_grid_classes_and_order_match_the_per_zigzag_partition():
    # The grid's classes, their member order and the down-set masks of their
    # order equal the per-zigzag union-find and the pairwise closure.
    homs = 0
    for name, En, ms, bounds, pairs in _grid_instances():
        for bound in bounds:
            for w, z in pairs:
                hp = hom_poset_loc(En, ms, w, z, bound)
                classes, closed, both = loc_order_reference(En, ms, w, z, bound)
                assert not both
                assert [tuple(c.members) for c in hp.elements] == [c.members for c in classes], (name, w, z, bound)
                down = [sum(1 << i for i, b in enumerate(classes) if (b, a) in closed) for a in classes]
                assert list(hp.relation.down) == down, (name, w, z, bound)
                homs += len(classes) > 1
    assert homs > 80


def test_localized_order_matches_pairwise_reference_on_random_classical_instances():
    rng = random.Random(17)
    done = 0
    while done < 10:
        cx = random_complex(rng, 10)
        m = random_acyclic_matching(rng, cx, max_pairs=3)
        if not m.pairs:
            continue
        En = entrance_path_category(cx)
        ms = matching_to_morse_system(cx, m, En)
        for w in cx.ids():
            for z in cx.ids():
                _assert_matches_reference(En, ms, w, z, None)
        done += 1


def test_localized_order_matches_pairwise_reference_on_calc63():
    fx = get_fixture("calc63")
    En = entrance_path_category(fx.complex)
    ms = matching_to_morse_system(fx.complex, fx.matching, En)
    for max_len in (1, 2, 3, 4, 5):
        for w in fx.complex.ids():
            for z in fx.complex.ids():
                _assert_matches_reference(En, ms, w, z, max_len)


def test_reduction_reaches_an_irreducible_member_of_the_same_class():
    _, En, ms = _sphere_setup()
    fx = get_fixture("calc63")
    En63 = entrance_path_category(fx.complex)
    ms63 = matching_to_morse_system(fx.complex, fx.matching, En63)
    cases = (
        (En, hom_poset_loc(En, ms, "t", "w", None)),
        (En63, hom_poset_loc(En63, ms63, "t", "w", 3)),
    )
    for cat, hp in cases:
        for cls in hp.elements:
            for member in cls.members:
                reduced = reduce_zigzag(cat, member)
                assert reduced in cls.members
                assert next(contractions_reference(cat, reduced), None) is None


def test_irreducible_members_have_strictly_descending_chains():
    _, En, ms = _sphere_setup()
    zs = enumerate_zigzags(En, ms, "t", "w", None)
    for z in zs:
        for f0, f1 in zip(z.lefts, z.lefts[1:]):
            assert f0 != f1 and not En.hom(f0.source, f1.target).is_empty()


def test_essential_chains():
    _, En, ms = _sphere_setup()
    f_xy = next(f for f in ms.sigma if f.label == ("x", "y"))
    plain = _zz(En, ms, "t > x > w")
    assert essential_chain(En, plain).arrows == ()
    left_red = _zz(En, ms, "t > x > y < x > w")
    assert essential_chain(En, left_red).arrows == ()
    ess = _zz(En, ms, "t > y < x > w")
    assert essential_chain(En, ess).arrows == (f_xy,)


def test_essential_chain_constant_on_classes():
    _, En, ms = _sphere_setup()
    hp = hom_poset_loc(En, ms, "t", "w", None)
    for cls in hp.elements:
        chains = {essential_chain(En, member).arrows for member in cls.members}
        assert len(chains) == 1


def test_flow_category_of_sphere_matching():
    S, En, ms = _sphere_setup()
    flow = flow_category(En, ms, None)
    assert flow.objects == ("t", "w")
    assert len(flow.hom("t", "w")) == 8
    assert flow.hom("w", "t").is_empty()
    assert len(flow.hom("t", "t")) == 1
    assert len(flow.hom("w", "w")) == 1
    ident_t = flow.category.identity("t")
    for cls in flow.hom("t", "w").elements:
        assert flow.category.compose(ident_t, cls) == cls
        assert flow.category.compose(cls, flow.category.identity("w")) == cls


def test_flow_composition_monotone_and_associative_on_circle_graph():
    cx = cycle_graph_complex(4)
    En = entrance_path_category(cx)
    m = Matching((("e0", "v1"), ("e1", "v2")), "classical")
    ms = matching_to_morse_system(cx, m, En)
    flow = flow_category(En, ms, None)
    for a in flow.objects:
        for b in flow.objects:
            for c in flow.objects:
                hab, hbc = flow.hom(a, b), flow.hom(b, c)
                for f1 in hab.elements:
                    for f2 in hab.elements:
                        if not hab.leq(f1, f2):
                            continue
                        for g1 in hbc.elements:
                            for g2 in hbc.elements:
                                if hbc.leq(g1, g2):
                                    c1 = flow.category.compose(f1, g1)
                                    c2 = flow.category.compose(f2, g2)
                                    assert flow.hom(a, c).leq(c1, c2)
                for d in flow.objects:
                    for f in flow.hom(a, b).elements:
                        for g in flow.hom(b, c).elements:
                            for h in flow.hom(c, d).elements:
                                left = flow.category.compose(flow.category.compose(f, g), h)
                                right = flow.category.compose(f, flow.category.compose(g, h))
                                assert left == right


def test_generalized_matching_stabilizes():
    S = sphere_complex()
    En = entrance_path_category(S)
    ms = matching_to_morse_system(S, Matching((("b", "y"),), "generalized"), En)
    flow, status = stabilized_flow(En, ms, 2, 6)
    assert status == "stable"
    assert len(flow.hom("t", "w")) == 10
    hp = flow.hom("t", "w")
    oc = order_complex(hp.elements, hp.leq)
    assert homology(normalized_chain_complex(oc, QQ)).betti()[:2] == (1, 1)


def test_stabilization_compares_two_bounds_even_at_the_cap():
    fx = get_fixture("calc63")
    En = entrance_path_category(fx.complex)
    ms = matching_to_morse_system(fx.complex, fx.matching, En)
    assert stabilized_flow(En, ms, 2, 2)[1] == "stable"


def test_generalized_hom_poset_is_the_glued_product_block():
    S = sphere_complex()
    En = entrance_path_category(S)
    ms = matching_to_morse_system(S, Matching((("b", "y"),), "generalized"), En)
    flow, _ = stabilized_flow(En, ms, 4)
    hp = flow.hom("t", "w")
    texts = {zigzag_to_text(c.canonical) for c in hp.elements}
    # three plain paths plus the 3x3 block; the block corners that share a
    # middle edge contract onto the corresponding plain paths
    assert texts == {
        "t > w",
        "t > x > w",
        "t > z > w",
        "t > y < b > w",
        "t > y < b > x > w",
        "t > y < b > z > w",
        "t > x > y < b > w",
        "t > z > y < b > w",
        "t > x > y < b > z > w",
        "t > z > y < b > x > w",
    }
    bottom_of_block = next(
        c for c in hp.elements if zigzag_to_text(c.canonical) == "t > y < b > w"
    )
    above = [b for (a, b) in hp.covers() if a == bottom_of_block]
    assert len(above) == 4


def test_essential_chains_constant_on_random_classical_instances():
    rng = random.Random(41)
    done = 0
    while done < 8:
        cx = random_complex(rng, 10)
        m = random_acyclic_matching(rng, cx, max_pairs=3)
        if not m.pairs:
            continue
        En = entrance_path_category(cx)
        ms = matching_to_morse_system(cx, m, En)
        for w in ms.critical:
            for z in ms.critical:
                hp = hom_poset_loc(En, ms, w, z, None)
                for cls in hp.elements:
                    chains = {essential_chain(En, member).arrows for member in cls.members}
                    assert len(chains) == 1
        done += 1


def test_flow_nerve_recovers_cellular_homology_randomized():
    from morseflow import assign_incidence_signs, cellular_chain_complex, geometric_nerve

    rng = random.Random(99)
    for _ in range(12):
        cx = random_complex(rng, 10)
        m = random_acyclic_matching(rng, cx)
        En = entrance_path_category(cx)
        ms = matching_to_morse_system(cx, m, En)
        cell = homology(cellular_chain_complex(cx, assign_incidence_signs(cx), QQ)).betti()
        dim = max(cx.top_dim, 0)
        flow = flow_category(En, ms, None)
        nerve_b = homology(
            normalized_chain_complex(geometric_nerve(flow.category, dim + 1), QQ)
        ).betti()[: dim + 1]
        pad = lambda t, n: tuple(t) + (0,) * (n - len(t))
        n = max(len(cell), len(nerve_b))
        assert pad(cell, n) == pad(nerve_b, n)


def test_flow_nerve_recovers_tetrahedron_boundary_sphere():
    from helpers import simplicial_to_complex
    from morseflow import geometric_nerve

    facets = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    cx = simplicial_to_complex(facets)
    rng = random.Random(7)
    m = random_acyclic_matching(rng, cx)
    En = entrance_path_category(cx)
    ms = matching_to_morse_system(cx, m, En)
    flow = flow_category(En, ms, None)
    betti = homology(normalized_chain_complex(geometric_nerve(flow.category, 3), QQ)).betti()[:3]
    assert betti == (1, 0, 1)


def test_homotopy_extremal_on_localized_hom_posets():
    from morseflow import find_homotopy_extremal, poset_as_pcategory

    S = sphere_complex()
    Fc = face_poset_category(S)
    ms_fc = matching_to_morse_system(S, Matching((("x", "y"), ("b", "z")), "classical"), Fc)
    hp4 = hom_poset_loc(Fc, ms_fc, "t", "w", None)
    cat4 = poset_as_pcategory(hp4.elements, hp4.leq)
    found = find_homotopy_extremal(cat4)
    assert found is not None
    obj, side = found
    assert side == "minimal"
    assert zigzag_to_text(cat4.poset_element[obj].canonical) == "t > z < b > y < x > w"

    _, En, ms = _sphere_setup()
    hp8 = hom_poset_loc(En, ms, "t", "w", None)
    cat8 = poset_as_pcategory(hp8.elements, hp8.leq)
    assert find_homotopy_extremal(cat8) is None


def test_categories_flows_and_nerves_are_built_without_decoding_an_order_pair(monkeypatch):
    # every order is read through its down-set masks; only reports and tests
    # decode pairs
    decoded = []
    iterate = Order.__iter__
    monkeypatch.setattr(Order, "__iter__", lambda self: decoded.append(self) or iterate(self))
    entrance_path_category(simplicial_to_complex(combinations(range(4), 3)))
    for _, cat, ms, max_len in flow_instances():
        geometric_nerve(flow_category(cat, ms, max_len).category, 3)
    fx = get_fixture("calc63")
    En = entrance_path_category(fx.complex)
    assert stabilized_flow(En, matching_to_morse_system(fx.complex, fx.matching, En), 4)[1] == "stable"
    assert decoded == []


def test_antisymmetry_guard():
    from morseflow.localization import close_order_relation

    closed = close_order_relation("abc", {("a", "b"), ("b", "c")})
    assert ("a", "c") in closed
    with pytest.raises(OrderViolation):
        close_order_relation("abc", {("a", "b"), ("b", "c"), ("c", "a")})


@pytest.mark.parametrize("cat, ms, max_len", [pytest.param(*rest, id=name) for name, *rest in flow_instances()])
def test_flow_composition_table_matches_a_fresh_reduction(cat, ms, max_len, monkeypatch):
    flow = flow_category(cat, ms, max_len)
    reductions = []
    reduce = _MoveTable.reduce

    def counting(moves, z):
        reductions.append(z)
        return reduce(moves, z)

    monkeypatch.setattr(_MoveTable, "reduce", counting)
    pairs = 0
    for a in flow.objects:
        for b in flow.objects:
            for c in flow.objects:
                for c1 in flow.hom(a, b).elements:
                    for c2 in flow.hom(b, c).elements:
                        before = len(reductions)
                        first = flow.category.compose(c1, c2)
                        assert len(reductions) == before + 1  # reduced through the move table
                        assert first == flow_compose_reference(cat, flow, c1, c2)
                        assert flow.category.compose(c1, c2) is first
                        assert len(reductions) == before + 1  # answered from the table
                        pairs += 1
    assert pairs > 0


def test_flow_composition_builds_no_zigzag(monkeypatch):
    flows = [flow_category(cat, ms, max_len) for _, cat, ms, max_len in flow_instances()]
    built = []
    post_init = Zigzag.__post_init__
    monkeypatch.setattr(Zigzag, "__post_init__", lambda z: built.append(z) or post_init(z))
    pairs = 0
    for flow in flows:
        for a in flow.objects:
            for b in flow.objects:
                for c in flow.objects:
                    for c1 in flow.hom(a, b).elements:
                        for c2 in flow.hom(b, c).elements:
                            flow.category.compose(c1, c2)
                            pairs += 1
    assert pairs > 0 and built == []


def test_a_flow_category_builds_one_zigzag_per_class(monkeypatch):
    built = []
    post_init = Zigzag.__post_init__
    monkeypatch.setattr(Zigzag, "__post_init__", lambda z: built.append(z) or post_init(z))
    for name, cat, ms, max_len in flow_instances():
        del built[:]
        flow = flow_category(cat, ms, max_len)
        canonicals = [c.canonical for a in flow.objects for b in flow.objects for c in flow.hom(a, b).elements]
        assert len(built) == len(canonicals) > 0, name
        assert all(z is c for z, c in zip(built, canonicals)), name


def test_a_category_builds_one_move_table(monkeypatch):
    fx = get_fixture("calc63")
    En = entrance_path_category(fx.complex)
    ms = matching_to_morse_system(fx.complex, fx.matching, En)
    tables = []
    init = _MoveTable.__init__
    monkeypatch.setattr(_MoveTable, "__init__", lambda self, cat: tables.append(self) or init(self, cat))
    flow, status = stabilized_flow(En, ms, 4)
    assert status == "stable" and flow.max_len == 5
    (cls,) = hom_poset_loc(En, ms, "b", "y", 3).elements
    for member in cls.members:
        assert reduce_zigzag(En, member) in cls.members
    assert len(tables) == 1


def test_zigzag_and_class_hashes_agree_with_equality():
    fx = get_fixture("calc63")
    En = entrance_path_category(fx.complex)
    ms = matching_to_morse_system(fx.complex, fx.matching, En)
    first = hom_poset_loc(En, ms, "t", "w", 3)
    second = hom_poset_loc(En, ms, "t", "w", 3)
    for c1, c2 in zip(first.elements, second.elements):
        assert c1 is not c2 and c1 == c2 and hash(c1) == hash(c2)
        assert hash(c1) == hash(c1.canonical)
        assert c1.key() == c1.canonical.key() == c2.key()
        for z in c1.members:
            rebuilt = Zigzag(tuple(z.rights), tuple(z.lefts))
            assert rebuilt == z and hash(rebuilt) == hash(z)
            assert hash(z) == hash((z.rights, z.lefts))
            for g in z.rights + z.lefts:
                copy = type(g)(g.source, g.target, tuple(g.label))
                assert copy == g and hash(copy) == hash(g) == hash((g.source, g.target, g.label))


def test_negative_length_bounds_are_refused():
    fx = get_fixture("calc63")
    En = entrance_path_category(fx.complex)
    ms = matching_to_morse_system(fx.complex, fx.matching, En)
    with pytest.raises(ValueError, match="at least 0"):
        enumerate_zigzags(En, ms, "t", "w", -1)
    with pytest.raises(ValueError, match="at least 0"):
        hom_poset_loc(En, ms, "t", "w", -1)
    with pytest.raises(ValueError, match="at least 0"):
        flow_category(En, ms, -1)
    with pytest.raises(ValueError, match="at least 0"):
        stabilized_flow(En, ms, -1, 0)
    _, En2, ms2 = _sphere_setup()  # a singleton system ignores the bound but still refuses it
    with pytest.raises(ValueError, match="at least 0"):
        flow_category(En2, ms2, -1)
    with pytest.raises(ValueError, match="at least 0"):
        stabilized_flow(En2, ms2, -1)
    assert stabilized_flow(En, ms, 0, 0)[0].max_len == 1  # bound 0 is still taken


def test_endpoints_outside_the_category_are_refused():
    fx = get_fixture("calc61")
    En = entrance_path_category(fx.complex)
    ms = matching_to_morse_system(fx.complex, fx.matching, En)
    for w, z, bad in (("nope", "w", "nope"), ("t", "nada", "nada")):
        with pytest.raises(ValueError, match=f"endpoint '{bad}' is not an object"):
            enumerate_zigzags(En, ms, w, z, None)
        with pytest.raises(ValueError, match=f"endpoint '{bad}' is not an object"):
            hom_poset_loc(En, ms, w, z, None)


def test_enumeration_matches_the_recursive_reference():
    checked = 0
    for name, En, ms, bound in flow_instances():
        bounds = (None, 0, 1, 2) if bound is None else (bound,)
        for w in En.objects:
            for z in En.objects:
                for b in bounds:
                    got = list(enumerate_zigzags(En, ms, w, z, b))
                    assert got == enumerate_zigzags_reference(En, ms, w, z, b), (name, w, z, b)
                    checked += len(got)
    assert checked > 1000


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_long_sigma_chains_need_no_recursion():
    # The path matching e_i > v_(i+1) on a 300-cycle: the one nontrivial
    # zigzag from e299 to v0 backs through all 299 arrows.
    n = 300
    cx = cycle_graph_complex(n)
    En = entrance_path_category(cx)
    ms = matching_to_morse_system(cx, Matching(tuple((f"e{i}", f"v{i + 1}") for i in range(n - 1))), En)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 150)
    try:
        zigzags = enumerate_zigzags(En, ms, f"e{n - 1}", "v0", None)
    finally:
        sys.setrecursionlimit(limit)
    assert [len(z.lefts) for z in zigzags] == [0, n - 1]
    assert zigzag_to_text(zigzags[1]).endswith("< e1 > v1 < e0 > v0")


def test_a_long_sigma_chain_gets_slots_once_and_looks_up_no_target_block(monkeypatch):
    # The path matching e_i > v_(i+1) on a 300-cycle: its one long chain is
    # walked one arrow at a time, and only a chain whose last slot is filled
    # is given slots, a tuple and a block.  No column has a contraction or an
    # erasure, so the grid looks up no target block: the chain index is read
    # by the two identity lookups alone.
    n = 300
    cx = cycle_graph_complex(n)
    En = entrance_path_category(cx)
    ms = matching_to_morse_system(cx, Matching(tuple((f"e{i}", f"v{i + 1}") for i in range(n - 1))), En)
    blocks, lookups = [], []
    add, init = localization._Grid.add, localization._Grid.__init__

    class CountingChains(dict):
        def get(self, chain, default=None):
            lookups.append(chain)
            return super().get(chain, default)

    def counting_init(self, moves):
        init(self, moves)
        self.of_chain = CountingChains()

    monkeypatch.setattr(localization._Grid, "__init__", counting_init)
    monkeypatch.setattr(localization._Grid, "add", lambda self, chain, slots: blocks.append((chain, slots)) or add(self, chain, slots))
    flow = flow_category(En, ms, None)
    assert flow.objects == (f"e{n - 1}", "v0")
    # the empty chains of hom(e299, e299), hom(e299, v0) and hom(v0, v0), and the chain of all n - 1 arrows
    assert sorted(len(chain) for chain, _ in blocks) == [0, 0, 0, n - 1]
    assert all(len(slots) == len(chain) + 1 for chain, slots in blocks)
    assert lookups == [(), ()]


def _move_table_instances():
    """flow_instances() plus calc63 at bound 1, each with every cell pair, and
    the critical pairs of ∂Δ⁴ with the cone matching, whose hom(s1_2_3_4, s0)
    is the benchmark's largest, with 13-element slots."""
    instances = [(*instance, instance[1].objects) for instance in flow_instances()]
    fx = get_fixture("calc63")
    En = entrance_path_category(fx.complex)
    instances.append(("calc63-L1", En, matching_to_morse_system(fx.complex, fx.matching, En), 1, En.objects))
    cx, matching = _boundary_4_simplex_cone()
    En = entrance_path_category(cx)
    ms = matching_to_morse_system(cx, matching, En)
    instances.append(("d4-cone", En, ms, None, ms.critical))
    return instances


def test_move_table_matches_the_per_zigzag_references():
    # Every cell pair, so calc63's non-critical hom(b, y) is included.  The
    # grid's edges of each move, decoded to zigzags, are each zigzag's moves
    # in the references' order, once each.
    zigzags = 0
    for name, En, ms, bound, objects in _move_table_instances():
        for w in objects:
            for z in objects:
                enumerated = enumerate_zigzags(En, ms, w, z, bound)
                grid = enumerated.grid
                moves = grid.moves
                edges = {}
                for move, (sources, targets) in zip(("contract", "step", "erase"), grid.edges()):
                    assert len(sources) == len(targets)
                    out = edges[move] = {}
                    for source, target in zip(sources, targets):
                        out.setdefault(source, []).append(target)
                for g, zg in zip(enumerated.indices, enumerated):
                    key = moves.key(zg)
                    assert grid.keys[g] == key and grid.index(key) == g
                    assert moves.zigzag(key) == zg
                    for move, reference in (
                        ("contract", contractions_reference(En, zg)),
                        ("erase", erasures_reference(En, zg)),
                        ("step", steps_reference(En, zg)),
                    ):
                        reached = [moves.zigzag(grid.keys[t]) for t in dict.fromkeys(edges[move].get(g, ()))]
                        assert reached == list(reference), (name, zg)
                    assert moves.zigzag(moves.reduce(key)) == reduce_reference(En, zg), (name, zg)
                    zigzags += 1
    assert zigzags > 5000 + 746


def test_each_column_table_is_built_once_per_category(monkeypatch):
    # Flow categories at two bounds, every composition and reduce_zigzag on
    # every member all read one move table: each column's table (and each
    # hom's table of steps) is built once, and each morphism is split once.
    fx = get_fixture("calc63")
    En = entrance_path_category(fx.complex)
    ms = matching_to_morse_system(fx.complex, fx.matching, En)
    splits, built = [], []
    splittings = En.splittings
    monkeypatch.setattr(En, "splittings", lambda f: splits.append(f) or splittings(f))
    column, step_table = _MoveTable._column, _MoveTable._step_table
    monkeypatch.setattr(_MoveTable, "_column", lambda self, key: built.append(key) or column(self, key))
    monkeypatch.setattr(_MoveTable, "_step_table", lambda self, hom: built.append(hom) or step_table(self, hom))
    occurrences = 0  # the columns of every member, a table read each
    for bound in (3, 4):
        flow = flow_category(En, ms, bound)
        homs = [flow.hom(a, b) for a in flow.objects for b in flow.objects]
        for a in flow.objects:
            for b in flow.objects:
                for c in flow.objects:
                    for c1 in flow.hom(a, b).elements:
                        for c2 in flow.hom(b, c).elements:
                            flow.category.compose(c1, c2)
        for cls in (cls for hp in homs for cls in hp.elements):
            for member in cls.members:
                assert reduce_zigzag(En, member) in cls.members
                occurrences += len(member.lefts)
    moves = En._moves
    assert 0 < len(built) == len(set(built)) == len(moves._columns) + len(moves._steps)
    assert occurrences > 10 * len(moves._columns)
    assert 0 < len(splits) == len(set(splits))


def _boundary_4_simplex_cone():
    """∂Δ⁴ with the cone matching: each simplex s without vertex 0 paired with s + 0, where that is a cell."""
    cx = simplicial_to_complex(combinations(range(5), 4))
    cells = set(cx.ids())
    pairs = [("s0_" + c[1:], c) for c in cx.ids() if "0" not in c[1:].split("_") and "s0_" + c[1:] in cells]
    return cx, Matching(tuple(sorted(pairs)))


def test_the_move_table_splits_each_morphism_once_and_composes_each_pair_once(monkeypatch):
    cx, matching = _boundary_4_simplex_cone()
    En = entrance_path_category(cx)
    ms = matching_to_morse_system(cx, matching, En)
    splits, composed = [], []
    splittings, compose = En.splittings, En.compose
    monkeypatch.setattr(En, "splittings", lambda f: splits.append(f) or splittings(f))
    monkeypatch.setattr(En, "compose", lambda f, g: composed.append((f, g)) or compose(f, g))
    flow = flow_category(En, ms, None)
    assert ms.critical == ("s0", "s1_2_3_4") and len(flow.hom("s1_2_3_4", "s0")) == 338
    for c1 in flow.hom("s1_2_3_4", "s1_2_3_4").elements:
        for c2 in flow.hom("s1_2_3_4", "s0").elements:
            flow.category.compose(c1, c2)
    moves = En._moves
    morphisms = moves._morphisms
    assert 0 < len(splits) == len(set(splits)) and set(splits) <= set(morphisms)
    # the category composes each pair once, and the memo keeps it under (first, second)
    assert 0 < len(composed) == len(moves._composites)
    for (i, j), k in moves._composites.items():
        assert morphisms[k] == compose(morphisms[i], morphisms[j])


def test_zigzags_answer_membership_by_key_and_intern_nothing():
    fx = get_fixture("calc63")
    En = entrance_path_category(fx.complex)
    ms = matching_to_morse_system(fx.complex, fx.matching, En)
    elsewhere = hom_poset_loc(En, ms, "t", "w", 2).elements[0].canonical
    hp = hom_poset_loc(En, ms, "b", "y", 2)
    (cls,) = hp.elements
    moves = cls.members.grid.moves
    known = len(moves._morphisms)
    assert all(m in cls.members for m in cls.members) and elsewhere not in cls.members
    stranger = Zigzag((Morphism("q", "q", ("q",)),), ())
    for other in (stranger, None, "b > y", cls.canonical.rights):
        assert other not in cls.members
    with pytest.raises(KeyError):
        zigzag_class_of(hp, stranger)
    assert len(moves._morphisms) == known


def test_the_canonical_member_is_the_smallest_irreducible_one():
    # calc63's hom(b, y) is one class with three irreducible members.
    fx = get_fixture("calc63")
    En = entrance_path_category(fx.complex)
    ms = matching_to_morse_system(fx.complex, fx.matching, En)
    for bound in (1, 2, 3):
        (cls,) = hom_poset_loc(En, ms, "b", "y", bound).elements
        irreducible = [m for m in cls.members if next(contractions_reference(En, m), None) is None]
        assert sorted(map(zigzag_to_text, irreducible)) == ["b > x > y", "b > y", "b > z > y"]
        assert cls.canonical == min(irreducible, key=Zigzag.key)
        assert zigzag_to_text(cls.canonical) == "b > x > y"


def _count_cycle_searches(monkeypatch) -> list:
    """Wrap ``_find_cycle`` wherever a morseflow module binds it; each call appends its nodes to the list returned."""
    calls, search = [], matchings._find_cycle
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "morseflow" and getattr(module, "_find_cycle", None) is search:
            monkeypatch.setattr(module, "_find_cycle", lambda nodes, succ: calls.append(nodes) or search(nodes, succ))
    return calls


@pytest.fixture(scope="module")
def boundary_5_simplex_flow():
    """The flow category of the 4-sphere ∂Δ⁵ (62 cells) under a random classical
    matching, its category and system, and the cycle searches the flow made."""
    cx = simplicial_to_complex(combinations(range(6), 5))
    En = entrance_path_category(cx)
    ms = matching_to_morse_system(cx, random_acyclic_matching(random.Random(5), cx), En)
    with pytest.MonkeyPatch.context() as mp:
        searches = _count_cycle_searches(mp)
        flow = flow_category(En, ms, None)
    return En, flow, ms, searches


def test_the_order_of_a_system_is_searched_for_a_cycle_once(boundary_5_simplex_flow, monkeypatch):
    # The system decides its order's first cycle, predecessors and completeness
    # when it is built: neither the flow category's 36 enumerations, one per
    # hom, nor the axioms search its order again.
    En, flow, ms, searches = boundary_5_simplex_flow
    assert len(flow.objects) ** 2 == 36 and searches == []
    calls = _count_cycle_searches(monkeypatch)
    assert validate_morse_system(En, ms).ok
    assert calls == []
    assert morse_system_from_arrows(En, ms.sigma) == ms
    assert calls == [ms.sigma]


def test_the_flow_category_of_the_4_sphere(boundary_5_simplex_flow):
    _, flow, *_ = boundary_5_simplex_flow
    assert flow.objects == ("s0_1_2", "s0_2_3_4_5", "s0_2_4_5", "s1_2_4", "s1_3_4_5", "s2")
    assert sum(len(flow.hom(a, b)) for a in flow.objects for b in flow.objects) == 39_750
    hp = flow.hom("s0_2_3_4_5", "s2")
    assert len(hp) == 37_182
    assert len(hp.relation) - len(hp) == 243_894


def test_every_flow_class_has_exactly_one_irreducible_member(boundary_5_simplex_flow):
    # On calc63 only the critical pairs: hom(b, y) has one class with three
    # irreducible members (b > y, b > x > y, b > z > y).  On ∂Δ⁵ the largest
    # hom, 37,182 classes.
    En5, flow5, *_ = boundary_5_simplex_flow
    homs = [("boundary of the 5-simplex", En5, flow5.hom("s0_2_3_4_5", "s2"))]
    for name, En, ms, bound in flow_instances():
        objects = En.objects if bound is None else ms.critical
        homs += [(name, En, hom_poset_loc(En, ms, w, z, bound)) for w in objects for z in objects]
    classes = 0
    for name, En, hp in homs:
        for cls in hp.elements:
            irreducible = [m for m in cls.members if next(contractions_reference(En, m), None) is None]
            assert irreducible == [cls.canonical], (name, cls)
            classes += 1
    assert classes > 400 + 37_182


def test_chains_of_a_cyclic_singleton_system_repeat_no_arrow():
    # Matching every edge of a 4-cycle to its next vertex makes the order on
    # the system a 4-cycle; each chain still uses each arrow at most once.
    cx = cycle_graph_complex(4)
    En = entrance_path_category(cx)
    ms = matching_to_morse_system(cx, Matching(tuple((f"e{i}", f"v{(i + 1) % 4}") for i in range(4))), En)
    for bound in (6, None):  # the bounded pass first: a missing guard fails there, not by hanging
        for w in En.objects:
            for z in En.objects:
                got = list(enumerate_zigzags(En, ms, w, z, bound))
                assert got == enumerate_zigzags_reference(En, ms, w, z, bound), (w, z, bound)
                assert all(len(set(zg.lefts)) == len(zg.lefts) for zg in got)
    longest = enumerate_zigzags(En, ms, "e0", "v0", None)[-1]
    assert zigzag_to_text(longest) == "e0 > v0 < e3 > v3 < e2 > v2 < e1 > v1 < e0 > v0"


@pytest.mark.parametrize(
    "label, end, message",
    [
        (("b", "x", "y"), "target", "column 1: forward target y? != y"),
        (("b", "w"), "source", "column 0: next forward source != b"),
        (("t", "x", "w"), "target", "<t > x > w> does not span t -> w"),
    ],
)
def test_a_replacement_with_moved_endpoints_is_refused(label, end, message):
    # A composition that moves one endpoint of the morphism ``label``: the move
    # table checks each replacement when it computes it and raises what building
    # the spliced zigzag raises; where that zigzag would not see the end, it
    # still refuses the replacement.
    fx = get_fixture("calc63")
    En = entrance_path_category(fx.complex)
    ms = matching_to_morse_system(fx.complex, fx.matching, En)
    compose = En._compose

    def moved(f, g):
        h = compose(f, g)
        if h.label != label:
            return h
        return Morphism("x?", h.target, h.label) if end == "source" else Morphism(h.source, "y?", h.label)

    En._compose = moved
    with pytest.raises(ValueError, match=re.escape(message)):
        for z in En.objects:
            hom_poset_loc(En, ms, "t", z, 3)
