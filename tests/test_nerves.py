import gc
import random
from dataclasses import dataclass
from itertools import combinations, permutations

import pytest

from morseflow import (
    Matching,
    QQ,
    ZZ,
    assign_incidence_signs,
    cellular_chain_complex,
    check_mildness,
    entrance_path_category,
    face_poset_category,
    flow_category,
    geometric_nerve,
    homology,
    matching_to_morse_system,
    nerve_homology,
    normalized_chain_complex,
    order_complex,
    poset_as_pcategory,
    stabilized_flow,
)
from morseflow import nerves
from morseflow.categories import HomPoset, PCategory, sort_key
from morseflow.cli import main
from morseflow.fixtures import FIXTURES, get_fixture
from morseflow.nerves import Simplex, _greedy_collapses, greedy_collapses_to_point, is_degenerate

from helpers import (
    RP2_FACETS,
    SPHERE2_FACETS,
    TORUS_FACETS,
    cycle_graph_complex,
    flow_instances,
    geometric_nerve_reference,
    graded_restrictions,
    greedy_collapses_reference,
    normalized_chain_complex_reference,
    random_acyclic_matching,
    random_complex,
    reachability_order_complex,
    simplicial_to_complex,
)
from morseflow.fixtures import fig2_complex, sphere_complex


def _betti(skel, ring=QQ, upto=None):
    b = homology(normalized_chain_complex(skel, ring)).betti()
    return b if upto is None else b[:upto]


def test_nerve_of_trivial_category_is_a_point():
    cat = poset_as_pcategory(["*"], lambda a, b: a == b)
    skel = geometric_nerve(cat, 3)
    assert skel.sizes() == {0: 1, 1: 0, 2: 0, 3: 0}
    assert _betti(skel) == (1, 0, 0, 0)


def test_nerve_of_poset_agrees_with_order_complex():
    rng = random.Random(3)
    for _ in range(6):
        n = rng.randint(3, 6)
        edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4}

        def leq(a, b, edges=edges):
            if a == b:
                return True
            seen, stack = set(), [a]
            while stack:
                u = stack.pop()
                for (x, y) in edges:
                    if x == u and y not in seen:
                        if y == b:
                            return True
                        seen.add(y)
                        stack.append(y)
            return False

        els = list(range(n))
        cat = poset_as_pcategory(els, leq)
        nerve = geometric_nerve(cat, 3)
        names = {cat.poset_element[k]: k for k in cat.poset_element}
        oc = order_complex(els, leq, 3)
        assert nerve.sizes() == oc.sizes()
        assert _betti(nerve, QQ, 3) == _betti(oc, QQ, 3)


def test_order_complex_of_chain_is_contractible():
    oc = order_complex([0, 1, 2], lambda a, b: a <= b)
    assert _betti(oc) == (1, 0, 0)


def test_order_complex_of_crown_is_a_circle_matching_octagon():
    # localized hom-poset of the sphere matching vs a hand-built octagon
    S = sphere_complex()
    En = entrance_path_category(S)
    ms = matching_to_morse_system(S, Matching((("x", "y"), ("b", "z")), "classical"), En)
    flow = flow_category(En, ms, None)
    hp = flow.hom("t", "w")
    oc = order_complex(hp.elements, hp.leq)
    octagon = cycle_graph_complex(8)
    octagon_h = homology(cellular_chain_complex(octagon, assign_incidence_signs(octagon), QQ))
    assert _betti(oc, QQ, 2) == octagon_h.betti()[:2] == (1, 1)


def test_nerve_of_entrance_paths_matches_cellular_homology():
    for cx in (sphere_complex(), fig2_complex()):
        En = entrance_path_category(cx)
        dim = cx.top_dim
        skel = geometric_nerve(En, dim + 1)
        nerve_b = _betti(skel, QQ, dim + 1)
        cell_b = homology(cellular_chain_complex(cx, assign_incidence_signs(cx), QQ)).betti()
        assert nerve_b == cell_b


def test_nerve_of_entrance_paths_matches_cellular_homology_random():
    rng = random.Random(19)
    for _ in range(6):
        cx = random_complex(rng, 10)
        En = entrance_path_category(cx)
        dim = max(cx.top_dim, 0)
        skel = geometric_nerve(En, dim + 1)
        nerve_b = _betti(skel, QQ, dim + 1)
        cell_b = homology(cellular_chain_complex(cx, assign_incidence_signs(cx), QQ)).betti()
        assert tuple(nerve_b) == tuple(cell_b)


def test_flow_nerve_of_sphere_matching_is_a_sphere():
    S = sphere_complex()
    En = entrance_path_category(S)
    ms = matching_to_morse_system(S, Matching((("x", "y"), ("b", "z")), "classical"), En)
    flow = flow_category(En, ms, None)
    assert _betti(geometric_nerve(flow.category, 3), QQ, 3) == (1, 0, 1)


def test_flow_nerve_face_poset_mode_is_contractible():
    S = sphere_complex()
    Fc = face_poset_category(S)
    ms = matching_to_morse_system(S, Matching((("x", "y"), ("b", "z")), "classical"), Fc)
    flow = flow_category(Fc, ms, None)
    assert _betti(geometric_nerve(flow.category, 3), QQ, 3) == (1, 0, 0)


def test_suspension_consistency():
    # two-object flow with one-way homs: nerve homology equals the reduced
    # homology of the hom order complex shifted up one degree
    S = sphere_complex()
    setups = [
        (entrance_path_category(S), Matching((("x", "y"), ("b", "z")), "classical"), None),
        (face_poset_category(S), Matching((("x", "y"), ("b", "z")), "classical"), None),
        (entrance_path_category(S), Matching((("b", "y"),), "generalized"), 4),
    ]
    for cat, matching, max_len in setups:
        ms = matching_to_morse_system(S, matching, cat)
        if max_len is None:
            flow = flow_category(cat, ms, None)
        else:
            flow, _ = stabilized_flow(cat, ms, max_len)
        hp = flow.hom("t", "w")
        nerve_b = _betti(geometric_nerve(flow.category, 3), QQ, 3)
        oc_b = _betti(order_complex(hp.elements, hp.leq), QQ, 2)
        reduced = (oc_b[0] - 1, oc_b[1])
        assert nerve_b == (1, reduced[0], reduced[1])


def test_boundary_squares_to_zero_on_nerves():
    S = sphere_complex()
    En = entrance_path_category(S)
    cc = normalized_chain_complex(geometric_nerve(En, 3), ZZ)
    cc.check_boundary_squares_to_zero()


def test_greedy_collapse():
    assert greedy_collapses_to_point(order_complex([0, 1, 2], lambda a, b: a <= b))
    two_points = order_complex([0, 1], lambda a, b: a == b)
    assert not greedy_collapses_to_point(two_points)


def test_greedy_collapses_match_the_rebuilding_reference():
    # The order complex of every restriction poset past the extremal test for
    # the bundled fixtures and flow_instances(), then barycentric
    # subdivisions and random posets.
    skels = []
    for fx in FIXTURES.values():
        if fx.matching is not None:
            cat = face_poset_category(fx.complex) if fx.category == "face-poset" else entrance_path_category(fx.complex)
            ms = matching_to_morse_system(fx.complex, fx.matching, cat)
            skels += map(reachability_order_complex, graded_restrictions(cat, ms))
    for _, En, ms, _ in flow_instances():
        skels += map(reachability_order_complex, graded_restrictions(En, ms))
    assert len(skels) >= 2
    rng = random.Random(31)
    spaces = [simplicial_to_complex(f) for f in (SPHERE2_FACETS, TORUS_FACETS, RP2_FACETS, [(1, 2, 3, 4)])]
    spaces += [random_complex(rng, 10) for _ in range(20)]
    for cx in spaces:
        skels.append(order_complex(cx.ids(), lambda a, b, cx=cx: a == b or cx.is_face(b, a)))
    for _ in range(40):
        n = rng.randint(2, 8)
        rel = {(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.4}
        for k in range(n):  # close it: a poset on range(n)
            rel |= {(a, b) for (a, k1) in rel for (k2, b) in rel if k1 == k2 == k}
        skels.append(order_complex(range(n), lambda a, b, rel=rel: a == b or (a, b) in rel))
    verdicts = set()
    for skel in skels:
        sequence, verdict = greedy_collapses_reference(skel)
        cells = {s.objects for level in skel.nondegenerate.values() for s in level}
        assert list(_greedy_collapses(cells)) == sequence
        assert greedy_collapses_to_point(skel) == verdict
        verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("cat, ms, max_len", [pytest.param(*rest, id=name) for name, *rest in flow_instances()])
def test_flow_nerve_matches_the_per_candidate_reference(cat, ms, max_len):
    flow = flow_category(cat, ms, max_len)
    assert geometric_nerve(flow.category, 3).simplices == geometric_nerve_reference(flow.category, 3).simplices


def test_entrance_path_nerve_matches_the_per_candidate_reference():
    En = entrance_path_category(simplicial_to_complex(SPHERE2_FACETS))
    assert geometric_nerve(En, 3).simplices == geometric_nerve_reference(En, 3).simplices


def test_normalized_chain_complex_matches_the_per_face_reference():
    cats = [(name, flow_category(cat, ms, n).category) for name, cat, ms, n in flow_instances()]
    cats.append(("entrance-sphere2", entrance_path_category(simplicial_to_complex(SPHERE2_FACETS))))
    for name, cat in cats:
        skel = geometric_nerve(cat, 3)
        for ring in (QQ, ZZ):
            cc = normalized_chain_complex(skel, ring)
            ref = normalized_chain_complex_reference(skel, ring)
            assert cc.ranks == ref.ranks, name
            assert cc.boundaries == ref.boundaries, name


def test_geometric_nerve_leaves_no_reference_cycles():
    En = entrance_path_category(simplicial_to_complex(SPHERE2_FACETS))
    gc.collect()
    skel = geometric_nerve(En, 3)
    assert gc.collect() == 0
    assert sum(len(level) for level in skel.simplices.values()) > 0


def test_order_complex_lists_every_chain_in_lexicographic_order():
    rng = random.Random(8)
    for _ in range(30):
        els = rng.sample(range(1, 40), rng.randint(1, 7))
        leq = lambda a, b: b % a == 0  # divisibility
        ordered = sorted(els, key=repr)  # order_complex sorts plain values by repr
        for maxdim in (None, 1, 2):
            oc = order_complex(els, leq, maxdim)
            top = len(els) - 1 if maxdim is None else maxdim
            assert sorted(oc.simplices) == list(range(top + 1))
            for d in range(top + 1):
                chains = [
                    p for p in permutations(ordered, d + 1)
                    if all(a != b and leq(a, b) for a, b in zip(p, p[1:]))
                ]
                assert [s.objects for s in oc.simplices[d]] == sorted(chains, key=lambda p: [ordered.index(x) for x in p])


def _calc63_flow(max_len):
    fx = get_fixture("calc63")
    En = entrance_path_category(fx.complex)
    return flow_category(En, matching_to_morse_system(fx.complex, fx.matching, En), max_len).category


def test_dim_4_nerves_match_the_per_candidate_reference():
    # At dimension 4 a simplex inherits degeneracy at inner positions through
    # more than one extension.
    boundary_of_3_simplex = entrance_path_category(simplicial_to_complex(list(combinations(range(4), 3))))
    for cat in (boundary_of_3_simplex, _calc63_flow(2)):
        skel, ref = geometric_nerve(cat, 4), geometric_nerve_reference(cat, 4)
        assert skel.simplices == ref.simplices
        assert any(is_degenerate(cat, s) for s in ref.simplices[4])
        for d in range(5):
            assert skel.nondegenerate[d] == [s for s in ref.simplices[d] if not is_degenerate(cat, s)]


def test_nerve_order_follows_sort_keys_not_the_order_of_hom_elements():
    boundary_of_3_simplex = entrance_path_category(simplicial_to_complex(list(combinations(range(4), 3))))
    for cat in (boundary_of_3_simplex, _calc63_flow(2)):
        homs = {key: HomPoset.build(hp.elements[::-1], hp.relation) for key, hp in cat._homs.items()}
        reversed_cat = PCategory(cat.objects, homs, cat._compose, cat._identities)
        assert any(hp.elements != tuple(sorted(hp.elements, key=sort_key)) for hp in homs.values())
        skel = geometric_nerve(reversed_cat, 3)
        assert skel.simplices == geometric_nerve_reference(reversed_cat, 3).simplices
        assert skel.simplices == geometric_nerve(cat, 3).simplices


@pytest.mark.parametrize("cat, ms, max_len", [pytest.param(*rest, id=name) for name, *rest in flow_instances()])
def test_degeneracy_decided_during_construction_matches_is_degenerate(cat, ms, max_len):
    flow = flow_category(cat, ms, max_len).category
    skel, ref = geometric_nerve(flow, 3), geometric_nerve_reference(flow, 3)
    for d in range(4):
        assert skel.nondegenerate[d] == [s for s in ref.simplices[d] if not is_degenerate(flow, s)]
    # the Simplex-list constructor reaches the same flat form
    assert ref.sizes() == skel.sizes()
    assert ref.nondegenerate == skel.nondegenerate
    assert normalized_chain_complex(ref, ZZ).boundaries == normalized_chain_complex(skel, ZZ).boundaries


@dataclass(frozen=True)
class _Parallel:
    """A morphism whose sort key is its endpoints only: parallel morphisms tie."""

    source: str
    target: str
    name: str

    def key(self):
        return (self.source, self.target)


def test_simplices_with_tied_sort_keys_keep_the_order_they_were_built_in(monkeypatch):
    # a -u-> b -r,s-> c -t-> d with u o r = q and u o s = p: the triangles
    # (u, q, r) and (u, p, s) tie, and are built in that order although p's
    # id is lower.  Above them r o t = n, s o t = m, q o t = u o n = l and
    # p o t = u o m = k: the tetrahedra through r and s tie as well, and keep
    # the order of their triangles although k and m come first in their homs.
    ids = {x: _Parallel(x, x, "1") for x in "abcd"}
    u, r, s, p, q, t, m, n, k, l = (
        _Parallel(*spec) for spec in ("abu", "bcr", "bcs", "acp", "acq", "cdt", "bdm", "bdn", "adk", "adl")
    )
    homs = {(x, x): HomPoset.build([ids[x]], []) for x in "abcd"}
    homs.update({("a", "b"): HomPoset.build([u], []), ("b", "c"): HomPoset.build([r, s], []),
                 ("a", "c"): HomPoset.build([p, q], []), ("c", "d"): HomPoset.build([t], []),
                 ("b", "d"): HomPoset.build([m, n], []), ("a", "d"): HomPoset.build([k, l], [])})
    table = {(u, r): q, (u, s): p, (r, t): n, (s, t): m, (q, t): l, (p, t): k, (u, n): l, (u, m): k}

    def compose(f, g):
        return g if f in ids.values() else f if g in ids.values() else table[(f, g)]

    cat = PCategory("abcd", homs, compose, ids)
    skel, ref = geometric_nerve(cat, 3), geometric_nerve_reference(cat, 3)
    assert [(x.f(0, 2), x.f(1, 2)) for x in skel.simplices[2] if x.objects == ("a", "b", "c")] == [(q, r), (p, s)]
    assert [(x.f(0, 3), x.f(1, 3)) for x in skel.simplices[3] if x.objects == ("a", "b", "c", "d")] == [(l, n), (k, m)]
    assert skel.simplices == ref.simplices
    assert skel.nondegenerate == ref.nondegenerate
    # With sort keys cut down to endpoints every parallel pair ties, so each
    # level's order among ties is the order the simplices were built in; the
    # homs' elements are shuffled so that positions and ids disagree.
    monkeypatch.setattr(nerves, "sort_key", lambda f: (f.source, f.target))
    rng = random.Random(19)
    bases = [entrance_path_category(simplicial_to_complex(combinations(range(4), 3)))]
    bases += [entrance_path_category(random_complex(rng, 10)) for _ in range(4)]
    for base in bases:
        homs = {key: HomPoset.build(rng.sample(hp.elements, len(hp)), hp.relation) for key, hp in base._homs.items()}
        cat = PCategory(base.objects, homs, base._compose, base._identities)
        for maxdim in (3, 4) if base is bases[0] else (3,):
            assert geometric_nerve(cat, maxdim).simplices == geometric_nerve_reference(cat, maxdim).simplices


def test_nerves_of_random_entrance_path_and_face_poset_categories_match_the_reference():
    rng = random.Random(47)
    complexes = [random_complex(rng, 10) for _ in range(20)]
    cats = [entrance_path_category(cx) for cx in complexes]
    cats += [face_poset_category(cx) for cx in complexes + [fx.complex for fx in FIXTURES.values()]]
    for cat in cats:
        skel, ref = geometric_nerve(cat, 3), geometric_nerve_reference(cat, 3)
        assert skel.simplices == ref.simplices
        assert skel.nondegenerate == ref.nondegenerate


def test_the_dim_4_flow_nerve_of_the_3_sphere():
    cx = simplicial_to_complex(list(combinations(range(5), 4)))  # the boundary of the 4-simplex
    En = entrance_path_category(cx)
    ms = matching_to_morse_system(cx, random_acyclic_matching(random.Random(5), cx), En)
    skel = geometric_nerve(flow_category(En, ms, None).category, 4)
    assert tuple(skel.sizes().values()) == (4, 476, 2824, 10156, 30376)
    assert nerve_homology(skel, QQ).betti() == (1, 0, 0, 1)


def test_homology_runs_build_no_simplex_objects(monkeypatch, tmp_path, capsys):
    built = []
    monkeypatch.setattr(nerves, "Simplex", lambda *args: built.append(args) or Simplex(*args))
    fx = get_fixture("calc63")
    files = [tmp_path / "complex.json", tmp_path / "matching.json"]
    files[0].write_text(fx.complex.to_json(), encoding="utf-8")
    files[1].write_text(fx.matching.to_json(), encoding="utf-8")
    for mode in ("nerve-en", "nerve-flow"):
        assert main(["homology", mode, *map(str, files)]) == 0
    capsys.readouterr()
    for _, En, ms, _ in flow_instances():
        check_mildness(En, ms)
        stabilized_flow(En, ms, 3)
    assert built == []
    skel = geometric_nerve(_calc63_flow(2), 3)
    assert skel.simplices is skel.simplices  # built on first read, then kept
    assert len(built) == sum(len(level) for level in skel.simplices.values())
