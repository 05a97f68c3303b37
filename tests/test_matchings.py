import random
import sys
from collections import Counter
from itertools import combinations

import pytest

from morseflow import (
    BadPair,
    Cell,
    Complex,
    Matching,
    assign_incidence_signs,
    check_acyclic,
    check_mildness,
    entrance_path_category,
    face_poset_category,
    matching_to_morse_system,
    morse_system_from_arrows,
    poset_as_pcategory,
    restriction_category,
    validate_morse_system,
)
from morseflow import categories
from morseflow.categories import HomPoset, Morphism, NoAtom, PCategory, atom, identity_morphism
from morseflow.matchings import CERTIFIED, FAIL, _dismantles, _find_cycle
from morseflow.nerves import greedy_collapses_to_point

from helpers import (
    RP2_FACETS,
    cell_name,
    check_acyclic_reference,
    check_mildness_reference,
    close_order_reference,
    cycle_graph_complex,
    flow_instances,
    graded_restrictions,
    morse_system_reference,
    random_acyclic_matching,
    random_complex,
    random_matching,
    reachability_order_complex,
    restriction_objects_reference,
    simplicial_to_complex,
    validate_morse_system_reference,
)
from morseflow.fixtures import FIXTURES, fig2_complex, get_fixture, sphere_complex


def triangle_boundary():
    cells = [Cell(v, 0) for v in "abc"] + [Cell(e, 1) for e in ("ab", "bc", "ca")]
    covers = [("ab", "a"), ("ab", "b"), ("bc", "b"), ("bc", "c"), ("ca", "c"), ("ca", "a")]
    return Complex(cells, covers)


def test_matching_ids_are_read_as_strings():
    m = Matching.from_json('{"kind": "classical", "pairs": [["e", 12], ["f", "v"]]}')
    assert m.pairs == (("e", "12"), ("f", "v"))
    m = Matching.from_json('{"kind": "generalized", "pairs": [["t", "w"]]}')
    assert m.pairs == (("t", "w"),) and m.kind == "generalized"
    assert Matching.from_json('{"kind": "classical", "pairs": []}').pairs == ()

def test_fig2_matching_is_acyclic_with_expected_critical():
    cx = fig2_complex()
    m = Matching((("wx", "x"), ("wy", "y"), ("xz", "z"), ("wxy", "xy")), "classical")
    assert check_acyclic(cx, m).ok
    ms = matching_to_morse_system(cx, m, entrance_path_category(cx))
    assert ms.critical == ("w", "yz")


def test_triangle_cycle_is_reported_with_witness():
    cx = triangle_boundary()
    m = Matching((("ab", "a"), ("bc", "b"), ("ca", "c")), "classical")
    report = check_acyclic(cx, m)
    assert not report.ok
    (finding,) = report.findings
    assert finding.code == "cycle"
    assert len(finding.witness) >= 4  # closed walk


def test_check_acyclic_matches_the_strict_face_search():
    # the cover search certifies acyclic classical matchings; a cycle is named
    # by the strict-face search, so report and witness equal the reference's
    rng = random.Random(19)
    complexes = [fx.complex for _, fx in sorted(FIXTURES.items())]
    complexes += [simplicial_to_complex(combinations(range(k + 1), k)) for k in (3, 4, 5)]
    complexes += [simplicial_to_complex(RP2_FACETS)] + [random_complex(rng) for _ in range(40)]
    kinds = Counter()
    for cx in complexes:
        for kind, share in (("classical", 1.0), ("classical", 0.4), ("generalized", 0.6)):
            for _ in range(3):
                m = random_matching(rng, cx, kind, share)
                got, want = check_acyclic(cx, m), check_acyclic_reference(cx, m)
                assert got == want, (cx.covers, m)
                kinds[kind, got.ok] += 1
    assert min(kinds.values()) >= 20, kinds


def test_check_acyclic_names_the_first_strict_face_cycle_across_dimensions():
    # cycles among vertices and among edges of the boundary of the tetrahedron:
    # the strict-face search from the first vertex climbs to the edge cycle,
    # which the cover search, keeping to one dimension, does not reach first
    cx = simplicial_to_complex(combinations(range(1, 5), 3))
    vertex_cycle = (("s1_2", "s2"), ("s2_3", "s3"), ("s1_3", "s1"))
    edge_cycle = (("s1_2_4", "s1_4"), ("s2_3_4", "s2_4"), ("s1_3_4", "s3_4"))
    m = Matching(vertex_cycle + edge_cycle, "classical")
    report = check_acyclic(cx, m)
    assert report == check_acyclic_reference(cx, m)
    (finding,) = report.findings
    assert finding.witness == ("s1_4", "s3_4", "s2_4", "s1_4")
    for half in (vertex_cycle, edge_cycle):
        part = Matching(half, "classical")
        assert check_acyclic(cx, part) == check_acyclic_reference(cx, part)
        assert not check_acyclic(cx, part).ok


def test_check_acyclic_searches_strict_faces_when_a_cover_keeps_the_dimension():
    # x > v2 and y > v1 join two vertices, so v2 is a strict face of e1 without
    # being a cover of it: the cycle v1 < v2 < v1 has no cover edge
    cells = [Cell("e1", 1), Cell("e2", 1)] + [Cell(v, 0) for v in ("v1", "v2", "x", "y")]
    covers = [("e1", "v1"), ("e1", "x"), ("x", "v2"), ("e2", "v2"), ("e2", "y"), ("y", "v1")]
    cx = Complex(cells, covers)
    m = Matching((("e1", "v1"), ("e2", "v2")), "classical")
    report = check_acyclic(cx, m)
    assert report == check_acyclic_reference(cx, m)
    assert [f.witness for f in report.findings] == [("v1", "v2", "v1")]


def test_the_grading_verdict_is_found_once_per_complex_and_read_by_both_checks(monkeypatch):
    # The Morse route validates the complex (through its incidence signs) and
    # checks the matching: both read one grading verdict, found on first use.
    found = []  # each complex whose verdict is found, once per finding
    ungraded = Complex.ungraded.fget

    def counted(self):
        if self._ungraded is None:
            found.append(self)
        return ungraded(self)

    monkeypatch.setattr(Complex, "ungraded", property(counted))
    cx = cycle_graph_complex(12)
    m = Matching(tuple((f"e{i}", f"v{i + 1}") for i in range(11)), "classical")
    assign_incidence_signs(cx)
    assert check_acyclic(cx, m).ok and found == [cx]
    # check_acyclic decides for itself on a complex nobody has validated: a
    # cover that drops the dimension by 2 still lowers it, one that keeps it
    # (x > v2 and y > v1 join two vertices) sends the search to strict faces
    lowering = Complex([Cell("t", 2), Cell("e", 1), Cell("v", 0), Cell("w", 0)],
                       [("t", "e"), ("t", "w"), ("e", "v"), ("e", "w")])
    cells = [Cell("e1", 1), Cell("e2", 1)] + [Cell(v, 0) for v in ("v1", "v2", "x", "y")]
    level = Complex(cells, [("e1", "v1"), ("e1", "x"), ("x", "v2"), ("e2", "v2"), ("e2", "y"), ("y", "v1")])
    for cx, pairs, witnesses in ((lowering, (("e", "v"),), []), (level, (("e1", "v1"), ("e2", "v2")), [("v1", "v2", "v1")])):
        m = Matching(pairs, "classical")
        report = check_acyclic(cx, m)
        assert found[-1] is cx and cx.ungraded
        assert report == check_acyclic_reference(cx, m)
        assert [f.witness for f in report.findings] == witnesses
    assert len(found) == 3


def test_empty_matching_is_acyclic_and_all_critical():
    cx = sphere_complex()
    m = Matching((), "classical")
    assert check_acyclic(cx, m).ok
    ms = matching_to_morse_system(cx, m, entrance_path_category(cx))
    assert ms.sigma == ()
    assert ms.critical == tuple(sorted(cx.ids()))


def test_bad_pairs():
    cx = sphere_complex()
    with pytest.raises(BadPair):
        check_acyclic(cx, Matching((("t", "w"),), "classical"))  # codim 2
    with pytest.raises(BadPair):
        check_acyclic(cx, Matching((("w", "t"),), "generalized"))  # not a face
    with pytest.raises(BadPair):
        check_acyclic(cx, Matching((("t", "q"),), "classical"))  # unknown cell


def test_sphere_matching_morse_system():
    cx = sphere_complex()
    En = entrance_path_category(cx)
    ms = matching_to_morse_system(cx, Matching((("x", "y"), ("b", "z")), "classical"), En)
    assert [f.label for f in ms.sigma] == [("b", "z"), ("x", "y")]
    assert ms.critical == ("t", "w")
    assert validate_morse_system(En, ms).ok


def test_generalized_matching_span():
    cx = sphere_complex()
    En = entrance_path_category(cx)
    ms = matching_to_morse_system(cx, Matching((("b", "y"),), "generalized"), En)
    assert ms.critical == ("t", "w")
    assert sorted(ms.span[ms.sigma[0]]) == ["b", "x", "y", "z"]
    assert validate_morse_system(En, ms).ok


def test_face_poset_system_fails_lifting_and_switching():
    cx = sphere_complex()
    Fc = face_poset_category(cx)
    ms = matching_to_morse_system(cx, Matching((("x", "y"), ("b", "z")), "classical"), Fc)
    report = validate_morse_system(Fc, ms)
    codes = {f.code for f in report.findings}
    assert "lifting" in codes
    assert "switching" in codes


def test_empty_system_is_vacuously_valid():
    En = entrance_path_category(sphere_complex())
    ms = morse_system_from_arrows(En, [])
    assert validate_morse_system(En, ms).ok


def test_spans_partition_the_non_critical_objects():
    rng = random.Random(31)
    for _ in range(15):
        cx = random_complex(rng, 10)
        En = entrance_path_category(cx)
        m = random_acyclic_matching(rng, cx)
        ms = matching_to_morse_system(cx, m, En)
        non_critical = [o for o in En.objects if o not in ms.critical]
        for obj in non_critical:
            owners = [f for f, s in ms.span.items() if obj in s]
            assert len(owners) == 1
        matched_cells = {c for p in m.pairs for c in p}
        assert set(ms.critical) == set(cx.ids()) - matched_cells


def test_restriction_category_objects():
    S = sphere_complex()
    En = entrance_path_category(S)
    ms = matching_to_morse_system(S, Matching((("x", "y"), ("b", "z")), "classical"), En)
    f_xy = next(f for f in ms.sigma if f.label == ("x", "y"))
    assert restriction_category(En, ms, f_xy).objects == ("w",)

    cx = fig2_complex()
    En2 = entrance_path_category(cx)
    ms2 = matching_to_morse_system(cx, Matching((("wxy", "xy"),), "classical"), En2)
    sub = restriction_category(En2, ms2, ms2.sigma[0])
    assert sorted(sub.objects) == ["w", "wx", "wy", "x", "y"]

    ms3 = matching_to_morse_system(S, Matching((("b", "y"),), "generalized"), En)
    assert restriction_category(En, ms3, ms3.sigma[0]).objects == ("w",)


def test_mildness_on_classical_fixture():
    S = sphere_complex()
    En = entrance_path_category(S)
    ms = matching_to_morse_system(S, Matching((("x", "y"), ("b", "z")), "classical"), En)
    report = check_mildness(En, ms)
    assert report.all_mild
    assert all(e.verdict == CERTIFIED for e in report.entries)


def test_mildness_fail_on_disconnected_restriction():
    # poset on x, y, m, m2 with x above everything; pair x with y
    els = ["m", "m2", "x", "y"]
    cat = poset_as_pcategory(els, lambda a, b: a == b or (a == "x" and b != "x"))
    names = {v: k for k, v in cat.poset_element.items()}
    f = Morphism(names["x"], names["y"], (names["x"], names["y"]))
    ms = morse_system_from_arrows(cat, [f])
    report = check_mildness(cat, ms)
    assert not report.all_mild
    assert report.entries[0].verdict == FAIL


def test_mildness_certified_for_generalized_fixture():
    S = sphere_complex()
    En = entrance_path_category(S)
    ms = matching_to_morse_system(S, Matching((("b", "y"),), "generalized"), En)
    report = check_mildness(En, ms)
    assert report.all_mild
    assert report.entries[0].verdict == CERTIFIED


def _labelled_category(homs, order=()):
    """A hand-built category: ``homs`` maps (a, b) to the labels of hom(a, b),
    ``order`` lists (smaller, larger) label pairs, and composition concatenates
    labels, so a composite outside its hom is below nothing."""
    objects = sorted({o for ab in homs for o in ab})
    ids = {o: identity_morphism(o) for o in objects}
    built = {(o, o): [ids[o]] for o in objects}
    for (a, b), labels in homs.items():
        built[(a, b)] = [Morphism(a, b, label) for label in labels]
    at = {m.label: m for els in built.values() for m in els}
    pairs = {ab: [(at[x], at[y]) for x, y in order if at[x] in els] for ab, els in built.items()}

    def compose(f, g):
        if f == ids[f.source]:
            return g
        return f if g == ids[g.source] else Morphism(f.source, g.target, f.label + g.label)

    return PCategory(objects, {ab: HomPoset.build(els, pairs[ab]) for ab, els in built.items()}, compose, ids)


def _switching_square(bc_labels):
    """Arrows f0: A -> B and f1: C -> D with atoms h: A -> C and ell: B -> D
    and hom(B, C) on ``bc_labels``; in hom(A, D), t = f0 o q o f1 lies above
    f0 o ell and h o f1, and so does v, which is not above t."""
    homs = {
        ("A", "B"): [("f0",)], ("C", "D"): [("f1",)], ("B", "C"): bc_labels,
        ("A", "C"): [("h",), ("f0", "q")], ("B", "D"): [("ell",), ("q", "f1")],
        ("A", "D"): [("f0", "ell"), ("h", "f1"), ("f0", "q", "f1"), ("v",)],
    }
    order = [(("h",), ("f0", "q")), (("ell",), ("q", "f1"))]
    order += [(low, high) for low in (("f0", "ell"), ("h", "f1")) for high in (("f0", "q", "f1"), ("v",))]
    cat = _labelled_category(homs, order)
    return cat, morse_system_from_arrows(cat, [atom(cat, "A", "B"), atom(cat, "C", "D")])


def test_switching_names_a_middle_hom_without_atom_and_a_route_not_below_a_top():
    # With q the atom of hom(B, C), the route f0 o q o f1 is t, below t but not
    # below v.  With a second, incomparable q2, hom(B, C) has no atom, and each
    # of t and v is named.
    cat, ms = _switching_square([("q",)])
    findings = [(f.code, f.message, f.witness) for f in validate_morse_system(cat, ms).findings]
    assert findings == [("switching", "<f0 > q > f1> is not below <v>", ("<f0>", "<f1>", "<v>"))]
    cat, ms = _switching_square([("q",), ("q2",)])
    findings = [(f.code, f.message, f.witness) for f in validate_morse_system(cat, ms).findings]
    assert findings == [("switching", "hom has no atom", ("B", "C"))] * 2


def test_exhaustion_names_an_arrow_that_is_not_the_atom_of_its_hom():
    # t > x > w lies above the atom t > w; a hom of two incomparable arrows has no atom.
    En = entrance_path_category(get_fixture("calc61").complex)
    (f,) = [g for g in En.hom("t", "w").elements if g.label == ("t", "x", "w")]
    cat = _labelled_category({("a", "b"): [("f",), ("g",)]})
    for category, arrow in ((En, f), (cat, cat.hom("a", "b").elements[0])):
        report = validate_morse_system(category, morse_system_from_arrows(category, [arrow]))
        want = [("exhaustion", f"{arrow} is not the atom of its hom-poset")]
        assert [(g.code, g.message) for g in report.findings] == want


def test_mildness_fails_an_arrow_whose_restriction_is_empty():
    # Every object reachable from p0 reaches p1: the span of p0 -> p1 leaves nothing.
    cat = poset_as_pcategory([0, 1], lambda a, b: a <= b)
    ms = morse_system_from_arrows(cat, [atom(cat, "p0", "p1")])
    assert restriction_category(cat, ms, ms.sigma[0]).objects == ()
    (entry,) = check_mildness(cat, ms).entries
    assert (entry.verdict, entry.detail) == (FAIL, "restriction category is empty")


def test_beat_points_dismantle_a_path_but_not_a_circle():
    # The boundary of a square with one edge removed is a path: an end vertex
    # is a beat point (one edge above it), then its edge (one vertex below),
    # and so on to one point.  The boundary of a triangle is a circle: each
    # edge has two vertices below it and each vertex two edges above it, so
    # no element is a beat point.  Two points and the four-element crown, a
    # circle again, do not dismantle; a chain and a cone do.
    square = Complex(
        [Cell(v, 0) for v in "abcd"] + [Cell(e, 1) for e in ("ab", "bc", "cd")],
        [("ab", "a"), ("ab", "b"), ("bc", "b"), ("bc", "c"), ("cd", "c"), ("cd", "d")],
    )
    for cx, expected in ((square, True), (triangle_boundary(), False)):
        cat = face_poset_category(cx)
        assert _dismantles(cat.objects, cat.reachable) is expected
        assert greedy_collapses_to_point(reachability_order_complex(cat)) is expected
    posets = [
        ([0], lambda a, b: a == b, True),
        ([0, 1], lambda a, b: a == b, False),
        ([0, 1, 2], lambda a, b: a <= b, True),
        ("abcd", lambda a, b: a == b or (a in "ab" and b in "cd"), False),
        ("abcde", lambda a, b: a == b or (a in "ab" and b in "cd") or b == "e", True),
    ]
    for elements, leq, expected in posets:
        cat = poset_as_pcategory(elements, leq)
        assert _dismantles(cat.objects, cat.reachable) is expected, elements


def test_beat_points_agree_with_the_greedy_collapse():
    # Every restriction poset that check_mildness grades past the extremal
    # test, on the bundled fixtures, the boundary simplices of dimension 3 to
    # 5 at seeds 5 and 7, RP2 at five seeds and 200 random complexes: it
    # dismantles by beat points exactly when its order complex collapses
    # greedily, and check_mildness agrees with the greedy reference.
    systems = []
    for fx in FIXTURES.values():
        if fx.matching is not None:
            cat = face_poset_category(fx.complex) if fx.category == "face-poset" else entrance_path_category(fx.complex)
            systems.append((cat, matching_to_morse_system(fx.complex, fx.matching, cat)))
    cases = [(simplicial_to_complex(combinations(range(k + 1), k)), s) for k in (3, 4, 5) for s in (5, 7)]
    cases += [(simplicial_to_complex(RP2_FACETS), s) for s in (1, 2, 5, 7, 10)]
    cases = [(cx, random_acyclic_matching(random.Random(s), cx)) for cx, s in cases]
    rng = random.Random(53)
    for _ in range(200):
        cx = random_complex(rng)
        cases.append((cx, random_acyclic_matching(rng, cx)))
    for cx, m in cases:
        En = entrance_path_category(cx)
        systems.append((En, matching_to_morse_system(cx, m, En)))
    verdicts = Counter()
    for cat, ms in systems:
        for sub in graded_restrictions(cat, ms):
            beat = _dismantles(sub.objects, sub.reachable)
            assert beat == greedy_collapses_to_point(reachability_order_complex(sub))
            verdicts[beat] += 1
        if len(cat.objects) <= 30:
            assert check_mildness(cat, ms).as_dict() == check_mildness_reference(cat, ms).as_dict()
    assert verdicts[True] >= 150, verdicts  # 153 at these seeds, and every one dismantles


def test_random_classical_systems_pass_axioms():
    rng = random.Random(37)
    for _ in range(15):
        cx = random_complex(rng, 10)
        En = entrance_path_category(cx)
        ms = matching_to_morse_system(cx, random_acyclic_matching(rng, cx), En)
        assert validate_morse_system(En, ms).ok


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_axiom_order_check_survives_chains_longer_than_the_recursion_limit():
    # Arrow e_i -> v_i comes before e_(i+1) -> v_(i+1): the order digraph is one path of n - 1 arrows.
    n = 300
    cx = cycle_graph_complex(n)
    En = entrance_path_category(cx)
    path = Matching(tuple((f"e{i}", f"v{i}") for i in range(1, n)), "classical")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + n // 2)
    try:  # the order's cycle is searched when the system is built
        ms = matching_to_morse_system(cx, path, En)
        report = validate_morse_system(En, ms)
    finally:
        sys.setrecursionlimit(limit)
    assert ms.cycle is None and report.ok


def test_find_cycle_on_long_paths_and_cycles():
    n = 10_000
    assert _find_cycle(range(n), {i: [i + 1] if i + 1 < n else [] for i in range(n)}) is None
    assert _find_cycle(range(n), {i: [(i + 1) % n] for i in range(n)}) == list(range(n)) + [0]


def test_find_cycle_witness_is_a_closed_walk():
    rng = random.Random(5)
    cycles = 0
    for _ in range(300):
        n = rng.randint(1, 10)
        p = rng.random() * 0.4
        succ = {i: [j for j in range(n) if j != i and rng.random() < p] for i in range(n)}
        cyc = _find_cycle(range(n), succ)
        _, both = close_order_reference(range(n), [(i, j) for i in succ for j in succ[i]])
        assert (cyc is None) == (not both)
        if cyc is not None:
            cycles += 1
            assert cyc[0] == cyc[-1] and len(set(cyc)) == len(cyc) - 1 >= 2
            assert all(b in succ[a] for a, b in zip(cyc, cyc[1:]))
    assert cycles > 50


def test_successor_lists_match_the_sigma_scan():
    # Each system keeps its order as successor lists in sigma order, equal to the
    # scan of hom(f.source, g.target) over every sigma x sigma pair; the order
    # axiom reads them, so a cyclic order (every edge of a 4-cycle matched to its
    # next vertex) is still reported with the scan's witness.
    cx = cycle_graph_complex(4)
    En = entrance_path_category(cx)
    cyclic = matching_to_morse_system(cx, Matching(tuple((f"e{i}", f"v{(i + 1) % 4}") for i in range(4))), En)
    systems = [(En, cyclic)] + [(cat, ms) for _, cat, ms, _ in flow_instances()]
    for cat, ms in systems:
        assert ms.successors == morse_system_reference(cat, ms.sigma).successors
    witness = _find_cycle(cyclic.sigma, morse_system_reference(En, cyclic.sigma).successors)
    order = [f for f in validate_morse_system(En, cyclic).findings if f.code == "order"]
    assert witness is not None and [f.witness for f in order] == [tuple(repr(f) for f in witness)]


def _system_cases():
    """(category, arrows) pairs: the systems of every bundled matching, of seeded
    random matchings on boundary simplices, RP2 and random complexes, and random
    sets of atoms, each in both categories."""
    rng = random.Random(41)
    complexes = [(fx.complex, fx.matching) for fx in FIXTURES.values() if fx.matching is not None]
    for cx in [simplicial_to_complex(combinations(range(k + 1), k)) for k in (2, 3, 4)] + [
        simplicial_to_complex(RP2_FACETS)
    ]:
        complexes.append((cx, random_acyclic_matching(rng, cx)))
    for _ in range(60):
        cx = random_complex(rng, 10)
        complexes.append((cx, random_acyclic_matching(rng, cx)))
    for cx, m in complexes:
        for cat in (entrance_path_category(cx), face_poset_category(cx)):
            try:
                yield cat, matching_to_morse_system(cx, m, cat).sigma
            except BadPair:  # a generalized pair has no atom in the face poset
                pass
            if len(cx.cells) > 12:
                continue
            atoms = []
            for a in cat.objects:
                for b in cat.objects:
                    try:
                        atoms.append(atom(cat, a, b))
                    except NoAtom:
                        pass
            atoms = [f for f in atoms if f is not None]
            for _ in range(4):
                yield cat, rng.sample(atoms, rng.randint(1, min(4, len(atoms))))


def test_systems_and_reports_match_the_all_pairs_scans():
    # The order is walked through the successor lists and each span through the
    # reachable objects; the scans of every sigma x sigma pair and every object
    # are the references, and every report keeps its findings in their order.
    # The predecessors, completeness and first cycle of the order are derived
    # with the system, and the references derive them by their own scans.
    systems, codes, kinds = 0, Counter(), Counter()
    for cat, arrows in _system_cases():
        ms = morse_system_from_arrows(cat, arrows)
        ref = morse_system_reference(cat, arrows)
        assert (ms.sigma, ms.successors, ms.span, ms.critical) == (ref.sigma, ref.successors, ref.span, ref.critical)
        assert (ms.predecessors, ms.complete, ms.cycle) == (ref.predecessors, ref.complete, ref.cycle)
        kinds.update([(ms.complete, ms.cycle is not None)])
        for f in ms.sigma:
            assert list(restriction_category(cat, ms, f).objects) == restriction_objects_reference(cat, f)
        report = validate_morse_system(cat, ms).as_dict()
        assert report == validate_morse_system_reference(cat, ms).as_dict()
        assert check_mildness(cat, ms).as_dict() == check_mildness_reference(cat, ms).as_dict()
        systems += 1
        codes.update(f["code"] for f in report["findings"])
    assert systems > 600
    assert set(codes) == {"exhaustion", "order", "lifting", "switching"}
    assert len(kinds) == 4  # complete or not, cyclic or not


def test_system_work_is_linear_on_a_long_cycle():
    # The path matching e_i > v_(i+1) on the n-cycle orders its n - 1 arrows in
    # one chain.  Deriving, validating and grading the system asks each hom a
    # bounded number of times per arrow, not once per pair of arrows or objects.
    n = 1500
    cx = cycle_graph_complex(n)
    En = entrance_path_category(cx)
    calls = []
    hom = En.hom
    En.hom = lambda a, b: calls.append((a, b)) or hom(a, b)
    path = Matching(tuple((f"e{i}", f"v{i + 1}") for i in range(n - 1)), "classical")
    ms = matching_to_morse_system(cx, path, En)
    assert validate_morse_system(En, ms).ok
    assert check_mildness(En, ms).all_mild
    assert len(ms.sigma) == n - 1
    assert len(calls) <= 50 * n


def test_each_hom_is_searched_for_its_atom_once(monkeypatch):
    # The cone matching of the 3-sphere pairs each simplex s without vertex 0
    # with s + 0.  Deriving the system asks for each arrow's atom, and
    # exhaustion and switching ask again; the category keeps every outcome.
    cx = simplicial_to_complex(combinations(range(5), 4))
    cone = Matching(tuple((cell_name((0, *s)), cell_name(s)) for k in (1, 2, 3) for s in combinations(range(1, 5), k)))
    searched = Counter()
    search = categories._weakly_indecomposable
    monkeypatch.setattr(categories, "_weakly_indecomposable", lambda cat, f: searched.update([(f.source, f.target)]) or search(cat, f))
    En = entrance_path_category(cx)
    ms = matching_to_morse_system(cx, cone, En)
    assert len(ms.sigma) == 14 and ms.critical == ("s0", "s1_2_3_4")
    assert validate_morse_system(En, ms).ok
    assert len(searched) > len(ms.sigma)  # switching searched homs beyond the arrows'
    assert max(searched.values()) == 1
