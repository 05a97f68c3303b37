import random
from fractions import Fraction

import pytest

from morseflow import (
    ChainComplex,
    Matching,
    Mat,
    NotAComplex,
    NotInvertible,
    PrimeField,
    QQ,
    ZZ,
    assign_incidence_signs,
    cellular_chain_complex,
    constant_cosheaf,
    cosheaf_homology,
    entrance_path_category,
    homology,
    hom_poset_loc,
    matching_to_morse_system,
    morse_chain_complex,
    transport,
    validate_cosheaf,
)
from morseflow.cosheaves import Cosheaf, cosheaf_chain_complex
from morseflow.localization import zigzag_from_text

from helpers import cycle_graph_complex, random_acyclic_matching, random_complex, random_twisted_cosheaf
from morseflow.fixtures import fig2_complex, sphere_complex


def test_constant_cosheaf_is_valid_and_matches_cellular_homology():
    for cx in (sphere_complex(), fig2_complex()):
        F = constant_cosheaf(cx, ZZ)
        assert validate_cosheaf(cx, F).ok
        signs = assign_incidence_signs(cx)
        got = cosheaf_homology(cx, signs, F)
        want = homology(cellular_chain_complex(cx, signs, ZZ))
        assert got.betti() == want.betti()
        assert got.torsion() == want.torsion()


def test_broken_diamond_is_reported():
    cx = sphere_complex()
    F = constant_cosheaf(cx, ZZ)
    maps = dict(F.maps)
    maps[("t", "x")] = Mat.from_rows([[2]])
    broken = Cosheaf(ZZ, F.stalks, maps)
    report = validate_cosheaf(cx, broken)
    assert not report.ok
    assert any(f.code == "functoriality" for f in report.findings)


def test_missing_stalks_and_maps_are_each_named():
    # Only w has a stalk and no cover has a map: every other cell and every
    # cover is named, cells in complex order and covers sorted.
    cx = sphere_complex()
    report = validate_cosheaf(cx, Cosheaf(ZZ, {"w": 1}, {}))
    assert [f.witness for f in report.findings if f.code == "stalks"] == [(c,) for c in cx.ids() if c != "w"]
    assert [f.witness for f in report.findings if f.code == "maps"] == sorted(cx.covers)
    assert [f.code for f in report.findings] == ["stalks"] * 5 + ["maps"] * 8


def test_random_twisted_cosheaves_are_valid():
    rng = random.Random(43)
    for _ in range(10):
        cx = random_complex(rng, 10)
        F = random_twisted_cosheaf(rng, cx, QQ)
        assert validate_cosheaf(cx, F).ok


def test_random_twisted_cosheaves_over_a_prime_field_are_valid():
    # over F_3 a twist needs a determinant prime to 3, not only a nonzero one
    F = random_twisted_cosheaf(random.Random(7), sphere_complex(), PrimeField(3), 2)
    assert validate_cosheaf(sphere_complex(), F).ok


def test_scaled_cosheaf_homology_against_direct_assembly():
    # rank-1 on the circle-with-membrane complex, one map doubled
    cx = fig2_complex()
    ring = ZZ
    maps = {pair: Mat.from_rows([[1]]) for pair in cx.covers}
    maps[("yz", "z")] = Mat.from_rows([[2]])
    F = Cosheaf(ring, {cid: 1 for cid in cx.ids()}, maps)
    assert validate_cosheaf(cx, F).ok
    signs = assign_incidence_signs(cx)
    got = cosheaf_homology(cx, signs, F)
    direct = homology(cosheaf_chain_complex(cx, signs, F))
    assert got.groups == direct.groups


def test_inconsistent_assembly_raises():
    cx = fig2_complex()
    maps = {pair: Mat.from_rows([[1]]) for pair in cx.covers}
    maps[("wxy", "wx")] = Mat.from_rows([[3]])
    F = Cosheaf(ZZ, {cid: 1 for cid in cx.ids()}, maps)
    signs = assign_incidence_signs(cx)
    with pytest.raises((NotAComplex, ValueError)):
        cosheaf_homology(cx, signs, F)


def _sphere_transport_setup(value):
    # potentials per cell keep every diamond commuting: F(a>b) = mu_b / mu_a
    cx = sphere_complex()
    mu = {cid: Fraction(1) for cid in cx.ids()}
    mu["y"] = Fraction(value)
    maps = {
        (u, l): Mat.from_rows([[mu[l] / mu[u]]])
        for (u, l) in cx.covers
    }
    F = Cosheaf(QQ, {cid: 1 for cid in cx.ids()}, maps)
    assert validate_cosheaf(cx, F).ok
    return cx, F, mu


def test_transport_of_constant_cosheaf_is_identity():
    cx = sphere_complex()
    En = entrance_path_category(cx)
    m = Matching((("x", "y"), ("b", "z")), "classical")
    ms = matching_to_morse_system(cx, m, En)
    F = constant_cosheaf(cx, QQ)
    z = zigzag_from_text(En, ms, "t > z < b > y < x > w")
    assert transport(cx, F, m, z).data == ((Fraction(1),),)


def test_transport_multiplies_inverse_of_matched_map():
    cx, F, mu = _sphere_transport_setup(2)
    En = entrance_path_category(cx)
    m = Matching((("x", "y"),), "classical")
    ms = matching_to_morse_system(cx, m, En)
    z = zigzag_from_text(En, ms, "t > y < x > w")
    value_ty = mu["y"] / mu["t"]  # composite along t > y
    value_xy = mu["y"] / mu["x"]  # the matched extension, here 2
    value_xw = mu["w"] / mu["x"]
    assert value_xy == 2
    expected = value_xw * (1 / value_xy) * value_ty
    assert transport(cx, F, m, z).data == ((expected,),)


def test_transport_constant_on_classes_and_under_reduction():
    cx = sphere_complex()
    En = entrance_path_category(cx)
    m = Matching((("x", "y"), ("b", "z")), "classical")
    ms = matching_to_morse_system(cx, m, En)
    rng = random.Random(47)
    F = random_twisted_cosheaf(rng, cx, QQ, rank=2)
    hp = hom_poset_loc(En, ms, "t", "w", None)
    for cls in hp.elements:
        mats = {transport(cx, F, m, member).data for member in cls.members}
        assert len(mats) == 1


def test_transport_along_generalized_matching_arrow():
    cx = sphere_complex()
    En = entrance_path_category(cx)
    m = Matching((("b", "y"),), "generalized")
    ms = matching_to_morse_system(cx, m, En)
    F = constant_cosheaf(cx, QQ)
    z = zigzag_from_text(En, ms, "t > y < b > x > w")
    assert transport(cx, F, m, z).data == ((Fraction(1),),)


def test_singular_matched_map_raises():
    cx = sphere_complex()
    maps = {pair: Mat.from_rows([[1]]) for pair in cx.covers}
    maps[("x", "y")] = Mat.from_rows([[0]])
    maps[("z", "y")] = Mat.from_rows([[0]])  # keeps the diamonds through y commuting
    F = Cosheaf(ZZ, {cid: 1 for cid in cx.ids()}, maps)
    assert validate_cosheaf(cx, F).ok
    m = Matching((("x", "y"),), "classical")
    with pytest.raises(NotInvertible):
        morse_chain_complex(cx, assign_incidence_signs(cx), F, m)


def test_fig2_morse_complex():
    cx = fig2_complex()
    m = Matching((("wx", "x"), ("wy", "y"), ("xz", "z"), ("wxy", "xy")), "classical")
    signs = assign_incidence_signs(cx)
    mc = morse_chain_complex(cx, signs, constant_cosheaf(cx, ZZ), m)
    assert mc.critical == (("w",), ("yz",), ())
    assert mc.chain.ranks == (1, 1, 0)
    # the two gradient paths cancel, so the compressed boundary vanishes
    assert mc.chain.boundary(1).data == ((0,),)
    s = homology(mc.chain)
    assert s.betti() == (1, 1, 0)
    assert s.torsion() == ((), (), ())


def test_sphere_morse_complex():
    cx = sphere_complex()
    m = Matching((("x", "y"), ("b", "z")), "classical")
    signs = assign_incidence_signs(cx)
    mc = morse_chain_complex(cx, signs, constant_cosheaf(cx, ZZ), m)
    assert mc.critical == (("w",), (), ("t",))
    assert homology(mc.chain).betti() == (1, 0, 1)


def test_empty_matching_reproduces_cosheaf_complex():
    cx = fig2_complex()
    signs = assign_incidence_signs(cx)
    F = constant_cosheaf(cx, ZZ)
    mc = morse_chain_complex(cx, signs, F, Matching((), "classical"))
    direct = cosheaf_chain_complex(cx, signs, F)
    assert mc.chain.ranks == direct.ranks
    for d in range(1, len(direct.ranks)):
        assert mc.chain.boundary(d).data == direct.boundary(d).data


def _gradient_path_sum(cx, signs, m, x, tgt):
    """Brute-force signed count of gradient paths for the constant cosheaf."""
    partner = {l: u for u, l in m.pairs}

    def walk(y):
        if y == tgt:
            return 1
        if y not in partner:
            return 0
        u = partner[y]
        total = 0
        for y2 in cx.cover_faces[u]:
            if y2 == y:
                continue
            total += -signs(u, y) * signs(u, y2) * walk(y2)
        return total

    return sum(signs(x, y) * walk(y) for y in cx.cover_faces[x])


def test_morse_boundary_matches_path_sum_oracle():
    # the integer route (F=None) and the Mat route on the constant Z cosheaf, entry for entry
    cases = [(fig2_complex(), Matching((("wx", "x"), ("wy", "y"), ("xz", "z"), ("wxy", "xy")), "classical"))]
    rng = random.Random(53)
    for _ in range(10):
        rcx = random_complex(rng, 10)
        cases.append((rcx, random_acyclic_matching(rng, rcx)))
    nonzero = 0
    for cx, m in cases:
        signs = assign_incidence_signs(cx)
        counts = morse_chain_complex(cx, signs, None, m)
        maps = morse_chain_complex(cx, signs, constant_cosheaf(cx, ZZ), m)
        assert counts.chain.ring is ZZ
        assert counts.critical == maps.critical
        assert counts.chain.ranks == maps.chain.ranks
        crit = counts.critical
        for d in range(1, len(crit)):
            got, via_maps = counts.chain.boundary(d), maps.chain.boundary(d)
            for j, x in enumerate(crit[d]):
                for i, tgt in enumerate(crit[d - 1]):
                    want = _gradient_path_sum(cx, signs, m, x, tgt)
                    assert type(got[i, j]) is int
                    assert got[i, j] == via_maps[i, j] == want
                    nonzero += want != 0
    assert nonzero > 0


def test_morse_homology_matches_cosheaf_homology_randomized():
    rng = random.Random(59)
    for _ in range(10):
        cx = random_complex(rng, 10)
        m = random_acyclic_matching(rng, cx)
        signs = assign_incidence_signs(cx)
        F = random_twisted_cosheaf(rng, cx, QQ)
        full = cosheaf_homology(cx, signs, F)
        compressed = homology(morse_chain_complex(cx, signs, F, m).chain)
        assert full.betti() == compressed.betti()


def test_cosheaf_json_round_trip():
    cx = sphere_complex()
    rng = random.Random(61)
    F = random_twisted_cosheaf(rng, cx, QQ, rank=2)
    again = Cosheaf.from_json(F.to_json())
    assert again.stalks == F.stalks
    assert {k: v.data for k, v in again.maps.items()} == {k: v.data for k, v in F.maps.items()}


def test_morse_transport_runs_past_the_recursion_limit():
    n = 3000
    cx = cycle_graph_complex(n)
    # e_i covers v_i and v_(i+1); matching e_i with v_(i+1) leaves v0 and e_(n-1)
    # critical, joined by one gradient path through all n - 1 other vertices
    m = Matching(tuple((f"e{i}", f"v{i + 1}") for i in range(n - 1)), "classical")
    signs = assign_incidence_signs(cx)
    for F in (None, constant_cosheaf(cx, ZZ)):  # integer counts and Mat blocks
        mc = morse_chain_complex(cx, signs, F, m)
        assert mc.critical == (("v0",), (f"e{n - 1}",))
        assert mc.chain.ranks == (1, 1)
        s = homology(mc.chain)
        assert s.betti() == (1, 1)
        assert s.torsion() == ((), ())


def test_cosheaf_and_morse_routes_check_d_squared_once(monkeypatch):
    checked = []
    check = ChainComplex.check_boundary_squares_to_zero

    def counted(cc):
        checked.append(cc)
        return check(cc)

    monkeypatch.setattr(ChainComplex, "check_boundary_squares_to_zero", counted)
    cx = fig2_complex()
    signs = assign_incidence_signs(cx)
    F = random_twisted_cosheaf(random.Random(3), cx, QQ)
    cosheaf_homology(cx, signs, F)
    assert len(checked) == 1
    checked.clear()
    mc = morse_chain_complex(cx, signs, F, random_acyclic_matching(random.Random(3), cx))
    homology(mc.chain)
    assert checked == [mc.chain]
