import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

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

from helpers import (
    RP2_FACETS,
    assign_incidence_signs_reference,
    cellular_chain_complex_reference,
    cosheaf_chain_complex_reference,
    grid_surface_complex,
    cycle_graph_complex,
    pair_signs,
    random_acyclic_matching,
    random_complex,
    random_twisted_cosheaf,
    simplicial_to_complex,
)
from morseflow.fixtures import FIXTURES, fig2_complex, sphere_complex


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


def test_cosheaf_complex_equals_the_fraction_by_fraction_assembly():
    rng = random.Random(29)
    complexes = [fig2_complex(), sphere_complex(), simplicial_to_complex(RP2_FACETS)]
    complexes += [random_complex(rng) for _ in range(12)]
    for cx in complexes:
        signs = assign_incidence_signs(cx)
        for ring in (QQ, PrimeField(3)):
            F = random_twisted_cosheaf(rng, cx, ring, rng.randint(1, 3))
            got = cosheaf_chain_complex(cx, signs, F)
            want = cosheaf_chain_complex_reference(cx, signs, F)
            assert {n: got.boundary(n) for n in want} == want


def test_cellular_and_cosheaf_boundaries_equal_the_per_entry_references():
    # the columns are read straight off the cover lists and the per-cell sign tuples;
    # the references sum entry by entry from the (upper, lower) pair view
    cases = [fx.complex for _, fx in sorted(FIXTURES.items())]
    cases += [simplicial_to_complex(combinations(range(k + 1), k)) for k in (3, 4, 5)]
    cases += [simplicial_to_complex(RP2_FACETS), grid_surface_complex(4, 4, False), grid_surface_complex(4, 4, True)]
    cases.append(cycle_graph_complex(300))
    rng = random.Random(61)
    betti = set()
    for cx in cases:
        signs = assign_incidence_signs(cx)
        assert signs == assign_incidence_signs_reference(cx)
        want = cellular_chain_complex_reference(cx, signs)
        for ring in (ZZ, QQ, PrimeField(3)):
            cc = cellular_chain_complex(cx, signs, ring)
            assert cc.ring is ZZ and cc.coefficients is ring
            assert {n: cc.boundary(n) for n in want} == want
            F = random_twisted_cosheaf(rng, cx, ring, 1 if len(cx.cells) > 100 else 2)
            got = cosheaf_chain_complex(cx, signs, F)
            assert {n: got.boundary(n) for n in want} == cosheaf_chain_complex_reference(cx, signs, F)
            betti.add(homology(cc).betti())
    assert {(1, 2, 1), (1, 1, 0), (1, 0, 0), (1, 1)} <= betti  # the torus, the Klein bottle and RP2 over Q, a circle


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
    sign = pair_signs(cx, signs)

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
            total += -sign[u, y] * sign[u, y2] * walk(y2)
        return total

    return sum(sign[x, y] * walk(y) for y in cx.cover_faces[x])


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


def _cosheaf_text(maps, ring="Z", stalks=None):
    return json.dumps({"ring": ring, "stalks": stalks or {"x": 1, "w": 1, "t": 2}, "maps": maps})


@pytest.mark.parametrize("maps, ring, message", [
    ({"xw": [[1]]}, "Z", "maps key 'xw' must look like 'upper>lower'"),
    ({"x>w": [[1], [2]]}, "Z", "maps['x>w'] has shape 2x1, expected 1x1"),
    ({"x>w": []}, "Z", "maps['x>w'] has shape 0x1, expected 1x1"),
    ({"t>w": [[1, 2], [3]]}, "Z", "matrix data does not match shape"),
    ({"x>w": [["1/0"]]}, "Z", "1/0 has a denominator that is 0 or not invertible in Z"),
    ({"x>w": [["1/3"]]}, "Fp:3", "1/3 has a denominator that is 0 or not invertible in Fp:3"),
    ({"x>w": [["1/2"]]}, "Z", "1/2 is not an integer"),
    ({"x>w": [[True]]}, "Z", "booleans are not ring elements"),
    ({"x>w": [[1.5]]}, "Q", "cannot parse ring element 1.5"),
    ({"x>w": [[None]]}, "Q", "cannot parse ring element None"),
    # a string that is neither an integer nor a fraction is named with its key
    ({"x>w": [["1.5"]]}, "Q", "maps['x>w'][0][0]: '1.5' is not an integer or a 'p/q' fraction"),
    ({"t>w": [[1, "2/x"]]}, "Q", "maps['t>w'][0][1]: '2/x' is not an integer or a 'p/q' fraction"),
    # two keys naming one cover after stripping
    ({"x>w": [[1]], "x > w": [[7]]}, "Z", "maps keys 'x>w' and 'x > w' both name the cover x>w"),
    # precedence: keys in order; within a key its form, a repeat, its entries, then its shape
    ({"x>w": [[1, 2]], "xw": [[1]]}, "Z", "maps['x>w'] has shape 1x2, expected 1x1"),
    ({"x>w": [[1]], "x >w": [["a"]], "t": []}, "Z", "maps keys 'x>w' and 'x >w' both name the cover x>w"),
    ({"x>w": [[True, 2]]}, "Z", "booleans are not ring elements"),
    ({"t>w": [[1], ["a", 2]]}, "Z", "maps['t>w'][1][0]: 'a' is not an integer or a 'p/q' fraction"),
    ({"t>w": [["1/2", "b"]]}, "Z", "1/2 is not an integer"),
])
def test_cosheaf_input_errors_keep_their_text(maps, ring, message):
    with pytest.raises(ValueError) as exc:
        Cosheaf.from_json(_cosheaf_text(maps, ring))
    assert str(exc.value) == message


def _read_maps_reference(ring, stalks, raw_maps):
    """(error text, None) for the first faulty key or entry, each key read in turn, or (None, maps)."""
    maps, named = {}, {}
    for key, rows in raw_maps.items():
        upper, sep, lower = key.partition(">")
        if not sep:
            return f"maps key {key!r} must look like 'upper>lower'", None
        cover = (upper.strip(), lower.strip())
        if cover in named:
            return f"maps keys {named[cover]!r} and {key!r} both name the cover {cover[0]}>{cover[1]}", None
        named[cover] = key
        data = []
        for i, row in enumerate(rows):
            data.append([])
            for j, x in enumerate(row):
                if isinstance(x, str):
                    num, _, den = x.partition("/")
                    try:
                        int(num), int(den or 0)
                    except ValueError:
                        return f"maps[{key!r}][{i}][{j}]: {x!r} is not an integer or a 'p/q' fraction", None
                try:
                    data[-1].append(ring.parse_scalar(x))
                except ValueError as exc:
                    return str(exc), None
        expect = (stalks.get(cover[1], 0), stalks.get(cover[0], 0))
        try:
            maps[cover] = Mat.from_rows(data, len(data[0]) if data else expect[1])
        except ValueError as exc:
            return str(exc), None
        if (maps[cover].rows, maps[cover].cols) != expect:
            return f"maps[{key!r}] has shape {maps[cover].rows}x{maps[cover].cols}, expected {expect[0]}x{expect[1]}", None
    return None, maps


def test_map_checks_name_the_first_fault_of_the_entry_scan():
    rng = random.Random(61)
    stalks = {"a": 1, "b": 2, "c": 0, "d": 1}
    keys = ["a>b", "b>a", " a > b", "b>c", "c>d", "d>a", "a>d", "ab", "d >a", "b>b"]
    entries = [0, 1, -1, 2, 7, "3/4", "-2", " 5", "1/2", "x", "1.5", "2/0", "", True, None, 2.5]
    outcomes = Counter()
    for _ in range(600):
        ring = rng.choice((ZZ, QQ, PrimeField(3)))
        raw_maps = {}
        for key in rng.sample(keys, rng.randint(0, 4)):
            r, c = (stalks.get(p.strip(), 0) for p in reversed(key.partition(">")[::2]))
            r, c = max(r + rng.choice((0, 0, 0, 0, 1, -1)), 0), max(c + rng.choice((0, 0, 0, 0, 1, -1)), 0)
            pool = entries[:8] if rng.random() < 0.8 else entries
            raw_maps[key] = [[rng.choice(pool) for _ in range(c + (rng.random() < 0.05))] for _ in range(r)]
        error, maps = _read_maps_reference(ring, stalks, raw_maps)
        text = json.dumps({"ring": ring.name, "stalks": stalks, "maps": raw_maps})
        if error is None:
            assert Cosheaf.from_json(text).maps == maps
            outcomes["ok"] += 1
        else:
            with pytest.raises(ValueError) as exc:
                Cosheaf.from_json(text)
            assert str(exc.value) == error, raw_maps
            outcomes[error.split(" ")[-1]] += 1
    assert outcomes["ok"] >= 50 and len(outcomes) >= 8, outcomes


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
    # the cosheaf route checks its one complex; the Morse route checks the cellular
    # cosheaf complex (its diamond check) and then its own complex, once each
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
    assert len(checked) == 2 and checked[1] is mc.chain
    assert checked[0] == cosheaf_chain_complex(cx, signs, F)
