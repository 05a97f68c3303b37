import random
from fractions import Fraction
from itertools import combinations

import pytest

from morseflow import (
    ChainComplex,
    Mat,
    NotAComplex,
    PrimeField,
    QQ,
    ZZ,
    assign_incidence_signs,
    cellular_chain_complex,
    entrance_path_category,
    flow_category,
    geometric_nerve,
    homology,
    invariant_factors,
    matching_to_morse_system,
    normalized_chain_complex,
)
from morseflow.cosheaves import constant_cosheaf, morse_chain_complex
from morseflow.fixtures import FIXTURES
from morseflow.rings import _non_unit_factors, eliminate, mat_inverse, NotInvertible, rank_over_field, ring_from_name

from helpers import (
    KLEIN_FACETS,
    RP2_FACETS,
    SPHERE2_FACETS,
    TORUS_FACETS,
    dense_rank_over_field,
    det_int,
    homology_reference,
    mat_inverse_reference,
    minors_gcd_invariant_factors,
    normalized,
    random_acyclic_matching,
    random_int_matrix,
    random_integer_complex,
    simplicial_to_complex,
    smith_normal_form_reference,
)


def test_snf_single_entry():
    assert invariant_factors(Mat.from_rows([[2]])) == minors_gcd_invariant_factors(Mat.from_rows([[2]])) == [2]


def test_snf_zero_matrix():
    assert invariant_factors(Mat.zeros(3, 2)) == minors_gcd_invariant_factors(Mat.zeros(3, 2)) == []


def test_snf_matches_minors_oracle():
    rng = random.Random(11)
    for _ in range(40):
        m = random_int_matrix(rng, 5, 5)
        assert invariant_factors(m) == minors_gcd_invariant_factors(m)


def test_non_unit_phase_takes_remainders_and_orders_by_divisibility():
    # a remainder 1 is left by the column step, and diagonals need gcd/lcm swaps
    assert invariant_factors(Mat.from_rows([[2, 3]])) == [1]
    assert invariant_factors(Mat.from_rows([[2, 0], [0, 3]])) == [1, 6]
    assert invariant_factors(Mat.from_rows([[4, 0, 0], [0, 6, 0], [0, 0, 10]])) == [2, 2, 60]


def test_a_z_complex_read_over_fields_counts_the_units_there():
    # boundary diag(2, 3): over F_p a factor divisible by p is no unit
    cc = ChainComplex(ZZ, (2, 2), {1: Mat.from_rows([[2, 0], [0, 3]])})
    ranks = {}
    for ring in (QQ, PrimeField(2), PrimeField(3), PrimeField(5)):
        ranks[ring.name] = 2 - homology(cc.over(ring)).betti()[1]
    assert ranks == {"Q": 2, "Fp:2": 1, "Fp:3": 1, "Fp:5": 2}
    assert homology(cc).groups == ((0, (6,)), (0, ()))


def test_invariant_factors_match_the_minors_oracle_on_random_matrices():
    rng = random.Random(23)
    for _ in range(3000):
        m = random_int_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), *rng.choice(((-2, 2), (-4, 4), (-9, 9))))
        assert invariant_factors(m) == minors_gcd_invariant_factors(m), m


def _simplicial_chain_complex(facets, ring):
    from morseflow import assign_incidence_signs, cellular_chain_complex

    cx = simplicial_to_complex(facets)
    return cellular_chain_complex(cx, assign_incidence_signs(cx), ring)


def test_projective_plane_torsion():
    summary = homology(_simplicial_chain_complex(RP2_FACETS, ZZ))
    assert summary.betti() == (1, 0, 0)
    assert summary.torsion() == ((), (2,), ())


def test_universal_coefficients_on_projective_plane():
    betti_q = homology(_simplicial_chain_complex(RP2_FACETS, QQ)).betti()
    assert betti_q == (1, 0, 0)
    betti_f2 = homology(_simplicial_chain_complex(RP2_FACETS, PrimeField(2))).betti()
    assert betti_f2 == (1, 1, 1)  # 2-torsion appears in degrees 1 and 2
    betti_f3 = homology(_simplicial_chain_complex(RP2_FACETS, PrimeField(3))).betti()
    assert betti_f3 == (1, 0, 0)


def test_not_a_complex_raises():
    d1 = Mat.from_rows([[1, 0], [0, 1]])
    d2 = Mat.from_rows([[1], [0]])
    with pytest.raises(NotAComplex):
        ChainComplex(ZZ, (2, 2, 1), {1: d1, 2: d2})


def test_rank_over_field_and_inverse():
    m = Mat.from_rows([[1, 2], [2, 4]])
    assert rank_over_field(normalized(m, QQ), QQ) == 1
    with pytest.raises(NotInvertible):
        mat_inverse(m, QQ)
    inv = mat_inverse(Mat.from_rows([[2, 1], [1, 1]]), ZZ)
    assert inv.data == ((1, -1), (-1, 2))
    with pytest.raises(NotInvertible):
        mat_inverse(Mat.from_rows([[2, 0], [0, 1]]), ZZ)  # det 2: not a unit in Z


def test_mat_inverse_matches_the_adjugate_over_each_ring():
    # Gauss-Jordan runs in the field's own arithmetic over Q and F_p, and over Q for Z
    rings = (QQ, PrimeField(2), PrimeField(3), PrimeField(5))
    rng = random.Random(71)
    invertible = {ring.name: 0 for ring in rings}
    singular_mod_p = {ring.name: 0 for ring in rings}
    for _ in range(300):
        n = rng.randint(1, 4)
        m = random_int_matrix(rng, n, n)
        for ring in rings:
            want = mat_inverse_reference(m, ring)
            if want is None:
                with pytest.raises(NotInvertible):
                    mat_inverse(normalized(m, ring), ring)
                singular_mod_p[ring.name] += det_int(m.data) != 0
                continue
            got = mat_inverse(normalized(m, ring), ring)
            assert got == want, (m, ring)
            assert got.mul(normalized(m, ring), ring) == Mat.identity(m.rows, ring.one)
            invertible[ring.name] += 1
    assert min(invertible.values()) >= 50
    assert singular_mod_p["Q"] == 0 and min(singular_mod_p[f"Fp:{p}"] for p in (2, 3, 5)) >= 10
    # det -3: invertible over Q, singular over F_3
    m = Mat.from_rows([[1, 2], [2, 1]])
    assert mat_inverse(m, QQ) == mat_inverse_reference(m, QQ)
    with pytest.raises(NotInvertible, match="matrix is singular"):
        mat_inverse(normalized(m, PrimeField(3)), PrimeField(3))
    # det 1 and no unit entry: no unit pivot over Z, yet invertible there
    assert mat_inverse(Mat.from_rows([[2, 3], [3, 5]]), ZZ).data == ((5, -3), (-3, 2))


def test_mat_inverse_over_q_and_z_on_large_denominators_singular_and_non_unimodular_matrices():
    # m = diag(r) B diag(c) with B integral and r, c fractions of up to 40 digits:
    # m^-1 = diag(1/c) B^-1 diag(1/r), with B^-1 from the adjugate
    rng = random.Random(83)
    big = lambda: Fraction(rng.randint(1, 10**40), rng.randint(1, 10**40)) * rng.choice((1, -1))
    counts = {"Q": 0, "Q singular": 0, "Z": 0, "Z not unimodular": 0, "Z singular": 0}
    for _ in range(150):
        n = rng.randint(1, 5)
        b = random_int_matrix(rng, n, n, -3, 3)
        r, c = [big() for _ in range(n)], [big() for _ in range(n)]
        rows = b.data
        m = Mat.from_rows([[r[i] * rows[i][j] * c[j] for j in range(n)] for i in range(n)], n)
        inv_b = mat_inverse_reference(b, QQ)
        if inv_b is None:
            with pytest.raises(NotInvertible, match="matrix is singular"):
                mat_inverse(m, QQ)
            counts["Q singular"] += 1
        else:
            want = [[inv_b[i, j] / (c[i] * r[j]) for j in range(n)] for i in range(n)]
            assert mat_inverse(m, QQ) == Mat.from_rows(want, n)
            counts["Q"] += 1
        det = det_int(rows)
        if det in (1, -1):
            assert mat_inverse(b, ZZ) == mat_inverse_reference(b, ZZ)
            counts["Z"] += 1
        else:
            message = "matrix is singular" if det == 0 else "inverse is not defined over Z"
            with pytest.raises(NotInvertible, match=message):
                mat_inverse(b, ZZ)
            counts["Z not unimodular" if det else "Z singular"] += 1
    # unimodular integer matrices with large entries, some without a unit entry
    for _ in range(40):
        n = rng.randint(2, 5)
        u = Mat.identity(n, 1)
        for _ in range(8):
            i, j = rng.sample(range(n), 2)
            step = Mat.from_rows([[1 if a == b else (rng.randint(-9, 9) if (a, b) == (i, j) else 0) for b in range(n)] for a in range(n)], n)
            u = step.mul(u, ZZ)
        assert mat_inverse(u, ZZ) == mat_inverse_reference(u, ZZ)
        assert mat_inverse(u, ZZ).mul(u, ZZ) == Mat.identity(n, 1)
        counts["Z"] += 1
    assert min(counts.values()) >= 10, counts


def test_ring_parsing():
    r = ring_from_name("Fp:5")
    assert r.normalize(7) == 2
    assert QQ.parse_scalar("3/4") == QQ.normalize(3) / 4
    with pytest.raises(ValueError):
        ring_from_name("R")


def test_ring_parsing_certifies_primes_quickly():
    assert ring_from_name("Fp:1000000007").p == 1000000007
    assert ring_from_name("Fp:2305843009213693951").p == 2**61 - 1
    assert PrimeField(2).p == 2 and PrimeField(41).p == 41
    # 561, 1105: Carmichael numbers; the last is a strong pseudoprime to every base 2..37
    for composite in (0, 1, 4, 561, 1105, 2**61 + 1, 3215031751, 318665857834031151167461):
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(composite)
    with pytest.raises(ValueError, match="too large"):
        PrimeField(2**89 - 1)


def _shapes(rng, count):
    for k in range(count):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        # narrow ranges give sparse, unit-rich matrices; wide ones give non-unit cores
        lo, hi = ((-1, 1), (-2, 2), (-4, 4))[k % 3]
        yield random_int_matrix(rng, rows, cols, lo, hi)


def _fraction_rows(rng, rows, cols):
    """Random entries n/d with d in 1..7; some rows are rational combinations of earlier ones."""
    out = []
    for _ in range(rows):
        if len(out) >= 2 and rng.random() < 0.3:
            a, b = rng.sample(out, 2)
            p, q = Fraction(rng.randint(-3, 3), rng.randint(1, 7)), Fraction(rng.randint(-3, 3), rng.randint(1, 7))
            out.append([p * x + q * y for x, y in zip(a, b)])
        else:
            out.append([Fraction(rng.randint(-3, 3), rng.randint(1, 7)) if rng.random() < 0.6 else 0 for _ in range(cols)])
    return out


def test_sparse_field_rank_matches_dense_reference():
    rng = random.Random(17)
    for m in _shapes(rng, 120):
        for ring in (QQ, PrimeField(2), PrimeField(3), PrimeField(5)):
            want = dense_rank_over_field(m, ring)
            assert rank_over_field(m, ring) == want
            assert rank_over_field(normalized(m, ring), ring) == want
            assert eliminate(m, ring) == [1] * want
    # rational entries: columns with different denominators, dependent rows, empty shapes
    deficient = 0
    for rows, cols in [(0, 0), (0, 4), (4, 0)] + [(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(150)]:
        m = Mat.from_rows(_fraction_rows(rng, rows, cols), cols)
        want = dense_rank_over_field(m, QQ)
        assert rank_over_field(m, QQ) == want
        assert eliminate(m, QQ) == [1] * want
        deficient += want < min(rows, cols)
    assert deficient >= 20
    dependent = Mat.from_rows([[Fraction(1, 2), Fraction(1, 3), 0], [Fraction(1, 5), 0, Fraction(2, 7)],
                               [Fraction(7, 10), Fraction(1, 3), Fraction(2, 7)]])  # row 3 = row 1 + row 2
    assert dense_rank_over_field(dependent, QQ) == rank_over_field(dependent, QQ) == 2


def test_sparse_invariant_factors_match_smith_diagonal():
    rng = random.Random(19)
    for m in _shapes(rng, 120):
        diag = smith_normal_form_reference(m)
        assert invariant_factors(m) == diag
        assert invariant_factors(normalized(m, ZZ)) == diag


def test_unit_elimination_leaves_the_non_unit_core_over_z():
    m = Mat.from_rows([[2, 0, 1], [0, 4, 0], [6, 0, 0]])
    assert invariant_factors(m) == [1, 2, 12]  # |det| = 24


def test_sparse_matrix_dense_view():
    m = Mat.from_rows([[0, 3, 0], [-1, 0, 0]])
    s = normalized(m, ZZ)
    assert s.columns == (((1, -1),), ((0, 3),), ())
    assert s.data == m.data
    assert [s[i, j] for i in range(2) for j in range(3)] == [0, 3, 0, -1, 0, 0]
    with pytest.raises(ValueError):
        Mat(2, 1, (((1, 1), (0, 1)),))  # rows out of order
    with pytest.raises(ValueError):
        Mat(2, 1, (((0, 0),),))  # explicit zero


def _dense(rows, cols, entry):
    return tuple(tuple(entry(i, j) for j in range(cols)) for i in range(rows))


def test_mat_matches_nested_list_arithmetic():
    rng = random.Random(29)
    shapes = [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0)] + [tuple(rng.randint(1, 4) for _ in range(3)) for _ in range(40)]
    for ring in (ZZ, QQ, PrimeField(2), PrimeField(3)):
        def draw(rows, cols):
            if ring is QQ:  # denominators 1..7, different within a column
                return [[Fraction(rng.randint(-3, 3), rng.randint(1, 7)) for _ in range(cols)] for _ in range(rows)]
            return [[ring.normalize(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]

        for r, k, c in shapes:
            a, a2, b = draw(r, k), draw(r, k), draw(k, c)
            s = ring.normalize(rng.randint(-3, 3))
            ma, ma2, mb = Mat.from_rows(a, k), Mat.from_rows(a2, k), Mat.from_rows(b, c)
            assert (ma.rows, ma.cols) == (r, k)
            assert ma.data == _dense(r, k, lambda i, j: a[i][j])
            assert [ma[i, j] for i in range(r) for j in range(k)] == [x for row in a for x in row]
            # results hold normalized entries with the zeros dropped, as from_rows of the reference does
            product = _dense(r, c, lambda i, j: ring.normalize(sum((a[i][t] * b[t][j] for t in range(k)), 0)))
            assert ma.mul(mb, ring) == Mat.from_rows(product, c)
            assert ma.add(ma2, ring) == Mat.from_rows(_dense(r, k, lambda i, j: ring.normalize(a[i][j] + a2[i][j])), k)
            assert ma.scale(s, ring) == Mat.from_rows(_dense(r, k, lambda i, j: ring.normalize(s * a[i][j])), k)
            assert Mat.identity(r, ring.one).data == _dense(r, r, lambda i, j: ring.one if i == j else 0)
            assert Mat.identity(r, ring.one).mul(ma, ring) == ma == ma.mul(Mat.identity(k, ring.one), ring)
            assert Mat.zeros(r, c).data == _dense(r, c, lambda i, j: 0)
            assert ma.mul(Mat.zeros(k, c), ring) == Mat.zeros(r, c)
    # over Q, sums that cancel to zero are dropped: each row of a is a multiple of (u, v, w),
    # and the first column of b, (v, -u, 0), is in its kernel
    for _ in range(30):
        u, v, w, x, y, z = (Fraction(rng.randint(1, 5), rng.randint(1, 7)) for _ in range(6))
        a = [[c * u, c * v, c * w] for c in (Fraction(1), Fraction(-2, 3), Fraction(5, 2))]
        b = [[v, x], [-u, y], [0, z]]
        got = Mat.from_rows(a, 3).mul(Mat.from_rows(b, 2), QQ)
        assert got.columns[0] == ()
        assert got == Mat.from_rows(_dense(3, 2, lambda i, j: sum((a[i][t] * b[t][j] for t in range(3)), Fraction(0))), 2)
        assert all(type(e) is Fraction for col in got.columns for _, e in col)
    with pytest.raises(ValueError, match="matrix data does not match shape"):
        Mat.from_rows([[1, 2], [3]])  # ragged rows
    with pytest.raises(ValueError, match="matrix data does not match shape"):
        Mat.from_rows([[1]], 2)  # rows narrower than the width given


def test_sparse_non_complex_raises():
    d1 = Mat(2, 2, (((0, 1),), ((1, 1),)))
    d2 = Mat(2, 1, (((0, 1),),))
    with pytest.raises(NotAComplex, match=r"d_1 o d_2 != 0"):
        ChainComplex(QQ, (2, 2, 1), {1: d1, 2: d2})
    cancelling = Mat(2, 1, (((0, 1), (1, -1)),))
    d1 = Mat(1, 2, (((0, 1),), ((0, 1),)))
    assert homology(ChainComplex(ZZ, (1, 2, 1), {1: d1, 2: cancelling})).betti() == (0, 0, 0)


def _groups(summary, top):
    return [(b, t) for b, t in summary.groups[: top + 1]]


@pytest.mark.parametrize(
    "facets, betti, torsion",
    [
        (SPHERE2_FACETS, (1, 0, 1), ((), (), ())),
        (TORUS_FACETS, (1, 2, 1), ((), (), ())),
        (RP2_FACETS, (1, 0, 0), ((), (2,), ())),
    ],
    ids=["sphere", "torus", "rp2"],
)
def test_cellular_nerve_and_morse_routes_agree(facets, betti, torsion):
    cx = simplicial_to_complex(facets)
    signs = assign_incidence_signs(cx)
    matching = random_acyclic_matching(random.Random(len(facets)), cx)
    skel = geometric_nerve(entrance_path_category(cx), 3)  # simplices through dim 3 give H_0..H_2
    counts = morse_chain_complex(cx, signs, None, matching).chain  # constant coefficients, over Z
    for ring in (ZZ, QQ, PrimeField(2), PrimeField(3)):
        cellular = homology(cellular_chain_complex(cx, signs, ring))
        nerve = homology(normalized_chain_complex(skel, ring))
        mc = morse_chain_complex(cx, signs, constant_cosheaf(cx, ring), matching)
        assert sum(mc.chain.ranks) < len(cx.cells)
        morse = homology(mc.chain)
        assert homology(counts.over(ring)).groups == morse.groups
        assert _groups(nerve, 2) == _groups(cellular, 2) == _groups(morse, 2)
    morse_z = homology(morse_chain_complex(cx, signs, constant_cosheaf(cx, ZZ), matching).chain)
    assert morse_z.betti() == betti
    assert morse_z.torsion() == torsion


@pytest.mark.parametrize("facets", [SPHERE2_FACETS, TORUS_FACETS, RP2_FACETS], ids=["sphere", "torus", "rp2"])
def test_flow_nerve_route_agrees_with_cellular(facets):
    cx = simplicial_to_complex(facets)
    signs = assign_incidence_signs(cx)
    En = entrance_path_category(cx)
    ms = matching_to_morse_system(cx, random_acyclic_matching(random.Random(len(facets)), cx), En)
    skel = geometric_nerve(flow_category(En, ms, None).category, 3)  # H_0..H_2
    for ring in (ZZ, QQ):
        cellular = homology(cellular_chain_complex(cx, signs, ring))
        assert _groups(homology(normalized_chain_complex(skel, ring)), 2) == _groups(cellular, 2)


def test_flow_nerve_route_agrees_with_cellular_on_the_3_sphere():
    cx = simplicial_to_complex(list(combinations(range(1, 6), 4)))  # the boundary of the 4-simplex
    En = entrance_path_category(cx)
    ms = matching_to_morse_system(cx, random_acyclic_matching(random.Random(5), cx), En)
    skel = geometric_nerve(flow_category(En, ms, None).category, 3)  # H_0..H_2
    assert [len(skel.simplices[d]) for d in range(4)] == [4, 480, 3780, 20060]
    cellular = homology(cellular_chain_complex(cx, assign_incidence_signs(cx), QQ))
    assert _groups(homology(normalized_chain_complex(skel, QQ)), 2) == _groups(cellular, 2)


def test_a_z_complex_read_over_each_ring_matches_the_ring_direct_path(monkeypatch):
    # One complex over Z, read over Z, Q, F_2 and F_3 through its invariant
    # factors over Z, against the same complex built and eliminated over each
    # ring (the universal coefficient theorem).
    rings = (ZZ, QQ, PrimeField(2), PrimeField(3))
    cases = []
    for name, fx in sorted(FIXTURES.items()):
        cases.append((f"{name} entrance-path nerve", normalized_chain_complex(
            geometric_nerve(entrance_path_category(fx.complex), 3), ZZ)))
    sphere3 = simplicial_to_complex(list(combinations(range(1, 6), 4)))
    En = entrance_path_category(sphere3)
    ms = matching_to_morse_system(sphere3, random_acyclic_matching(random.Random(5), sphere3), En)
    flow_nerve = geometric_nerve(flow_category(En, ms, None).category, 3)
    cases.append(("3-sphere flow nerve", normalized_chain_complex(flow_nerve, ZZ)))
    for name, facets in (("rp2", RP2_FACETS), ("klein", KLEIN_FACETS)):
        cx = simplicial_to_complex(facets)
        cases.append((f"{name} cellular", cellular_chain_complex(cx, assign_incidence_signs(cx), ZZ)))
    # One cell per degree: RP2 is Z --2--> Z --0--> Z, the Klein bottle Z --(2, 0)--> Z^2 --0--> Z.
    cases.append(("rp2 minimal", ChainComplex(ZZ, (1, 1, 1), {1: Mat.zeros(1, 1), 2: Mat.from_rows([[2]])})))
    cases.append(("klein minimal", ChainComplex(ZZ, (1, 2, 1), {1: Mat.zeros(1, 2), 2: Mat.from_rows([[2], [0]])})))
    rng = random.Random(13)
    for k in range(60):
        cc, expected = random_integer_complex(rng)
        for ring in rings:
            assert homology(cc.over(ring)).groups == expected[ring.name], (k, ring)
        cases.append((f"random {k}", cc))
    diagonalized = []
    monkeypatch.setattr("morseflow.rings._non_unit_factors",
                        lambda *core: diagonalized.append(core) or _non_unit_factors(*core))
    with_core = set()
    for name, cc in cases:
        diagonalized.clear()
        for n in range(1, cc.top + 1):
            eliminate(cc.boundary(n), ZZ)
        if diagonalized:
            with_core.add(name)
        for ring in rings:
            got = homology(cc.over(ring))
            assert got.ring_name == ring.name
            assert got.groups == homology_reference(cc, ring).groups, (name, ring)
    # torsion leaves rows with no unit entry, and the non-unit phase diagonalizes them
    assert {"rp2 cellular", "klein cellular", "rp2 minimal", "klein minimal"} <= with_core
    assert len(with_core) >= 40


def test_the_integer_d_o_d_check_is_stronger_than_any_field_check():
    # d_1 o d_2 = 2 e: zero over F_2, not over Z.
    d1 = Mat.from_rows([[1, 1]])
    d2 = Mat.from_rows([[1], [1]])
    assert ChainComplex(PrimeField(2), (1, 2, 1), {1: d1, 2: d2}).ranks == (1, 2, 1)
    with pytest.raises(NotAComplex, match=r"d_1 o d_2 != 0"):
        ChainComplex(ZZ, (1, 2, 1), {1: d1, 2: d2})
