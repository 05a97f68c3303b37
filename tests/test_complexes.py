import random
import re
from itertools import combinations, permutations

import pytest

from morseflow import (
    Cell,
    Complex,
    Matching,
    QQ,
    SignInconsistency,
    ZZ,
    assign_incidence_signs,
    cellular_chain_complex,
    homology,
    normalized_chain_complex,
    order_complex,
    validate_complex,
)

from helpers import (
    RP2_FACETS,
    SPHERE2_FACETS,
    TORUS_FACETS,
    assign_incidence_signs_reference,
    coned_complex,
    cycle_graph_complex,
    diamonds_reference,
    face_relation_reference,
    random_acyclic_matching,
    random_complex,
    simplicial_to_complex,
    validate_complex_reference,
)
from morseflow.cli import main
from morseflow.fixtures import FIXTURES, fig2_complex, sphere_complex


def test_sphere_is_valid():
    assert validate_complex(sphere_complex()).ok


def test_edge_with_one_vertex_face_is_invalid():
    cx = Complex([Cell("v", 0), Cell("e", 1)], [("e", "v")])
    report = validate_complex(cx)
    assert not report.ok
    assert any(f.code == "edge_faces" for f in report.findings)


def test_three_intermediates_breaks_diamond():
    # a third edge between the top cell t and the vertex w of the sphere
    base = sphere_complex()
    cells = list(base.cells) + [Cell("e", 1)]
    covers = list(base.covers) + [("t", "e"), ("e", "w"), ("e", "y")]
    report = validate_complex(Complex(cells, covers))
    assert any(f.code == "diamond" for f in report.findings)


def test_grading_violation_reported():
    cx = Complex([Cell("v", 0), Cell("f", 2)], [("f", "v")])
    report = validate_complex(cx)
    assert any(f.code == "grading" for f in report.findings)
    # findings come in sorted cover order, not in the order of the upper cells' dimensions
    cx = Complex([Cell("a", 3), Cell("b", 0), Cell("z", 2)], [("z", "b"), ("a", "b")])
    assert [f.witness for f in validate_complex(cx).findings] == [("a", "b"), ("z", "b")]


def test_json_round_trip():
    cx = sphere_complex()
    again = Complex.from_json(cx.to_json())
    assert again.covers == cx.covers
    assert [c.id for c in again.cells] == [c.id for c in cx.cells]


def test_json_diagnostics():
    with pytest.raises(ValueError, match="line"):
        Complex.from_json("{not json")
    with pytest.raises(ValueError, match="cells\\[0\\]"):
        Complex.from_json('{"cells": [{"id": "a"}], "covers": []}')
    with pytest.raises(ValueError, match="duplicate"):
        Complex.from_json('{"cells": [{"id": "a", "dim": 0}, {"id": "a", "dim": 0}], "covers": []}')


_CELLS = '"cells": [{"id": "v", "dim": 0}, {"id": "e", "dim": 1}]'


@pytest.mark.parametrize("text, message", [
    ("{not json", "invalid JSON at line 1, column 2: Expecting property name enclosed in double quotes"),
    ("[1, 2]", "top level must be an object"),
    ('{"cells": []}', "missing field 'covers'"),
    ('{"cells": [{"id": "a"}], "covers": []}', "cells[0]: expected {'id': str, 'dim': int} ('dim')"),
    ('{"cells": [{"id": "a", "dim": "x"}], "covers": []}',
     "cells[0]: expected {'id': str, 'dim': int} (invalid literal for int() with base 10: 'x')"),
    ("{" + _CELLS + ', "covers": [["e", "v"], ["e"]]}', "covers[1]: expected [upper, lower]"),
    ("{" + _CELLS + ', "covers": ["ev"]}', "covers[0]: expected [upper, lower]"),
    ('{"cells": [{"id": "a-b", "dim": 0}], "covers": []}', "bad cell id 'a-b'"),
    ('{"cells": [{"id": "a", "dim": 0}, {"id": "a", "dim": 1}], "covers": []}', "duplicate cell id 'a'"),
    ('{"cells": [{"id": "a", "dim": -1}], "covers": []}', "cell 'a' has negative dimension"),
    ("{" + _CELLS + ', "covers": [["e", "v"], ["e", "w"]]}', "cover ('e', 'w') references unknown cell"),
    ("{" + _CELLS + ', "covers": [["e", 7]]}', "cover ('e', '7') references unknown cell"),
    ("{" + _CELLS + ', "covers": [["x", "v"], ["e", "w"]]}', "cover ('x', 'v') references unknown cell"),
    ('{"cells": 5, "covers": []}', "cells: expected a list"),
    ('{"cells": {"v": 0}, "covers": []}', "cells: expected a list"),
    ("{" + _CELLS + ', "covers": "ev"}', "covers: expected a list"),
    ('{"cells": [{"id": "v", "dim": 0.9}], "covers": []}',
     "cells[0]: expected {'id': str, 'dim': int} (dim 0.9 is not an int)"),
    ('{"cells": [{"id": "v", "dim": 1.0}], "covers": []}',
     "cells[0]: expected {'id': str, 'dim': int} (dim 1.0 is not an int)"),
    ('{"cells": [{"id": "v", "dim": 0}, {"id": "e", "dim": true}], "covers": []}',
     "cells[1]: expected {'id': str, 'dim': int} (dim True is not an int)"),
    ('{"cells": [{"id": null, "dim": 0}], "covers": []}',
     "cells[0]: expected {'id': str, 'dim': int} (id None is neither a str nor an int)"),
    ('{"cells": [{"id": false, "dim": 0}], "covers": []}',
     "cells[0]: expected {'id': str, 'dim': int} (id False is neither a str nor an int)"),
    ('{"cells": [{"id": 1.5, "dim": 0}], "covers": []}',
     "cells[0]: expected {'id': str, 'dim': int} (id 1.5 is neither a str nor an int)"),
    ('{"cells": [{"id": ["v"], "dim": 0}], "covers": []}',
     "cells[0]: expected {'id': str, 'dim': int} (id ['v'] is neither a str nor an int)"),
    # an id is the whole string: a trailing newline is not ignored
    ('{"cells": [{"id": "w", "dim": 0}, {"id": "v\\n", "dim": 0}], "covers": []}', "bad cell id 'v\\n'"),
    ('{"cells": [{"id": "", "dim": 0}], "covers": []}', "bad cell id ''"),
    ('{"cells": [{"id": "v\\u00e9", "dim": 0}], "covers": []}', "bad cell id 'v\u00e9'"),
    # the first faulty entry is named, with its first fault, whichever collection test failed
    ('{"cells": [{"id": "a", "dim": 0}, {"id": "a", "dim": 0}, {"id": "b-c", "dim": 0}], "covers": []}',
     "duplicate cell id 'a'"),
    ('{"cells": [{"id": "a", "dim": -1}, {"id": "a", "dim": 0}], "covers": []}', "cell 'a' has negative dimension"),
    ('{"cells": [{"id": "b", "dim": 0}, {"id": "b", "dim": -1}], "covers": []}', "duplicate cell id 'b'"),
    ('{"cells": [{"id": "c", "dim": 0}, {"id": "a b", "dim": -1}], "covers": []}', "bad cell id 'a b'"),
    ('{"cells": [{"id": 5, "dim": 0}, {"id": 5, "dim": 0}], "covers": []}', "duplicate cell id '5'"),
    ("{" + _CELLS + ', "covers": [["e", "v"], ["e", "x"], ["y", "v"]]}', "cover ('e', 'x') references unknown cell"),
    ('{"cells": [{"id": 5, "dim": 0}, {"id": "v", "dim": 0.5}], "covers": []}',
     "cells[1]: expected {'id': str, 'dim': int} (dim 0.5 is not an int)"),
    ('{"cells": [{"id": "v", "dim": 0.5}, {"id": 5, "dim": 0}], "covers": []}',
     "cells[0]: expected {'id': str, 'dim': int} (dim 0.5 is not an int)"),
    ('{"cells": [{"id": 5, "dim": 0}, {"id": "v"}], "covers": []}', "cells[1]: expected {'id': str, 'dim': int} ('dim')"),
    ('{"cells": [{"id": "v", "dim": 0.5}], "covers": ["x"]}',
     "cells[0]: expected {'id': str, 'dim': int} (dim 0.5 is not an int)"),
    ('{"cells": [{"id": "a-b", "dim": 0}], "covers": ["x"]}', "covers[0]: expected [upper, lower]"),
    ("{" + _CELLS + ', "covers": [["e", "x"], ["e"]]}', "covers[1]: expected [upper, lower]"),
    ("{" + _CELLS + ', "covers": [["e", ["v"]]]}', "cover ('e', \"['v']\") references unknown cell"),
])
def test_complex_input_errors_keep_their_text(text, message):
    with pytest.raises(ValueError) as exc:
        Complex.from_json(text)
    assert str(exc.value) == message


def test_constructor_errors_keep_their_text():
    cases = [
        (([Cell("a b", 0)], []), "bad cell id 'a b'"),
        (([Cell("a", 0), Cell("a", 0)], []), "duplicate cell id 'a'"),
        (([Cell("a", -2)], []), "cell 'a' has negative dimension"),
        (([Cell("a", 0)], [["a", "z"]]), "cover ('a', 'z') references unknown cell"),
        (([Cell("v\n", 0)], []), "bad cell id 'v\\n'"),
        (([Cell("", 0)], []), "bad cell id ''"),
        (([Cell("a", 0), Cell("a", 0), Cell("a b", 0)], []), "duplicate cell id 'a'"),
        (([Cell("a", -1), Cell("a", 0)], []), "cell 'a' has negative dimension"),
        (([Cell("a", 0)], [["a", "z"], ["y", "a"]]), "cover ('a', 'z') references unknown cell"),
        (([("a", 0), ("a b", 1)], []), "bad cell id 'a b'"),
        # covers given as a one-shot iterator are read in full by the entry scan
        (([("12", 0), ("e", 1)], (c for c in [("e", 12), ("e", "z")])), "cover ('e', 'z') references unknown cell"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError) as exc:
            Complex(*args)
        assert str(exc.value) == message
    # ids are stringified: an int id in a cover names the cell of that id
    cx = Complex.from_json('{"cells": [{"id": 12, "dim": 0}, {"id": "e", "dim": 1}], "covers": [["e", 12]]}')
    assert cx.covers == {("e", "12")} and cx.cover_faces == {"12": [], "e": ["12"]}
    gen = Complex([("12", 0), ("e", 1)], (c for c in [("e", 12)]))
    assert gen.covers == cx.covers and gen.cover_faces == cx.cover_faces
    # cells may be given as (id, dim) pairs; they are read back as Cells, by dimension and id
    pairs = Complex([("v", 0), ("e", 1), ("u", 0)], [("e", "v"), ("e", "u")])
    assert pairs.cells == (Cell("u", 0), Cell("v", 0), Cell("e", 1))
    assert [repr(c) for c in pairs.cells] == ["Cell(id='u', dim=0)", "Cell(id='v', dim=0)", "Cell(id='e', dim=1)"]
    assert pairs.cover_faces == Complex(pairs.cells, pairs.covers).cover_faces == {"u": [], "v": [], "e": ["u", "v"]}


def _first_fault_reference(cells, covers):
    """The error text of the first faulty cell or cover, scanned one entry at a time, or None."""
    seen = set()
    for cid, dim in cells:
        if not re.fullmatch(r"[A-Za-z0-9_]+", cid):
            return f"bad cell id {cid!r}"
        if cid in seen:
            return f"duplicate cell id {cid!r}"
        if dim < 0:
            return f"cell {cid!r} has negative dimension"
        seen.add(cid)
    for u, l in covers:
        if str(u) not in seen or str(l) not in seen:
            return f"cover ({str(u)!r}, {str(l)!r}) references unknown cell"
    return None


def test_collection_checks_name_the_first_fault_of_the_entry_scan():
    rng = random.Random(41)
    pool = ["a", "b", "c_1", "D9", "a b", "v\n", "", "\u00e9", "x-y", "7"]
    outcomes = set()
    for _ in range(400):
        cells = [(rng.choice(pool[:4] * 6 + pool[4:]), rng.choice((0, 0, 1, 1, 2, -1))) for _ in range(rng.randint(0, 6))]
        ends = [c for c, _ in cells] + ["zz", 7]
        covers = [[rng.choice(ends), rng.choice(ends)] for _ in range(rng.randint(0, 4))]
        want = _first_fault_reference(cells, covers)
        if want is None:
            cx = Complex(cells, covers)
            assert cx.covers == {(str(u), str(l)) for u, l in covers}
        else:
            with pytest.raises(ValueError) as exc:
                Complex(cells, covers)
            assert str(exc.value) == want
        outcomes.add(want.split(" ")[0] if want else None)
    assert outcomes == {None, "bad", "duplicate", "cell", "cover"}


def test_single_edge_sign_convention():
    cx = Complex([Cell("a", 0), Cell("b", 0), Cell("e", 1)], [("e", "a"), ("e", "b")])
    signs = assign_incidence_signs(cx)
    assert signs("e", "a") == 1
    assert signs("e", "b") == -1


def test_signs_deterministic():
    cx = fig2_complex()
    s1 = assign_incidence_signs(cx)
    s2 = assign_incidence_signs(cx)
    assert s1.sign == s2.sign


def _d_squared_is_zero(cx):
    cc = cellular_chain_complex(cx, assign_incidence_signs(cx), ZZ)
    cc.check_boundary_squares_to_zero()
    return True


def test_fig2_signs_pass_boundary_oracle():
    assert _d_squared_is_zero(fig2_complex())
    assert _d_squared_is_zero(sphere_complex())


def test_random_complexes_signs_pass_boundary_oracle():
    rng = random.Random(23)
    for _ in range(25):
        cx = random_complex(rng)
        assert validate_complex(cx).ok
        assert _d_squared_is_zero(cx)


def test_sphere_homology_ranks():
    cc = cellular_chain_complex(sphere_complex(), assign_incidence_signs(sphere_complex()), ZZ)
    s = homology(cc)
    assert s.betti() == (1, 0, 1)
    assert all(t == () for t in s.torsion())


def test_fig2_homology_ranks():
    cx = fig2_complex()
    s = homology(cellular_chain_complex(cx, assign_incidence_signs(cx), ZZ))
    assert s.betti() == (1, 1, 0)


def test_empty_complex():
    cx = Complex([], [])
    assert validate_complex(cx).ok
    cc = cellular_chain_complex(cx, assign_incidence_signs(cx), ZZ)
    assert homology(cc).betti() == (0,)


def test_cone_over_projective_plane_has_no_orientation():
    # passes the combinatorial proxies but no sign assignment exists
    coned = coned_complex(RP2_FACETS)
    assert validate_complex(coned).ok
    with pytest.raises(SignInconsistency):
        assign_incidence_signs(coned)


def test_cellular_homology_matches_face_poset_order_complex():
    rng = random.Random(5)
    fixtures = [sphere_complex(), fig2_complex()] + [random_complex(rng, 10) for _ in range(8)]
    for cx in fixtures:
        cellular = homology(cellular_chain_complex(cx, assign_incidence_signs(cx), QQ)).betti()
        ids = cx.ids()
        oc = order_complex(ids, lambda a, b: a == b or cx.is_face(b, a))
        barycentric = homology(normalized_chain_complex(oc, QQ)).betti()
        top = max(len(cellular), len(barycentric))
        pad = lambda t: tuple(t) + (0,) * (top - len(t))
        assert pad(cellular) == pad(barycentric)


def _perturbed(rng, cx):
    """The complex with one cover dropped, one added across one dimension, or one across two."""
    covers = sorted(cx.covers)
    kind = rng.randrange(3)
    if kind == 0 and covers:
        covers.remove(rng.choice(covers))
    else:
        drop = 1 if kind == 1 else 2
        pairs = [(u.id, l.id) for u in cx.cells for l in cx.cells
                 if u.dim - l.dim == drop and (u.id, l.id) not in cx.covers]
        if pairs:
            covers.append(rng.choice(pairs))
    return Complex(cx.cells, covers)


def test_validation_and_strict_faces_match_bruteforce_reference():
    rng = random.Random(29)
    cases = [sphere_complex(), fig2_complex()]
    for _ in range(40):
        cx = random_complex(rng)
        cases += [cx, _perturbed(rng, cx), _perturbed(rng, _perturbed(rng, cx))]
    codes = set()
    for cx in cases:
        report = validate_complex(cx)
        assert report.as_dict() == validate_complex_reference(cx).as_dict()
        codes.update(f.code for f in report.findings)
        reach = face_relation_reference(cx.cells, cx.covers)[3]
        for cid in cx.ids():
            assert cx.strict_faces(cid) == sorted(b for a, b in reach if a == cid)
    assert {"grading", "edge_faces", "diamond"} <= codes


def _random_cyclic_complex(rng):
    """Random cells in dimensions 0..2 with covers in any direction, loops included."""
    cells = [Cell(f"c{k}", rng.randint(0, 2)) for k in range(rng.randint(1, 8))]
    return Complex(cells, [(u.id, l.id) for u in cells for l in cells if rng.random() < 0.2])


def _read(cx, what, ids):
    if what == "strict_faces":
        return {a: cx.strict_faces(a) for a in ids}
    return {(a, b) for a in ids for b in ids if cx.is_face(a, b)}


def test_lazy_index_and_face_relation_match_an_eager_reference():
    rng = random.Random(41)
    cases = [Complex([], []), sphere_complex(), fig2_complex()]
    for _ in range(30):
        cx = random_complex(rng)
        cases += [cx, _perturbed(rng, cx), _random_graded_complex(rng), _random_cyclic_complex(rng)]
    cyclic = 0
    for cx in cases:
        ids, by_dim, top, reach = face_relation_reference(cx.cells, cx.covers)
        want = {
            "strict_faces": {a: sorted(b for x, b in reach if x == a) for a in ids},
            "is_face": set(reach),
        }
        as_lists = [[u, l] for u, l in sorted(cx.covers, reverse=True)]
        for order in permutations(want):
            for covers in (cx.covers, as_lists):
                fresh = Complex(reversed(cx.cells), covers)  # nothing read yet
                for what in order:
                    assert _read(fresh, what, ids) == want[what]
                assert fresh.covers == cx.covers
                assert fresh.ids() == ids and fresh.top_dim == top
                assert all(fresh.cells_of_dim(d) == by_dim[d] for d in by_dim)
                assert not fresh.is_face("missing", "missing")
                assert validate_complex(fresh).as_dict() == validate_complex_reference(fresh).as_dict()
        cyclic += any(a == b for a, b in reach)
    assert cases[0].top_dim == -1 and cases[0].ids() == []
    assert cyclic > 10


def _random_graded_complex(rng):
    """Random cells in dimensions 0..3 with random covers one dimension down."""
    cells = [Cell(f"c{k}", rng.randint(0, 3)) for k in range(rng.randint(3, 14))]
    covers = [(u.id, l.id) for u in cells for l in cells if u.dim - l.dim == 1 and rng.random() < 0.5]
    return Complex(cells, covers)


def _relabelled(rng, facets):
    """The facets under a random renaming of their vertices."""
    vertices = sorted({v for f in facets for v in f})
    names = dict(zip(vertices, rng.sample(vertices, len(vertices))))
    return [tuple(names[v] for v in f) for f in facets]


def test_diamonds_match_the_all_pairs_scan():
    rng = random.Random(31)
    cases = [fx.complex for _, fx in sorted(FIXTURES.items())]
    cases += [simplicial_to_complex(RP2_FACETS), coned_complex(RP2_FACETS), coned_complex(TORUS_FACETS)]
    cases += [random_complex(rng) for _ in range(40)] + [_random_graded_complex(rng) for _ in range(200)]
    cases += [_perturbed(rng, _random_graded_complex(rng)) for _ in range(200)]  # mostly ungraded
    middle_counts = set()
    for cx in cases:
        graded = all(cx.dim(u) - cx.dim(l) == 1 for u, l in cx.covers)
        for x in cx.ids():
            got, want = cx.diamonds(x), diamonds_reference(cx, x)
            if not graded:  # a cover that drops two dimensions spans an interval with no middle
                want = [(z, mids) for z, mids in want if mids]
            assert got == want
            middle_counts.update(len(mids) for _, mids in got)
    assert {1, 2, 3} <= middle_counts


def _signs_or_error(assign, cx):
    try:
        return "signs", assign(cx).sign
    except SignInconsistency as exc:
        return "error", str(exc)


def test_signs_match_the_union_find_reference():
    rng = random.Random(37)
    tetrahedra = list(combinations(range(1, 6), 4))
    cases = [fx.complex for _, fx in sorted(FIXTURES.items())]
    cases += [simplicial_to_complex(f) for f in (RP2_FACETS, TORUS_FACETS, SPHERE2_FACETS)]
    cases += [coned_complex(RP2_FACETS), coned_complex(TORUS_FACETS)]
    for _ in range(30):
        cases.append(coned_complex(_relabelled(rng, RP2_FACETS)))
        cases.append(coned_complex(_relabelled(rng, TORUS_FACETS)))
        cases.append(simplicial_to_complex(rng.sample(tetrahedra, rng.randint(1, 4))))
        cases.append(random_complex(rng))
        cases.append(_random_graded_complex(rng))
    messages = set()
    for cx in cases:
        got = _signs_or_error(assign_incidence_signs, cx)
        assert got == _signs_or_error(assign_incidence_signs_reference, cx)
        if got[0] == "error":
            messages.add(got[1].split(" ")[0])
    assert messages == {"complex", "orientation"}
    assert _signs_or_error(assign_incidence_signs, coned_complex(RP2_FACETS)) == (
        "error", "orientation constraints around cone are unsatisfiable at diamond [s4_5, cone]"
    )


def test_cellular_and_morse_runs_walk_only_the_matched_upper_cells(monkeypatch, tmp_path, capsys):
    cx = cycle_graph_complex(40)
    m = random_acyclic_matching(random.Random(3), cx)
    cyclic = Matching(tuple((f"e{i}", f"v{(i + 1) % 40}") for i in range(40)), "classical")
    files = [tmp_path / "complex.json", tmp_path / "matching.json", tmp_path / "cyclic.json"]
    for path, obj in zip(files, (cx, m, cyclic)):
        path.write_text(obj.to_json(), encoding="utf-8")
    walked = []  # the cells whose strict faces are read, as the commands run
    walk = Complex._walk
    monkeypatch.setattr(Complex, "_walk", lambda self, cid: walked.append(cid) or walk(self, cid))
    assert main(["homology", "complex", str(files[0])]) == 0
    assert main(["validate", str(files[0])]) == 0
    assert walked == []
    # an acyclic classical matching is certified on the covers alone
    assert main(["homology", "morse", str(files[0]), str(files[1])]) == 0
    assert walked == []
    # a cycle is named by the strict-face search, which walks matched upper cells only
    assert main(["homology", "morse", str(files[0]), str(files[2])]) == 1
    capsys.readouterr()
    assert walked and set(walked) <= {u for u, _ in cyclic.pairs}
