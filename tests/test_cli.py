import json
import random
from pathlib import Path

import pytest

from morseflow import QQ, constant_cosheaf, entrance_path_category, matching_to_morse_system
from morseflow import cli
from morseflow.cli import main
from morseflow.fixtures import FIXTURES, get_fixture
from morseflow import localization
from morseflow.categories import Morphism
from morseflow.localization import _MoveTable

from helpers import RP2_FACETS, coned_complex, random_acyclic_matching, random_twisted_cosheaf, simplicial_to_complex


@pytest.fixture()
def fixture_files(tmp_path):
    paths = {}
    for name in ("sphere", "fig2", "calc61", "calc62", "calc63"):
        fx = get_fixture(name)
        cx = tmp_path / f"{name}-complex.json"
        cx.write_text(fx.complex.to_json(), encoding="utf-8")
        paths[name] = {"complex": str(cx)}
        if fx.matching is not None:
            m = tmp_path / f"{name}-matching.json"
            m.write_text(fx.matching.to_json(), encoding="utf-8")
            paths[name]["matching"] = str(m)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out) if out else {}


def test_validate_passes_on_fixture(fixture_files, capsys):
    code, doc = run_json(
        capsys, "validate", fixture_files["calc61"]["complex"], fixture_files["calc61"]["matching"]
    )
    assert code == 0
    assert doc["results"]["complex"]["ok"]
    assert doc["results"]["axioms"]["ok"]
    assert doc["results"]["mildness"]["all_mild"]
    assert doc["results"]["critical"] == ["t", "w"]


def test_validate_complex_only(fixture_files, capsys):
    code, doc = run_json(capsys, "validate", fixture_files["sphere"]["complex"])
    assert code == 0
    assert set(doc["results"]) == {"complex"}


def test_validate_reports_cycle(tmp_path, capsys):
    cx = {
        "cells": [{"id": v, "dim": 0} for v in "abc"]
        + [{"id": e, "dim": 1} for e in ("ab", "bc", "ca")],
        "covers": [["ab", "a"], ["ab", "b"], ["bc", "b"], ["bc", "c"], ["ca", "c"], ["ca", "a"]],
    }
    cx_path = tmp_path / "tri.json"
    cx_path.write_text(json.dumps(cx), encoding="utf-8")
    m_path = tmp_path / "m.json"
    m_path.write_text(
        json.dumps({"kind": "classical", "pairs": [["ab", "a"], ["bc", "b"], ["ca", "c"]]}),
        encoding="utf-8",
    )
    code, doc = run_json(capsys, "validate", str(cx_path), str(m_path))
    assert code == 1
    assert not doc["results"]["acyclicity"]["ok"]
    assert doc["results"]["acyclicity"]["findings"][0]["code"] == "cycle"


def test_validate_face_poset_mode_fails_axioms(fixture_files, capsys):
    code, doc = run_json(
        capsys,
        "validate",
        fixture_files["calc62"]["complex"],
        fixture_files["calc62"]["matching"],
        "--category",
        "face-poset",
    )
    assert code == 1
    codes = {f["code"] for f in doc["results"]["axioms"]["findings"]}
    assert {"lifting", "switching"} <= codes


def test_flow_command(fixture_files, capsys):
    code, doc = run_json(
        capsys,
        "flow",
        fixture_files["calc61"]["complex"],
        fixture_files["calc61"]["matching"],
        "--from", "t", "--to", "w",
    )
    assert code == 0
    res = doc["results"]
    assert res["class_count"] == 8
    assert len(res["cover_relations"]) == 8
    assert res["status"] == "complete"
    code, doc = run_json(
        capsys,
        "flow",
        fixture_files["calc61"]["complex"],
        fixture_files["calc61"]["matching"],
        "--from", "w", "--to", "t",
    )
    assert doc["results"]["class_count"] == 0


def test_flow_refuses_an_unknown_cell(fixture_files, capsys):
    files = fixture_files["calc61"]
    for category in ("entrance-path", "face-poset"):
        argv = ["flow", files["complex"], files["matching"], "--from", "nope", "--to", "w", "--category", category]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: zigzag endpoint 'nope' is not an object of the category\n"


def test_flow_face_poset_mode(fixture_files, capsys):
    code, doc = run_json(
        capsys,
        "flow",
        fixture_files["calc62"]["complex"],
        fixture_files["calc62"]["matching"],
        "--from", "t", "--to", "w",
        "--category", "face-poset",
    )
    assert code == 0
    res = doc["results"]
    assert res["class_count"] == 4
    assert "t > z < b > y < x > w" in res["classes"]
    assert doc["warnings"]  # non-mild / axiom warnings surface here


def test_homology_complex(fixture_files, capsys):
    code, doc = run_json(capsys, "homology", "complex", fixture_files["sphere"]["complex"])
    assert code == 0
    assert doc["results"]["homology"]["betti"] == [1, 0, 1]
    assert doc["results"]["homology"]["groups"] == ["Z", "0", "Z"]


def test_homology_nerve_en(fixture_files, capsys):
    code, doc = run_json(
        capsys, "homology", "nerve-en", fixture_files["sphere"]["complex"],
        "--coefficients", "Q", "--max-nerve-dim", "3",
    )
    assert code == 0
    assert doc["results"]["homology"]["betti"] == [1, 0, 1]


def test_homology_nerve_flow_modes(fixture_files, capsys):
    code, doc = run_json(
        capsys, "homology", "nerve-flow",
        fixture_files["calc61"]["complex"], fixture_files["calc61"]["matching"],
        "--max-nerve-dim", "3", "--coefficients", "Q",
    )
    assert code == 0
    assert doc["results"]["homology"]["betti"] == [1, 0, 1]

    code, doc = run_json(
        capsys, "homology", "nerve-flow",
        fixture_files["calc62"]["complex"], fixture_files["calc62"]["matching"],
        "--category", "face-poset", "--coefficients", "Q",
    )
    assert code == 0
    assert doc["results"]["homology"]["betti"] == [1, 0, 0]

    code, doc = run_json(
        capsys, "homology", "nerve-flow",
        fixture_files["calc63"]["complex"], fixture_files["calc63"]["matching"],
        "--max-zigzag-len", "4", "--coefficients", "Q",
    )
    assert code == 0
    assert doc["results"]["status"] == "stable"
    assert doc["results"]["homology"]["betti"] == [1, 0, 1]


def test_nerve_flow_builds_each_flow_nerve_once(fixture_files, capsys, monkeypatch):
    # calc63 stabilizes at bounds 4 and 5; the CLI reads the nerve of the
    # returned flow that the stabilization loop already built.
    from morseflow import nerves

    built = []
    geometric_nerve = nerves.geometric_nerve

    def counting(cat, maxdim):
        built.append(maxdim)
        return geometric_nerve(cat, maxdim)

    monkeypatch.setattr(nerves, "geometric_nerve", counting)
    code, doc = run_json(
        capsys, "homology", "nerve-flow",
        fixture_files["calc63"]["complex"], fixture_files["calc63"]["matching"],
        "--max-zigzag-len", "4",
    )
    assert code == 0 and doc["results"]["status"] == "stable"
    assert doc["results"]["homology"]["betti"] == [1, 0, 1]
    assert built == [3, 3]


def test_nerve_flow_builds_and_checks_each_nerve_complex_once(fixture_files, capsys, monkeypatch):
    # Stabilization reads the bound-5 nerve over Q and the CLI reads it over Z:
    # both read the one complex over Z that the first read built and checked.
    from morseflow import nerves
    from morseflow.homology import ChainComplex

    skeletons, checked, reads = [], [], []
    geometric_nerve, homology = nerves.geometric_nerve, nerves.homology
    check = ChainComplex.check_boundary_squares_to_zero

    def counting_nerve(cat, maxdim):
        skeletons.append(geometric_nerve(cat, maxdim))
        return skeletons[-1]

    def counting_check(cc):
        checked.append(cc)
        check(cc)

    def counting_homology(cc):
        reads.append(cc)
        return homology(cc)

    monkeypatch.setattr(nerves, "geometric_nerve", counting_nerve)
    monkeypatch.setattr(ChainComplex, "check_boundary_squares_to_zero", counting_check)
    monkeypatch.setattr(nerves, "homology", counting_homology)
    code, doc = run_json(
        capsys, "homology", "nerve-flow",
        fixture_files["calc63"]["complex"], fixture_files["calc63"]["matching"],
        "--max-zigzag-len", "4",
    )
    assert code == 0 and doc["results"]["status"] == "stable"
    assert doc["results"]["homology"]["betti"] == [1, 0, 1]
    last = skeletons[-1]._chain  # the bound-5 nerve's complex
    assert [(cc.ring.name, cc.coefficients.name) for cc in reads if cc.boundaries is last.boundaries] == [
        ("Z", "Q"), ("Z", "Z")]
    assert sum(cc.boundaries is last.boundaries for cc in checked) == 1
    assert len(checked) == len(skeletons) == 2  # every complex built is checked: one per skeleton


def test_homology_morse(fixture_files, capsys):
    code, doc = run_json(
        capsys, "homology", "morse",
        fixture_files["fig2"]["complex"], fixture_files["fig2"]["matching"],
        "--coefficients", "Z",
    )
    assert code == 0
    assert doc["results"]["homology"]["groups"][:2] == ["Z", "Z"]
    assert doc["results"]["generators"]["0"] == ["w"]
    assert doc["results"]["generators"]["1"] == ["yz"]


def test_homology_morse_reads_over_every_ring_and_keeps_a_cosheaf_ring(tmp_path, capsys):
    # without a cosheaf the Morse complex is over Z and read over the ring asked for,
    # torsion included; a cosheaf's complex stays over the cosheaf's ring
    cx = simplicial_to_complex(RP2_FACETS)
    files = {
        "rp2.json": cx,
        "m.json": random_acyclic_matching(random.Random(10), cx),
        "co.json": random_twisted_cosheaf(random.Random(10), cx, QQ),
    }
    for name, obj in files.items():
        (tmp_path / name).write_text(obj.to_json(), encoding="utf-8")
    rp2, m, co = (str(tmp_path / name) for name in files)
    want = {"Z": ["Z", "Z/2", "0"], "Q": ["Q", "0", "0"], "Fp:2": ["Fp:2", "Fp:2", "Fp:2"], "Fp:3": ["Fp:3", "0", "0"]}
    for ring, groups in want.items():
        code, doc = run_json(capsys, "homology", "morse", rp2, m, "--coefficients", ring)
        assert code == 0
        assert doc["results"]["homology"]["groups"] == groups
        code, doc = run_json(capsys, "homology", "morse", rp2, m, co, "--coefficients", ring)
        assert code == 0
        assert (doc["results"]["homology"]["ring"], doc["results"]["homology"]["betti"]) == ("Q", [1, 0, 0])


def test_homology_cosheaf(fixture_files, tmp_path, capsys):
    fx = get_fixture("sphere")
    from morseflow import QQ, constant_cosheaf

    co = tmp_path / "cosheaf.json"
    co.write_text(constant_cosheaf(fx.complex, QQ).to_json(), encoding="utf-8")
    code, doc = run_json(
        capsys, "homology", "cosheaf", fixture_files["sphere"]["complex"], str(co)
    )
    assert code == 0
    assert doc["results"]["homology"]["betti"] == [1, 0, 1]


def test_json_output_is_deterministic(fixture_files, capsys):
    args = (
        "flow",
        fixture_files["calc61"]["complex"],
        fixture_files["calc61"]["matching"],
        "--from", "t", "--to", "w",
        "--format", "json",
    )
    _, out1 = run(capsys, *args)
    _, out2 = run(capsys, *args)
    assert out1 == out2


def test_singular_matched_extension_exit_code(fixture_files, tmp_path, capsys):
    co = tmp_path / "singular.json"
    co.write_text(
        json.dumps(
            {
                "ring": "Z",
                "stalks": {c: 1 for c in "wxyztb"},
                "maps": {
                    "x>w": [[1]], "x>y": [[0]], "z>w": [[1]], "z>y": [[0]],
                    "t>x": [[1]], "t>z": [[1]], "b>x": [[1]], "b>z": [[1]],
                },
            }
        ),
        encoding="utf-8",
    )
    m = tmp_path / "m.json"
    m.write_text(json.dumps({"kind": "classical", "pairs": [["x", "y"]]}), encoding="utf-8")
    code, _ = run(capsys, "homology", "morse", fixture_files["sphere"]["complex"], str(m), str(co))
    assert code == 2


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    code, _ = run(capsys, "validate", str(bad))
    assert code == 1


def test_prime_coefficients_exit_codes(fixture_files, capsys):
    sphere = fixture_files["sphere"]["complex"]
    code, doc = run_json(capsys, "homology", "complex", sphere, "--coefficients", "Fp:2305843009213693951")
    assert code == 0
    assert doc["results"]["homology"]["betti"] == [1, 0, 1]
    for p in (561, 2**89 - 1):  # a Carmichael number; a prime beyond the certified range
        assert run(capsys, "homology", "complex", sphere, "--coefficients", f"Fp:{p}") == (1, "")


def test_fixture_dump_and_list(tmp_path, capsys):
    code, doc = run_json(capsys, "fixture", "list")
    assert code == 0
    assert "calc61" in doc["results"]["fixtures"]
    code, doc = run_json(capsys, "fixture", "dump", "sphere", str(tmp_path))
    assert code == 0
    assert (tmp_path / "sphere-complex.json").exists()


def test_every_fixture_runs_to_a_classified_exit(tmp_path, capsys):
    for name, fx in FIXTURES.items():
        files = {"complex": str(tmp_path / f"{name}-complex.json")}
        Path(files["complex"]).write_text(fx.complex.to_json(), encoding="utf-8")
        calls = [("validate", files["complex"])]
        if fx.matching is not None:
            files["matching"] = str(tmp_path / f"{name}-matching.json")
            Path(files["matching"]).write_text(fx.matching.to_json(), encoding="utf-8")
            critical = matching_to_morse_system(
                fx.complex, fx.matching, entrance_path_category(fx.complex)
            ).critical
            calls += [
                ("validate", files["complex"], files["matching"]),
                ("flow", files["complex"], files["matching"], "--from", critical[0], "--to", critical[-1]),
                ("homology", "nerve-flow", files["complex"], files["matching"]),
            ]
        for call in calls:
            for category in ("entrance-path", "face-poset"):
                code, _ = run(capsys, *call, "--category", category)
                assert code in (0, 1, 2), (call, category)


def test_missing_atom_is_bad_input(fixture_files, capsys):
    files = fixture_files["calc63"]
    code = main(["validate", files["complex"], files["matching"], "--category", "face-poset"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: hom(b, y) has no atom\n"


def test_out_of_memory_is_one_error_line_and_exit_2(fixture_files, capsys, monkeypatch):
    def exhausted(complex_):
        raise MemoryError

    monkeypatch.setattr(cli, "entrance_path_category", exhausted)
    files = fixture_files["calc63"]
    for argv in (["validate", files["complex"], files["matching"]], ["homology", "nerve-en", files["complex"]]):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.err) == (2, "error: out of memory\n")
        assert captured.out == ""


def test_out_of_range_bounds_exit_1(fixture_files, capsys):
    files = fixture_files["calc63"]
    flow = ("flow", files["complex"], files["matching"], "--from", "t", "--to", "w")
    assert run(capsys, *flow, "--max-zigzag-len", "-1") == (1, "")
    code, doc = run_json(capsys, *flow, "--max-zigzag-len", "0")
    assert code == 0
    assert doc["results"]["class_count"] == 10
    for mode in ("nerve-en", "nerve-flow"):
        argv = ("homology", mode, files["complex"], files["matching"])
        assert run(capsys, *argv, "--max-nerve-dim", "0") == (1, "")
    assert run(capsys, "homology", "nerve-en", files["complex"], "--max-nerve-dim", "1")[0] == 0


def _drop_the_chainless_blocks(monkeypatch):
    """Make every enumeration that holds a longer Σ-chain drop the block of the
    empty chain from its grid's chain index, so a contraction onto a zigzag
    with no backward arrow lands on no block."""
    enumerate_zigzags = localization.enumerate_zigzags

    def dropping(*args):
        zigzags = enumerate_zigzags(*args)
        if len(zigzags.grid.blocks) > 1:
            zigzags.grid.of_chain.pop((), None)
        return zigzags

    monkeypatch.setattr(localization, "enumerate_zigzags", dropping)


def _phantom_steps(monkeypatch):
    """Make every single-slot step of the move table also reach a morphism with
    the same endpoints that its hom-poset does not hold."""
    larger = _MoveTable._larger

    def phantom(self, g):
        m = self._morphisms[g]
        return larger(self, g) + [self._id(Morphism(m.source, m.target, m.label[:1] + ("phantom",) + m.label[1:]))]

    monkeypatch.setattr(_MoveTable, "_larger", phantom)


def _exit_2_with_one_error_line(capsys, argv, message):
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_a_contraction_outside_the_enumerated_set_exits_2(fixture_files, capsys, monkeypatch):
    files = fixture_files["calc61"]
    _drop_the_chainless_blocks(monkeypatch)
    flow = ("flow", files["complex"], files["matching"], "--from", "t", "--to", "w")
    _exit_2_with_one_error_line(capsys, flow, "error: contraction left the enumerated set: Zigzag('t > z > w')\n")


def test_a_step_outside_the_enumerated_set_exits_2(fixture_files, capsys, monkeypatch):
    files = fixture_files["calc61"]
    _phantom_steps(monkeypatch)
    flow = ("flow", files["complex"], files["matching"], "--from", "t", "--to", "w")
    _exit_2_with_one_error_line(capsys, flow, "error: Zigzag('t > phantom > w')\n")  # the zigzag the step reached


def test_a_composite_outside_the_enumerated_range_exits_2(fixture_files, capsys, monkeypatch):
    files = fixture_files["calc61"]
    monkeypatch.setattr(_MoveTable, "reduce", lambda self, key: key + key)
    nerve = ("homology", "nerve-flow", files["complex"], files["matching"])
    _exit_2_with_one_error_line(capsys, nerve, "composite zigzag leaves the enumerated range; raise the length bound")


def _write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_invalid_complexes_exit_1_without_traceback(tmp_path, capsys):
    edge = {"cells": [{"id": "v", "dim": 0}, {"id": "e", "dim": 1}], "covers": [["e", "v"]]}
    loop = {"cells": [{"id": "a", "dim": 0}, {"id": "b", "dim": 0}], "covers": [["a", "b"], ["b", "a"]]}
    cone = json.loads(coned_complex(RP2_FACETS).to_json())
    empty_matching = _write_json(tmp_path / "m.json", {"kind": "classical", "pairs": []})
    cases = []
    for stem, doc, reason in (
        ("edge", edge, "complex fails validation: edge_faces: edge e has 1 vertex faces"),
        ("loop", loop, "complex fails validation: grading: cover (a, b) drops dimension by 0"),
        ("cone", cone, "orientation constraints around cone are unsatisfiable at diamond [s4_5, cone]"),
    ):
        cx = _write_json(tmp_path / f"{stem}.json", doc)
        stalks = {c["id"]: 1 for c in doc["cells"]}
        cosheaf = _write_json(tmp_path / f"{stem}-c.json", {"ring": "Z", "stalks": stalks, "maps": {}})
        cases += [
            (reason, ("homology", "complex", cx)),
            (reason, ("homology", "cosheaf", cx, cosheaf)),
            (reason, ("homology", "morse", cx, empty_matching)),
        ]
        if stem != "cone":  # the cone passes validation, so its categories exist
            first, last = doc["cells"][0]["id"], doc["cells"][-1]["id"]
            cases += [
                (reason, ("homology", "nerve-en", cx)),
                (reason, ("homology", "nerve-flow", cx, empty_matching)),
                (reason, ("flow", cx, empty_matching, "--from", last, "--to", first)),
            ]
    for reason, argv in cases:
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 1, argv
        assert captured.out == ""
        assert captured.err.startswith(f"error: {reason}"), argv
        assert "Traceback" not in captured.err


def test_modes_without_their_second_file_exit_1(fixture_files, capsys):
    cx = fixture_files["calc61"]["complex"]
    for mode, needs in (("nerve-flow", "matching"), ("cosheaf", "cosheaf"), ("morse", "matching")):
        code = main(["homology", mode, cx])
        captured = capsys.readouterr()
        assert code == 1, mode
        assert captured.out == ""
        assert captured.err == f"error: mode {mode} needs a {needs} file\n"


def test_validate_reports_missing_incidence_signs(tmp_path, capsys):
    cone = _write_json(tmp_path / "cone.json", json.loads(coned_complex(RP2_FACETS).to_json()))
    code, doc = run_json(capsys, "validate", cone)
    assert code == 1
    assert doc["results"]["complex"] == {
        "ok": False,
        "findings": [
            {
                "code": "orientation",
                "message": "orientation constraints around cone are unsatisfiable at diamond [s4_5, cone]",
                "witness": [],
            }
        ],
    }


def test_missing_cosheaf_data_and_unknown_fixtures_are_named(fixture_files, tmp_path, capsys):
    fig2 = fixture_files["fig2"]
    stalks = {c.id: 1 for c in get_fixture("fig2").complex.cells}
    no_maps = _write_json(tmp_path / "no-maps.json", {"ring": "Z", "stalks": stalks, "maps": {}})
    code = main(["homology", "morse", fig2["complex"], fig2["matching"], no_maps])
    assert code == 1
    assert capsys.readouterr().err == "error: cosheaf has no extension map for cover wx>x\n"
    # the transport reads the stalk of the critical cell t first, and names it as it did before the diamond check
    calc61 = fixture_files["calc61"]
    doc = json.loads(constant_cosheaf(get_fixture("calc61").complex, QQ).to_json())
    del doc["stalks"]["t"]
    no_t = _write_json(tmp_path / "no-t.json", dict(doc, maps=dict(doc["maps"], **{"t>x": [[]], "t>z": [[]]})))
    assert main(["homology", "morse", calc61["complex"], calc61["matching"], no_t]) == 1
    assert capsys.readouterr().err == "error: cosheaf has no stalk rank for cell t\n"
    code = main(["fixture", "dump", "nope", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == f"error: unknown fixture 'nope'; available: {sorted(FIXTURES)}\n"
    from morseflow import ZZ, Cosheaf

    with pytest.raises(ValueError, match="no stalk rank for cell x"):
        Cosheaf(ZZ, {}, {}).stalk("x")


def test_both_cosheaf_routes_refuse_a_non_commuting_cosheaf_alike(fixture_files, tmp_path, capsys):
    calc61 = fixture_files["calc61"]
    doc = json.loads(constant_cosheaf(get_fixture("calc61").complex, QQ).to_json())
    doc["maps"]["x>w"] = [[7]]  # diamonds [w, b] and [w, t] no longer commute
    broken = _write_json(tmp_path / "x7.json", doc)
    del doc["maps"]["t>x"]  # and a cover map that no gradient path reads is missing
    missing = _write_json(tmp_path / "no-tx.json", dict(doc, maps=dict(doc["maps"], **{"x>w": [[1]]})))
    for cosheaf, line in (
        (broken, "error: cosheaf fails validation: functoriality: diamond [w, b] does not commute (via x vs z); "
                 "functoriality: diamond [w, t] does not commute (via x vs z)\n"),
        (missing, "error: cosheaf fails validation: maps: no extension map for cover ('t', 'x')\n"),
    ):
        for argv in (["cosheaf", calc61["complex"], cosheaf], ["morse", calc61["complex"], calc61["matching"], cosheaf]):
            assert main(["homology", *argv]) == 1
            assert capsys.readouterr() == ("", line)



def test_both_cosheaf_routes_refuse_a_cover_without_a_map_out_of_a_zero_stalk(fixture_files, tmp_path, capsys):
    # the stalk of t is 0, so no generator reads the maps t>x and t>z, yet they are missing
    calc61 = fixture_files["calc61"]
    doc = json.loads(constant_cosheaf(get_fixture("calc61").complex, QQ).to_json())
    doc["stalks"]["t"] = 0
    del doc["maps"]["t>x"], doc["maps"]["t>z"]
    cosheaf = _write_json(tmp_path / "zero-t.json", doc)
    line = ("error: cosheaf fails validation: maps: no extension map for cover ('t', 'x'); "
            "maps: no extension map for cover ('t', 'z')\n")
    for argv in (["cosheaf", calc61["complex"], cosheaf], ["morse", calc61["complex"], calc61["matching"], cosheaf]):
        assert main(["homology", *argv]) == 1
        assert capsys.readouterr() == ("", line)

def test_repeated_json_keys_are_refused_naming_the_key(fixture_files, tmp_path, capsys):
    calc61 = fixture_files["calc61"]
    text = constant_cosheaf(get_fixture("calc61").complex, QQ).to_json()
    cosheaf = tmp_path / "repeated.json"
    cosheaf.write_text(text.replace('"x>w": [', '"x>w": [\n      [\n        7\n      ]\n    ],\n    "x>w": [', 1))
    matching = tmp_path / "repeated-m.json"
    matching.write_text('{"kind": "classical", "pairs": [["x", "y"]], "pairs": [["b", "z"]]}')
    complex_ = tmp_path / "repeated-cx.json"
    complex_.write_text(Path(calc61["complex"]).read_text().replace('"dim": 0', '"dim": 0, "dim": 1', 1))
    for argv, key in (
        (["homology", "cosheaf", calc61["complex"], str(cosheaf)], "x>w"),
        (["homology", "morse", calc61["complex"], calc61["matching"], str(cosheaf)], "x>w"),
        (["homology", "morse", calc61["complex"], str(matching)], "pairs"),
        (["validate", calc61["complex"], str(matching)], "pairs"),
        (["validate", str(complex_)], "dim"),
    ):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: repeated key {key!r} in a JSON object\n")


def test_a_cosheaf_without_stalks_and_maps_exits_1_naming_them(fixture_files, tmp_path, capsys):
    cosheaf = _write_json(tmp_path / "w-only.json", {"ring": "Z", "stalks": {"w": 1}, "maps": {}})
    code = main(["homology", "cosheaf", fixture_files["calc61"]["complex"], cosheaf])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: cosheaf fails validation: stalks: no stalk rank for cell ")
    for cell in "btxyz":
        assert f"no stalk rank for cell {cell};" in line
    assert line.endswith("maps: no extension map for cover ('z', 'y')")


def test_unknown_cells_in_matching_and_cosheaf_files_are_bad_input(fixture_files, tmp_path, capsys):
    sphere = fixture_files["sphere"]["complex"]
    matching = _write_json(tmp_path / "unknown-m.json", {"kind": "classical", "pairs": [["x", "nope"]]})
    for argv in (["validate", sphere, matching], ["flow", sphere, matching, "--from", "t", "--to", "w"],
                 ["homology", "nerve-flow", sphere, matching], ["homology", "morse", sphere, matching]):
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: pair (x, nope) references an unknown cell\n"
    cosheaf = _write_json(tmp_path / "unknown-c.json", {"ring": "Z", "stalks": {"nope": 1}, "maps": {"nope>w": [[1]]}})
    assert main(["homology", "cosheaf", sphere, cosheaf]) == 1
    assert capsys.readouterr().err == "error: maps['nope>w'] has shape 1x1, expected 0x1\n"


@pytest.mark.parametrize("cosheaf, detail", [
    ({"stalks": [1]}, "stalks and maps must be objects"),
    ({"stalks": {"w": 1}, "maps": []}, "stalks and maps must be objects"),
    ({"stalks": {"w": 1}, "maps": {"t>w": [1]}}, "maps must be lists of rows, each a list"),
    ({"stalks": {"w": 1}, "maps": {"t>w": 1}}, "maps must be lists of rows, each a list"),
    ({"stalks": {"w": True}}, "stalk ranks must be non-negative ints"),
    ({"stalks": {"w": 1.9}}, "stalk ranks must be non-negative ints"),
    ({"stalks": {"w": "1"}}, "stalk ranks must be non-negative ints"),
    ({"stalks": {"w": -1}, "maps": {"t>w": [[1]]}}, "stalk ranks must be non-negative ints"),
    ({"ring": 5, "stalks": {}}, "unknown ring 5; expected Z, Q or Fp:<p>"),
    ({"ring": None, "stalks": {}}, "unknown ring None; expected Z, Q or Fp:<p>"),
    ({"ring": ["Z"], "stalks": {}}, "unknown ring ['Z']; expected Z, Q or Fp:<p>"),
])
def test_malformed_cosheaf_files_are_bad_input(fixture_files, tmp_path, capsys, cosheaf, detail):
    path = _write_json(tmp_path / "bad-c.json", {"ring": "Z", **cosheaf})
    assert main(["homology", "cosheaf", fixture_files["sphere"]["complex"], path]) == 1
    assert capsys.readouterr().err == f"error: cosheaf file: bad ring or stalks ({detail})\n"


@pytest.mark.parametrize("ring, entry, message", [
    ("Z", "1/0", "1/0 has a denominator that is 0 or not invertible in Z"),
    ("Fp:3", "1/3", "1/3 has a denominator that is 0 or not invertible in Fp:3"),
    ("Z", "1/2", "1/2 is not an integer"),
    ("Q", "1.5", "maps['t>x'][0][0]: '1.5' is not an integer or a 'p/q' fraction"),
])
@pytest.mark.parametrize("mode", ["cosheaf", "morse"])
def test_cosheaf_entries_outside_the_ring_are_bad_input(fixture_files, tmp_path, capsys, ring, entry, message, mode):
    calc61 = fixture_files["calc61"]
    cx = get_fixture("calc61").complex
    maps = {f"{u}>{l}": [[1]] for u, l in cx.covers}
    maps["t>x"] = [[entry]]
    path = _write_json(tmp_path / "bad-entry.json", {"ring": ring, "stalks": {c.id: 1 for c in cx.cells}, "maps": maps})
    files = [calc61["complex"], path] if mode == "cosheaf" else [calc61["complex"], calc61["matching"], path]
    assert main(["homology", mode, *files]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("mode", ["cosheaf", "morse"])
def test_two_map_keys_naming_one_cover_are_bad_input(fixture_files, tmp_path, capsys, mode):
    # "x > w" names the cover of "x>w" after stripping: neither map is kept silently
    calc61 = fixture_files["calc61"]
    cx = get_fixture("calc61").complex
    maps = {f"{u}>{l}": [[1]] for u, l in cx.covers}
    maps["x > w"] = [[7]]
    path = _write_json(tmp_path / "twice.json", {"ring": "Q", "stalks": {c.id: 1 for c in cx.cells}, "maps": maps})
    files = [calc61["complex"], path] if mode == "cosheaf" else [calc61["complex"], calc61["matching"], path]
    assert main(["homology", mode, *files]) == 1
    assert capsys.readouterr().err == "error: maps keys 'x>w' and 'x > w' both name the cover x>w\n"


@pytest.mark.parametrize("pairs", [
    ["xy", "bz"],
    {"xy": 1},
    "xy",
    [["x", "y", "b"]],
    [["x", True]],
    [["x", None]],
    [["x", 1.5]],
    [("x", "y"), {"b": "z"}],
    [["x", "y"], [False, "b"]],
    [["x", 1], ["b", True]],
    [["x", "y"], ["b"]],
    [["x", "y"], "bz"],
])
def test_malformed_matching_files_are_bad_input(fixture_files, tmp_path, capsys, pairs):
    sphere = fixture_files["sphere"]["complex"]
    path = _write_json(tmp_path / "bad-m.json", {"kind": "classical", "pairs": pairs})
    for argv in (["validate", sphere, path], ["homology", "morse", sphere, path]):
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: matching file: expected kind and pairs"
            " (pairs must be a list of [upper, lower] ids, each a str or an int)\n"
        )


def test_an_internal_key_error_is_not_reported_as_bad_input(fixture_files, monkeypatch):
    # exit 1 means bad input; a lookup that fails inside the computation is a bug
    def lookup_bug(cat, maxdim):
        raise KeyError("internal")

    monkeypatch.setattr("morseflow.cli.geometric_nerve", lookup_bug)
    with pytest.raises(KeyError):
        main(["homology", "nerve-en", fixture_files["sphere"]["complex"]])
