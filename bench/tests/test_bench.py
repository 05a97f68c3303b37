"""Tests of the benchmark's own parts: span arithmetic, generators, oracles and tracing."""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import generators as gen  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

import morseflow.cli  # noqa: E402  (also imports morseflow.fixtures)
from morseflow import Complex, Matching, check_acyclic, validate_complex  # noqa: E402
from morseflow.cosheaves import Cosheaf, validate_cosheaf  # noqa: E402
from morseflow.rings import mat_inverse  # noqa: E402

SURFACES = {
    "torus": gen.grid_surface(4, 4, klein=False),
    "klein": gen.grid_surface(4, 4, klein=True),
    "klein_3x5": gen.grid_surface(3, 5, klein=True),
    "rp2": gen.rp2(),
}


def _complex(cx) -> Complex:
    return Complex.from_json(json.dumps(cx.doc()))


def test_self_times_and_layer_metrics_on_a_synthetic_span_tree():
    spans = [
        ["cli", "cli.main", -1, 0.0, 10.0, 0, None],
        ["localization", "localization.flow_category", 0, 1.0, 6.0, 0, None],
        ["categories", "categories.HomPoset.build", 1, 2.0, 3.0, 0, None],
        ["trace", "count", 0, 6.0, 6.5, 0, None],
        ["homology", "homology.homology", 0, 7.0, 9.0, 0, "NotAComplex"],
        ["homology", "homology.ChainComplex.check_boundary_squares_to_zero", 4, 7.25, 8.75, 0, "NotAComplex"],
        ["rings", "rings.Mat.mul", 5, 7.5, 8.5, 0, None],
    ]
    assert tracing.self_times(spans) == [2.5, 4.0, 1.0, 0.5, 0.5, 0.5, 1.0]
    m = tracing.layer_metrics(spans, {"localization.zigzags": 8, "localization.classes": 2})
    assert m["cli.self_s"] == 2.5
    assert m["localization.self_s"] == 4.0
    assert m["categories.self_s"] == 1.0
    assert m["homology.self_s"] == 1.0
    assert m["homology.dd_check_s"] == 1.5  # inclusive of the nested product
    assert m["rings.mat_mul_s"] == 1.0
    assert m["homology.errors"] == 1  # counted once, where it leaves the layer
    assert m["localization.class_yield"] == 0.25
    assert m["nerves.nondegenerate_ratio"] == 0.0  # no simplices: no ratio


@pytest.mark.parametrize(
    "cx", [gen.boundary_simplex(3), gen.boundary_simplex(4), gen.cycle_graph(12), *SURFACES.values()]
)
def test_generated_complexes_are_valid(cx):
    assert validate_complex(_complex(cx)).ok


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_surfaces_have_the_topology_the_oracle_assumes(name, tmp_path):
    space = name.split("_")[0]
    report = _cli_json(["homology", "complex", _write(tmp_path / "cx.json", SURFACES[name].doc())])
    betti, torsion = oracles.expected_homology(space, "Z")
    assert report["results"]["homology"]["betti"] == betti
    assert report["results"]["homology"]["torsion"] == torsion


@pytest.mark.parametrize(
    "cx, pairs, critical_per_dim",
    [
        (gen.boundary_simplex(3), gen.cone_matching(gen.boundary_simplex(3)), [1, 0, 1]),
        (gen.boundary_simplex(4), gen.cone_matching(gen.boundary_simplex(4)), [1, 0, 0, 1]),
        (gen.rp2(), gen.tree_cotree_matching(gen.rp2()), [1, 1, 1]),
        (SURFACES["torus"], gen.tree_cotree_matching(SURFACES["torus"]), [1, 2, 1]),
        (SURFACES["klein"], gen.tree_cotree_matching(SURFACES["klein"]), [1, 2, 1]),
        (gen.cycle_graph(12), gen.tree_cotree_matching(gen.cycle_graph(12)), [1, 1]),
    ],
)
def test_generated_matchings_are_acyclic_and_near_optimal(cx, pairs, critical_per_dim):
    m = Matching.from_json(json.dumps(gen.matching_doc(pairs)))
    assert check_acyclic(_complex(cx), m).ok
    critical = gen.critical_cells(cx, pairs)
    assert [sum(1 for c in critical if cx.dims[c] == d) for d in range(len(critical_per_dim))] == critical_per_dim


@pytest.mark.parametrize("ring", ["Q", "Fp:3"])
def test_twisted_cosheaves_are_functorial_and_invertible_over_their_ring(ring):
    cx = SURFACES["klein"]
    sheaf = Cosheaf.from_json(json.dumps(gen.twisted_cosheaf_doc(cx, ring, random.Random(5))))
    assert sheaf.ring.name == ring
    assert validate_cosheaf(_complex(cx), sheaf).ok
    for m in sheaf.maps.values():
        mat_inverse(m, sheaf.ring)  # raises NotInvertible otherwise


def test_relabel_preserves_order_so_flow_output_is_seed_independent(tmp_path):
    cx = gen.boundary_simplex(3)
    pairs = gen.cone_matching(cx)
    digests = set()
    for seed in (None, 1, 2):
        names = {c: c for c in cx.dims} if seed is None else gen.relabel(cx.dims, random.Random(seed))
        assert [names[c] for c in sorted(names)] == sorted(names.values())
        argv = [
            "flow",
            _write(tmp_path / "d3.json", gen.rename_doc(cx.doc(), names)),
            _write(tmp_path / "d3-m.json", gen.rename_doc(gen.matching_doc(pairs), names)),
            "--from", names["s1_2_3"], "--to", names["s0"],
        ]
        report = _cli_json(argv)
        digests.add(oracles.flow_digest(report, {v: k for k, v in names.items()}))
    assert len(digests) == 1


def test_expected_homology_follows_universal_coefficients():
    assert oracles.expected_homology("rp2", "Z") == ([1, 0, 0], [[], [2], []])
    assert oracles.expected_homology("rp2", "Q") == ([1, 0, 0], [[], [], []])
    assert oracles.expected_homology("rp2", "Fp:2")[0] == [1, 1, 1]
    assert oracles.expected_homology("klein", "Fp:2")[0] == [1, 2, 1]
    assert oracles.expected_homology("klein", "Fp:3")[0] == [1, 1, 0]
    assert oracles.expected_homology("torus", "Q", rank=2)[0] == [2, 4, 2]
    assert oracles.expected_homology("sphere3", "Q", maxdim=3) == ([1, 0, 0], [[], [], []])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_op_has_an_oracle_and_its_inputs(name):
    inputs = workloads.build(name, 7, morseflow)
    assert inputs.ops
    for op in inputs.ops:
        stems = [a[1:-1] for a in op.argv if a.startswith("{")]
        assert all(s in inputs.files for s in stems), op.label
        assert op.expect["kind"] in ("flow", "homology")
        if op.expect["kind"] == "homology":
            assert op.expect["space"] in oracles.INTEGRAL_HOMOLOGY
            oracles.expected_homology(op.expect["space"], op.expect["ring"])
        else:
            assert len(op.expect["sha256"]) == 64
    known = [op.label for op in inputs.ops if op.known_failure]
    assert known == (["morse cycle1500 Z"] if name == "cellular-compress" else [])


def test_same_seed_gives_the_same_inputs():
    a = workloads.build("cellular-compress", 3, morseflow)
    b = workloads.build("cellular-compress", 3, morseflow)
    c = workloads.build("cellular-compress", 4, morseflow)
    assert a.files == b.files and a.ops == b.ops
    assert a.files != c.files


def _small_ops(tmp_path):
    inputs = workloads.Inputs()
    rng = random.Random(0)
    d3 = gen.boundary_simplex(3)
    pairs = gen.cone_matching(d3)
    names = workloads._add_space(inputs, "d3", d3, rng, pairs)
    inputs.ops.append(workloads._nerve_flow("d3", d3, pairs, names, "sphere2", 2))
    inputs.ops.append(workloads.Op(
        "nerve-en d3 Fp:2",
        ("homology", "nerve-en", "{d3}", "--max-nerve-dim", "2", "--coefficients", "Fp:2") + workloads.JSON,
        {"kind": "homology", "space": "sphere2", "ring": "Fp:2", "maxdim": 2},
    ))
    torus = gen.grid_surface(3, 3, klein=False)
    tpairs = gen.tree_cotree_matching(torus)
    tnames = workloads._add_space(inputs, "torus", torus, rng, tpairs)
    inputs.files["torus-Fp3"] = gen.rename_doc(gen.twisted_cosheaf_doc(torus, "Fp:3", rng), tnames)
    inputs.ops.append(workloads.Op(
        "morse torus Fp:3",
        ("homology", "morse", "{torus}", "{torus-m}", "{torus-Fp3}") + workloads.JSON,
        {"kind": "homology", "space": "torus", "ring": "Fp:3", "rank": 2,
         "generators": workloads._generators(torus, tpairs, tnames)},
    ))
    inputs.ops.append(workloads.Op(
        "complex torus Z", ("homology", "complex", "{torus}") + workloads.JSON,
        {"kind": "homology", "space": "torus", "ring": "Z"},
    ))
    paths = run.write_inputs(inputs, tmp_path)
    return run.resolve_ops(inputs, paths)


def test_traced_counts_repeat_exactly_and_tracing_is_removed(tmp_path):
    ops = _small_ops(tmp_path)
    main_before = sys.modules["morseflow.cli"].main
    results = []
    for _ in range(2):
        tally = run.Tally()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            with run.Clock() as clock:
                run.run_pass(ops, tally, clock, tracer)
        finally:
            tracer.uninstall()
        assert tally.correct and tally.failed == 0, tally.unexpected
        results.append(tracer.metrics())
    assert sys.modules["morseflow.cli"].main is main_before
    first, second = results
    assert set(first) == set(tracing.PER_LAYER) - {"trace.overhead_ratio"}
    counts = [k for k, (unit, _) in tracing.PER_LAYER.items() if unit in ("count", "ratio") and k in first]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["nerves.simplices"] > first["nerves.nondegenerate"] > 0
    assert first["localization.classes"] > 0 and first["localization.flow_compose_calls"] > 0
    assert first["cosheaves.morse_generators"] == 8  # 4 critical cells, rank 2
    assert first["homology.nnz"] > 0 and first["complexes.cells"] > 0


def test_wrong_answers_and_unexpected_failures_make_the_run_incorrect():
    op = workloads.Op("x", (), {"kind": "homology", "space": "circle", "ring": "Z"})
    known = workloads.Op("y", (), op.expect, known_failure="documented")
    good = json.dumps({"results": {"homology": {"ring": "Z", "betti": [1, 1], "torsion": [[], []]}},
                       "warnings": []})
    tally = run.Tally()
    tally.record(op, 0.1, good, None)
    tally.record(known, 0.1, "", "RecursionError: deep")
    assert (tally.attempted, tally.failed, tally.correct) == (2, 1, True)
    tally.record(op, 0.1, good.replace("[1, 1]", "[1, 0]"), None)
    assert (tally.failed, tally.correct) == (2, False)


def test_benchmark_json_matches_the_tables_in_code():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        n: w.why for n, w in workloads.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {
        n: unit for n, (unit, _) in tracing.PER_LAYER.items()
    }


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "nerve-en", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _cli_json(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert sys.modules["morseflow.cli"].main([*argv, "--format", "json"]) == 0
    return json.loads(out.getvalue())
