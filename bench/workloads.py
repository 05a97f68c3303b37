"""The four workloads: their inputs, their ops and the oracle for each op.

Every op is one ``morseflow`` command line.  ``{stem}`` in an argument is
replaced by the path of the generated input file with that stem.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass, field

import generators as gen
from oracles import FLOW_DIGESTS

JSON = ("--format", "json")


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple
    expect: dict
    known_failure: str = ""  # why this op is expected to fail today, if it is


@dataclass
class Inputs:
    files: dict = field(default_factory=dict)  # stem -> JSON document
    ops: list = field(default_factory=list)
    matchings: list = field(default_factory=list)  # (complex stem, matching stem)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: object  # (Inputs, random.Random, morseflow package) -> None


def _add_space(inputs, stem, cx, rng, pairs=None):
    """Write a complex (and matching) under a seeded renaming; return the renaming."""
    names = gen.relabel(cx.dims, rng)
    inputs.files[stem] = gen.rename_doc(cx.doc(), names)
    if pairs is not None:
        inputs.files[f"{stem}-m"] = gen.rename_doc(gen.matching_doc(pairs), names)
        inputs.matchings.append((stem, f"{stem}-m"))
    return names


def _critical(cx, pairs, names):
    return [names[c] for c in gen.critical_cells(cx, pairs)]


def _generators(cx, pairs, names):
    crit = gen.critical_cells(cx, pairs)
    top = max(cx.dims.values())
    return {str(d): [names[c] for c in crit if cx.dims[c] == d] for d in range(top + 1)}


def _nerve_flow(stem, cx, pairs, names, space, maxdim, ring="Q"):
    argv = ("homology", "nerve-flow", f"{{{stem}}}", f"{{{stem}-m}}", "--coefficients", ring,
            "--max-nerve-dim", str(maxdim)) + JSON
    expect = {"kind": "homology", "space": space, "ring": ring, "maxdim": maxdim,
              "status": "complete", "critical": _critical(cx, pairs, names)}
    return Op(f"nerve-flow {stem} {ring} dim{maxdim}", argv, expect)


def build_flow_classical(inputs, rng, mf):
    d4 = gen.boundary_simplex(4)
    pairs = gen.cone_matching(d4)
    names = _add_space(inputs, "d4", d4, rng, pairs)
    digest = FLOW_DIGESTS["flow-d4-cone"]
    inputs.ops.append(Op(
        "flow d4 cone",
        ("flow", "{d4}", "{d4-m}", "--from", names["s1_2_3_4"], "--to", names["s0"]) + JSON,
        {"kind": "flow", "status": "complete", "critical": _critical(d4, pairs, names),
         "class_count": digest["class_count"], "sha256": digest["sha256"],
         "canonical_names": {new: old for old, new in names.items()}},
    ))
    d3 = gen.boundary_simplex(3)
    pairs = gen.cone_matching(d3)
    names = _add_space(inputs, "d3", d3, rng, pairs)
    inputs.ops.append(_nerve_flow("d3", d3, pairs, names, "sphere2", 3))
    rp2 = gen.rp2()
    pairs = gen.tree_cotree_matching(rp2)
    names = _add_space(inputs, "rp2", rp2, rng, pairs)
    inputs.ops.append(_nerve_flow("rp2", rp2, pairs, names, "rp2", 2))


def build_nerve_en(inputs, rng, mf):
    _add_space(inputs, "d3", gen.boundary_simplex(3), rng)
    for ring in ("Q", "Fp:2", "Z"):
        argv = ("homology", "nerve-en", "{d3}", "--max-nerve-dim", "3", "--coefficients", ring) + JSON
        expect = {"kind": "homology", "space": "sphere2", "ring": ring, "maxdim": 3}
        inputs.ops.append(Op(f"nerve-en d3 {ring}", argv, expect))


def build_generalized(inputs, rng, mf):
    fx = mf.fixtures.get_fixture("calc63")
    doc = json.loads(fx.complex.to_json())
    names = gen.relabel([c["id"] for c in doc["cells"]], rng)
    inputs.files["calc63"] = gen.rename_doc(doc, names)
    inputs.files["calc63-m"] = gen.rename_doc(json.loads(fx.matching.to_json()), names)
    argv = ("homology", "nerve-flow", "{calc63}", "{calc63-m}", "--max-zigzag-len", "4") + JSON
    expect = {"kind": "homology", "space": "sphere2", "ring": "Z", "maxdim": 3,
              "status": "stable", "critical": [names["t"], names["w"]]}
    inputs.ops.append(Op("nerve-flow calc63 L4", argv, expect))


GRID = 4  # squares per side of the grid tori and Klein bottles
CYCLES = (300, 900, 1500)


def build_cellular_compress(inputs, rng, mf):
    for space in ("torus", "klein"):
        cx = gen.grid_surface(GRID, GRID, klein=space == "klein")
        pairs = gen.tree_cotree_matching(cx)
        names = _add_space(inputs, space, cx, rng, pairs)
        inputs.ops.append(Op(
            f"complex {space} Z", ("homology", "complex", f"{{{space}}}") + JSON,
            {"kind": "homology", "space": space, "ring": "Z"},
        ))
        for ring in ("Q", "Fp:3"):
            sheaf = f"{space}-{ring.replace(':', '')}"
            twists = random.Random(f"{space}/{ring}")  # not the seed: twists set how large fractions grow
            inputs.files[sheaf] = gen.rename_doc(gen.twisted_cosheaf_doc(cx, ring, twists), names)
            expect = {"kind": "homology", "space": space, "ring": ring, "rank": 2}
            inputs.ops.append(Op(
                f"cosheaf {space} {ring}",
                ("homology", "cosheaf", f"{{{space}}}", f"{{{sheaf}}}") + JSON, expect,
            ))
            inputs.ops.append(Op(
                f"morse {space} {ring}",
                ("homology", "morse", f"{{{space}}}", f"{{{space}-m}}", f"{{{sheaf}}}") + JSON,
                dict(expect, generators=_generators(cx, pairs, names)),
            ))
    for n in CYCLES:
        cx = gen.cycle_graph(n)
        pairs = gen.tree_cotree_matching(cx)
        stem = f"cycle{n}"
        names = _add_space(inputs, stem, cx, rng, pairs)
        inputs.ops.append(Op(
            f"complex {stem} Z", ("homology", "complex", f"{{{stem}}}") + JSON,
            {"kind": "homology", "space": "circle", "ring": "Z"},
        ))
        inputs.ops.append(Op(
            f"morse {stem} Z",
            ("homology", "morse", f"{{{stem}}}", f"{{{stem}-m}}") + JSON,
            {"kind": "homology", "space": "circle", "ring": "Z",
             "generators": _generators(cx, pairs, names)},
            # The gradient path from the critical edge runs through n - 1 cells.
            known_failure=(
                "morse_chain_complex transports recursively, one frame per gradient step, "
                "and exceeds the interpreter's recursion limit"
            ) if n > sys.getrecursionlimit() else "",
        ))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "flow-classical",
            "localization-heavy: flow category of a classical matching on the 3-sphere, flow nerves of S2 and RP2",
            build_flow_classical,
        ),
        Workload(
            "nerve-en",
            "homology/rings-heavy: entrance-path nerve of S2 over Q, F2 and Z; bypasses matchings and localization",
            build_nerve_en,
        ),
        Workload(
            "generalized",
            "localization on the bounded path: calc63 generalized matching, zigzag counts grow 3^L, classes stay 10",
            build_generalized,
        ),
        Workload(
            "cellular-compress",
            "complexes/cosheaves: cellular, cosheaf and Morse homology of tori, Klein bottles and cycles to n=1500",
            build_cellular_compress,
        ),
    )
}


def build(name: str, seed: int, mf) -> Inputs:
    inputs = Inputs()
    WORKLOADS[name].build(inputs, random.Random(f"{name}/{seed}"), mf)
    return inputs
