"""Answers known independently of the code under test, and the check against them.

Homology answers come from topology: the integral homology of each generated
space is fixed by what the space is, and the homology over a field follows
by the universal coefficient theorem.  A rank-r twisted constant cosheaf is
isomorphic to the rank-r constant one, so its Betti numbers are r times the
constant ones.  Where topology gives no answer (the class list and cover
relations that ``flow`` prints), the oracle is a digest of the deterministic
JSON output recorded from morseflow 0.1.0, the commit this benchmark was
written against, for the canonical cell names.
"""

from __future__ import annotations

import hashlib
import json
import re

# Integral homology per degree: (Betti number, torsion coefficients).
INTEGRAL_HOMOLOGY = {
    "circle": ((1, ()), (1, ())),
    "sphere2": ((1, ()), (0, ()), (1, ())),
    "sphere3": ((1, ()), (0, ()), (0, ()), (1, ())),
    "rp2": ((1, ()), (0, (2,)), (0, ())),
    "torus": ((1, ()), (2, ()), (1, ())),
    "klein": ((1, ()), (1, (2,)), (0, ())),
}

# sha256 of the canonicalized ``flow`` results (see ``flow_digest``), keyed by op.
FLOW_DIGESTS = {
    "flow-d4-cone": {
        "class_count": 338,
        "sha256": "361283c5dc8df67c2b642de1f804079bd516d89945c477228701775b830b96d5",
    },
}


def expected_homology(space: str, ring: str, rank: int = 1, maxdim: int | None = None):
    """(betti, torsion) lists as ``morseflow homology`` reports them.

    Over Z the torsion is the integral one; over a field of characteristic p
    each Z/q summand with p | q adds one to the Betti numbers of its degree
    and of the next, and over Q torsion vanishes.  ``maxdim`` keeps degrees
    below it, as the nerve modes report.
    """
    groups = INTEGRAL_HOMOLOGY[space]
    if ring == "Z":
        betti = [b for b, _ in groups]
        torsion = [list(t) for _, t in groups]
    else:
        p = 0 if ring == "Q" else int(ring.split(":")[1])
        betti = []
        for n, (b, _) in enumerate(groups):
            extra = 0
            if p:
                extra += sum(1 for q in groups[n][1] if q % p == 0)
                if n > 0:
                    extra += sum(1 for q in groups[n - 1][1] if q % p == 0)
            betti.append(b + extra)
        torsion = [[] for _ in groups]
    betti = [rank * b for b in betti]
    torsion = [t * rank for t in torsion]
    if maxdim is not None:
        betti = (betti + [0] * maxdim)[:maxdim]
        torsion = (torsion + [[]] * maxdim)[:maxdim]
    return betti, torsion


_TOKEN = re.compile(r"[A-Za-z0-9_]+")


def canonicalize(value, names: dict):
    """Replace generated cell ids by canonical ones in every string of a JSON value."""
    if isinstance(value, str):
        return _TOKEN.sub(lambda m: names.get(m.group(0), m.group(0)), value)
    if isinstance(value, list):
        return [canonicalize(v, names) for v in value]
    if isinstance(value, dict):
        return {canonicalize(k, names): canonicalize(v, names) for k, v in value.items()}
    return value


def flow_digest(report: dict, names: dict) -> str:
    doc = canonicalize({"results": report["results"], "warnings": report["warnings"]}, names)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def check(expect: dict, report: dict) -> list[str]:
    """Mismatches between a CLI JSON report and the oracle; empty means correct."""
    bad = []

    def same(what, got, want):
        if got != want:
            bad.append(f"{what}: got {got!r}, expected {want!r}")

    results = report.get("results", {})
    same("warnings", report.get("warnings"), [])
    for key in ("status", "critical"):
        if key in expect:
            same(key, results.get(key), expect[key])
    if expect["kind"] == "flow":
        same("class_count", results.get("class_count"), expect["class_count"])
        same("digest", flow_digest(report, expect["canonical_names"]), expect["sha256"])
        return bad
    betti, torsion = expected_homology(
        expect["space"], expect["ring"], expect.get("rank", 1), expect.get("maxdim")
    )
    hom = results.get("homology", {})
    same("ring", hom.get("ring"), expect["ring"])
    same("betti", hom.get("betti"), betti)
    same("torsion", hom.get("torsion"), torsion)
    if "generators" in expect:
        same("generators", results.get("generators"), expect["generators"])
    return bad
