"""Finite regular CW complexes as graded face posets.

A complex is given by its cells and the codimension-1 cover relation; the
full face relation is the transitive closure.  Regularity itself is not
combinatorially decidable, so validation checks the standard necessary
conditions (grading, the diamond property, vertex counts of edges).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from .homology import ChainComplex
from .rings import ZZ, Ring

_ID_RE = re.compile(r"^[A-Za-z0-9_]+$")


class SignInconsistency(Exception):
    """The diamond parity constraints admit no solution (non-regular input)."""


@dataclass(frozen=True)
class Cell:
    id: str
    dim: int


@dataclass
class Finding:
    code: str
    message: str
    witness: tuple = ()

    def as_dict(self):
        return {"code": self.code, "message": self.message, "witness": list(self.witness)}


@dataclass
class ValidationReport:
    findings: list[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def add(self, code: str, message: str, witness=()):
        self.findings.append(Finding(code, message, tuple(witness)))

    def as_dict(self):
        return {"ok": self.ok, "findings": [f.as_dict() for f in self.findings]}

    def __str__(self):
        if self.ok:
            return "ok"
        return "; ".join(f"{f.code}: {f.message}" for f in self.findings)


class Complex:
    """Graded face poset of a finite regular CW complex."""

    def __init__(self, cells, covers):
        cells = tuple(cells)
        seen = set()
        for c in cells:
            if not _ID_RE.match(c.id):
                raise ValueError(f"bad cell id {c.id!r}")
            if c.id in seen:
                raise ValueError(f"duplicate cell id {c.id!r}")
            if c.dim < 0:
                raise ValueError(f"cell {c.id!r} has negative dimension")
            seen.add(c.id)
        self.cells = tuple(sorted(cells, key=lambda c: (c.dim, c.id)))
        self.dim_of = {c.id: c.dim for c in self.cells}
        covers = frozenset((str(u), str(l)) for u, l in covers)
        for u, l in covers:
            if u not in self.dim_of or l not in self.dim_of:
                raise ValueError(f"cover ({u!r}, {l!r}) references unknown cell")
        self.covers = covers
        self.cover_faces = {c.id: [] for c in self.cells}
        for u, l in sorted(covers):
            self.cover_faces[u].append(l)
        self.reach, self._strict_faces = self._transitive_closure()

    def _transitive_closure(self):
        """The face relation as a set of pairs, and each cell's sorted strict faces."""
        reach = set()
        strict_faces = {}
        for cid in self.ids():
            stack = list(self.cover_faces[cid])
            seen = set()
            while stack:
                x = stack.pop()
                if x in seen:
                    continue
                seen.add(x)
                reach.add((cid, x))
                stack.extend(self.cover_faces[x])
            strict_faces[cid] = sorted(seen)
        return frozenset(reach), strict_faces

    def ids(self):
        return [c.id for c in self.cells]

    def dim(self, cid: str) -> int:
        return self.dim_of[cid]

    @property
    def top_dim(self) -> int:
        return max((c.dim for c in self.cells), default=-1)

    def cells_of_dim(self, d: int):
        return [c.id for c in self.cells if c.dim == d]

    def is_face(self, upper: str, lower: str) -> bool:
        return (upper, lower) in self.reach

    def strict_faces(self, cid: str):
        return self._strict_faces[cid]

    def diamonds(self, x: str):
        """The codimension-2 intervals [z, x] as (z, middle cells), z in sorted order.

        z runs over the cells two dimensions below x that a cover of x
        covers.  The middles of z are the covers of x that cover z, in
        ``cover_faces[x]`` order; a regular complex has exactly two.  Below
        dimension 2 there are none, as dimensions are at least 0.
        """
        if self.dim_of[x] < 2:
            return []
        ys = self.cover_faces[x]
        below = {z for y in ys for z in self.cover_faces[y] if self.dim_of[x] - self.dim_of[z] == 2}
        return [(z, [y for y in ys if (y, z) in self.covers]) for z in sorted(below)]

    # -- serialization ----------------------------------------------------

    @staticmethod
    def from_json(text: str) -> "Complex":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
        if not isinstance(doc, dict):
            raise ValueError("top level must be an object")
        try:
            raw_cells = doc["cells"]
            raw_covers = doc["covers"]
        except KeyError as exc:
            raise ValueError(f"missing field {exc.args[0]!r}") from exc
        cells = []
        for k, rc in enumerate(raw_cells):
            try:
                cells.append(Cell(str(rc["id"]), int(rc["dim"])))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"cells[{k}]: expected {{'id': str, 'dim': int}} ({exc})") from exc
        covers = []
        for k, rc in enumerate(raw_covers):
            if not isinstance(rc, (list, tuple)) or len(rc) != 2:
                raise ValueError(f"covers[{k}]: expected [upper, lower]")
            covers.append((str(rc[0]), str(rc[1])))
        return Complex(cells, covers)

    def to_json(self) -> str:
        doc = {
            "cells": [{"id": c.id, "dim": c.dim} for c in self.cells],
            "covers": [[u, l] for u, l in sorted(self.covers)],
        }
        return json.dumps(doc, sort_keys=True, indent=2)


@dataclass(frozen=True)
class IncidenceSigns:
    sign: dict  # (upper, lower) cover pair -> +1 / -1

    def __call__(self, upper: str, lower: str) -> int:
        return self.sign[(upper, lower)]


def validate_complex(c: Complex) -> ValidationReport:
    """Check the CW-poset proxies; an empty report means all of them hold."""
    report = ValidationReport()
    for u, l in sorted(c.covers):
        drop = c.dim(u) - c.dim(l)
        if drop != 1:
            report.add("grading", f"cover ({u}, {l}) drops dimension by {drop}, not 1", (u, l))
    if not report.ok:
        return report  # the remaining checks presuppose grading
    for a, b in sorted(c.reach):
        if (b, a) in c.reach:
            report.add("antisymmetry", f"face relation contains a cycle through {a} and {b}", (a, b))
    for e in c.cells_of_dim(1):
        faces = c.cover_faces[e]
        if len(faces) != 2:
            report.add("edge_faces", f"edge {e} has {len(faces)} vertex faces, expected 2", (e,))
    for cell in c.cells:
        if cell.dim >= 1 and not c.cover_faces[cell.id]:
            report.add("no_faces", f"cell {cell.id} of dim {cell.dim} has no faces", (cell.id,))
    for x in c.ids():
        for z, between in c.diamonds(x):
            if len(between) != 2:
                report.add(
                    "diamond",
                    f"interval [{z}, {x}] has {len(between)} intermediate cells, expected 2",
                    (x, z, *between),
                )
    return report


def assign_incidence_signs(c: Complex) -> IncidenceSigns:
    """Deterministic local orientations satisfying the diamond parity rule.

    Signs are found one top cell at a time by parity propagation over that
    cell's diamond constraints: each face carries its component and its
    parity relative to it, and a merge relabels the smaller component.  The
    first face of each component (in sorted order) gets +1.
    """
    report = validate_complex(c)
    if not report.ok:
        raise SignInconsistency(f"complex fails validation: {report}")
    sign: dict = {}
    for e in c.cells_of_dim(1):
        a, b = sorted(c.cover_faces[e])
        sign[(e, a)] = 1
        sign[(e, b)] = -1
    for d in range(2, c.top_dim + 1):
        for x in sorted(c.cells_of_dim(d)):
            faces = c.cover_faces[x]
            comp = {y: (y, 0) for y in faces}  # face -> (component, parity relative to it)
            members = {y: [y] for y in faces}
            for z, (y1, y2) in c.diamonds(x):
                # eps(y1)*eps(y2) = -sign(y1,z)*sign(y2,z); as parities:
                want = 1 if sign[(y1, z)] * sign[(y2, z)] == 1 else 0
                (r1, p1), (r2, p2) = comp[y1], comp[y2]
                if r1 == r2:
                    if p1 ^ p2 != want:
                        raise SignInconsistency(
                            f"orientation constraints around {x} are unsatisfiable at diamond [{z}, {x}]"
                        )
                    continue
                if len(members[r1]) < len(members[r2]):
                    r1, r2 = r2, r1
                flip = p1 ^ p2 ^ want
                for y in members.pop(r2):
                    comp[y] = (r1, comp[y][1] ^ flip)
                    members[r1].append(y)
            first: dict = {}  # component -> parity of its first face
            for y in faces:
                r, p = comp[y]
                sign[(x, y)] = 1 if p == first.setdefault(r, p) else -1
    return IncidenceSigns(sign)


def cellular_chain_complex(c: Complex, signs: IncidenceSigns, ring: Ring) -> ChainComplex:
    """One generator per cell; boundary entries are the cover signs.

    The entries are integers, so the complex is built and checked over Z and
    read over ``ring``.
    """
    gens = [c.cells_of_dim(d) for d in range(max(c.top_dim, 0) + 1)]
    return ChainComplex.from_faces(ZZ, gens, lambda x: ((y, signs(x, y)) for y in c.cover_faces[x])).over(ring)
