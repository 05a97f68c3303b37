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
from functools import cached_property
from itertools import chain, groupby
from typing import NamedTuple

from .homology import ChainComplex
from .rings import ZZ, Ring

_ID_CHARS = re.compile(r"[A-Za-z0-9_]*")  # an id is a nonempty run of these


def _read_json(text: str):
    """The document in ``text``; malformed JSON is bad input, named by line and column."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


class SignInconsistency(Exception):
    """The diamond parity constraints admit no solution (non-regular input)."""


class Cell(NamedTuple):
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
    """Graded face poset of a finite regular CW complex.

    ``cells`` are ``Cell``s or ``(id, dim)`` pairs.  Loading checks whole
    collections: duplicate ids by size, the ids by one character-set match
    on their concatenation, dimensions by their minimum and covers by set
    containment.  Only when one of these fails are the cells, then the
    covers, scanned one at a time to name the first bad entry.  The ids are
    indexed by dimension once, and that index serves ``ids``,
    ``cells_of_dim``, ``top_dim`` and ``cells``, built on first read.  The
    strict faces of a cell are walked on first read and kept.
    """

    def __init__(self, cells, covers):
        cells, covers = list(cells), list(covers)  # each is read more than once
        dim_of = dict(cells)
        ids_ok = "" not in dim_of and _ID_CHARS.fullmatch("".join(dim_of))
        if not ids_ok or len(dim_of) != len(cells) or (cells and min(dim_of.values()) < 0):
            _check_cells(cells)
        self.dim_of = dim_of
        self._ids = sorted(sorted(dim_of), key=dim_of.__getitem__)  # by dimension, then id
        self._by_dim = {d: list(ids) for d, ids in groupby(self._ids, dim_of.__getitem__)}
        self.top_dim = dim_of[self._ids[-1]] if cells else -1
        try:
            pairs = set(map(tuple, covers))
            known = dim_of.keys() >= set(chain.from_iterable(pairs))
        except TypeError:
            known = False
        if not known:
            pairs = _check_covers(covers, dim_of)
        cover_faces = {cid: [] for cid in self._ids}
        for u, l in pairs:
            cover_faces[u].append(l)
        for faces in cover_faces.values():
            faces.sort()
        self.covers = frozenset(pairs)
        self.cover_faces = cover_faces
        self._faces = {}  # cid -> (sorted strict faces, their set), walked on first read
        self._ungraded = None  # the grading verdict, found on the first read of ``ungraded``

    @property
    def ungraded(self) -> list:
        """The covers that do not drop the dimension by exactly 1, sorted: the one grading verdict.

        It is found on first read and kept in ``_ungraded``, an attribute that ``__init__`` sets, so
        the instance keeps the attribute layout that its other reads are fast with."""
        if self._ungraded is None:
            dim_of = self.dim_of
            self._ungraded = sorted([(u, l) for u, faces in self.cover_faces.items() for l in faces
                                     if dim_of[u] - dim_of[l] != 1])
        return self._ungraded

    @cached_property
    def cells(self) -> tuple:
        dim_of = self.dim_of
        return tuple(Cell(cid, dim_of[cid]) for cid in self._ids)

    def _walk(self, cid):
        """The strict faces of a cell, sorted and as a set; the one closure walk."""
        got = self._faces.get(cid)
        if got is None:
            cover_faces = self.cover_faces
            seen = set()
            stack = list(cover_faces[cid])
            while stack:
                x = stack.pop()
                if x not in seen:
                    seen.add(x)
                    stack.extend(cover_faces[x])
            got = self._faces[cid] = (sorted(seen), seen)
        return got

    def ids(self):
        return list(self._ids)

    def dim(self, cid: str) -> int:
        return self.dim_of[cid]

    def cells_of_dim(self, d: int):
        return list(self._by_dim.get(d, ()))

    def is_face(self, upper: str, lower: str) -> bool:
        if (upper, lower) in self.covers:
            return True
        return upper in self.dim_of and lower in self._walk(upper)[1]

    def strict_faces(self, cid: str):
        return self._walk(cid)[0]

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
        doc = _read_json(text)
        if not isinstance(doc, dict):
            raise ValueError("top level must be an object")
        try:
            raw_cells = doc["cells"]
            raw_covers = doc["covers"]
        except KeyError as exc:
            raise ValueError(f"missing field {exc.args[0]!r}") from exc
        for name, value in (("cells", raw_cells), ("covers", raw_covers)):
            if not isinstance(value, list):
                raise ValueError(f"{name}: expected a list")
        try:
            ids = [rc["id"] for rc in raw_cells]
            dims = [rc["dim"] for rc in raw_cells]
            typed = set(map(type, ids)) <= {str} and set(map(type, dims)) <= {int}
        except (KeyError, TypeError):
            typed = False
        cells = list(zip(ids, dims)) if typed else _read_cells(raw_cells)
        if not (set(map(type, raw_covers)) <= {list} and set(map(len, raw_covers)) <= {2}):
            for k, rc in enumerate(raw_covers):
                if not isinstance(rc, (list, tuple)) or len(rc) != 2:
                    raise ValueError(f"covers[{k}]: expected [upper, lower]")
        return Complex(cells, raw_covers)  # the constructor converts each id to str

    def to_json(self) -> str:
        doc = {
            "cells": [{"id": c.id, "dim": c.dim} for c in self.cells],
            "covers": [[u, l] for u, l in sorted(self.covers)],
        }
        return json.dumps(doc, sort_keys=True, indent=2)


def _check_cells(cells):
    """Raise for the first cell with a bad id, a repeated id or a negative dimension."""
    seen = set()
    for cid, dim in cells:
        if not _ID_CHARS.fullmatch(cid) or not cid:
            raise ValueError(f"bad cell id {cid!r}")
        if cid in seen:
            raise ValueError(f"duplicate cell id {cid!r}")
        if dim < 0:
            raise ValueError(f"cell {cid!r} has negative dimension")
        seen.add(cid)


def _check_covers(covers, dim_of) -> set:
    """The covers as a set of str id pairs; raise for the first that names an unknown cell."""
    pairs = set()
    for u, l in covers:
        u, l = str(u), str(l)
        if u not in dim_of or l not in dim_of:
            raise ValueError(f"cover ({u!r}, {l!r}) references unknown cell")
        pairs.add((u, l))
    return pairs


def _read_cells(raw_cells) -> list:
    """The ``(id, dim)`` pairs of the cell entries; raise for the first malformed one."""
    cells = []
    for k, rc in enumerate(raw_cells):
        try:
            cid, dim = rc["id"], rc["dim"]
            if isinstance(dim, (bool, float)):
                raise TypeError(f"dim {dim!r} is not an int")
            if isinstance(cid, bool) or not isinstance(cid, (str, int)):
                raise TypeError(f"id {cid!r} is neither a str nor an int")
            cells.append((str(cid), int(dim)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"cells[{k}]: expected {{'id': str, 'dim': int}} ({exc})") from exc
    return cells


@dataclass(frozen=True)
class IncidenceSigns:
    sign: dict  # (upper, lower) cover pair -> +1 / -1

    def __call__(self, upper: str, lower: str) -> int:
        return self.sign[(upper, lower)]


def validate_complex(c: Complex) -> ValidationReport:
    """Check the CW-poset proxies; an empty report means all of them hold."""
    report = ValidationReport()
    dim_of = c.dim_of
    for u, l in c.ungraded:
        report.add("grading", f"cover ({u}, {l}) drops dimension by {dim_of[u] - dim_of[l]}, not 1", (u, l))
    if not report.ok:
        return report  # the remaining checks presuppose grading
    # No antisymmetry check: with every cover dropping dimension by exactly 1,
    # a strict face has strictly lower dimension, so no two cells are faces
    # of each other and the face relation has no cycle.
    for e in c.cells_of_dim(1):
        faces = c.cover_faces[e]
        if len(faces) != 2:
            report.add("edge_faces", f"edge {e} has {len(faces)} vertex faces, expected 2", (e,))
    for cid in c._ids:
        if dim_of[cid] >= 1 and not c.cover_faces[cid]:
            report.add("no_faces", f"cell {cid} of dim {dim_of[cid]} has no faces", (cid,))
    for d in range(2, c.top_dim + 1):
        for x in c.cells_of_dim(d):
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
        a, b = c.cover_faces[e]  # two faces, in sorted order
        sign[(e, a)] = 1
        sign[(e, b)] = -1
    for d in range(2, c.top_dim + 1):
        for x in c.cells_of_dim(d):
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
