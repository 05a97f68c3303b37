"""Cellular cosheaves, their homology, zigzag transport and Morse compression."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .complexes import Complex, ValidationReport
from .homology import ChainComplex
from .localization import Zigzag
from .matchings import Matching, check_pairs
from .rings import Mat, NotInvertible, Ring, mat_inverse, ring_from_name


@dataclass(frozen=True)
class Cosheaf:
    """Stalk ranks per cell and extension matrices on cover pairs.

    A matrix maps columns indexed by the stalk of the upper cell to rows
    indexed by the stalk of the lower cell (column-vector convention).
    """

    ring: Ring
    stalks: dict  # cell id -> rank
    maps: dict  # (upper, lower) cover pair -> Mat

    def stalk(self, cid: str) -> int:
        try:
            return self.stalks[cid]
        except KeyError:
            raise ValueError(f"cosheaf has no stalk rank for cell {cid}") from None

    def cover_map(self, upper: str, lower: str) -> Mat:
        try:
            return self.maps[(upper, lower)]
        except KeyError:
            raise ValueError(f"cosheaf has no extension map for cover {upper}>{lower}") from None

    @staticmethod
    def from_json(text: str) -> "Cosheaf":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
        try:
            ring = ring_from_name(doc["ring"])
            stalks = {str(k): int(v) for k, v in doc["stalks"].items()}
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"cosheaf file: bad ring or stalks ({exc})") from exc
        maps = {}
        for key, rows in doc.get("maps", {}).items():
            upper, sep, lower = key.partition(">")
            if not sep:
                raise ValueError(f"maps key {key!r} must look like 'upper>lower'")
            upper, lower = upper.strip(), lower.strip()
            data = tuple(tuple(ring.parse_scalar(x) for x in row) for row in rows)
            expect = (stalks.get(lower, 0), stalks.get(upper, 0))
            m = Mat(len(data), len(data[0]) if data else 0, data) if data else Mat(0, expect[1], ())
            if (m.rows, m.cols) != expect:
                raise ValueError(
                    f"maps[{key!r}] has shape {m.rows}x{m.cols}, expected {expect[0]}x{expect[1]}"
                )
            maps[(upper, lower)] = m
        return Cosheaf(ring, stalks, maps)

    def to_json(self) -> str:
        doc = {
            "ring": self.ring.name,
            "stalks": dict(sorted(self.stalks.items())),
            "maps": {
                f"{u}>{l}": [[self.ring.format_scalar(x) for x in row] for row in m.data]
                for (u, l), m in sorted(self.maps.items())
            },
        }
        return json.dumps(doc, sort_keys=True, indent=2)


def constant_cosheaf(c: Complex, ring: Ring, rank: int = 1) -> Cosheaf:
    ident = Mat.identity(rank, ring.one, ring.zero)
    return Cosheaf(
        ring,
        {cid: rank for cid in c.ids()},
        {pair: ident for pair in c.covers},
    )


def validate_cosheaf(c: Complex, F: Cosheaf) -> ValidationReport:
    """Empty report iff every codimension-2 diamond commutes."""
    report = ValidationReport()
    for cid in c.ids():
        if cid not in F.stalks:
            report.add("stalks", f"no stalk rank for cell {cid}", (cid,))
    for pair in sorted(c.covers):
        if pair not in F.maps:
            report.add("maps", f"no extension map for cover {pair}", pair)
    if not report.ok:
        return report
    for x in c.ids():
        for z, mids in c.diamonds(x):
            if len(mids) != 2:
                continue
            y1, y2 = mids
            via1 = F.cover_map(y1, z).mul(F.cover_map(x, y1), F.ring)
            via2 = F.cover_map(y2, z).mul(F.cover_map(x, y2), F.ring)
            if via1.normalized(F.ring) != via2.normalized(F.ring):
                report.add(
                    "functoriality",
                    f"diamond [{z}, {x}] does not commute (via {y1} vs {y2})",
                    (x, y1, y2, z),
                )
    return report


def extension_map(c: Complex, F: Cosheaf, upper: str, lower: str) -> Mat:
    """Composite extension along any saturated cover chain from upper to lower.

    Well defined once validate_cosheaf passes; the lexicographically first
    chain is used for determinism.
    """
    if upper == lower:
        return Mat.identity(F.stalk(upper), F.ring.one, F.ring.zero)
    if (upper, lower) in c.covers:
        return F.cover_map(upper, lower)
    for mid in sorted(c.cover_faces[upper]):
        if mid == lower or (mid, lower) in c.reach:
            return extension_map(c, F, mid, lower).mul(F.cover_map(upper, mid), F.ring)
    raise ValueError(f"{lower} is not a face of {upper}")


def path_map(c: Complex, F: Cosheaf, label: tuple) -> Mat:
    """Composite extension along an entrance path's cell sequence."""
    m = Mat.identity(F.stalk(label[0]), F.ring.one, F.ring.zero)
    for a, b in zip(label, label[1:]):
        m = extension_map(c, F, a, b).mul(m, F.ring)
    return m


def cosheaf_homology(c: Complex, signs, F: Cosheaf):
    """Homology of the complex with one stalk block per cell."""
    from .homology import homology

    report = validate_cosheaf(c, F)
    if not report.ok:
        raise ValueError(f"cosheaf fails validation: {report}")
    cc = cosheaf_chain_complex(c, signs, F)
    return homology(cc)


def cosheaf_chain_complex(c: Complex, signs, F: Cosheaf) -> ChainComplex:
    """One generator per cell and stalk basis vector; blocks are signed extension maps."""
    ring = F.ring

    def faces(g):
        x, j = g
        for y in c.cover_faces[x]:
            block = F.cover_map(x, y)
            s = signs(x, y)
            for i in range(block.rows):
                yield (y, i), ring.mul(s, block[i, j])

    cells = [c.cells_of_dim(d) for d in range(max(c.top_dim, 0) + 1)]
    return ChainComplex.from_faces(ring, _stalk_generators(F, cells), faces)


def _stalk_generators(F: Cosheaf, cells) -> list:
    """Per degree, one (cell, k) generator per stalk basis vector of ``cells[d]``."""
    return [[(cid, k) for cid in level for k in range(F.stalk(cid))] for level in cells]


# ---------------------------------------------------------------------------
# Transport along zigzags
# ---------------------------------------------------------------------------


def transport(c: Complex, F: Cosheaf, m: Matching, z: Zigzag) -> Mat:
    """Forward arrows apply composed extensions; backward arrows apply inverses.

    Requires every matched extension to be invertible over the ring.
    """
    check_pairs(c, m)
    ring = F.ring
    out = path_map(c, F, z.rights[0].label)
    for f, g in zip(z.lefts, z.rights[1:]):
        back = path_map(c, F, f.label)
        out = mat_inverse(back, ring).mul(out, ring)
        out = path_map(c, F, g.label).mul(out, ring)
    return out


# ---------------------------------------------------------------------------
# Morse compression
# ---------------------------------------------------------------------------


@dataclass
class MorseComplex:
    chain: ChainComplex
    critical: tuple  # cell ids per degree; the chain's generators are their stalk vectors, in order


def morse_chain_complex(c: Complex, signs, F: Cosheaf, m: Matching) -> MorseComplex:
    """Compressed complex on critical cells with signed gradient transport.

    The block from a critical cell to a critical face is the sum over the
    cell's faces of the cover sign times the transported map; transport
    through a matched cell inverts its matched extension and fans out over
    the other faces of the partner.  Acyclicity makes the gradient paths a
    DAG, and transport is computed over it iteratively, so path length is
    not limited by the interpreter's recursion depth.
    """
    if m.kind != "classical":
        raise ValueError("Morse compression requires a classical matching")
    from .matchings import check_acyclic

    acyclic = check_acyclic(c, m)
    if not acyclic.ok:
        raise ValueError(f"matching is not acyclic: {acyclic}")
    ring = F.ring
    partner = {l: u for u, l in m.pairs}  # lower -> upper
    matched = set(partner) | set(partner.values())
    critical = [cid for cid in c.ids() if cid not in matched]
    inverse = {}  # lower -> inverse of its matched extension
    for u, l in m.pairs:
        try:
            inverse[l] = mat_inverse(F.cover_map(u, l), ring)
        except NotInvertible:
            raise NotInvertible(f"matched extension {u}>{l} is not invertible over {ring.name}") from None

    flow: dict = {}  # cell -> {critical cell reached by a gradient path: Mat stalk(cell) -> stalk(critical)}

    def flow_from(y0: str) -> dict:
        """Transport from y0 to the critical cells of its dimension, summed over gradient paths."""
        stack = [y0]
        while stack:
            y = stack[-1]
            if y in flow:
                stack.pop()
                continue
            if y not in partner:  # critical: the path ends; matched upper: the flow stops
                flow[y] = {} if y in matched else {y: Mat.identity(F.stalk(y), ring.one, ring.zero)}
                stack.pop()
                continue
            u = partner[y]
            pending = [y2 for y2 in c.cover_faces[u] if y2 != y and y2 not in flow]
            if pending:
                stack.extend(pending)
                continue
            total: dict = {}
            for y2 in c.cover_faces[u]:
                if y2 == y:
                    continue
                scalar = ring.normalize(-signs(u, y) * signs(u, y2))
                for tgt, tail in flow[y2].items():
                    step = tail.mul(F.cover_map(u, y2), ring).mul(inverse[y], ring).scale(scalar, ring)
                    total[tgt] = step.add(total[tgt], ring) if tgt in total else step
            flow[y] = total
            stack.pop()
        return flow[y0]

    blocks = {}  # critical cell -> {critical face: Mat}
    for x in critical:
        out: dict = {}
        for y in c.cover_faces[x]:
            scalar = ring.normalize(signs(x, y))
            for tgt, t in flow_from(y).items():
                piece = t.mul(F.cover_map(x, y), ring).scale(scalar, ring)
                out[tgt] = piece.add(out[tgt], ring) if tgt in out else piece
        blocks[x] = out

    def faces(g):
        x, j = g
        for tgt, block in blocks[x].items():
            for i in range(block.rows):
                yield (tgt, i), block[i, j]

    cells = [[cid for cid in c.cells_of_dim(d) if cid not in matched] for d in range(max(c.top_dim, 0) + 1)]
    cc = ChainComplex.from_faces(ring, _stalk_generators(F, cells), faces)
    return MorseComplex(cc, tuple(map(tuple, cells)))
