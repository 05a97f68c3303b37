"""Cellular cosheaves, their homology, zigzag transport and Morse compression."""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain

from .complexes import Complex, ValidationReport, _read_json
from .homology import ChainComplex
from .localization import Zigzag
from .matchings import Matching, check_pairs
from .rings import ZZ, BadScalar, Mat, NotInvertible, Ring, mat_inverse, ring_from_name


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
        doc = _read_json(text)
        try:
            ring = ring_from_name(doc["ring"])
            stalks, raw_maps = doc["stalks"], doc.get("maps", {})
            if not isinstance(stalks, dict) or not isinstance(raw_maps, dict):
                raise TypeError("stalks and maps must be objects")
            if not set(map(type, stalks.values())) <= {int} or min(stalks.values(), default=0) < 0:
                raise ValueError("stalk ranks must be non-negative ints")
            values = raw_maps.values()
            if not set(map(type, values)) <= {list} or not set(map(type, chain.from_iterable(values))) <= {list}:
                raise TypeError("maps must be lists of rows, each a list")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"cosheaf file: bad ring or stalks ({exc})") from exc
        return Cosheaf(ring, stalks, _read_maps(ring, stalks, raw_maps))

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


def _read_maps(ring: Ring, stalks: dict, raw_maps: dict) -> dict:
    """The cover maps of a cosheaf file, checked and built a collection at a time.

    Every key must split at '>' into a cover, after stripping, that no
    other key names; every entry must parse in the ring; and every map must
    have the shape its stalks give it.  Only when one of these fails are the
    keys, then each one's entries row by row, scanned in turn to name the
    first fault (``_check_maps``).
    """
    parts = [key.partition(">") for key in raw_maps]
    covers = [(upper.strip(), lower.strip()) for upper, _, lower in parts]
    shapes = [(stalks.get(lower, 0), stalks.get(upper, 0)) for upper, lower in covers]
    normalize, parse = ring.normalize, ring.parse_scalar
    maps = {}
    try:
        data = [[[normalize(x) if type(x) is int else parse(x) for x in row] for row in rows] for rows in raw_maps.values()]
    except ValueError:
        data = ()
    if data and all(sep for _, sep, _ in parts):  # a repeated cover leaves fewer maps than keys
        for cover, rows, (r, c) in zip(covers, data, shapes):
            if len(rows) != r or not all(map(c.__eq__, map(len, rows))):
                break
            columns = tuple(tuple((i, x) for i, x in enumerate(col) if x) for col in zip(*rows)) if r else ((),) * c
            maps[cover] = Mat(r, c, columns)
    if len(maps) != len(raw_maps):
        _check_maps(ring, stalks, raw_maps)  # raises
    return maps


def _check_maps(ring: Ring, stalks: dict, raw_maps: dict) -> None:
    """Raise for the first bad key or entry of a cosheaf file's maps, in key order.

    A key is checked for its form, then for naming a cover an earlier key
    named, then its entries row by row, then its shape.
    """
    seen = {}  # cover -> the key that named it
    for key, rows in raw_maps.items():
        upper, sep, lower = key.partition(">")
        if not sep:
            raise ValueError(f"maps key {key!r} must look like 'upper>lower'")
        upper, lower = upper.strip(), lower.strip()
        if (upper, lower) in seen:
            raise ValueError(f"maps keys {seen[upper, lower]!r} and {key!r} both name the cover {upper}>{lower}")
        seen[upper, lower] = key
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                try:
                    ring.parse_scalar(x)
                except BadScalar as exc:
                    raise ValueError(f"maps[{key!r}][{i}][{j}]: {exc}") from None
        expect = (stalks.get(lower, 0), stalks.get(upper, 0))
        cols = len(rows[0]) if rows else expect[1]
        if any(len(row) != cols for row in rows):
            raise ValueError("matrix data does not match shape")
        if (len(rows), cols) != expect:
            raise ValueError(f"maps[{key!r}] has shape {len(rows)}x{cols}, expected {expect[0]}x{expect[1]}")


def constant_cosheaf(c: Complex, ring: Ring, rank: int = 1) -> Cosheaf:
    ident = Mat.identity(rank, ring.one)
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
            if via1 != via2:
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
        return Mat.identity(F.stalk(upper), F.ring.one)
    if (upper, lower) in c.covers:
        return F.cover_map(upper, lower)
    for mid in sorted(c.cover_faces[upper]):
        if c.is_face(mid, lower):
            return extension_map(c, F, mid, lower).mul(F.cover_map(upper, mid), F.ring)
    raise ValueError(f"{lower} is not a face of {upper}")


def path_map(c: Complex, F: Cosheaf, label: tuple) -> Mat:
    """Composite extension along an entrance path's cell sequence."""
    m = Mat.identity(F.stalk(label[0]), F.ring.one)
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
            column = F.cover_map(x, y).columns[j]
            if signs(x, y) > 0:
                for i, entry in column:
                    yield (y, i), entry
            else:
                for i, entry in column:
                    yield (y, i), -entry

    cells = [c.cells_of_dim(d) for d in range(max(c.top_dim, 0) + 1)]
    return ChainComplex.from_faces(ring, _stalk_generators(F.stalk, cells), faces)


def _stalk_generators(stalk, cells) -> list:
    """Per degree, one (cell, k) generator per basis vector of the stalk of each cell of ``cells[d]``."""
    return [[(cid, k) for cid in level for k in range(stalk(cid))] for level in cells]


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


class _Counts:
    """Gradient transport with constant Z coefficients.

    Every stalk is Z and every extension is 1, so a block is a plain int: the
    signed count of the gradient paths it sums.
    """

    ring = ZZ

    def stalk(self, cid):
        return 1

    def unit(self, cid):
        return 1

    def through(self, block, upper, lower, scalar):
        return block * scalar

    def lift(self, block, lower):
        return block

    def add(self, a, b):
        return a + b

    def column(self, block, j):
        return ((0, block),)


class _Maps:
    """Gradient transport through a cosheaf's ``Mat`` maps, in its ring."""

    def __init__(self, F: Cosheaf, m: Matching):
        self.F, self.ring, self.stalk = F, F.ring, F.stalk
        self.inverse = {}  # matched lower cell -> inverse of its matched extension
        for u, l in m.pairs:
            try:
                self.inverse[l] = mat_inverse(F.cover_map(u, l), F.ring)
            except NotInvertible:
                raise NotInvertible(f"matched extension {u}>{l} is not invertible over {F.ring.name}") from None

    def unit(self, cid):
        return Mat.identity(self.F.stalk(cid), self.ring.one)

    def through(self, block, upper, lower, scalar):
        """``scalar`` times the block after the extension ``upper > lower``."""
        return block.mul(self.F.cover_map(upper, lower), self.ring).scale(scalar, self.ring)

    def lift(self, block, lower):
        """The block after the inverse of the matched extension onto ``lower``."""
        return block.mul(self.inverse[lower], self.ring)

    def add(self, a, b):
        return a.add(b, self.ring)

    def column(self, block, j):
        return block.columns[j]


def morse_chain_complex(c: Complex, signs, F: Cosheaf | None, m: Matching) -> MorseComplex:
    """Compressed complex on critical cells with signed gradient transport.

    The block from a critical cell x to a critical face is the sum over the
    faces y of x of sign(x, y) times the transport from y after the
    extension x > y.  Transport through a matched cell y with partner u fans
    out over the other faces y2 of u, each weighted by
    -sign(u, y) * sign(u, y2), and then inverts the matched extension u > y.
    Acyclicity makes the gradient paths a DAG, and one iterative sweep over
    it computes the transport, so path length is not limited by the
    interpreter's recursion depth.

    ``F=None`` means constant Z coefficients.  Every block is then the signed
    count of gradient paths x > y0 < u1 > y1 < ... < uk > yk, the sum of
    sign(x, y0) * prod_i (-sign(u_i, y_(i-1)) * sign(u_i, y_i)), a plain
    int; the complex is built and checked over Z, and ``chain.over(ring)``
    reads it over any ring.  With a cosheaf the complex is built, checked
    and read over the cosheaf's own ring.
    """
    if m.kind != "classical":
        raise ValueError("Morse compression requires a classical matching")
    from .matchings import check_acyclic

    acyclic = check_acyclic(c, m)
    if not acyclic.ok:
        raise ValueError(f"matching is not acyclic: {acyclic}")
    blocks = _Counts() if F is None else _Maps(F, m)
    partner = {l: u for u, l in m.pairs}  # lower -> upper
    matched = set(partner) | set(partner.values())
    flow: dict = {}  # cell -> {critical cell reached by a gradient path: block stalk(cell) -> stalk(critical)}

    def spread(cell: str, skip, sign: int) -> dict:
        """Sum over the faces y != skip of cell of sign * sign(cell, y) * flow[y] after cell > y."""
        total: dict = {}
        for y in c.cover_faces[cell]:
            if y == skip:
                continue
            scalar = sign * signs(cell, y)
            for tgt, tail in flow[y].items():
                step = blocks.through(tail, cell, y, scalar)
                total[tgt] = blocks.add(total[tgt], step) if tgt in total else step
        return total

    def sweep(y0: str) -> None:
        """Fill flow[y0] and the flow of every cell a gradient path from y0 passes."""
        stack = [y0]
        while stack:
            y = stack[-1]
            if y in flow:
                stack.pop()
                continue
            if y not in partner:  # critical: the path ends; matched upper: the flow stops
                flow[y] = {} if y in matched else {y: blocks.unit(y)}
                stack.pop()
                continue
            u = partner[y]
            pending = [y2 for y2 in c.cover_faces[u] if y2 != y and y2 not in flow]
            if pending:
                stack.extend(pending)
                continue
            flow[y] = {tgt: blocks.lift(b, y) for tgt, b in spread(u, y, -signs(u, y)).items()}
            stack.pop()

    cells = [[cid for cid in c.cells_of_dim(d) if cid not in matched] for d in range(max(c.top_dim, 0) + 1)]
    boundary = {}  # critical cell -> {critical face: block}
    for level in cells:
        for x in level:
            for y in c.cover_faces[x]:
                sweep(y)
            boundary[x] = spread(x, None, 1)

    def faces(g):
        x, j = g
        for tgt, block in boundary[x].items():
            for i, entry in blocks.column(block, j):
                yield (tgt, i), entry

    cc = ChainComplex.from_faces(blocks.ring, _stalk_generators(blocks.stalk, cells), faces)
    return MorseComplex(cc, tuple(map(tuple, cells)))
