"""Chain complexes over exact rings, Smith normal form, Betti numbers and torsion."""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from .rings import ZZ, Mat, Ring, _sparse_column, eliminate_units, rank_over_field


class NotAComplex(Exception):
    """Raised when consecutive boundary maps fail to compose to zero."""


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def _gcdext(a: int, b: int):
    """Extended gcd: returns (g, s, t) with s*a + t*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def smith_normal_form(m: Mat):
    """Diagonalize an integer matrix: returns (U, D, V) with U*M*V = D.

    U and V are unimodular and the diagonal of D is a divisibility chain of
    non-negative integers.  Each pivot is an entry of smallest absolute
    value, which limits entry growth.
    """
    a = [[int(x) for x in row] for row in m.data]
    nr, nc = m.rows, m.cols
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def row_op(i, j, s, t, s2, t2):
        # rows i, j <- (s*rowi + t*rowj, s2*rowi + t2*rowj)
        for mat in (a, u):
            ri, rj = mat[i], mat[j]
            mat[i] = [s * x + t * y for x, y in zip(ri, rj)]
            mat[j] = [s2 * x + t2 * y for x, y in zip(ri, rj)]

    def col_op(i, j, s, t, s2, t2):
        for mat in (a, v):
            for row in mat:
                x, y = row[i], row[j]
                row[i] = s * x + t * y
                row[j] = s2 * x + t2 * y

    def find_pivot(t):
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                x = a[i][j]
                if x != 0:
                    if best is None or abs(x) < abs(best[2]):
                        best = (i, j, x)
        return (best[0], best[1]) if best else None

    t = 0
    while t < min(nr, nc):
        loc = find_pivot(t)
        if loc is None:
            break
        pi, pj = loc
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for mat in (a, v):
                for row in mat:
                    row[t], row[pj] = row[pj], row[t]
        while True:
            # clear column t
            for i in range(t + 1, nr):
                if a[i][t] == 0:
                    continue
                p, x = a[t][t], a[i][t]
                if x % p == 0:
                    q = x // p
                    a[i] = [y - q * z for y, z in zip(a[i], a[t])]
                    u[i] = [y - q * z for y, z in zip(u[i], u[t])]
                else:
                    g, s, tt = _gcdext(p, x)
                    row_op(t, i, s, tt, -(x // g), p // g)
            # clear row t
            for j in range(t + 1, nc):
                if a[t][j] == 0:
                    continue
                p, x = a[t][t], a[t][j]
                if x % p == 0:
                    q = x // p
                    for mat in (a, v):
                        for row in mat:
                            row[j] -= q * row[t]
                else:
                    g, s, tt = _gcdext(p, x)
                    col_op(t, j, s, tt, -(x // g), p // g)
            if any(a[i][t] != 0 for i in range(t + 1, nr)):
                continue
            if any(a[t][j] != 0 for j in range(t + 1, nc)):
                continue
            # enforce divisibility: pivot must divide the rest of the block
            bad = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if a[i][j] % a[t][t] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
            u[t] = [x + y for x, y in zip(u[t], u[bad])]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    return Mat.from_rows(u, nr), Mat.from_rows(a, nc), Mat.from_rows(v, nc)


def invariant_factors(m) -> list[int]:
    """Nonzero diagonal entries of the Smith form, in divisibility order.

    Unit pivots are eliminated sparsely first; incidence-style matrices
    reduce almost entirely this way and only a small core without unit
    entries ever reaches the dense routine.
    """
    units, core = eliminate_units(m, ZZ)
    return [1] * units + _core_factors(core, ZZ)


def _core_factors(core: Mat, ring: Ring) -> list[int]:
    """The nonzero invariant factors over ``ring`` of a core left by ``eliminate_units``.

    Over Z the core's Smith form gives them; over a field they are all 1,
    as many as the rank of the core's entries mapped into the field.
    """
    if not (core.rows and core.cols):
        return []
    if ring.is_field():
        return [1] * rank_over_field(core, ring)
    _, d, _ = smith_normal_form(core)
    return sorted(int(d[i, i]) for i in range(min(d.rows, d.cols)) if d[i, i] != 0)


# ---------------------------------------------------------------------------
# Chain complexes and homology summaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainComplex:
    """Free chain complex: ranks per degree and boundaries d_n: C_n -> C_(n-1).

    Boundaries are ``Mat`` whose entries are read in ``ring``.  Construction
    checks d o d = 0 once, in ``ring``, and raises ``NotAComplex`` otherwise,
    so every instance is a complex.  ``coefficients`` is the ring that
    ``homology`` reads the complex over: ``ring`` itself, or for a complex
    over Z any ring it is read over through ``over``.
    """

    ring: Ring
    ranks: tuple[int, ...]
    boundaries: dict  # degree n >= 1 -> Mat of shape ranks[n-1] x ranks[n]
    coefficients: Ring = field(init=False)
    # degree n -> eliminate_units(d_n, ring), shared by every read of the complex
    _eliminated: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "coefficients", self.ring)
        for n, d in self.boundaries.items():
            if n < 1 or n >= len(self.ranks):
                raise ValueError(f"boundary degree {n} out of range")
            if (d.rows, d.cols) != (self.ranks[n - 1], self.ranks[n]):
                raise ValueError(
                    f"d_{n} has shape {d.rows}x{d.cols}, expected "
                    f"{self.ranks[n - 1]}x{self.ranks[n]}"
                )
        self.check_boundary_squares_to_zero()

    @staticmethod
    def from_faces(ring: Ring, gens, faces) -> "ChainComplex":
        """Assemble a complex from generators and their boundary faces.

        ``gens[d]`` lists the generators of degree d; ``faces(g)`` yields the
        ``(face, coefficient)`` pairs of the boundary of a generator g of
        positive degree, each face a generator one degree lower.  Repeated
        faces add up and zero sums are dropped.
        """
        index = [{g: i for i, g in enumerate(level)} for level in gens]
        boundaries = {}
        for d in range(1, len(gens)):
            where = index[d - 1]
            columns = []
            for g in gens[d]:
                acc: dict = {}
                for face, coeff in faces(g):
                    i = where[face]
                    acc[i] = acc.get(i, 0) + coeff
                columns.append(_sparse_column(acc, ring))
            boundaries[d] = Mat(len(gens[d - 1]), len(gens[d]), tuple(columns))
        return ChainComplex(ring, tuple(len(level) for level in gens), boundaries)

    @property
    def top(self) -> int:
        return len(self.ranks) - 1

    def boundary(self, n: int) -> Mat:
        if 1 <= n <= self.top and n in self.boundaries:
            return self.boundaries[n]
        rows = self.ranks[n - 1] if 1 <= n <= self.top else 0
        cols = self.ranks[n] if 0 <= n <= self.top else 0
        return Mat.zeros(rows, cols)

    def over(self, ring: Ring) -> "ChainComplex":
        """This complex read over ``ring``: the same boundaries, checked once.

        Only a complex over Z reads over another ring.  Its d o d = 0 was
        checked in plain integers, which implies it over every ring, so the
        check is not run again.
        """
        if ring.name == self.coefficients.name:
            return self
        if self.ring.name != ZZ.name:
            raise ValueError(f"a complex over {self.ring.name} cannot be read over {ring.name}")
        view = copy.copy(self)
        object.__setattr__(view, "coefficients", ring)
        return view

    def check_boundary_squares_to_zero(self):
        """Raise ``NotAComplex`` unless d o d = 0 in ``ring``; over Z the sums are plain ints."""
        for n in range(2, self.top + 1):
            prod = self.boundary(n - 1).mul(self.boundary(n), self.ring)
            if any(prod.columns):
                raise NotAComplex(f"d_{n-1} o d_{n} != 0")


@dataclass(frozen=True)
class HomologySummary:
    """Per-degree Betti number and (over Z) torsion coefficients."""

    ring_name: str
    groups: tuple  # tuple of (betti, torsion tuple)

    def betti(self) -> tuple[int, ...]:
        return tuple(b for b, _ in self.groups)

    def torsion(self) -> tuple:
        return tuple(t for _, t in self.groups)

    def group_str(self, n: int) -> str:
        b, tors = self.groups[n]
        parts = []
        sym = "Z" if self.ring_name == "Z" else self.ring_name
        if b == 1:
            parts.append(sym)
        elif b > 1:
            parts.append(f"{sym}^{b}")
        parts.extend(f"Z/{t}" for t in tors)
        return " + ".join(parts) if parts else "0"

    def __str__(self):
        return ", ".join(f"H_{n} = {self.group_str(n)}" for n in range(len(self.groups)))


def homology(cc: ChainComplex) -> HomologySummary:
    """Betti numbers (and torsion over Z) of an exact chain complex over its coefficient ring.

    One loop over the boundaries: ``eliminate_units`` takes each boundary's
    unit pivots over the complex's own ring, and the core left over is
    finished over ``cc.coefficients``, by a Smith form over Z or by a rank
    over Q or F_p.  Unit pivots over Z are unimodular and commute with
    Z -> Q and Z -> F_p, so one complex over Z gives the homology over every
    ring (the universal coefficient theorem); over a field every nonzero
    entry is a unit and the core is empty.  The elimination does not depend
    on the coefficient ring, so it runs once per complex and every read
    shares it.
    """
    ring = cc.coefficients
    top = cc.top
    # The nonzero invariant factors of each boundary; over a field they are all units.
    factors = {}
    for n in range(1, top + 1):
        if n not in cc._eliminated:
            cc._eliminated[n] = eliminate_units(cc.boundary(n), cc.ring)
        units, core = cc._eliminated[n]
        factors[n] = [1] * units + _core_factors(core, ring)
    groups = []
    for n in range(top + 1):
        f_n, f_next = factors.get(n, []), factors.get(n + 1, [])
        betti = cc.ranks[n] - len(f_n) - len(f_next)
        groups.append((betti, tuple(f for f in f_next if f > 1)))
    return HomologySummary(ring.name, tuple(groups))
