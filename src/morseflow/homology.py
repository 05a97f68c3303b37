"""Chain complexes over exact rings, invariant factors, Betti numbers and torsion."""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from .rings import ZZ, Mat, Ring, _sparse_column, eliminate


class NotAComplex(Exception):
    """Raised when consecutive boundary maps fail to compose to zero."""


def invariant_factors(m) -> list[int]:
    """Nonzero diagonal entries of the Smith form over Z, in divisibility order."""
    return eliminate(m, ZZ)


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
    # degree n -> eliminate(d_n, ring), shared by every read of the complex
    _factors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
                    acc[i] = acc[i] + coeff if i in acc else coeff
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

    ``eliminate`` gives each boundary's nonzero invariant factors over the
    complex's own ring, once per complex, shared by every read.  Over that
    ring they are used as they are.  A complex over Z read over Q or F_p
    keeps one factor 1 for each factor that is a unit there: every step of
    the elimination over Z is unimodular, so this is the universal
    coefficient theorem.
    """
    ring = cc.coefficients
    top = cc.top
    factors = {}
    for n in range(1, top + 1):
        if n not in cc._factors:
            cc._factors[n] = eliminate(cc.boundary(n), cc.ring)
        factors[n] = cc._factors[n]
        if ring.name != cc.ring.name:
            # 1 is a unit in every ring: only the other factors need the ring's test
            factors[n] = [1] * sum(f == 1 or ring.is_unit(f) for f in factors[n])
    groups = []
    for n in range(top + 1):
        f_n, f_next = factors.get(n, []), factors.get(n + 1, [])
        betti = cc.ranks[n] - len(f_n) - len(f_next)
        groups.append((betti, tuple(f for f in f_next if f > 1)))
    return HomologySummary(ring.name, tuple(groups))
