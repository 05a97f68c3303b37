"""Exact coefficient rings, one column-sparse matrix type and sparse elimination.

Everything is computed with arbitrary-precision integers, exact rationals
or prime-field residues; there is no floating point anywhere in the package.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction


class NotInvertible(Exception):
    """A map that must be invertible over the coefficient ring is not."""


class BadScalar(ValueError):
    """A string that is neither an integer nor a 'p/q' fraction."""


class Ring:
    """Base class for the supported exact coefficient rings."""

    name: str

    def normalize(self, x):
        raise NotImplementedError

    @property
    def one(self):
        return self.normalize(1)

    def is_unit(self, a) -> bool:
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def is_field(self) -> bool:
        raise NotImplementedError

    def parse_scalar(self, token):
        """Parse a JSON scalar: an int, or a 'p/q' string."""
        if isinstance(token, bool):
            raise ValueError("booleans are not ring elements")
        if isinstance(token, int):
            return self.normalize(token)
        if isinstance(token, str):
            num, _, den = token.partition("/")
            try:
                num, den = int(num), int(den) if den else 1
            except ValueError:
                raise BadScalar(f"{token!r} is not an integer or a 'p/q' fraction") from None
            if den == 1:
                return self.normalize(num)
            try:
                return self.normalize(Fraction(num, den))
            except (ZeroDivisionError, NotInvertible):
                raise ValueError(f"{token} has a denominator that is 0 or not invertible in {self.name}") from None
        raise ValueError(f"cannot parse ring element {token!r}")

    def format_scalar(self, a):
        a = self.normalize(a)
        if isinstance(a, Fraction):
            if a.denominator == 1:
                return int(a)
            return f"{a.numerator}/{a.denominator}"
        return int(a)

    def __repr__(self):
        return self.name


class IntegerRing(Ring):
    name = "Z"

    def normalize(self, x):
        if type(x) is int:
            return x
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise ValueError(f"{x} is not an integer")
            return int(x)
        return int(x)

    def is_unit(self, a):
        return a in (1, -1)

    def is_field(self):
        return False


class RationalField(Ring):
    name = "Q"

    def normalize(self, x):
        return x if type(x) is Fraction else Fraction(x)  # a Fraction is immutable: no copy

    def is_unit(self, a):
        return a != 0  # exact for int and Fraction

    def inv(self, a):
        a = self.normalize(a)
        if a == 0:
            raise NotInvertible("0 is not invertible")
        return 1 / a

    def is_field(self):
        return True


# Miller-Rabin with the first thirteen primes as bases is exact below this bound,
# psi_13 (Sorenson and Webster, 2015; OEIS A014233). Twelve bases are not
# enough: psi_12 = 318665857834031151167461 is a strong pseudoprime to 2..37.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 2 <= n < _MR_EXACT_BELOW."""
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField(Ring):
    def __init__(self, p: int):
        if p >= _MR_EXACT_BELOW:
            raise ValueError(f"{p} is too large to certify as prime (limit {_MR_EXACT_BELOW})")
        if p < 2 or not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"Fp:{p}"

    def normalize(self, x):
        if type(x) is int:
            return x % self.p
        if isinstance(x, Fraction):
            den = self.normalize(x.denominator)
            return x.numerator * self.inv(den) % self.p
        return int(x) % self.p

    def is_unit(self, a):
        return self.normalize(a) != 0

    def inv(self, a):
        a = self.normalize(a)
        if a == 0:
            raise NotInvertible(f"0 is not invertible in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def is_field(self):
        return True


ZZ = IntegerRing()
QQ = RationalField()


def ring_from_name(name: str) -> Ring:
    if name == "Z":
        return ZZ
    if name == "Q":
        return QQ
    if isinstance(name, str) and name.startswith("Fp:"):
        return PrimeField(int(name.split(":", 1)[1]))
    raise ValueError(f"unknown ring {name!r}; expected Z, Q or Fp:<p>")


def mat_inverse(m: Mat, ring: Ring) -> Mat:
    """Inverse of a square matrix over the ring, by Gauss-Jordan elimination of [m | I].

    Over F_p the row steps run mod p.  Over Q and Z they are fraction-free,
    as in ``eliminate``: each column j of m is scaled to integers by the lcm
    d_j of its denominators, so m = B D^-1 with B integral, and with pivot b
    and entry f, g = gcd(b, f), a row becomes (b/g) * row - (f/g) * pivot row
    and is then divided by the gcd of its entries.  The left block ends
    diagonal, diag(b_1, ..., b_n) = E B with E the right block, so row r of
    m^-1 = D B^-1 is d_r E_r / b_r: one ``Fraction`` per nonzero entry over
    Q.  Over Z the division must be exact, otherwise NotInvertible is
    raised; a unimodular matrix need not have a unit pivot
    (``[[2, 3], [3, 5]]``), so pivots are not required to be units.
    """
    if m.rows != m.cols:
        raise NotInvertible("only square matrices can be inverted")
    n = m.rows
    p = ring.p if isinstance(ring, PrimeField) else 0
    rational = isinstance(ring, RationalField)
    a = [[0] * (2 * n) for _ in range(n)]  # [B | I]
    scale = [1] * n  # d_j
    for j, col in enumerate(m.columns):
        a[j][n + j] = 1
        if p:
            for i, x in col:
                a[i][j] = ring.normalize(x)
        else:
            scale[j], pairs = _integral(col)
            for i, x in pairs:
                a[i][j] = x
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise NotInvertible("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        prow = a[col]
        b = prow[col]
        inv = pow(b, p - 2, p) if p else 0
        for r in range(n):
            f = a[r][col]
            if r == col or not f:
                continue
            if p:
                f = f * inv % p
                a[r] = [(x - f * y) % p for x, y in zip(a[r], prow)]
            else:
                g = math.gcd(b, f)
                lead, f = b // g, f // g
                row = [lead * x - f * y for x, y in zip(a[r], prow)]
                g = math.gcd(*row)
                a[r] = [x // g for x in row] if g != 1 else row
    columns = [[] for _ in range(n)]
    for r, row in enumerate(a):
        b, d = row[r], scale[r]
        inv = pow(b, p - 2, p) if p else 0
        for j in range(n):
            x = row[n + j]
            if not x:
                continue
            if p:
                x = x * inv % p
            elif rational:
                x = Fraction(d * x, b)
            else:
                x, rest = divmod(d * x, b)
                if rest:
                    raise NotInvertible(f"inverse is not defined over {ring.name}")
            columns[j].append((r, x))
    return Mat(n, n, tuple(map(tuple, columns)))


@dataclass(frozen=True)
class Mat:
    """Immutable column-sparse matrix over a ring; the shape is explicit so empty matrices work.

    ``columns[j]`` holds the nonzero entries of column j as ``(row, coeff)``
    pairs in increasing row order.  ``mul``, ``add`` and ``scale`` add up
    raw values and normalize each entry of the result once, so what they
    return holds normalized ring elements and no zeros.
    """

    rows: int
    cols: int
    columns: tuple  # tuple of column tuples of (row, coeff)

    def __post_init__(self):
        if len(self.columns) != self.cols:
            raise ValueError("matrix columns do not match shape")
        for col in self.columns:
            prev = -1
            for i, x in col:
                if not (prev < i < self.rows) or not x:
                    raise ValueError("column entries must be nonzero, in range and in row order")
                prev = i

    @staticmethod
    def from_rows(rows, cols: int | None = None) -> "Mat":
        """The matrix with these rows, zero entries dropped; ``cols`` is the width (needed when there are no rows)."""
        if cols is None:
            cols = len(rows[0]) if rows else 0
        if any(len(row) != cols for row in rows):
            raise ValueError("matrix data does not match shape")
        columns = tuple(tuple((i, row[j]) for i, row in enumerate(rows) if row[j]) for j in range(cols))
        return Mat(len(rows), cols, columns)

    @staticmethod
    def zeros(rows: int, cols: int) -> "Mat":
        return Mat(rows, cols, ((),) * cols)

    @staticmethod
    def identity(n: int, one=1) -> "Mat":
        return Mat(n, n, tuple(((j, one),) for j in range(n)))

    @property
    def data(self) -> tuple:
        """Dense row tuples, built on demand."""
        dense = [[0] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, x in col:
                dense[i][j] = x
        return tuple(map(tuple, dense))

    def __getitem__(self, ij):
        i, j = ij
        return next((x for r, x in self.columns[j] if r == i), 0)

    def mul(self, other: "Mat", ring: Ring) -> "Mat":
        """Product touching only nonzeros: each column of ``other`` combines columns of self.

        The products of an entry are added up raw and the sum is normalized
        once, so over Z the whole product is plain ``int`` arithmetic.  Over
        Q it is too: each column of self is held as integer numerators over
        the lcm of its denominators, the terms of an output column are summed
        over the lcm of the denominators they carry, and each output entry
        becomes one ``Fraction``.
        """
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        if isinstance(ring, RationalField):
            return self._mul_over_q(other)
        out = []
        for col in other.columns:
            acc: dict = {}
            for k, b in col:
                for i, a in self.columns[k]:
                    acc[i] = acc.get(i, 0) + a * b
            out.append(_sparse_column(acc, ring))
        return Mat(self.rows, other.cols, tuple(out))

    def _mul_over_q(self, other: "Mat") -> "Mat":
        scaled = [_integral(col) for col in self.columns]
        out = []
        for col in other.columns:
            den, terms = 1, []
            for k, b in col:
                dk, nums = scaled[k]
                dk *= b.denominator
                den = math.lcm(den, dk)
                terms.append((nums, b.numerator, dk))
            acc: dict = {}
            for nums, nb, dk in terms:
                f = nb * (den // dk)
                for i, a in nums:
                    acc[i] = acc.get(i, 0) + a * f
            out.append(tuple((i, Fraction(acc[i], den)) for i in sorted(acc) if acc[i]))
        return Mat(self.rows, other.cols, tuple(out))

    def add(self, other: "Mat", ring: Ring) -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        out = []
        for a, b in zip(self.columns, other.columns):
            acc = dict(a)
            for i, x in b:
                acc[i] = acc.get(i, 0) + x
            out.append(_sparse_column(acc, ring))
        return Mat(self.rows, self.cols, tuple(out))

    def scale(self, c, ring: Ring) -> "Mat":
        columns = tuple(_sparse_column({i: c * x for i, x in col}, ring) for col in self.columns)
        return Mat(self.rows, self.cols, columns)


def _sparse_column(acc: dict, ring: Ring) -> tuple:
    """The ``(row, coeff)`` pairs of raw sums by row: each normalized once, zeros dropped."""
    column = []
    for i in sorted(acc):
        x = ring.normalize(acc[i])
        if x:
            column.append((i, x))
    return tuple(column)


def _integral(column) -> tuple:
    """``(d, pairs)``: d is the lcm of the column's denominators, pairs its ``(row, d * coeff)``, all ints."""
    den = math.lcm(*[x.denominator for _, x in column])
    return den, [(i, x.numerator * (den // x.denominator)) for i, x in column]


def eliminate(m: Mat, ring: Ring) -> list[int]:
    """The nonzero invariant factors of ``m`` over ``ring``, in divisibility order.

    Unit pivots come first.  Each step takes, among the columns holding a
    unit, one with the fewest nonzeros, and within it the unit whose row has
    the fewest nonzeros (a Markowitz-style choice that limits fill-in).  The
    pivot column is cleared by row operations and the pivot row and column
    are dropped, which leaves a factor 1.  Over a field every nonzero is a
    unit, so the factors are 1s, as many as the rank.  Over Z the rows left
    have no unit entry, and ``_non_unit_factors`` diagonalizes them.  Every
    step over Z is unimodular, so the factors are the Smith form's.  Each
    entry is normalized in ``ring`` as it is loaded, so any matrix of raw
    integers eliminates over any ring.  After loading, the loop makes no
    ring call: a unit is tested inline (over Z it is +-1, which is its own
    inverse; over a field every stored entry is one), the pivot is found in
    one pass over the live rows of its column, and a row step is plain int
    arithmetic, reduced mod p over F_p.

    Over Q no ``Fraction`` is built.  Each column is scaled to integers as
    it is loaded, and a row step is fraction-free: with pivot a and entry f
    of row i in the pivot column, g = gcd(a, f) signed as a, row i becomes
    (a/g) * row_i - (f/g) * row_r and is then divided by the gcd of its
    entries.  Both scale a column or a row by a nonzero rational, which
    keeps the rank and which entries are zero, so the pivots are those of
    the elimination in Q's own arithmetic.
    """
    integral = isinstance(ring, RationalField)  # Q: integer columns and fraction-free row steps
    p = ring.p if isinstance(ring, PrimeField) else 0  # F_p: row steps reduce mod p
    field = integral or p  # every stored entry is a unit; over Z only +-1 are
    rows: dict = {}  # row -> {col: coeff}
    cols: dict = {}  # col -> set of rows
    if integral:  # each column scaled to ints, which need no normalizing
        for j, col in enumerate(m.columns):
            for i, x in _integral(col)[1]:
                if x:
                    rows.setdefault(i, {})[j] = x
                    cols.setdefault(j, set()).add(i)
    else:
        normalize = ring.normalize
        for j, col in enumerate(m.columns):
            for i, x in col:
                x = normalize(x)
                if x:
                    rows.setdefault(i, {})[j] = x
                    cols.setdefault(j, set()).add(i)
    heap = [(len(s), j) for j, s in cols.items()]
    heapq.heapify(heap)
    pivots = 0
    while heap:
        n, c = heapq.heappop(heap)
        live = cols.get(c)
        if live is None or len(live) != n:
            continue  # stale entry: the column changed or was eliminated
        r, size = -1, 0  # the unit whose row has the fewest nonzeros, ties to the lower row
        for i in live:
            row = rows[i]
            if field or row[c] == 1 or row[c] == -1:
                k = len(row)
                if r < 0 or k < size or (k == size and i < r):
                    r, size = i, k
        if r < 0:
            continue  # pushed again if a later step changes this column
        prow = rows.pop(r)
        a = prow.pop(c)
        inv = pow(a, p - 2, p) if p else a  # over Z, a = +-1 is its own inverse
        del cols[c]
        live.discard(r)
        for j in prow:
            cols[j].discard(r)
        for i in live:
            row = rows[i]
            f = row.pop(c)
            if integral:
                g = math.gcd(a, f) if a > 0 else -math.gcd(a, f)
                lead, f = a // g, f // g
                if lead != 1:
                    for j in row:
                        row[j] *= lead
            else:
                f *= inv
            for j, x in prow.items():
                nx = (row.get(j, 0) - f * x) % p if p else row.get(j, 0) - f * x
                if nx:
                    row[j] = nx
                    cols[j].add(i)
                else:
                    row.pop(j, None)
                    cols[j].discard(i)
            if not row:
                del rows[i]
            elif integral:
                g = math.gcd(*row.values())
                if g != 1:
                    for j in row:
                        row[j] //= g
        for j in prow:
            if cols[j]:
                heapq.heappush(heap, (len(cols[j]), j))
            else:
                del cols[j]
        pivots += 1
    return [1] * pivots + (_non_unit_factors(rows, cols) if rows else [])


def _non_unit_factors(rows: dict, cols: dict) -> list[int]:
    """The invariant factors of the rows the unit loop leaves over Z, in divisibility order.

    ``rows`` (row -> {col: coeff}) and ``cols`` (col -> set of rows) are
    the loop's maps, changed in place.  The pivot p is an entry of least
    absolute value.  Row steps reduce the rest of its column modulo p, then
    column steps the rest of its row.  When every remainder is 0, |p| is
    recorded and its row and column go; otherwise a nonzero remainder,
    smaller than |p|, is the next pivot.  gcd/lcm swaps then put the
    recorded diagonal in divisibility order.
    """

    def add(i, j, x):  # entry (i, j) += x
        nx = rows[i].get(j, 0) + x
        if nx:
            rows[i][j] = nx
            cols[j].add(i)
        else:
            del rows[i][j]
            cols[j].discard(i)

    diagonal = []
    while any(rows.values()):
        _, r, c = min((abs(x), i, j) for i, row in rows.items() for j, x in row.items())
        prow = rows[r]
        p = prow[c]
        for i in cols[c] - {r}:
            q = rows[i][c] // p
            for j, x in prow.items():
                add(i, j, -q * x)
        for j in prow.keys() - {c}:
            q = prow[j] // p
            for i in cols[c]:
                add(i, j, -q * rows[i][c])
        if cols[c] == {r} and prow.keys() == {c}:
            diagonal.append(abs(p))
            del rows[r], cols[c]
    for i in range(len(diagonal)):
        for j in range(i + 1, len(diagonal)):
            a, b = diagonal[i], diagonal[j]
            g = math.gcd(a, b)
            diagonal[i], diagonal[j] = g, a // g * b
    return diagonal


def rank_over_field(m: Mat, ring: Ring) -> int:
    """Rank of a matrix by exact sparse elimination over a field."""
    if not ring.is_field():
        raise ValueError("rank_over_field requires a field")
    return len(eliminate(m, ring))
