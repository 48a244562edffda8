"""Exact dense linear algebra over the rationals.

Matrices hold their entries as tuples of tuples of ``Fraction``, which is
what they compare, hash and serialize by.  Each matrix also carries a
lazily built integer form, :attr:`Mat.ints`: a grid of integer numerators
over one common denominator, the lcm of the entries' denominators.
Matrix arithmetic (products, sums, scaling, :func:`product_sum`,
:func:`linear_combination`) and :func:`commutes_with` run on that form
in Python ints and build one ``Fraction`` per result entry; each result
keeps its own integer form, so chained arithmetic never converts back.
Subspaces are stored as the unique reduced row-echelon basis, so two
equal subspaces compare equal as values.  Elimination runs on integer
rows (each row scaled by the lcm of its denominators).  No floating
point appears anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence

IntGrid = tuple[tuple[int, ...], ...]
Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Integer rows larger than this get gcd-compressed during elimination to
# keep arithmetic on native-size ints.
_GROWTH_LIMIT = 1 << 63


def as_scalar(value) -> Fraction:
    """Coerce an int, string such as ``"2/3"``, or Fraction to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floating point is not allowed in exact computations")
    return Fraction(value)


def vector(values: Iterable) -> Vector:
    return tuple(as_scalar(v) for v in values)


def zero_vector(n: int) -> Vector:
    return (_ZERO,) * n


def unit_vector(n: int, i: int) -> Vector:
    return tuple(_ONE if j == i else _ZERO for j in range(n))


def is_zero_vector(a: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in a)


@dataclass(frozen=True)
class Mat:
    """Immutable dense rational matrix, row-major."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("entry grid does not match declared shape")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable], cols: int | None = None) -> "Mat":
        grid = tuple(vector(r) for r in rows)
        if grid:
            width = len(grid[0])
        elif cols is not None:
            width = cols
        else:
            raise ValueError("column count required for a matrix with no rows")
        return cls(len(grid), width, grid)

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls(n, n, tuple(unit_vector(n, i) for i in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Mat":
        return cls(rows, cols, tuple(zero_vector(cols) for _ in range(rows)))

    @classmethod
    def _from_ints(cls, rows: int, cols: int, grid: IntGrid, den: int) -> "Mat":
        """The matrix ``grid / den``, keeping its reduced integer form."""
        g = gcd(den, *(x for row in grid for x in row)) if den > 1 else 1
        if g > 1:
            den //= g
            grid = tuple(tuple(x // g for x in row) for row in grid)
        m = cls(rows, cols, tuple(tuple(_fraction(x, den) for x in row) for row in grid))
        object.__setattr__(m, "_ints", (grid, den))
        return m

    @property
    def ints(self) -> tuple[IntGrid, int]:
        """``(numerators, denominator)`` with ``entries == numerators / denominator``.

        The denominator is the lcm of the entries' denominators; the pair is
        built on first use and cached on the matrix.
        """
        form = self.__dict__.get("_ints")
        if form is None:
            den = 1
            for row in self.entries:
                for x in row:
                    den = lcm(den, x.denominator)
            grid = tuple(tuple(x.numerator * (den // x.denominator) for x in row)
                         for row in self.entries)
            form = (grid, den)
            object.__setattr__(self, "_ints", form)
        return form

    def is_identity(self) -> bool:
        grid, den = self.ints
        return den == 1 and self.rows == self.cols and grid == _identity_grid(self.rows)

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        a, da = self.ints
        b, db = other.ints
        return Mat._from_ints(self.rows, other.cols, _int_matmul(a, b, other.cols), da * db)

    def __add__(self, other: "Mat") -> "Mat":
        return linear_combination((1, 1), (self, other))

    def __sub__(self, other: "Mat") -> "Mat":
        return linear_combination((1, -1), (self, other))

    def __neg__(self) -> "Mat":
        return self.scale(-1)

    def scale(self, c) -> "Mat":
        c = as_scalar(c)
        a, den = self.ints
        num = c.numerator
        return Mat._from_ints(self.rows, self.cols,
                              tuple(tuple(num * x for x in row) for row in a),
                              den * c.denominator)

    def apply(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(sum(x * y for x, y in zip(row, v)) for row in self.entries)

    def transpose(self) -> "Mat":
        return Mat(self.cols, self.rows, tuple(zip(*self.entries)) if self.entries else
                   tuple(() for _ in range(self.cols)))

    def col(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def is_zero(self) -> bool:
        return not any(map(any, self.ints[0]))

    def flatten(self) -> Vector:
        """Row-major flattening, used to treat matrices as vectors."""
        return tuple(x for row in self.entries for x in row)


@lru_cache(maxsize=1 << 12)
def _fraction(num: int, den: int) -> Fraction:
    """``Fraction(num, den)``; entries recur, and a Fraction is immutable."""
    return Fraction(num, den)


@lru_cache(maxsize=None)
def _identity_grid(n: int) -> IntGrid:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _int_matmul(a: IntGrid, b: IntGrid, cols: int) -> IntGrid:
    """Integer grid product; ``cols`` is the column count of ``b``."""
    bt = tuple(zip(*b)) if b else ((),) * cols
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def commutes_with(a: Mat, b: Mat) -> bool:
    """True iff ``a b == b a``; decided on the integer forms, at once for an identity."""
    if a.is_identity() or b.is_identity():
        return True
    (na, _), (nb, _) = a.ints, b.ints
    return _int_matmul(na, nb, b.cols) == _int_matmul(nb, na, a.cols)


def linear_combination(coeffs: Sequence[int], mats: Sequence[Mat]) -> Mat:
    """``sum(c * m)`` over integer coefficients and same-shape matrices, in one integer pass."""
    rows, cols = mats[0].rows, mats[0].cols
    if any((m.rows, m.cols) != (rows, cols) for m in mats):
        raise ValueError("shape mismatch")
    den = lcm(*(m.ints[1] for m in mats))
    acc = [[0] * cols for _ in range(rows)]
    for c, m in zip(coeffs, mats):
        grid, d = m.ints
        f = c * (den // d)
        if f:
            acc = [[a + f * x for a, x in zip(arow, row)] for arow, row in zip(acc, grid)]
    return Mat._from_ints(rows, cols, tuple(map(tuple, acc)), den)


def product_sum(a: Mat, b: Mat, sign: int, divisor: int = 1) -> Mat:
    """``(a b + sign * b a) / divisor`` for square ``a`` and ``b``, in one integer pass."""
    if (a.rows, a.cols) != (b.rows, b.cols) or a.rows != a.cols:
        raise ValueError("product_sum needs two square matrices of one size")
    (na, da), (nb, db) = a.ints, b.ints
    bt = tuple(zip(*nb))
    at = tuple(zip(*na))
    grid = tuple(
        tuple(sum(map(mul, ra, cb)) + sign * sum(map(mul, rb, ca))
              for cb, ca in zip(bt, at))
        for ra, rb in zip(na, nb)
    )
    return Mat._from_ints(a.rows, a.cols, grid, da * db * divisor)


# ---------------------------------------------------------------------------
# integer echelon engine
# ---------------------------------------------------------------------------

def _int_row(row: Sequence) -> list[int]:
    """Scale a rational row to a primitive integer row (same projective row)."""
    den = 1
    for x in row:
        if isinstance(x, Fraction):
            d = x.denominator
            if d != 1:
                den = den * d // gcd(den, d)
    if den == 1:
        out = [int(x) for x in row]
    else:
        out = [int(x * den) if isinstance(x, Fraction) else x * den for x in row]
    g = 0
    for x in out:
        if x:
            g = gcd(g, x)
            if g == 1:
                break
    if g > 1:
        out = [x // g for x in out]
    return out


def _first_nonzero(row: Sequence[int], start: int) -> int | None:
    for j in range(start, len(row)):
        if row[j]:
            return j
    return None


class Echelon:
    """Incremental integer row-echelon accumulator.

    Pivot rows are gcd-reduced with a positive leading entry; incoming rows
    are folded in by cross-multiplication, which never leaves the integers.
    """

    __slots__ = ("width", "pivots")

    def __init__(self, width: int):
        self.width = width
        self.pivots: dict[int, list[int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, row: Sequence) -> bool:
        """Fold one (rational or integer) row in; True if the rank grew."""
        r = _int_row(row)
        return self.add_int(r)

    def add_int(self, row: list[int]) -> bool:
        pivots = self.pivots
        j = _first_nonzero(row, 0)
        while j is not None:
            p = pivots.get(j)
            if p is None:
                break
            a, b = p[j], row[j]
            g = gcd(a, b)
            am, bm = a // g, b // g
            if am == 1:
                row = [x - bm * y for x, y in zip(row, p)]
            else:
                row = [am * x - bm * y for x, y in zip(row, p)]
                if max(map(abs, row)) > _GROWTH_LIMIT:
                    gg = 0
                    for x in row:
                        if x:
                            gg = gcd(gg, x)
                            if gg == 1:
                                break
                    if gg > 1:
                        row = [x // gg for x in row]
            j = _first_nonzero(row, j + 1)
        if j is None:
            return False
        g = 0
        for x in row:
            if x:
                g = gcd(g, x)
                if g == 1:
                    break
        if g > 1:
            row = [x // g for x in row]
        if row[j] < 0:
            row = [-x for x in row]
        self.pivots[j] = row
        return True

    def contains_int(self, row: Sequence) -> bool:
        """True iff the row already lies in the accumulated row space."""
        r = _int_row(row)
        pivots = self.pivots
        j = _first_nonzero(r, 0)
        while j is not None:
            p = pivots.get(j)
            if p is None:
                return False
            a, b = p[j], r[j]
            g = gcd(a, b)
            am, bm = a // g, b // g
            r = [am * x - bm * y for x, y in zip(r, p)]
            j = _first_nonzero(r, j + 1)
        return True

    def rref_rows(self) -> list[tuple[int, Vector]]:
        """Fully reduced rows as (pivot column, unit-pivot rational row)."""
        cols = sorted(self.pivots)
        rows = [list(self.pivots[c]) for c in cols]
        for i in range(len(cols) - 1, -1, -1):
            c = cols[i]
            prow = rows[i]
            pl = prow[c]
            for m in range(i):
                b = rows[m][c]
                if not b:
                    continue
                g = gcd(pl, b)
                am, bm = pl // g, b // g
                if am == 1:
                    rows[m] = [x - bm * y for x, y in zip(rows[m], prow)]
                else:
                    row = [am * x - bm * y for x, y in zip(rows[m], prow)]
                    gg = 0
                    for x in row:
                        if x:
                            gg = gcd(gg, x)
                            if gg == 1:
                                break
                    rows[m] = [x // gg for x in row] if gg > 1 else row
        return [(c, tuple(Fraction(x, r[c]) for x in r)) for c, r in zip(cols, rows)]

    def nullspace_vectors(self) -> list[Vector]:
        """Canonical basis of the right nullspace of the accumulated rows."""
        reduced = self.rref_rows()
        pivot_cols = {c for c, _ in reduced}
        free_cols = [c for c in range(self.width) if c not in pivot_cols]
        out = []
        for f in free_cols:
            v = [_ZERO] * self.width
            v[f] = _ONE
            for c, row in reduced:
                if row[f]:
                    v[c] = -row[f]
            out.append(tuple(v))
        return out


class RrefResult(NamedTuple):
    reduced: Mat
    pivots: tuple[int, ...]
    rank: int


def rref(m: Mat) -> RrefResult:
    """Unique reduced row-echelon form of ``m`` over the rationals."""
    ech = Echelon(m.cols)
    for row in m.entries:
        ech.add(row)
    reduced_rows = [row for _, row in ech.rref_rows()]
    pivots = tuple(sorted(ech.pivots))
    while len(reduced_rows) < m.rows:
        reduced_rows.append(zero_vector(m.cols))
    return RrefResult(Mat(m.rows, m.cols, tuple(reduced_rows)), pivots, len(pivots))


def nullspace(m: Mat) -> "SubspaceBasis":
    """Canonical basis of ``{v : m v = 0}``."""
    ech = Echelon(m.cols)
    for row in m.entries:
        ech.add(row)
    return SubspaceBasis.span(m.cols, ech.nullspace_vectors())


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubspaceBasis:
    """A subspace of F^n held as its reduced-echelon basis (rows, no zeros)."""

    ambient_dim: int
    vectors: tuple[Vector, ...]

    def __post_init__(self):
        for v in self.vectors:
            if len(v) != self.ambient_dim:
                raise ValueError("basis vector length does not match ambient dimension")

    @classmethod
    def span(cls, ambient_dim: int, vectors: Iterable[Sequence]) -> "SubspaceBasis":
        ech = Echelon(ambient_dim)
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError("spanning vector length does not match ambient dimension")
            ech.add(v)
        return cls(ambient_dim, tuple(row for _, row in ech.rref_rows()))

    @classmethod
    def zero(cls, ambient_dim: int) -> "SubspaceBasis":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "SubspaceBasis":
        return cls(ambient_dim, tuple(unit_vector(ambient_dim, i) for i in range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.vectors)


def contains(a: SubspaceBasis, v: Sequence[Fraction]) -> bool:
    """True iff ``v`` lies in the span of ``a``."""
    if len(v) != a.ambient_dim:
        raise ValueError("vector length does not match ambient dimension")
    residue = list(v)
    for row in a.vectors:
        pc = next(j for j, x in enumerate(row) if x)
        c = residue[pc]
        if c:
            residue = [x - c * y for x, y in zip(residue, row)]
    return all(x == 0 for x in residue)


def subspace_sum(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimensions differ")
    return SubspaceBasis.span(a.ambient_dim, a.vectors + b.vectors)


def subspace_intersect(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    """Zassenhaus: echelonize [A|A] over [B|0]; zero-left rows span a ∩ b."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimensions differ")
    n = a.ambient_dim
    ech = Echelon(2 * n)
    for v in a.vectors:
        ech.add(tuple(v) + tuple(v))
    for v in b.vectors:
        ech.add(tuple(v) + zero_vector(n))
    inter = []
    for c, row in ech.rref_rows():
        if c >= n:
            inter.append(row[n:])
    return SubspaceBasis.span(n, inter)


def is_subspace_of(a: SubspaceBasis, b: SubspaceBasis) -> bool:
    return all(contains(b, v) for v in a.vectors)


def extend_to_complement(inner: SubspaceBasis, allowed: Sequence[int]) -> SubspaceBasis:
    """Greedy complement of ``inner`` inside span{e_i : i in allowed}.

    Standard basis vectors are tried in increasing index order, so the
    result is deterministic.
    """
    n = inner.ambient_dim
    allowed = sorted(set(allowed))
    allowed_set = set(allowed)
    for v in inner.vectors:
        if any(x != 0 and j not in allowed_set for j, x in enumerate(v)):
            raise ValueError("inner subspace is not supported on the allowed coordinates")
    ech = Echelon(n)
    for v in inner.vectors:
        ech.add(v)
    chosen = []
    target = len(allowed)
    for i in allowed:
        if ech.rank == target:
            break
        e = [0] * n
        e[i] = 1
        if ech.add_int(e):
            chosen.append(unit_vector(n, i))
    return SubspaceBasis.span(n, chosen)
