"""Exact dense linear algebra over the rationals.

A matrix stores one form, :attr:`Mat.ints`: a grid of integer numerators
over one positive common denominator, reduced so that the denominator is
the lcm of the entries' denominators.  Equal matrices therefore compare
and hash equal; a matrix stores its hash on first use.  Matrix arithmetic (products, sums, scaling,
:func:`product_sum`, :func:`linear_combination`) and :func:`commutes_with`
run on that form in Python ints.  A matrix builds a ``Fraction`` only
where rational entries come in (:meth:`Mat.from_rows`) and where they are
read out (:attr:`Mat.entries`); :mod:`nhomlie.io` formats the integer form
itself.  A subspace stores its unique reduced row-echelon basis as
primitive integer rows with positive leading entries, so equal subspaces
compare equal; rational vectors become integer rows only where they come
in.  That basis is also the state every elimination works on:
:func:`_reduce` clears each of its leads from an incoming row in one pass,
which decides membership, and :func:`_insert` adds a row that does not
reduce to zero and clears its lead from the other rows.  Spans, sums,
intersections, complements and :func:`rref` grow a canonical basis this
way, so every stored row is a row of that unique form and its size is
bounded by the form itself.  :func:`kernel` reads sparse rows, each the
list of its (column, value) pairs, and keeps the nullspace itself instead
of pivots: one primitive integer vector per free column, stored over the
columns retired so far (its own entry first, then its entries at the
retired columns in retirement order), which hold all of its support.  A
dependent row costs one dot product per vector over the row's nonzeros; a
retirement costs, for each vector it updates, one scaling of that vector
plus the nonzeros of the retired column's vector; rows past full rank are
never read, and the vectors left at the end, written out at the full
width, are the nullspace's reduced basis.  No floating point appears
anywhere.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import compress
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence

IntGrid = tuple[tuple[int, ...], ...]
Vector = tuple[Fraction, ...]


def as_scalar(value) -> Fraction:
    """Coerce an int, string such as ``"2/3"``, or Fraction to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floating point is not allowed in exact computations")
    return Fraction(value)


def vector(values: Iterable) -> Vector:
    return tuple(as_scalar(v) for v in values)


@dataclass(frozen=True)
class Mat:
    """Immutable dense rational matrix, row-major.

    ``ints = (numerator rows, denominator)`` is its only stored form; it is
    reduced on construction, so equal matrices compare and hash equal.
    """

    rows: int
    cols: int
    ints: tuple[IntGrid, int]

    def __post_init__(self):
        grid, den = self.ints
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(grid) != self.rows or any(len(r) != self.cols for r in grid):
            raise ValueError("entry grid does not match declared shape")
        if den < 1:
            raise ValueError("denominator must be positive")
        g = gcd(den, *(x for row in grid for x in row)) if den > 1 else 1
        if g > 1:
            object.__setattr__(self, "ints", (
                tuple(tuple(x // g for x in row) for row in grid), den // g))

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable], cols: int | None = None) -> "Mat":
        grid = tuple(vector(r) for r in rows)
        if grid:
            width = len(grid[0])
            if cols is not None and cols != width:
                raise ValueError(f"rows have {width} entries, not the declared {cols} columns")
        elif cols is not None:
            width = cols
        else:
            raise ValueError("column count required for a matrix with no rows")
        den = lcm(*(x.denominator for row in grid for x in row))
        return cls(len(grid), width, (
            tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in grid), den))

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls(n, n, (_identity_grid(n), 1))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Mat":
        return cls(rows, cols, (((0,) * cols,) * rows, 1))

    _hash = None  # not a field: stored on first use, as value caches hash operands often

    def __hash__(self):
        if self._hash is None:  # set directly: a cached_property would take a lock
            object.__setattr__(self, "_hash", hash((self.rows, self.cols, self.ints)))
        return self._hash

    @cached_property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as ``Fraction``s, built on first use."""
        grid, den = self.ints
        return tuple(tuple(Fraction(x, den) for x in row) for row in grid)

    def is_identity(self) -> bool:
        grid, den = self.ints
        return den == 1 and self.rows == self.cols and grid == _identity_grid(self.rows)

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        a, da = self.ints
        b, db = other.ints
        return Mat(self.rows, other.cols, (_int_matmul(a, b, other.cols), da * db))

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
        return Mat(self.rows, self.cols,
                   (tuple(tuple(num * x for x in row) for row in a), den * c.denominator))

    def transpose(self) -> "Mat":
        grid, den = self.ints
        return Mat(self.cols, self.rows,
                   (tuple(zip(*grid)) if grid else ((),) * self.cols, den))

    def is_zero(self) -> bool:
        return not any(map(any, self.ints[0]))

    def flat_ints(self) -> list[int]:
        """Row-major numerators: the flattening times the denominator."""
        return [x for row in self.ints[0] for x in row]

    def vec_ints(self) -> list[int]:
        """Column-major numerators, the solver's order for unknown matrices."""
        return [x for col in zip(*self.ints[0]) for x in col]


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
    return Mat(rows, cols, combined_ints(coeffs, mats))


def combined_ints(coeffs: Sequence[int], mats: Sequence[Mat]) -> tuple[IntGrid, int]:
    """The integer form of ``sum(c * m)``, unreduced, over the lcm of the denominators.

    Each entry is summed in one pass over the zipped grids.  A caller that
    only needs to know whether the sum vanishes reads the grid without
    building a :class:`Mat`.
    """
    den = lcm(*(m.ints[1] for m in mats))
    factors = [c * (den // m.ints[1]) for c, m in zip(coeffs, mats)]
    grid = tuple(tuple(sum(map(mul, factors, entries)) for entries in zip(*rows))
                 for rows in zip(*(m.ints[0] for m in mats)))
    return grid, den


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
    return Mat(a.rows, a.cols, (grid, da * db * divisor))


# ---------------------------------------------------------------------------
# integer elimination
# ---------------------------------------------------------------------------

def _int_row(row: Sequence) -> list[int]:
    """Scale a rational row to a primitive integer row (same projective row).

    Entries other than ints and Fractions go through :func:`as_scalar`, so
    a float raises TypeError.
    """
    row = [x if isinstance(x, (int, Fraction)) else as_scalar(x) for x in row]
    den = lcm(*(x.denominator for x in row))
    return _primitive([x.numerator * (den // x.denominator) for x in row])


def _primitive(row: list[int]) -> list[int]:
    """``row`` divided by the gcd of its entries (a zero row as it is)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _lead(row: Sequence[int]) -> int | None:
    """The column of the first nonzero entry of ``row``; None for a zero row."""
    return next(compress(range(len(row)), row), None)


def _reduce(basis: Sequence[Sequence[int]], leads: Sequence[int],
            row: Sequence[int]) -> Sequence[int]:
    """``row`` with the lead of every canonical ``basis`` row cleared.

    Canonical rows are zero at each other's leads, so clearing one lead
    only scales the row's entries at the other leads: one pass clears
    them all, and the rows to clear are those whose lead is nonzero in
    ``row`` as it comes in.  The result is zero iff ``row`` lies in the
    span of ``basis``.
    """
    for p, j in compress(zip(basis, leads), map(row.__getitem__, leads)):
        b = row[j]
        g = gcd(p[j], b)
        am, bm = p[j] // g, b // g
        if am == 1:
            row = [x - bm * y for x, y in zip(row, p)]
        else:
            row = [am * x - bm * y for x, y in zip(row, p)]
    return row


def _insert(basis: list, leads: list[int], row: Sequence[int]) -> bool:
    """Grow the canonical ``basis`` (``leads`` alongside) by ``row``; True if it grew.

    The reduced row is made primitive with a positive lead, its lead is
    cleared from the other rows (each kept primitive) and it goes in at
    its place in lead order, so ``basis`` stays the reduced row-echelon
    form of its span and each entry stays bounded by that form.
    """
    row = _reduce(basis, leads, row)
    j = _lead(row)
    if j is None:
        return False
    g = gcd(*row) if row[j] > 0 else -gcd(*row)
    if g != 1:
        row = [x // g for x in row]
    a = row[j]
    for i, p in enumerate(basis):
        b = p[j]
        if b:
            g = gcd(a, b)
            am, bm = a // g, b // g
            basis[i] = _primitive([am * x - bm * y for x, y in zip(p, row)])
    i = bisect(leads, j)
    leads.insert(i, j)
    basis.insert(i, row)
    return True


def _grown(width: int, basis: list, leads: list[int],
           rows: Iterable[Sequence[int]]) -> "SubspaceBasis":
    """The span of the canonical ``basis`` (``leads`` alongside) and the integer ``rows``."""
    for row in rows:
        _insert(basis, leads, row)
    return SubspaceBasis(width, tuple(map(tuple, basis)))


def kernel(rows: Iterable[Sequence[tuple[int, int]]],
           width: int) -> tuple[tuple[int, ...], ...]:
    """Basis of ``{v : r v = 0 for every row r}``, as integer rows.

    Each row is a sequence of its (column, value) pairs, in any order, at
    distinct columns; zero values may be left out.  Each basis vector is a
    primitive integer row with a positive leading entry, and together they
    are the nullspace's reduced row-echelon basis in the canonical form of
    :class:`SubspaceBasis`.

    The elimination keeps the kernel, not the pivots.  Every column is
    free at first; each free column f holds a vector v_f, the unit vector
    e_f (left implicit) until a row touches it, after which it is stored.
    A row whose dot product with every v_f is zero is dependent and
    skipped.  Otherwise the largest free column i with a nonzero dot
    product d_i is retired, and each other v_f with d_f != 0 becomes
    (d_i/g) v_f - (d_f/g) v_i, made primitive (g = gcd(d_i, d_f)), which is
    orthogonal to the row and to every row before it.  Once no column is
    free, no further row is read.

    Invariant: v_f is, up to scale, the unique kernel vector of the rows
    read so far whose support lies in {f} and the retired columns.  Its
    dot product with a row is therefore that row's entry at f after
    reduction by the rows read so far, scaled by v_f[f] != 0, so the
    nonzero dot products are the nonzero free entries of the reduced row,
    and retiring the largest of them is exactly the pivot choice of an
    echelon built from the right.  The retired columns are that echelon's
    pivots, and the free columns left at the end are the pivot columns of
    the nullspace's reduced row-echelon form (in matroid terms, the
    complement of the column basis chosen greedily from the right is the
    basis of the dual matroid chosen greedily from the left).  Each v_f is
    zero at every other free column, and a retired column enters its
    support only by being retired while f is free, hence larger than f; so
    v_f leads at f and is that form's vector for f up to scale; it is kept
    primitive, and the update keeps v_f[f] > 0, so the output is unique.
    By Cramer's rule every entry of v_f is a minor of the rows read,
    divided by the gcd of the vector's entries, so the stored entries are
    bounded by construction and never need compressing.

    Storage follows the invariant: v_f is stored as one list, v_f[f] first
    and then its entries at the retired columns in retirement order, which
    is all of its support.  A row's pairs at retired columns are mapped to
    those places once, so a dot product costs the row's nonzeros.  A
    retirement gives column i the next place; v_i's nonzero entries, in
    the places after the retirement, are listed once and shared by every
    update, so an update costs one scaling of v_f plus those entries, and
    the vectors it does not update gain a zero at the new place.  The full
    width is written out only for the returned basis.
    """
    vecs: dict[int, list[int]] = {}  # the stored v_f; every other free v_f is e_f
    retired: list[int] = []  # the retired columns, in retirement order
    place: dict[int, int] = {}  # retired column -> its index in every stored vector
    if width:  # with no column free, no row is read
        for row in rows:
            at = [(place[j], x) for j, x in row if x and j in place]
            dots = {}
            if at:
                places, vals = zip(*at)
                for f, v in vecs.items():
                    d = sum(map(mul, map(v.__getitem__, places), vals))
                    if d:
                        dots[f] = d
            for f, x in row:  # at a free column f, only v_f is nonzero
                if x and f not in place:
                    d = dots.pop(f, 0) + x * vecs.get(f, (1,))[0]
                    if d:
                        dots[f] = d
            if not dots:
                continue
            i = max(dots)
            di = dots.pop(i)
            vi = vecs.pop(i, [1])
            retired.append(i)
            new = place[i] = len(retired)
            # v_i's nonzero entries in the places after its retirement
            nz = [(p, x) for p, x in enumerate(vi) if p and x] + [(new, vi[0])]
            for v in vecs.values():
                v.append(0)
            for f, df in dots.items():
                g = gcd(di, df) if di > 0 else -gcd(di, df)  # so that a > 0
                a, b = di // g, df // g
                vf = [a * x for x in vecs.get(f) or [1] + [0] * new]
                for p, x in nz:
                    vf[p] -= b * x
                vecs[f] = _primitive(vf)
            if len(retired) == width:
                break
    basis = []
    for f in sorted(set(range(width)).difference(place)):
        out = [0] * width
        for c, x in zip([f] + retired, vecs.get(f, (1,))):
            out[c] = x
        basis.append(tuple(out))
    return tuple(basis)


class RrefResult(NamedTuple):
    reduced: Mat
    pivots: tuple[int, ...]
    rank: int


def rref(m: Mat) -> RrefResult:
    """Unique reduced row-echelon form of ``m`` over the rationals."""
    s = _grown(m.cols, [], [], m.ints[0])
    den = lcm(*(r[c] for r, c in zip(s.rows, s.leads)))  # each row is over its pivot
    grid = tuple(tuple(x * (den // r[c]) for x in r) for r, c in zip(s.rows, s.leads))
    grid += ((0,) * m.cols,) * (m.rows - s.dim)
    return RrefResult(Mat(m.rows, m.cols, (grid, den)), s.leads, s.dim)


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubspaceBasis:
    """A subspace of F^n held as its reduced row-echelon basis.

    Each row is a primitive integer row with a positive leading entry.  The
    form is unique, and checked on construction, so equal subspaces compare
    equal.
    """

    ambient_dim: int
    rows: IntGrid

    def __post_init__(self):
        for row in self.rows:
            if len(row) != self.ambient_dim:
                raise ValueError("basis row length does not match ambient dimension")
            if not set(map(type, row)) <= {int}:
                raise ValueError("basis rows must hold ints")
        leads = self.leads
        for i, (row, j) in enumerate(zip(self.rows, leads)):
            if j is None or row[j] < 0 or gcd(*row) != 1 or (i and j <= leads[i - 1]):
                raise ValueError("basis rows must be primitive, with positive leading"
                                 " entries in increasing columns")
        # each row is nonzero at its own lead, so it must be zero at the others
        for row in self.rows:
            if sum(map(bool, map(row.__getitem__, leads))) != 1:
                raise ValueError("a pivot column is not cleared in the other basis rows")

    @classmethod
    def span(cls, ambient_dim: int, vectors: Iterable[Sequence]) -> "SubspaceBasis":
        rows = list(map(_int_row, vectors))
        if any(len(row) != ambient_dim for row in rows):
            raise ValueError("spanning vector length does not match ambient dimension")
        return _grown(ambient_dim, [], [], rows)

    @classmethod
    def zero(cls, ambient_dim: int) -> "SubspaceBasis":
        return cls(ambient_dim, ())

    @cached_property
    def leads(self) -> tuple[int, ...]:
        """The leading column of each row."""
        return tuple(map(_lead, self.rows))

    @property
    def dim(self) -> int:
        return len(self.rows)


def contains(a: SubspaceBasis, v: Sequence) -> bool:
    """True iff ``v`` lies in the span of ``a``."""
    if len(v) != a.ambient_dim:
        raise ValueError("vector length does not match ambient dimension")
    return not any(_reduce(a.rows, a.leads, _int_row(v)))


def subspace_sum(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimensions differ")
    return _grown(a.ambient_dim, list(a.rows), list(a.leads), b.rows)


def subspace_intersect(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    """Zassenhaus: echelonize [A|A] over [B|0]; zero-left rows span a ∩ b.

    The rows [A|A] are already canonical, so they are the starting basis.
    The zero-left rows of the reduced basis are already reduced, so their
    right halves are the canonical basis of the intersection.
    """
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimensions differ")
    n = a.ambient_dim
    both = _grown(2 * n, [row + row for row in a.rows], list(a.leads),
                  (row + (0,) * n for row in b.rows))
    return SubspaceBasis(n, tuple(row[n:] for row, j in zip(both.rows, both.leads) if j >= n))


def extend_to_complement(inner: SubspaceBasis, allowed: Sequence[int]) -> SubspaceBasis:
    """Greedy complement of ``inner`` inside span{e_i : i in allowed}.

    Standard basis vectors are tried in increasing index order, so the
    result is deterministic, and the chosen ones are already its reduced
    basis.
    """
    n = inner.ambient_dim
    allowed = sorted(set(allowed))
    if allowed and not 0 <= allowed[0] <= allowed[-1] < n:
        raise ValueError(f"allowed coordinates must lie in range({n})")
    allowed_set = set(allowed)
    for row in inner.rows:
        if any(x and j not in allowed_set for j, x in enumerate(row)):
            raise ValueError("inner subspace is not supported on the allowed coordinates")
    basis, leads = list(inner.rows), list(inner.leads)
    units = _identity_grid(n)
    chosen = []
    target = len(allowed)
    for i in allowed:
        if len(basis) == target:
            break
        if _insert(basis, leads, units[i]):
            chosen.append(units[i])
    return SubspaceBasis(n, tuple(chosen))
