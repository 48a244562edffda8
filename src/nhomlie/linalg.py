"""Exact linear algebra over the rationals.

A matrix stores one form, :attr:`Mat.ints`: a grid of integer numerators
over one positive common denominator, reduced so that the denominator is
the lcm of the entries' denominators.  Equal matrices therefore compare
and hash equal; a matrix stores its hash on first use.  Matrix arithmetic
(products, sums, scaling, :func:`linear_combination`) and
:func:`commutes_with` run on that form in Python ints.  A matrix also
keeps the nonzero (column, value) pairs of each row, :attr:`Mat.row_pairs`,
built on first use.  :func:`product_sum`, ``(a b + sign * b a) / divisor``,
reads them through one kernel, :func:`product_rows`, which visits only the
nonzeros of each operand: a single-entry factor costs one row of the other.
The kernel returns the reduced form as such rows, and
:func:`row_combination` sums matrices in it, so prop 3.8 multiplies and
combines maps without building a ``Mat``.  A matrix builds a ``Fraction`` only
where rational entries come in (:meth:`Mat.from_rows`) and where they are
read out (:attr:`Mat.entries`); :mod:`nhomlie.io` formats the integer form
itself.  Every other row has one form: its nonzero (column, value) pairs
with integer values.  A subspace stores its unique reduced row-echelon
basis as such rows, columns increasing so the lead first, each primitive
with a positive leading entry, so equal subspaces compare equal.  That
basis, held as one ``{column: value}`` dict per lead, is also the state
every elimination works on: :func:`_reduce` clears each of its leads from
an incoming row in one pass over the nonzeros, which decides membership,
and :func:`_insert` adds a row that does not reduce to zero and clears its
lead from the other rows.  Spans, sums, complements and inverses grow a
canonical basis this way, so every stored row is a row of that unique
form and its size is bounded by the form itself; only a report writes a
row out at the full width.  :func:`kernel` reads rows as pairs in any
order and keeps the nullspace itself instead of pivots: one primitive
integer vector per free column, stored over the columns retired so far
(its own entry first, then its entries at the retired columns in
retirement order), which hold all of its support.  A dependent row costs
one dot product, over the row's nonzeros, per vector nonzero at one of its
retired columns; a retirement costs, for each vector it updates, one
scaling of that vector plus the nonzeros of the retired column's vector;
rows past full rank are never read, and the vectors left at the end, as
canonical rows, are the nullspace's reduced basis.  No floating point
appears anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

IntGrid = tuple[tuple[int, ...], ...]
Vector = tuple[Fraction, ...]
Row = tuple[tuple[int, int], ...]  # nonzero (column, value) pairs, columns increasing
Rows = tuple[Row, ...]  # a matrix as its rows


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

    @classmethod
    def from_row_pairs(cls, cols: int, rows: Sequence[Row], den: int) -> "Mat":
        """The matrix with the nonzero ``rows`` over ``den``: the inverse of :attr:`row_pairs`."""
        grid = []
        for row in rows:
            out = [0] * cols
            for c, x in row:
                out[c] = x
            grid.append(tuple(out))
        return cls(len(grid), cols, (tuple(grid), den))

    @classmethod
    def from_vec_pairs(cls, n: int, pairs: Iterable[tuple[int, int]], den: int) -> "Mat":
        """The n x n matrix with the (column-major index, numerator) ``pairs``
        over ``den``, zero elsewhere: the inverse of :meth:`vec_pairs`."""
        grid = [[0] * n for _ in range(n)]
        for i, x in pairs:
            grid[i % n][i // n] = x
        return cls(n, n, (tuple(map(tuple, grid)), den))

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

    @cached_property
    def row_pairs(self) -> Rows:
        """Each row's nonzero (column, numerator) pairs, over ``ints``' denominator,
        built on first use."""
        return tuple(tuple((c, x) for c, x in enumerate(row) if x) for row in self.ints[0])

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
        return self._plus(other, 1)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._plus(other, -1)

    def _plus(self, other: "Mat", sign: int) -> "Mat":
        """``self + sign * other``, summed over the two grids in one pass."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        (a, da), (b, db) = self.ints, other.ints
        den = lcm(da, db)
        fa, fb = den // da, sign * (den // db)
        return Mat(self.rows, self.cols, (tuple(
            tuple(fa * x + fb * y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)), den))

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

    def vec_pairs(self) -> tuple[tuple[int, int], ...]:
        """The nonzero numerators as (column-major index, numerator) pairs, in
        index order: the solver's order for unknown matrices."""
        n = self.rows
        return tuple((c * n + r, x) for c, col in enumerate(zip(*self.ints[0]))
                     for r, x in enumerate(col) if x)


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
    factors = [c * (den // m.ints[1]) for c, m in zip(coeffs, mats)]
    grid = tuple(tuple(sum(map(mul, factors, entries)) for entries in zip(*rows))
                 for rows in zip(*(m.ints[0] for m in mats)))
    return Mat(rows, cols, (grid, den))


def _reduced(rows: list[Row], den: int, g: int) -> tuple[Rows, int]:
    """Nonzero rows over ``den`` divided through by ``g``, the gcd of ``den`` and
    their values: the reduction :class:`Mat` makes of its grid."""
    if g > 1:
        if not any(rows):
            return tuple(rows), 1
        return tuple([tuple([(c, x // g) for c, x in row]) for row in rows]), den // g
    return tuple(rows), den


def product_rows(a: Rows, da: int, b: Rows, db: int, sign: int,
                 divisor: int = 1) -> tuple[Rows, int]:
    """``(a b + sign * b a) / divisor`` for square ``a`` over ``da`` and ``b`` over ``db``.

    Both operands and the result are given by their nonzero rows
    (:attr:`Mat.row_pairs`) and a denominator, and the result is reduced as
    :attr:`Mat.ints` is, so equal products compare and hash equal.  Row i of
    ``a b`` is the sum of the rows k of ``b`` times the entries (i, k) of
    ``a``, so each nonzero of ``a`` costs one pass over one row of ``b``,
    and the same for ``b a``; ``sign`` 0 leaves the plain product ``a b``.
    """
    n = len(a)
    den = da * db * divisor
    g = den
    out = []
    for ra, rb in zip(a, b):
        if not ra and not (sign and rb):
            out.append(())
            continue
        acc = [0] * n
        for k, x in ra:
            for j, y in b[k]:
                acc[j] += x * y
        if sign:
            for k, x in rb:
                x *= sign
                for j, y in a[k]:
                    acc[j] += x * y
        out.append(tuple([(j, x) for j, x in enumerate(acc) if x]))
        if g > 1:
            g = gcd(g, *acc)
    return _reduced(out, den, g)


def row_combination(coeffs: Sequence[int], mats: Sequence[tuple[Rows, int]]) -> tuple[Rows, int]:
    """``sum(c * m)`` over integer coefficients and square matrices of one size given
    as (nonzero rows, denominator), over the lcm of the denominators and reduced
    as :attr:`Mat.ints` is."""
    den = lcm(*(d for _, d in mats))
    terms = [(c * (den // d), rows) for c, (rows, d) in zip(coeffs, mats) if c]
    n = len(mats[0][0])
    g = den
    out = []
    for i in range(n):
        acc = [0] * n
        for f, rows in terms:
            for j, x in rows[i]:
                acc[j] += f * x
        out.append(tuple([(j, x) for j, x in enumerate(acc) if x]))
        if g > 1:
            g = gcd(g, *acc)
    return _reduced(out, den, g)


def product_sum(a: Mat, b: Mat, sign: int, divisor: int = 1) -> Mat:
    """``(a b + sign * b a) / divisor`` for square ``a`` and ``b``, by :func:`product_rows`."""
    if (a.rows, a.cols) != (b.rows, b.cols) or a.rows != a.cols:
        raise ValueError("product_sum needs two square matrices of one size")
    rows, den = product_rows(a.row_pairs, a.ints[1], b.row_pairs, b.ints[1], sign, divisor)
    return Mat.from_row_pairs(a.cols, rows, den)


# ---------------------------------------------------------------------------
# integer elimination
# ---------------------------------------------------------------------------

def _primitive(row: dict[int, int]) -> dict[int, int]:
    """``row`` divided by the gcd of its values, signed so that its lead is positive."""
    g = gcd(*row.values()) if row[min(row)] > 0 else -gcd(*row.values())
    return {c: x // g for c, x in row.items()} if g != 1 else row


def _take(row: dict[int, int], f: int, p: dict[int, int]) -> None:
    """``row -= f p`` in place, dropping the columns where it cancels."""
    for c, y in p.items():
        z = row.get(c, 0) - f * y
        if z:
            row[c] = z
        else:
            del row[c]


def _reduce(basis: dict[int, dict[int, int]], row: dict[int, int]) -> dict[int, int]:
    """A positive multiple of ``row`` with the lead of every canonical row cleared.

    ``basis`` maps each lead to its row as ``{column: value}``, the form of
    ``row``.  Canonical rows are zero at each other's leads, so the row p of
    lead j is taken ``row[j] / p[j]`` times, read off ``row`` as it comes
    in: one pass over the nonzeros met clears every lead, over the least
    multiple of ``row`` that keeps it integral.  The result is empty iff
    ``row`` lies in the span of ``basis``.
    """
    met = [(j, x) for j, x in row.items() if j in basis]
    m = lcm(*(basis[j][j] // gcd(basis[j][j], x) for j, x in met))
    row = {c: m * x for c, x in row.items()}
    for j, x in met:
        _take(row, m * x // basis[j][j], basis[j])
    return row


def _insert(basis: dict[int, dict[int, int]], row: dict[int, int]) -> bool:
    """Grow the canonical ``basis`` (as :func:`_reduce` reads it) by ``row``; True if it grew.

    The reduced row is made primitive with a positive lead, its lead is
    cleared from the other rows (each kept primitive, and replaced, never
    changed, so they may be shared), and it goes in under its lead, so
    ``basis`` stays the reduced row-echelon form of its span.
    """
    row = _reduce(basis, row)
    if not row:
        return False
    row = _primitive(row)
    j = min(row)
    for i, p in basis.items():
        if j in p:
            g = gcd(row[j], p[j])
            a = row[j] // g
            q = {c: a * x for c, x in p.items()}
            _take(q, p[j] // g, row)
            basis[i] = _primitive(q)
    basis[j] = row
    return True


def _grown(width: int, basis: Iterable[Row],
           rows: Iterable[Iterable[tuple[int, int]]]) -> "SubspaceBasis":
    """The span of the canonical rows ``basis`` and the integer ``rows``.

    Each of ``rows`` is a sequence of (column, value) pairs at distinct
    columns, in any order; zero values may be left out.
    """
    held = {row[0][0]: dict(row) for row in basis}
    for row in rows:
        _insert(held, {c: x for c, x in row if x})
    return SubspaceBasis(width, tuple(tuple(sorted(held[j].items())) for j in sorted(held)))


def kernel(rows: Iterable[Sequence[tuple[int, int]]],
           width: int) -> tuple[Row, ...]:
    """Basis of ``{v : r v = 0 for every row r}``, as canonical rows.

    Each row is a sequence of its (column, value) pairs, in any order, at
    distinct columns; zero values may be left out.  Each basis vector is a
    primitive integer row with a positive leading entry, and together they
    are the nullspace's reduced row-echelon basis in the canonical row form
    of :class:`SubspaceBasis`.

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
    the vectors it does not update gain a zero at the new place.  The
    returned basis is read off the stored vectors, never at the full width.

    Each place also keeps the set of the stored v_f that are nonzero there,
    and a row is dotted only with the union of those sets over its retired
    columns (every stored vector once the union holds them all): any other
    v_f is zero wherever the row is nonzero but at free columns, where only
    v_f itself is nonzero.  The sets stay exact at the cost of the update:
    a retirement takes v_i out of the sets of its places and adds the
    updated vectors to the sets of v_i's places, the only places where an
    update can change an entry, and an updated vector that cancels at one
    of them is taken out again.  So when the columns fall into blocks that
    no row joins, a vector's support stays inside its own block and a row
    inside one block never meets the vectors of another, while a system
    with one dense block dots every row with every vector.
    """
    vecs: dict[int, list[int]] = {}  # the stored v_f; every other free v_f is e_f
    retired: list[int] = []  # the retired columns, in retirement order
    place: dict[int, int] = {}  # retired column -> its index in every stored vector
    held: list[set[int]] = [set()]  # place -> the f whose stored v_f is nonzero there
    if width:  # with no column free, no row is read
        for row in rows:
            at = [(place[j], x) for j, x in row if x and j in place]
            dots = {}
            if at:
                places, vals = zip(*at)
                met = set()  # the only v_f that can be nonzero at the row's places
                for p in places:
                    met |= held[p]
                    if len(met) == len(vecs):
                        break
                for f in met:
                    d = sum(map(mul, map(vecs[f].__getitem__, places), vals))
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
            # the updated v_f are nonzero at v_i's places, but where they cancel
            held.append(set())
            for p, _ in nz:
                held[p].discard(i)
                held[p].update(dots)
            for f, df in dots.items():
                g = gcd(di, df) if di > 0 else -gcd(di, df)  # so that a > 0
                a, b = di // g, df // g
                vf = [a * x for x in vecs.get(f) or [1] + [0] * new]
                for p, x in nz:
                    y = vf[p] - b * x
                    vf[p] = y
                    if not y:
                        held[p].discard(f)
                g = gcd(*vf)
                vecs[f] = [x // g for x in vf] if g > 1 else vf
            if len(retired) == width:
                break
    return tuple(tuple(sorted((c, x) for c, x in zip([f] + retired, vecs.get(f, (1,))) if x))
                 for f in sorted(set(range(width)).difference(place)))


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubspaceBasis:
    """A subspace of F^n held as its reduced row-echelon basis.

    Each row is the tuple of its nonzero (column, value) pairs in
    increasing column order, so its lead first: a primitive integer row
    with a positive leading entry.  The form is unique, and checked on
    construction, so equal subspaces compare equal.
    """

    ambient_dim: int
    rows: tuple[Row, ...]

    def __post_init__(self):
        for row in self.rows:
            if not (row and all(type(c) is int and type(x) is int and x for c, x in row)
                    and 0 <= row[0][0] and row[-1][0] < self.ambient_dim
                    and all(p[0] < q[0] for p, q in zip(row, row[1:]))):
                raise ValueError("basis rows must hold nonzero ints at increasing columns"
                                 " inside the ambient dimension")
        leads = self.leads
        at_lead = set(leads)
        for i, row in enumerate(self.rows):
            if row[0][1] < 0 or gcd(*(x for _, x in row)) != 1 or (i and leads[i] <= leads[i - 1]):
                raise ValueError("basis rows must be primitive, with positive leading"
                                 " entries in increasing columns")
            # each row holds its own lead, so it must hold no other
            if sum(c in at_lead for c, _ in row) != 1:
                raise ValueError("a pivot column is not cleared in the other basis rows")

    @classmethod
    def zero(cls, ambient_dim: int) -> "SubspaceBasis":
        return cls(ambient_dim, ())

    @cached_property
    def leads(self) -> tuple[int, ...]:
        """The leading column of each row."""
        return tuple(row[0][0] for row in self.rows)

    @cached_property
    def _by_lead(self) -> dict[int, dict[int, int]]:
        """Each row as ``{column: value}`` under its lead, the form :func:`_reduce` reads."""
        return {row[0][0]: dict(row) for row in self.rows}

    @property
    def dim(self) -> int:
        return len(self.rows)


def contains(a: SubspaceBasis, v: Iterable[tuple[int, int]]) -> bool:
    """True iff the integer row ``v``, as (column, value) pairs, lies in the span of ``a``."""
    row = {c: x for c, x in v if x}
    if row and not 0 <= min(row) <= max(row) < a.ambient_dim:
        raise ValueError("vector column outside the ambient dimension")
    return not _reduce(a._by_lead, row)


def subspace_sum(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimensions differ")
    return _grown(a.ambient_dim, a.rows, b.rows)


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
    if any(c not in allowed_set for row in inner.rows for c, _ in row):
        raise ValueError("inner subspace is not supported on the allowed coordinates")
    basis = dict(inner._by_lead)
    chosen = []
    for i in allowed:
        if len(basis) == len(allowed):
            break
        if _insert(basis, {i: 1}):
            chosen.append(((i, 1),))
    return SubspaceBasis(n, tuple(chosen))
