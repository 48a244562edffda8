"""Solvers for the graded operator spaces attached to an algebra.

For a twist power k and a parity xi, each space is the solution set of a
linear system over the entries of one or more unknown matrices:

* ``Omega``: maps commuting with alpha.
* ``Der``:   twisted Leibniz rule, the unknown in every slot.
* ``ZDer``:  kills both the bracket and bracketing against its image.
* ``C``:     slides through the bracket and matches it (centroid).
* ``QC``:    slot-1 insertion equals every other insertion (quasicentroid).
* ``QDer``:  Leibniz with an independent right-hand witness.
* ``GDer``:  one independent witness per slot plus a right-hand witness.

Unknown matrices are restricted to the homogeneity pattern of parity xi
and vectorized column-major, blocks in definition order.  ``QDer`` and
``GDer`` are solved jointly with their witnesses and projected onto the
leading block; witness representatives aligned with the returned basis are
kept for reporting and for the extension embedding.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import product
from typing import Sequence

from .algebra import NHomAlgebra, bracket
from .linalg import (
    Echelon,
    Mat,
    SubspaceBasis,
    Vector,
    commutes_with,
    is_zero_vector,
    product_sum,
    vec_add,
    vec_scale,
    zero_vector,
)


class Kind(str, Enum):
    OMEGA = "Omega"
    DER = "Der"
    ZDER = "ZDer"
    C = "C"
    QC = "QC"
    QDER = "QDer"
    GDER = "GDer"

    def __str__(self):
        return self.value


TUPLE_KINDS = (Kind.DER, Kind.ZDER, Kind.C, Kind.QC, Kind.QDER, Kind.GDER)


@dataclass(frozen=True)
class GradedEndo:
    """A square rational matrix together with its Z2 degree."""

    mat: Mat
    xi: int

    def __post_init__(self):
        if self.xi not in (0, 1):
            raise ValueError("parity must be 0 or 1")
        if self.mat.rows != self.mat.cols:
            raise ValueError("endomorphisms are square")


@dataclass(frozen=True)
class EndoSubspace:
    kind: Kind
    k: int
    xi: int
    basis: tuple[GradedEndo, ...]
    # QDer: one witness matrix per basis element; GDer: an n-tuple of
    # witness matrices per basis element.
    witnesses: tuple | None = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    def as_subspace(self, ambient_dim: int | None = None) -> SubspaceBasis:
        """The space as row-major flattened vectors, canonicalized."""
        if ambient_dim is None:
            ambient_dim = (self.basis[0].mat.rows ** 2) if self.basis else 0
        return SubspaceBasis.span(ambient_dim, [g.mat.flatten() for g in self.basis])


def allowed_positions(parity: Sequence[int], xi: int) -> list[tuple[int, int]]:
    """Matrix entries a degree-xi map may occupy, column-major."""
    d = len(parity)
    return [(r, c) for c in range(d) for r in range(d) if parity[r] == parity[c] ^ xi]


def is_homogeneous(parity: Sequence[int], xi: int, mat: Mat) -> bool:
    d = len(parity)
    for r in range(d):
        for c in range(d):
            if parity[r] != parity[c] ^ xi and mat.entries[r][c] != 0:
                return False
    return True


def _alpha_key(alg: NHomAlgebra, k: int):
    return alg.alpha_power(k).ints


def _slot_tables(alg: NHomAlgebra, k: int):
    """Bracket values with alpha^k in every slot except one plain slot.

    ``tables[s][t]`` is the bracket of (alpha^k e_{t_0}, ..., e_{t_s}, ...,
    alpha^k e_{t_{n-1}}).  When alpha^k is the identity these all coincide
    with the plain table.
    """
    key = ("slots", _alpha_key(alg, k))
    cached = alg._cache.get(key)
    if cached is not None:
        return cached
    d, n = alg.dim, alg.arity
    a = alg.alpha_power(k)
    ft = alg.full_table
    if a.is_identity():
        tables = [ft] * n
    else:
        cols = [a.col(i) for i in range(d)]
        units = [tuple(Fraction(1) if j == i else Fraction(0) for j in range(d))
                 for i in range(d)]
        tables = []
        for s in range(n):
            tab = {}
            for t in product(range(d), repeat=n):
                args = [cols[t[m]] if m != s else units[t[m]] for m in range(n)]
                tab[t] = bracket(alg, args)
            tables.append(tab)
    alg._cache[key] = tables
    return tables


def _prefix_signs(alg: NHomAlgebra, t: tuple[int, ...], xi: int) -> list[int]:
    """(-1)^(xi * |X_{s-1}|) for each slot s."""
    if xi == 0:
        return [1] * alg.arity
    signs = []
    p = 0
    for i in t:
        signs.append(-1 if p else 1)
        p ^= alg.parity[i]
    return signs


_BLOCKS = {Kind.DER: 1, Kind.ZDER: 1, Kind.C: 1, Kind.QC: 1, Kind.QDER: 2}


def _block_count(kind: Kind, arity: int) -> int:
    if kind is Kind.GDER:
        return arity + 1
    return _BLOCKS[kind]


def _commutation_rows(alg: NHomAlgebra, posidx, width: int, offset: int):
    """Rows encoding (D alpha - alpha D) = 0 for one unknown block."""
    d = alg.dim
    a = alg.alpha
    if a.is_identity():
        return []
    rows = []
    for l in range(d):
        for m in range(d):
            row = [Fraction(0)] * width
            hit = False
            for j in range(d):
                col = posidx.get((l, j))
                if col is not None and a.entries[j][m]:
                    row[offset + col] += a.entries[j][m]
                    hit = True
                col = posidx.get((j, m))
                if col is not None and a.entries[l][j]:
                    row[offset + col] -= a.entries[l][j]
                    hit = True
            if hit and any(row):
                rows.append(row)
    return rows


def _assemble(alg: NHomAlgebra, kind: Kind, k: int, xi: int):
    """Constraint rows over the vectorized unknown blocks."""
    d, n = alg.dim, alg.arity
    pos = allowed_positions(alg.parity, xi)
    npos = len(pos)
    posidx = {rc: m for m, rc in enumerate(pos)}
    nblocks = _block_count(kind, n)
    width = nblocks * npos
    ft = alg.full_table
    slots = _slot_tables(alg, k)
    rows: list[list[Fraction]] = []

    def slot_term(block_rows, offset, s, t, factor):
        ts = t[s]
        for j in range(d):
            col = posidx.get((j, ts))
            if col is None:
                continue
            vec = slots[s][t[:s] + (j,) + t[s + 1:]]
            for l in range(d):
                c = vec[l]
                if c:
                    block_rows[l][offset + col] += factor * c

    def value_term(block_rows, offset, value, factor):
        # contribution of B(value), B the block at ``offset``
        for j in range(d):
            vj = value[j]
            if not vj:
                continue
            for l in range(d):
                col = posidx.get((l, j))
                if col is not None:
                    block_rows[l][offset + col] += factor * vj

    for t in product(range(d), repeat=n):
        signs = _prefix_signs(alg, t, xi)
        val = ft[t]
        if kind is Kind.DER:
            block_rows = [[Fraction(0)] * width for _ in range(d)]
            for s in range(n):
                slot_term(block_rows, 0, s, t, signs[s])
            value_term(block_rows, 0, val, -1)
            rows.extend(r for r in block_rows if any(r))
        elif kind is Kind.ZDER:
            block_rows = [[Fraction(0)] * width for _ in range(d)]
            slot_term(block_rows, 0, 0, t, 1)
            rows.extend(r for r in block_rows if any(r))
            block_rows = [[Fraction(0)] * width for _ in range(d)]
            value_term(block_rows, 0, val, 1)
            rows.extend(r for r in block_rows if any(r))
        elif kind is Kind.C:
            for s in range(n):
                block_rows = [[Fraction(0)] * width for _ in range(d)]
                slot_term(block_rows, 0, s, t, signs[s])
                value_term(block_rows, 0, val, -1)
                rows.extend(r for r in block_rows if any(r))
        elif kind is Kind.QC:
            for s in range(1, n):
                block_rows = [[Fraction(0)] * width for _ in range(d)]
                slot_term(block_rows, 0, 0, t, 1)
                slot_term(block_rows, 0, s, t, -signs[s])
                rows.extend(r for r in block_rows if any(r))
        elif kind is Kind.QDER:
            block_rows = [[Fraction(0)] * width for _ in range(d)]
            for s in range(n):
                slot_term(block_rows, 0, s, t, signs[s])
            value_term(block_rows, npos, val, -1)
            rows.extend(r for r in block_rows if any(r))
        elif kind is Kind.GDER:
            block_rows = [[Fraction(0)] * width for _ in range(d)]
            slot_term(block_rows, 0, 0, t, 1)
            for s in range(1, n):
                slot_term(block_rows, s * npos, s, t, signs[s])
            value_term(block_rows, n * npos, val, -1)
            rows.extend(r for r in block_rows if any(r))
        else:
            raise ValueError(f"kind {kind} has no tuple constraints")

    for b in range(nblocks):
        rows.extend(_commutation_rows(alg, posidx, width, b * npos))
    return rows, nblocks, pos, width


def _echelonize(rows, width: int) -> Echelon:
    from .linalg import _first_nonzero, _int_row

    ech = Echelon(width)
    seen = set()
    for row in rows:
        r = _int_row(row)
        j = _first_nonzero(r, 0)
        if j is None:
            continue
        if r[j] < 0:
            r = [-x for x in r]
        key = tuple(r)
        if key in seen:
            continue
        seen.add(key)
        ech.add_int(list(r))
    return ech


def _mat_from_positions(d: int, pos, coeffs) -> Mat:
    grid = [[Fraction(0)] * d for _ in range(d)]
    for (r, c), x in zip(pos, coeffs):
        grid[r][c] = x
    return Mat.from_rows(grid, cols=d)


def solve(alg: NHomAlgebra, kind: Kind | str, k: int, xi: int) -> EndoSubspace:
    """Canonical basis of the requested space at twist power k and parity xi."""
    kind = Kind(kind)
    if k < 0:
        raise ValueError("twist power must be nonnegative")
    if kind is Kind.OMEGA:
        return omega(alg, xi)
    cache_key = ("solve", kind, xi, _alpha_key(alg, k))
    hit = alg._cache.get(cache_key)
    if hit is not None:
        return EndoSubspace(kind, k, xi, hit.basis, hit.witnesses)
    d = alg.dim
    rows, nblocks, pos, width = _assemble(alg, kind, k, xi)
    npos = len(pos)
    ech = _echelonize(rows, width)
    joint = ech.nullspace_vectors()
    if nblocks == 1:
        sub = SubspaceBasis.span(width, joint)
        basis = tuple(GradedEndo(_mat_from_positions(d, pos, v), xi) for v in sub.vectors)
        witnesses = None
    else:
        # RREF the joint solution space with the leading block first: rows
        # pivoted inside the leading block restrict to the canonical basis of
        # its projection, and their trailing blocks are the minimal-echelon
        # witness representatives; rows pivoted later have zero leading part.
        joint_ech = Echelon(width)
        for v in joint:
            joint_ech.add(v)
        basis = []
        witnesses = []
        for pivot, row in joint_ech.rref_rows():
            if pivot >= npos:
                continue
            basis.append(GradedEndo(_mat_from_positions(d, pos, row[:npos]), xi))
            blocks = tuple(
                _mat_from_positions(d, pos, row[b * npos:(b + 1) * npos])
                for b in range(1, nblocks)
            )
            witnesses.append(blocks[0] if kind is Kind.QDER else blocks)
        basis = tuple(basis)
        witnesses = tuple(witnesses)
    result = EndoSubspace(kind, k, xi, basis, witnesses)
    alg._cache[cache_key] = result
    return result


def omega(alg: NHomAlgebra, xi: int) -> EndoSubspace:
    """Commutant of alpha among homogeneous maps of degree xi."""
    cache_key = ("solve", Kind.OMEGA, xi, alg.alpha.ints)
    hit = alg._cache.get(cache_key)
    if hit is not None:
        return hit
    d = alg.dim
    pos = allowed_positions(alg.parity, xi)
    posidx = {rc: m for m, rc in enumerate(pos)}
    rows = _commutation_rows(alg, posidx, len(pos), 0)
    ech = _echelonize(rows, len(pos))
    sub = SubspaceBasis.span(len(pos), ech.nullspace_vectors())
    basis = tuple(GradedEndo(_mat_from_positions(d, pos, v), xi) for v in sub.vectors)
    result = EndoSubspace(Kind.OMEGA, 0, xi, basis)
    alg._cache[cache_key] = result
    return result


# ---------------------------------------------------------------------------
# membership by direct evaluation (the cross-validation path)
# ---------------------------------------------------------------------------

def _slot_bracket(alg: NHomAlgebra, acols, t, s, vec) -> Vector:
    """Bracket with alpha^k columns everywhere except ``vec`` in slot s."""
    args = [acols[t[m]] if m != s else vec for m in range(alg.arity)]
    return bracket(alg, args)


def in_space(alg: NHomAlgebra, kind: Kind | str, k: int, xi: int, endo: GradedEndo) -> bool:
    """Definition-level membership test, independent of :func:`solve`.

    Identities are re-evaluated through :func:`bracket` on explicit image
    vectors; for QDer/GDer the witness blocks are solved for afresh.
    """
    kind = Kind(kind)
    if endo.mat.rows != alg.dim:
        raise ValueError("endomorphism size does not match the algebra")
    if not is_homogeneous(alg.parity, xi, endo.mat):
        raise ValueError("endomorphism is not homogeneous of the stated parity")
    cache_key = ("member", kind, xi, _alpha_key(alg, k), endo.mat.ints)
    hit = alg._cache.get(cache_key)
    if hit is not None:
        return hit
    result = _in_space_uncached(alg, kind, k, xi, endo)
    alg._cache[cache_key] = result
    return result


def _in_space_uncached(alg, kind, k, xi, endo) -> bool:
    d, n = alg.dim, alg.arity
    if not commutes_with(endo.mat, alg.alpha):
        return False
    if kind is Kind.OMEGA:
        return True
    a = alg.alpha_power(k)
    acols = [a.col(i) for i in range(d)]
    dcols = [endo.mat.col(i) for i in range(d)]
    ft = alg.full_table

    if kind in (Kind.DER, Kind.C, Kind.QC, Kind.ZDER):
        for t in product(range(d), repeat=n):
            signs = _prefix_signs(alg, t, xi)
            if kind is Kind.DER:
                rhs = endo.mat.apply(ft[t])
                acc = zero_vector(d)
                for s in range(n):
                    term = _slot_bracket(alg, acols, t, s, dcols[t[s]])
                    if signs[s] < 0:
                        term = vec_scale(Fraction(-1), term)
                    acc = vec_add(acc, term)
                if acc != rhs:
                    return False
            elif kind is Kind.C:
                rhs = endo.mat.apply(ft[t])
                for s in range(n):
                    term = _slot_bracket(alg, acols, t, s, dcols[t[s]])
                    if signs[s] < 0:
                        term = vec_scale(Fraction(-1), term)
                    if term != rhs:
                        return False
            elif kind is Kind.QC:
                first = _slot_bracket(alg, acols, t, 0, dcols[t[0]])
                for s in range(1, n):
                    term = _slot_bracket(alg, acols, t, s, dcols[t[s]])
                    if signs[s] < 0:
                        term = vec_scale(Fraction(-1), term)
                    if term != first:
                        return False
            else:  # ZDer
                if not is_zero_vector(endo.mat.apply(ft[t])):
                    return False
                if not is_zero_vector(_slot_bracket(alg, acols, t, 0, dcols[t[0]])):
                    return False
        return True

    if kind in (Kind.QDER, Kind.GDER):
        ech, rowspec = _witness_system(alg, kind, k, xi)
        rhs = []
        for t, s_known in rowspec:
            signs = _prefix_signs(alg, t, xi)
            if kind is Kind.QDER:
                acc = zero_vector(d)
                for s in range(n):
                    term = _slot_bracket(alg, acols, t, s, dcols[t[s]])
                    if signs[s] < 0:
                        term = vec_scale(Fraction(-1), term)
                    acc = vec_add(acc, term)
                rhs.extend(acc)
            else:
                term = _slot_bracket(alg, acols, t, 0, dcols[t[0]])
                rhs.extend(vec_scale(Fraction(-1), term))
        rhs.extend([Fraction(0)] * (ech.width - len(rhs)))
        return ech.contains_int(rhs)

    raise ValueError(f"unsupported kind {kind}")


def _witness_system(alg: NHomAlgebra, kind: Kind, k: int, xi: int):
    """Column-space echelon of the witness-block system, cached.

    Rows are indexed by (tuple, component) then commutation constraints;
    membership of a candidate right-hand side in the transposed row space
    decides witness existence.
    """
    cache_key = ("witness", kind, xi, _alpha_key(alg, k))
    hit = alg._cache.get(cache_key)
    if hit is not None:
        return hit
    d, n = alg.dim, alg.arity
    pos = allowed_positions(alg.parity, xi)
    npos = len(pos)
    posidx = {rc: m for m, rc in enumerate(pos)}
    ft = alg.full_table
    slots = _slot_tables(alg, k)
    nblocks = 1 if kind is Kind.QDER else n
    rowspec = [(t, None) for t in product(range(d), repeat=n)]
    width = nblocks * npos
    rows: list[list[Fraction]] = []
    for t, _ in rowspec:
        signs = _prefix_signs(alg, t, xi)
        block_rows = [[Fraction(0)] * width for _ in range(d)]
        if kind is Kind.QDER:
            val = ft[t]
            for j in range(d):
                vj = val[j]
                if vj:
                    for l in range(d):
                        col = posidx.get((l, j))
                        if col is not None:
                            block_rows[l][col] += -vj
        else:
            for s in range(1, n):
                ts = t[s]
                off = (s - 1) * npos
                for j in range(d):
                    col = posidx.get((j, ts))
                    if col is None:
                        continue
                    vec = slots[s][t[:s] + (j,) + t[s + 1:]]
                    for l in range(d):
                        if vec[l]:
                            block_rows[l][off + col] += signs[s] * vec[l]
            val = ft[t]
            off = (n - 1) * npos
            for j in range(d):
                vj = val[j]
                if vj:
                    for l in range(d):
                        col = posidx.get((l, j))
                        if col is not None:
                            block_rows[l][off + col] += -vj
        rows.extend(block_rows)
    for b in range(nblocks):
        rows.extend(_commutation_rows(alg, posidx, width, b * npos))
    # column-space echelon: transpose and accumulate
    total = len(rows)
    ech = Echelon(total)
    for c in range(width):
        ech.add([rows[r][c] for r in range(total)])
    result = (ech, rowspec)
    alg._cache[cache_key] = result
    return result


def qder_identity_holds(alg: NHomAlgebra, k: int, xi: int, endo: GradedEndo,
                        witness: Mat) -> bool:
    """Check the quasiderivation identity for a *fixed* right-hand witness."""
    d, n = alg.dim, alg.arity
    if not is_homogeneous(alg.parity, xi, witness):
        return False
    if not commutes_with(endo.mat, alg.alpha) or not commutes_with(witness, alg.alpha):
        return False
    a = alg.alpha_power(k)
    acols = [a.col(i) for i in range(d)]
    dcols = [endo.mat.col(i) for i in range(d)]
    ft = alg.full_table
    for t in product(range(d), repeat=n):
        signs = _prefix_signs(alg, t, xi)
        acc = zero_vector(d)
        for s in range(n):
            term = _slot_bracket(alg, acols, t, s, dcols[t[s]])
            if signs[s] < 0:
                term = vec_scale(Fraction(-1), term)
            acc = vec_add(acc, term)
        if acc != witness.apply(ft[t]):
            return False
    return True


# ---------------------------------------------------------------------------
# operations on graded endomorphisms
# ---------------------------------------------------------------------------

def supercommutator(d1: GradedEndo, d2: GradedEndo) -> GradedEndo:
    """D E - (-1)^{xi eta} E D, of degree xi + eta."""
    sign = 1 if (d1.xi and d2.xi) else -1
    return GradedEndo(product_sum(d1.mat, d2.mat, sign), (d1.xi + d2.xi) % 2)


def jordan_product(d1: GradedEndo, d2: GradedEndo) -> GradedEndo:
    """(D E + (-1)^{xi eta} E D) / 2, of degree xi + eta."""
    sign = -1 if (d1.xi and d2.xi) else 1
    return GradedEndo(product_sum(d1.mat, d2.mat, sign, 2), (d1.xi + d2.xi) % 2)


def compose(d1: GradedEndo, d2: GradedEndo) -> GradedEndo:
    return GradedEndo(d1.mat @ d2.mat, (d1.xi + d2.xi) % 2)


def alpha_twist(alg: NHomAlgebra, endo: GradedEndo) -> GradedEndo:
    """Composition with alpha; only defined on the commutant of alpha.

    When alpha is the identity the twist is the identity and ``endo`` is
    returned as it is.
    """
    if alg.alpha.is_identity():
        return endo
    if not commutes_with(endo.mat, alg.alpha):
        raise ValueError("alpha twist requires the map to commute with alpha")
    return GradedEndo(endo.mat @ alg.alpha, endo.xi)


def hom_associator(alg: NHomAlgebra, d1: GradedEndo, d2: GradedEndo,
                   d3: GradedEndo) -> GradedEndo:
    """(x*y)*twist(z) - twist(x)*(y*z) for the half-anticommutator product."""
    for e in (d1, d2, d3):
        if not commutes_with(e.mat, alg.alpha):
            raise ValueError("hom associator requires commutation with alpha")
    left = jordan_product(jordan_product(d1, d2), alpha_twist(alg, d3))
    right = jordan_product(alpha_twist(alg, d1), jordan_product(d2, d3))
    return GradedEndo(left.mat - right.mat, left.xi)
