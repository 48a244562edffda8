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
and vectorized column-major, blocks in definition order.  A space that
is not alpha^k times the one at k = 0 (see below) is read off one pass
over its rows: :func:`~nhomlie.linalg.kernel` keeps one
integer kernel vector per free column, stops reading rows once none is
free, and returns the joint solution space of all blocks as canonical
rows: the nonzero (column, value) pairs of each vector of its reduced
row-echelon basis times the vector's leading entry.  :func:`_space` deals
each pair to its block by ``column // npos`` and builds every block as
integer numerators over that entry.
``QDer`` and ``GDer`` are solved jointly with their witnesses in that one
RREF and projected onto the leading block; the witness blocks of the rows
that lead in it are the witness representatives aligned with the returned
basis, kept for reporting and for the extension embedding.  The rows that
lead past the first block have a zero leading block, so their trailing
blocks are the canonical basis of the witnesses of the zero map, kept as
the space's ``slack``: the freedom in every basis element's witness.  For
``QDer`` these are the maps that commute with alpha and kill every
bracket, whatever k is.

When alpha is even, invertible and multiplicative, a space at a power k
whose alpha^k is not the identity is not solved from its own rows: it is
alpha^k times the space at k = 0, witness blocks included (the
alpha^k-derivations of Sheng, "Representations of Hom-Lie algebras",
Algebr. Represent. Theory 15 (2012)).  Multiplicativity moves alpha^k out
of every slot, so each equation on the blocks alpha^k B_b is alpha^k times
the same equation at k = 0 on the B_b; cancel the invertible alpha^k.  Each
joint row at 0, a basis element with its witnesses or a slack row with its
zero leading block, is mapped blockwise by alpha^k and brought to canonical
form by :func:`~nhomlie.linalg._grown`.  That form is unique, so basis,
witnesses and slack are those the rows at k would give.  The gate reads
alpha's evenness, its rank and the one cached multiplicativity evaluation
that :func:`~nhomlie.algebra.validate` reports, never the Jacobi identity;
an input that fails it, and every solve at k = 0, reads its rows.

``_EQUATIONS`` is the one description of these identities, with each
equation's tuple symmetry: the slot from which a basis tuple may be sorted
without changing the row space (all of t for Der, C, QC, QDer and ZDer's
VALUE equation, t[1:] for ZDer's slot equation, none for GDer), which alone
decides the tuples each equation is read on.  :func:`_rows` turns it into
rows over each equation's weakly increasing representatives (every tuple
when alpha is not even), visiting only the tuples a term reaches: the tensor's
support for a VALUE term, and for a slot-s term the tuples one slot-s step
from an entry of :func:`~nhomlie.algebra.opened_tensor` at slot s, the
tensor with alpha^k in every other slot; every other tuple gives zero
rows.  The rows are integer numerators read by lookup: a VALUE term reads
the tensor itself, and the slot-s term of unknown column (j, t[s]) is the
entry t[:s] + (j,) + t[s+1:] of the opened tensor, times the prefix sign,
found with the others of its tuple by one lookup of t without slot s in
:func:`~nhomlie.algebra.opened_index`.  Each (tuple, equation) is
summed sparsely over the components a term reaches; each nonzero one becomes
one row: the list of its nonzero (column, value) pairs, which is the one
row form :func:`~nhomlie.linalg.kernel` reads.  :func:`in_space` and
:func:`qder_identity_holds` re-evaluate each definition on the integer
structure tensor without reading the table, so they are a cross-check of
the table rather than a copy of it; the only rows they read are Omega's
commutation rows.  Each one-block kind is written there as (slot weights,
W) pairs, from the definitions rather than from ``_EQUATIONS``, and
compared by :func:`~nhomlie.algebra.identity_failures`, the evaluator that
:func:`~nhomlie.algebra.validate` uses for its axioms: the weighted sum of
the slot terms, pushed from the tensor's support through the row supports
of alpha^k and of the map, must equal W [e_t], and it is checked only on
the support and the tuples reached, since on any other tuple both sides are
zero.  The QDer/GDer slot terms must lie in :func:`_witness_span`, the span
of what Omega's basis gives as witnesses.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from math import lcm
from typing import Callable, NamedTuple, Sequence

from .algebra import (
    NHomAlgebra,
    _is_increasing,
    apply_ints,
    identity_failures,
    is_alpha_surjective,
    is_homogeneous,
    multiplicative_failures,
    opened_index,
    sparse_columns,
    sparse_rows,
    summed_slot_terms,
)
from .linalg import (
    Mat,
    SubspaceBasis,
    _grown,
    commutes_with,
    contains,
    kernel,
    product_sum,
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

    _hash = None  # not a field: stored on first use, as Mat's is

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.mat, self.xi)))
        return self._hash


@dataclass(frozen=True)
class EndoSubspace:
    kind: Kind
    xi: int
    basis: tuple[GradedEndo, ...]
    # QDer: one witness matrix per basis element; GDer: an n-tuple of
    # witness matrices per basis element.
    witnesses: tuple | None = None
    # the witnesses of the zero map, in the form of ``witnesses`` (empty for
    # one-block kinds): any combination of them added to a basis element's
    # witness is again a witness
    slack: tuple = ()

    @property
    def dim(self) -> int:
        return len(self.basis)

    def as_subspace(self, ambient_dim: int) -> SubspaceBasis:
        """The space as column-major flattened vectors (:meth:`Mat.vec_pairs`).

        A solved basis is the canonical basis of its space over the
        column-major allowed positions (see :func:`solve`), and those
        positions keep their order in the column-major flattening, so the
        basis embeds as it is, with no elimination.
        """
        return SubspaceBasis(ambient_dim, tuple(g.mat.vec_pairs() for g in self.basis))


def allowed_positions(parity: Sequence[int], xi: int) -> list[tuple[int, int]]:
    """Matrix entries a degree-xi map may occupy, column-major."""
    d = len(parity)
    return [(r, c) for c in range(d) for r in range(d) if parity[r] == parity[c] ^ xi]


# Each kind's defining identities: kind -> (arity -> (block count,
# equations)).  An equation holds for every basis tuple t; its ``terms`` are
# (block b, slot s, coefficient c).  A slot term is c times the prefix sign
# of slot s times [alpha^k e_{t_0}, ..., B_b e_{t_s}, ..., alpha^k e_{t_{n-1}}];
# a VALUE term is c times B_b [e_{t_0}, ..., e_{t_{n-1}}].  Every block also
# commutes with alpha.  ``sorted_from`` is the equation's tuple symmetry, the
# first slot from which t may be sorted without changing the row space (n if
# none may be): :func:`_rows` reads the equation on the t sorted from there,
# or on every t when alpha is not even.  Der, C, QC and QDer sort all of t;
# ZDer sorts all of t in D[e_t] = 0 and t[1:] in its slot equation (its one
# term singles out slot 0); GDer sorts nothing (each slot has its own block).
VALUE = None


class _Equation(NamedTuple):
    sorted_from: int
    terms: list


_EQUATIONS: dict[Kind, Callable[[int], tuple[int, list[_Equation]]]] = {
    Kind.OMEGA: lambda n: (1, []),
    Kind.DER: lambda n: (1, [_Equation(0, [(0, s, 1) for s in range(n)] + [(0, VALUE, -1)])]),
    Kind.ZDER: lambda n: (1, [_Equation(1, [(0, 0, 1)]), _Equation(0, [(0, VALUE, 1)])]),
    Kind.C: lambda n: (1, [_Equation(0, [(0, s, 1), (0, VALUE, -1)]) for s in range(n)]),
    Kind.QC: lambda n: (1, [_Equation(0, [(0, 0, 1), (0, s, -1)]) for s in range(1, n)]),
    Kind.QDER: lambda n: (2, [_Equation(0, [(0, s, 1) for s in range(n)] + [(1, VALUE, -1)])]),
    Kind.GDER: lambda n: (
        n + 1, [_Equation(n, [(s, s, 1) for s in range(n)] + [(n, VALUE, -1)])]),
}


def _commutation_rows(alg: NHomAlgebra, posidx, offset: int):
    """Sparse integer rows encoding (D alpha - alpha D) = 0 for one unknown block."""
    if alg.alpha.is_identity():
        return []
    d = alg.dim
    a, _ = alg.alpha.ints
    rows = []
    for l in range(d):
        for m in range(d):
            row = {}
            for j in range(d):
                col = posidx.get((l, j))
                if col is not None and a[j][m]:
                    row[offset + col] = row.get(offset + col, 0) + a[j][m]
                col = posidx.get((j, m))
                if col is not None and a[l][j]:
                    row[offset + col] = row.get(offset + col, 0) - a[l][j]
            row = [(col, x) for col, x in row.items() if x]
            if row:
                rows.append(row)
    return rows


def _rows(alg: NHomAlgebra, kind: Kind, k: int, xi: int):
    """Sparse integer rows of the equations of ``kind`` over its vectorized blocks.

    Each row is the list of its nonzero (column, value) pairs, the row form of
    :func:`~nhomlie.linalg.kernel`.  Rows come tuple by tuple in product order,
    then equation by equation, then component by component, followed by the
    commutation rows of every block; zero rows are left out.  Every equation
    row is the rational row times one factor, the tensor's denominator times
    den(alpha^k)^(n-1), and every commutation row the rational row times
    den(alpha).  Returns (an iterator over the rows, block count, positions);
    ``solve`` consumes the rows as they are built.

    Only the representatives (below) that can give a nonzero row are
    visited, and no other tuple is built: the tensor's support when an
    equation has a VALUE term, and, for each slot s with a slot term, the
    tuples that agree with an entry v of the tensor opened at slot s outside
    slot s and hold at slot s a column c with (v_s, c) an allowed position.
    On every other tuple each term of each equation reads zero, so the rows
    are the nonzero rows of the walk over every representative, in the same
    order.  Every slot term is read from
    :func:`~nhomlie.algebra.opened_index`, which lists the entries of the
    opened tensor by their other slots, so the reached tuples and each
    term's entries are found by lookup.

    Each equation is read only on its representatives: the tuples weakly
    increasing from its ``sorted_from`` slot on (all tuples when that is n, or
    when alpha is not even, which ``solve`` does not rule out).  The row space
    does not change.  Swap the adjacent entries t_i and t_{i+1} (both at or
    after ``sorted_from``).  By the graded skew symmetry of the bracket, the
    VALUE term gets the factor -(-1)^(|e_{t_i}| |e_{t_{i+1}}|), and so does a
    slot term with the unknown in neither slot (alpha^k is even, so its images
    keep the parities of their arguments).  A slot term with the unknown in
    slot i or i + 1 becomes the term of the other slot: the graded swap adds
    (-1)^(xi |e|), e the entry that moves across the unknown, and the prefix
    sign changes by the same (-1)^(xi |e|), so the factor is again the common
    one.  A permutation of t therefore permutes the slot terms of each equation
    and keeps its VALUE term, all times one sign.  Each permuted equation is
    then plus or minus a representative's equation (Der and QDer sum their slot
    terms; C's slot s goes to another slot; ZDer's slot equation keeps slot 0
    in place, and its VALUE equation has no slot term to move) or, for QC, a
    difference of two of them: slot a minus slot b is (slot 0 minus slot b)
    minus (slot 0 minus slot a).  :func:`~nhomlie.linalg.kernel` returns the
    canonical form of the nullspace, so equal row spaces give equal bases.

    The slot-s term of unknown column (j, t[s]) is the prefix sign
    (-1)^(xi |t[:s]|) times the bracket [alpha^k e_{t_0}, ..., e_j, ...,
    alpha^k e_{t_{n-1}}], which is the entry t[:s] + (j,) + t[s+1:] of
    :func:`~nhomlie.algebra.opened_tensor` at slot s; it is read by
    lookup, so no bracket is evaluated here.  Each (tuple, equation) is
    summed in one sparse dict per component a term reaches; their nonzero
    entries are its rows, in component order, never at the full width.
    """
    d, n = alg.dim, alg.arity
    nblocks, equations = _EQUATIONS[kind](n)
    if not is_homogeneous(alg.parity, 0, alg.alpha):
        equations = [eq._replace(sorted_from=n) for eq in equations]
    # every tuple that is a representative of some equation
    start = max((eq.sorted_from for eq in equations), default=n)
    pos = allowed_positions(alg.parity, xi)
    npos = len(pos)
    posidx = {rc: m for m, rc in enumerate(pos)}
    # the allowed positions (r, c) of each column c, as (r, vector index)
    colpos = [[] for _ in range(d)]
    for m, (r, c) in enumerate(pos):
        colpos[c].append((r, m))
    # the vector index of each position (r, c), None where it is not allowed
    at = [[posidx.get((r, c)) for c in range(d)] for r in range(d)]
    values = alg.tensor[0]
    parity = alg.parity
    # slot terms are entries of the opened tensors, over the tensor's
    # denominator times den(alpha^k)^(n-1); VALUE terms are lifted to it
    lift = alg.alpha_power(k).ints[1] ** (n - 1)
    terms = [s for eq in equations for _, s, _ in eq.terms]
    index = {s: opened_index(alg, k, s) for s in terms if s is not VALUE}
    # the representatives a term reaches: those in the support, and every
    # t = other[:s] + (c,) + other[s:] one slot-s step from an opened entry
    # v, with (v_s, c) an allowed position; t[start:] is weakly increasing
    # when other's part of it is and, for s >= start, c lies between its
    # neighbours there
    reached = {t for t in values if _is_increasing(t[start:])} if VALUE in terms else set()
    for s, entries_of in index.items():
        for other, entries in entries_of.items():
            if not _is_increasing(other[start - 1 if s < start else start:]):
                continue
            lo = other[s - 1] if start < s else 0
            hi = other[s] if start <= s < n - 1 else d - 1
            cols = {c for j, _ in entries for c in range(lo, hi + 1) if at[j][c] is not None}
            reached.update(other[:s] + (c,) + other[s:] for c in cols)
    reached = sorted(reached)
    # t[start:] is increasing, so only an equation sorted from before start
    # has more to test
    checked = [(eq, eq.sorted_from < start) for eq in equations]

    def rows():
        for t in reached:
            value = values.get(t, ())
            for eq, check in checked:
                if check and not _is_increasing(t[eq.sorted_from:]):
                    continue
                comps = defaultdict(dict)  # component -> {column: coefficient}
                for b, s, c in eq.terms:
                    off = b * npos
                    if s is VALUE:
                        for j, v in value:
                            x = c * v * lift
                            for l, m in colpos[j]:
                                comp = comps[l]
                                comp[off + m] = comp.get(off + m, 0) + x
                        continue
                    head = t[:s]
                    w = -c if xi and sum(map(parity.__getitem__, head)) & 1 else c
                    for j, entry in index[s].get(head + t[s + 1:], ()):
                        m = at[j][t[s]]
                        if m is None:
                            continue
                        col = off + m
                        for l, x in entry:
                            comp = comps[l]
                            comp[col] = comp.get(col, 0) + w * x
                for l in sorted(comps):
                    row = [(col, x) for col, x in comps[l].items() if x]
                    if row:
                        yield row
        for b in range(nblocks):
            yield from _commutation_rows(alg, posidx, b * npos)

    return rows(), nblocks, pos


def solve(alg: NHomAlgebra, kind: Kind | str, k: int, xi: int) -> EndoSubspace:
    """Canonical basis of the requested space at twist power k and parity xi.

    The space depends on k only through alpha^k (Omega not at all), so it
    is cached on ``alg`` under alpha^k, and twist powers with equal alpha^k
    return the same object.  When alpha is even, invertible and
    multiplicative (:func:`_scales`), the space at an alpha^k other than
    the identity is alpha^k times the space at k = 0, witnesses and slack
    included, and is read off that one instead of its own rows:
    multiplicativity moves alpha^k out of every slot,
    [alpha^k x_0, .., alpha^k B x_s, ..] = alpha^k [x_0, .., B x_s, ..],
    so each equation on the blocks alpha^k B_b is alpha^k times the
    equation at k = 0 on the B_b, and alpha^k B commutes with alpha iff B
    does; cancel the invertible alpha^k.
    """
    kind = Kind(kind)
    if k < 0:
        raise ValueError("twist power must be nonnegative")
    if kind not in TUPLE_KINDS:
        k = 0
    return alg.cached(("solve", kind, xi, alg.alpha_power(k)),
                      lambda: _solve_uncached(alg, kind, k, xi))


def _solve_uncached(alg: NHomAlgebra, kind: Kind, k: int, xi: int) -> EndoSubspace:
    power = alg.alpha_power(k)
    # the identity is the k = 0 key, whose entry is the one being built
    if not power.is_identity() and _scales(alg):
        nblocks = _EQUATIONS[kind](alg.arity)[0]
        pos = allowed_positions(alg.parity, xi)
        rows = _grown(nblocks * len(pos), (),
                      _scaled_rows(solve(alg, kind, 0, xi), power, pos)).rows
        return _space(alg.dim, kind, xi, pos, nblocks, rows)
    rows, nblocks, pos = _rows(alg, kind, k, xi)
    return _space(alg.dim, kind, xi, pos, nblocks, kernel(rows, nblocks * len(pos)))


def _scales(alg: NHomAlgebra) -> bool:
    """True when alpha is even, invertible and multiplicative, so that
    :func:`solve` may scale the spaces at k = 0.

    Evenness keeps alpha^k B of B's parity and lets
    :func:`~nhomlie.algebra.multiplicative_failures` decide the axiom on
    weakly increasing tuples; that evaluation is cached and shared with
    :func:`~nhomlie.algebra.validate`, and the Jacobi identity is not read.
    """
    return (is_homogeneous(alg.parity, 0, alg.alpha) and is_alpha_surjective(alg)
            and not multiplicative_failures(alg))


def _scaled_rows(space: EndoSubspace, power: Mat, pos):
    """The joint rows of ``space``, each block mapped by ``power``, as integer
    (column, value) pairs.

    A basis element's row is the element and its witness blocks; a slack
    row is a zero leading block and the slack's blocks.
    """
    # QDer holds one witness matrix per row, GDer a tuple, one-block kinds none
    trailing = (lambda w: (w,)) if space.kind is Kind.QDER else tuple
    zero = Mat.zero(power.rows, power.cols)
    joint = [*zip((g.mat for g in space.basis), space.witnesses or ((),) * space.dim),
             *((zero, w) for w in space.slack)]
    for lead, witness in joint:
        mats = [power @ b for b in (lead, *trailing(witness))]
        den = lcm(*(m.ints[1] for m in mats))
        yield [(b * len(pos) + i, x * (den // m.ints[1])) for b, m in enumerate(mats)
               for i, x in enumerate(m.ints[0][r][c] for r, c in pos) if x]


def _space(d: int, kind: Kind, xi: int, pos, nblocks: int, rows) -> EndoSubspace:
    """The space read off the canonical rows of its joint solution space.

    The joint RREF has the leading block first: rows pivoted inside the
    leading block restrict to the canonical basis of its projection, and
    their trailing blocks are the minimal-echelon witness representatives;
    rows pivoted later have zero leading part, and their trailing blocks
    are the canonical basis of the slack.  A pair at column b npos + m is
    block b's entry at ``pos[m]``, over the row's leading value.
    """
    # each joint column's block, column // npos, and column-major index in it
    place = [(b, c * d + r) for b in range(nblocks) for r, c in pos]
    basis, witnesses, slack = [], [], []
    for row in rows:
        blocks = [[] for _ in range(nblocks)]
        for col, x in row:
            b, i = place[col]
            blocks[b].append((i, x))
        witness = tuple(Mat.from_vec_pairs(d, block, row[0][1]) for block in blocks[1:])
        witness = witness[0] if kind is Kind.QDER else witness
        if blocks[0]:
            basis.append(GradedEndo(Mat.from_vec_pairs(d, blocks[0], row[0][1]), xi))
            witnesses.append(witness)
        else:
            slack.append(witness)
    return EndoSubspace(kind, xi, tuple(basis),
                        tuple(witnesses) if nblocks > 1 else None, tuple(slack))


def omega(alg: NHomAlgebra, xi: int) -> EndoSubspace:
    """Commutant of alpha among homogeneous maps of degree xi."""
    return solve(alg, Kind.OMEGA, 0, xi)


# ---------------------------------------------------------------------------
# membership by direct evaluation (the cross-validation path)
# ---------------------------------------------------------------------------

def in_space(alg: NHomAlgebra, kind: Kind | str, k: int, xi: int, endo: GradedEndo) -> bool:
    """Definition-level membership test, independent of :func:`solve`.

    Identities are re-evaluated on the integer structure tensor for the
    explicit images of the basis by :func:`~nhomlie.algebra.identity_failures`,
    so only the support and the tuples its slot terms reach are checked;
    for QDer/GDer the slot terms must lie in :func:`_witness_span`.
    """
    kind = Kind(kind)
    if endo.mat.rows != alg.dim:
        raise ValueError("endomorphism size does not match the algebra")
    if not is_homogeneous(alg.parity, xi, endo.mat):
        raise ValueError("endomorphism is not homogeneous of the stated parity")
    return alg.cached(("member", kind, xi, alg.alpha_power(k), endo.mat),
                      lambda: _in_space_uncached(alg, kind, k, xi, endo))


def _in_space_uncached(alg, kind, k, xi, endo) -> bool:
    d, n = alg.dim, alg.arity
    if not commutes_with(endo.mat, alg.alpha):
        return False
    if kind is Kind.OMEGA:
        return True
    drows, dden = sparse_rows(endo.mat)

    if kind in (Kind.QDER, Kind.GDER):
        # the leading block's slot terms (every slot for QDer, slot 0 for
        # GDer) need a witness, whatever their denominator
        reached, span = _witness_span(alg, kind, k, xi)
        weights = dict.fromkeys(range(n) if kind is Kind.QDER else (0,), 1)
        row = []
        for t, term in summed_slot_terms(alg, k, xi, drows, weights).items():
            if any(term):
                if t not in reached:  # no witness reaches t
                    return False
                row.extend((reached[t] + l, x) for l, x in enumerate(term) if x)
        return contains(span, row)

    # each identity of the kind as (slot weights, W): the weighted sum of
    # D's slot terms equals W [e_t], where W is D itself or zero
    dcols = sparse_columns(endo.mat)[0]
    zero = [()] * d
    if kind is Kind.DER:
        identities = [(dict.fromkeys(range(n), 1), dcols)]
    elif kind is Kind.C:
        identities = [({s: 1}, dcols) for s in range(n)]
    elif kind is Kind.QC:
        identities = [({0: 1, s: -1}, zero) for s in range(1, n)]
    else:  # ZDer
        identities = [({0: 1}, zero), ({}, dcols)]
    return all(next(identity_failures(alg, k, xi, drows, dden, weights, wcols, dden), None)
               is None for weights, wcols in identities)


def _witness_span(alg: NHomAlgebra, kind: Kind, k: int, xi: int) -> tuple[dict, SubspaceBasis]:
    """``(reached, span)``: the QDer/GDer right-hand sides with a witness, cached.

    Witnesses lie in Omega and enter linearly, so these are the span of what
    Omega's basis maps W give: W [e_t], and for GDer W's slot-s terms for
    s = 1..n-1, each over its own denominator, as (column, value) pairs with
    d columns per tuple: ``reached`` maps each tuple a contribution is
    nonzero at, in product order, to the column of its first component.
    """
    return alg.cached(("witness", kind, xi, alg.alpha_power(k)),
                      lambda: _witness_span_uncached(alg, kind, k, xi))


def _witness_span_uncached(alg: NHomAlgebra, kind: Kind, k: int, xi: int):
    values, d = alg.tensor[0], alg.dim
    slots = range(1, alg.arity) if kind is Kind.GDER else ()
    contributions = []
    for w in omega(alg, xi).basis:
        wcols, wrows = sparse_columns(w.mat)[0], sparse_rows(w.mat)[0]
        contributions.append({t: apply_ints(wcols, value, d) for t, value in values.items()})
        contributions.extend(summed_slot_terms(alg, k, xi, wrows, {s: 1}) for s in slots)
    reached = sorted({t for terms in contributions for t, term in terms.items() if any(term)})
    reached = {t: i * d for i, t in enumerate(reached)}
    rows = ([(reached[t] + l, x) for t, term in terms.items() for l, x in enumerate(term) if x]
            for terms in contributions)
    return reached, _grown(len(reached) * d, (), rows)


def qder_identity_holds(alg: NHomAlgebra, k: int, xi: int, endo: GradedEndo,
                        witness: Mat) -> bool:
    """Check the quasiderivation identity for a *fixed* right-hand witness.

    Cached on ``alg`` by the operands' values, as :func:`in_space` is.
    """
    if endo.mat.rows != alg.dim or (witness.rows, witness.cols) != (alg.dim, alg.dim):
        raise ValueError("endomorphism size does not match the algebra")
    return alg.cached(("qder_identity", xi, alg.alpha_power(k), endo.mat, witness),
                      lambda: _qder_identity_uncached(alg, k, xi, endo, witness))


def _qder_identity_uncached(alg, k, xi, endo, witness) -> bool:
    if not is_homogeneous(alg.parity, xi, witness):
        return False
    if not commutes_with(endo.mat, alg.alpha) or not commutes_with(witness, alg.alpha):
        return False
    drows, dden = sparse_rows(endo.mat)
    wcols, wden = sparse_columns(witness)
    weights = dict.fromkeys(range(alg.arity), 1)
    return next(identity_failures(alg, k, xi, drows, dden, weights, wcols, wden), None) is None


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
