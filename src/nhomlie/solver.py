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
and vectorized column-major, blocks in definition order.  Each space is
read off one pass over its rows: :func:`~nhomlie.linalg.kernel` keeps one
integer kernel vector per free column, stops reading rows once none is
free, and returns the joint solution space of all blocks as primitive
integer rows, each a vector of its reduced row-echelon basis times the
vector's leading entry, so every block is built as integer numerators over
that entry.
``QDer`` and ``GDer`` are solved jointly with their witnesses in that one
RREF and projected onto the leading block; the witness blocks of the rows
that lead in it are the witness representatives aligned with the returned
basis, kept for reporting and for the extension embedding.  The rows that
lead past the first block have a zero leading block, so their trailing
blocks are the canonical basis of the witnesses of the zero map, kept as
the space's ``slack``: the freedom in every basis element's witness.  For
``QDer`` these are the maps that commute with alpha and kill every
bracket, whatever k is.

``_EQUATIONS`` is the one description of these identities, with each
equation's tuple symmetry: the slot from which a basis tuple may be sorted
without changing the row space (all of t for Der, C, QC, QDer and ZDer's
VALUE equation, t[1:] for ZDer's slot equation, none for GDer).
:func:`_rows` turns it into rows over each equation's weakly increasing
representatives.  The rows are integer numerators built from the structure
tensor, which holds only the tuples with a nonzero bracket and is read by
lookup: a VALUE term reads the tensor itself, and the slot-s term of
unknown column (j, t[s]) is the entry t[:s] + (j,) + t[s+1:] of
:func:`~nhomlie.algebra.opened_tensor` at slot s, the tensor with alpha^k
in every other slot, times the prefix sign.  Each (tuple, equation) is
summed sparsely, component by component, and each nonzero component becomes
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

from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from itertools import combinations_with_replacement, product
from typing import Callable, NamedTuple, Sequence

from .algebra import (
    NHomAlgebra,
    apply_ints,
    identity_failures,
    is_homogeneous,
    opened_tensor,
    sparse_columns,
    sparse_rows,
    summed_slot_terms,
)
from .linalg import (
    Mat,
    SubspaceBasis,
    _grown,
    _reduce,
    commutes_with,
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
    k: int
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
        """The space as column-major flattened vectors (:meth:`Mat.vec_ints`).

        A solved basis is the canonical basis of its space over the
        column-major allowed positions (see :func:`solve`), and those
        positions keep their order in the column-major flattening, so the
        basis embeds as it is, with no elimination.
        """
        return SubspaceBasis(ambient_dim, tuple(tuple(g.mat.vec_ints()) for g in self.basis))


def allowed_positions(parity: Sequence[int], xi: int) -> list[tuple[int, int]]:
    """Matrix entries a degree-xi map may occupy, column-major."""
    d = len(parity)
    return [(r, c) for c in range(d) for r in range(d) if parity[r] == parity[c] ^ xi]


# Each kind's defining identities: kind -> (arity -> (block count,
# equations)).  An equation holds for every basis tuple t; its ``terms`` are
# (block b, slot s, coefficient c).  A slot term is c times the prefix sign
# of slot s times [alpha^k e_{t_0}, ..., B_b e_{t_s}, ..., alpha^k e_{t_{n-1}}];
# a VALUE term is c times B_b [e_{t_0}, ..., e_{t_{n-1}}].  Every block also
# commutes with alpha.  ``sorted_from`` is the equation's tuple symmetry: the
# first slot from which t may be sorted without changing the row space (see
# :func:`_rows`), n if none may be.  Der, C, QC and QDer sort all of t; ZDer
# sorts all of t in its VALUE equation D[e_t] = 0 and only t[1:] in its slot
# equation (whose one term singles out slot 0); GDer sorts nothing (each slot
# has its own block).  Only :func:`solve` reads representatives.
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


def _tuples(d: int, n: int, sorted_from: int):
    """Basis n-tuples in product order, only those weakly increasing from
    slot ``sorted_from`` on (every tuple when it is n)."""
    return (head + tail for head in product(range(d), repeat=sorted_from)
            for tail in combinations_with_replacement(range(d), n - sorted_from))


def _rows(alg: NHomAlgebra, kind: Kind, k: int, xi: int, reduced=False):
    """Sparse integer rows of the equations of ``kind`` over its vectorized blocks.

    Each row is the list of its nonzero (column, value) pairs, the row form of
    :func:`~nhomlie.linalg.kernel`.  Rows come tuple by tuple in product order,
    then equation by equation, then component by component, followed by the
    commutation rows of every block; zero rows are left out.  Every equation
    row is the rational row times one factor, the tensor's denominator times
    den(alpha^k)^(n-1), and every commutation row the rational row times
    den(alpha).  Returns (an iterator over the rows, block count, positions);
    ``solve`` consumes the rows as they are built.

    With ``reduced``, each equation is read only on its representative
    tuples: those weakly increasing from its ``sorted_from`` slot on (every
    tuple when that is n).  The row space does not change.  Swap the
    adjacent entries t_i and t_{i+1} (both at or after ``sorted_from``).
    By the graded skew symmetry of the bracket, the VALUE term gets the factor
    -(-1)^(|e_{t_i}| |e_{t_{i+1}}|), and so does a slot term with the
    unknown in neither slot (alpha^k is even, so its images keep the
    parities of their arguments).  A slot term with the unknown in slot i
    or i + 1 becomes the term of the other slot: the graded swap adds
    (-1)^(xi |e|), e the entry that moves across the unknown, and the prefix
    sign changes by the same (-1)^(xi |e|), so the factor is again the
    common one.  A permutation of t therefore permutes the slot terms of
    each equation and keeps its VALUE term, all times one sign.  Each
    permuted equation is then plus or minus a representative's equation
    (Der and QDer sum their slot terms; C's slot s goes to another slot;
    ZDer's slot equation keeps slot 0 in place, and its VALUE equation has
    no slot term to move) or, for QC, a difference of two of them:
    slot a minus slot b is (slot 0 minus slot b) minus (slot 0 minus
    slot a).  :func:`~nhomlie.linalg.kernel` returns the canonical form of
    the nullspace, so equal row spaces give equal bases.

    The slot-s term of unknown column (j, t[s]) is the prefix sign
    (-1)^(xi |t[:s]|) times the bracket [alpha^k e_{t_0}, ..., e_j, ...,
    alpha^k e_{t_{n-1}}], which is the entry t[:s] + (j,) + t[s+1:] of
    :func:`~nhomlie.algebra.opened_tensor` at slot s; it is read by
    lookup, so no bracket is evaluated here.  Each (tuple, equation) is
    summed in one sparse dict per component, and the component's nonzero
    entries are its row, so no row is ever written out at the full width.
    """
    d, n = alg.dim, alg.arity
    nblocks, equations = _EQUATIONS[kind](n)
    # every tuple that is a representative of some equation
    start = max((eq.sorted_from for eq in equations), default=n) if reduced else n
    pos = allowed_positions(alg.parity, xi)
    npos = len(pos)
    posidx = {rc: m for m, rc in enumerate(pos)}
    # the allowed positions (r, c) of each column c, as (r, vector index)
    colpos = [[] for _ in range(d)]
    for m, (r, c) in enumerate(pos):
        colpos[c].append((r, m))
    values = alg.tensor[0]
    parity = alg.parity
    # slot terms are entries of the opened tensors, over the tensor's
    # denominator times den(alpha^k)^(n-1); VALUE terms are lifted to it
    lift = alg.alpha_power(k).ints[1] ** (n - 1)
    opened = {s: opened_tensor(alg, k, s) for eq in equations
              for b, s, _ in eq.terms if s is not VALUE}

    def rows():
        for t in _tuples(d, n, start):
            # t is a representative of the equations sorted from slot first on
            first = n - 1 if reduced else 0
            while first and t[first - 1] <= t[first]:
                first -= 1
            value = values.get(t, ())
            for eq in equations:
                if eq.sorted_from < first:
                    continue
                comps = [{} for _ in range(d)]  # component -> {column: coefficient}
                for b, s, c in eq.terms:
                    off = b * npos
                    if s is VALUE:
                        for j, v in value:
                            x = c * v * lift
                            for l, m in colpos[j]:
                                comp = comps[l]
                                comp[off + m] = comp.get(off + m, 0) + x
                        continue
                    head, tail = t[:s], t[s + 1:]
                    w = -c if xi and sum(map(parity.__getitem__, head)) & 1 else c
                    slot = opened[s]
                    for j, m in colpos[t[s]]:
                        col = off + m
                        for l, x in slot.get(head + (j,) + tail, ()):
                            comp = comps[l]
                            comp[col] = comp.get(col, 0) + w * x
                for comp in comps:
                    row = [(col, x) for col, x in comp.items() if x]
                    if row:
                        yield row
        for b in range(nblocks):
            yield from _commutation_rows(alg, posidx, b * npos)

    return rows(), nblocks, pos


def _mat_from_positions(d: int, pos, coeffs, den: int) -> Mat:
    """The d x d matrix with integer numerators ``coeffs`` at ``pos``, over ``den``."""
    grid = [[0] * d for _ in range(d)]
    for (r, c), x in zip(pos, coeffs):
        grid[r][c] = x
    return Mat(d, d, (tuple(map(tuple, grid)), den))


def solve(alg: NHomAlgebra, kind: Kind | str, k: int, xi: int) -> EndoSubspace:
    """Canonical basis of the requested space at twist power k and parity xi.

    Omega does not depend on k and is returned with k = 0.
    """
    kind = Kind(kind)
    if k < 0:
        raise ValueError("twist power must be nonnegative")
    if kind not in TUPLE_KINDS:
        k = 0
    cache_key = ("solve", kind, xi, alg.alpha_power(k))
    hit = alg._cache.get(cache_key)
    if hit is not None:
        return replace(hit, k=k)
    d = alg.dim
    # the tuple symmetry of _rows needs an even alpha; an input that breaks
    # that axiom (solve does not validate) is solved over every tuple
    rows, nblocks, pos = _rows(alg, kind, k, xi,
                               reduced=is_homogeneous(alg.parity, 0, alg.alpha))
    npos = len(pos)
    width = nblocks * npos
    # RREF the joint solution space with the leading block first: rows
    # pivoted inside the leading block restrict to the canonical basis of
    # its projection, and their trailing blocks are the minimal-echelon
    # witness representatives; rows pivoted later have zero leading part,
    # and their trailing blocks are the canonical basis of the slack.
    basis, witnesses, slack = [], [], []
    for row in kernel(rows, width):
        lead = next(x for x in row if x)
        blocks = tuple(_mat_from_positions(d, pos, row[b * npos:(b + 1) * npos], lead)
                       for b in range(1, nblocks))
        witness = blocks[0] if kind is Kind.QDER else blocks
        if any(row[:npos]):
            basis.append(GradedEndo(_mat_from_positions(d, pos, row[:npos], lead), xi))
            witnesses.append(witness)
        else:
            slack.append(witness)
    result = EndoSubspace(kind, k, xi, tuple(basis),
                          tuple(witnesses) if nblocks > 1 else None, tuple(slack))
    alg._cache[cache_key] = result
    return result


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
    cache_key = ("member", kind, xi, alg.alpha_power(k), endo.mat)
    hit = alg._cache.get(cache_key)
    if hit is None:
        hit = alg._cache[cache_key] = _in_space_uncached(alg, kind, k, xi, endo)
    return hit


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
        row = _laid_out(reached, summed_slot_terms(alg, k, xi, drows, weights), d)
        return row is not None and not any(_reduce(span.rows, span.leads, row))

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
    s = 1..n-1, each over its own denominator, laid out d components per
    tuple that ``reached`` numbers in product order.
    """
    cache_key = ("witness", kind, xi, alg.alpha_power(k))
    hit = alg._cache.get(cache_key)
    if hit is not None:
        return hit
    values, d = alg.tensor[0], alg.dim
    slots = range(1, alg.arity) if kind is Kind.GDER else ()
    contributions = []
    for w in omega(alg, xi).basis:
        wcols, wrows = sparse_columns(w.mat)[0], sparse_rows(w.mat)[0]
        contributions.append({t: apply_ints(wcols, value, d) for t, value in values.items()})
        contributions.extend(summed_slot_terms(alg, k, xi, wrows, {s: 1}) for s in slots)
    reached = sorted({t for terms in contributions for t, term in terms.items() if any(term)})
    reached = {t: i for i, t in enumerate(reached)}
    rows = (_laid_out(reached, terms, d) for terms in contributions)
    hit = alg._cache[cache_key] = (reached, _grown(len(reached) * d, [], [], rows))
    return hit


def _laid_out(reached: dict, terms: dict, d: int) -> list[int] | None:
    """``terms`` laid out d per ``reached`` tuple; None if nonzero at another tuple."""
    row = [0] * (len(reached) * d)
    for t, term in terms.items():
        i = reached.get(t)
        if i is not None:
            row[i * d:(i + 1) * d] = term
        elif any(term):
            return None
    return row


def qder_identity_holds(alg: NHomAlgebra, k: int, xi: int, endo: GradedEndo,
                        witness: Mat) -> bool:
    """Check the quasiderivation identity for a *fixed* right-hand witness.

    Cached on ``alg`` by the operands' values, as :func:`in_space` is.
    """
    if endo.mat.rows != alg.dim or (witness.rows, witness.cols) != (alg.dim, alg.dim):
        raise ValueError("endomorphism size does not match the algebra")
    cache_key = ("qder_identity", xi, alg.alpha_power(k), endo.mat, witness)
    hit = alg._cache.get(cache_key)
    if hit is None:
        hit = alg._cache[cache_key] = _qder_identity_uncached(alg, k, xi, endo, witness)
    return hit


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
                   d3: GradedEndo, jordan=jordan_product, twist=None) -> GradedEndo:
    """(x*y)*twist(z) - twist(x)*(y*z) for the half-anticommutator product.

    ``jordan`` and ``twist`` (by default :func:`jordan_product` and
    :func:`alpha_twist` on ``alg``) evaluate the inner operations, so a
    caller that builds many associators can share value-keyed caches of
    them across associators.
    """
    for e in (d1, d2, d3):
        if not commutes_with(e.mat, alg.alpha):
            raise ValueError("hom associator requires commutation with alpha")
    twist = twist or partial(alpha_twist, alg)
    left = jordan(jordan(d1, d2), twist(d3))
    right = jordan(twist(d1), jordan(d2, d3))
    return GradedEndo(left.mat - right.mat, left.xi)
