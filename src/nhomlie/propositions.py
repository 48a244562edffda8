"""Machine checks for the structural theorems about the operator spaces.

Each check returns a :class:`PropReport` whose claims are backed either by
definition-level membership (:func:`~nhomlie.solver.in_space`) or by exact
subspace containment, never by dimension counting.  Claims whose hypothesis
fails are reported as skipped, with the reason.

A failing claim reports its first failure and stops there.  Grade-indexed
claims walk their grades in order: pairs (k1, xi1, k2, xi2) in the order of
:func:`_grades`, single grades (k, xi) by k, then xi, and basis elements in
basis order within a grade.  The witness is the failing grade and the
offending matrix.  Claims over the commutant report the first failing pair
or quadruple in the order they are enumerated.

Each check caches the operations it applies (bracket, composition, twist,
Jordan product, and 3.8's associator) on the values of their operands, so
an operation is evaluated once per distinct operand tuple, whichever grades,
claims or quadruples share it; the caches are dropped when the check
returns.  Solved spaces depend on a twist power k only through alpha^k, so
the walks skip every grade with a power k that is not the least with its
alpha^k (:func:`_least_powers`): it would repeat an earlier grade's checks.
3.3's pieces depend on k itself, so its walks take every grade.

3.8's Hom-Jordan residual of (x, y, z, w) is a sum of three terms, each with
its own sign, and rotating (x, y, z) only reorders them; so of the basis
quadruples, only those whose index triple is least among its rotations are
evaluated, and the first failure in product order is always one of them.

3.8's two 38.1 claims hold every value as a :class:`SparseEndo` (rows, den,
xi): the nonzero (column, value) pairs of each row of its integer form
over one denominator, reduced as :attr:`Mat.ints` is, so equal values still
hash equal in the value-keyed caches.  Their Jordan products, twists,
associators and residuals run on those rows
(:func:`~nhomlie.linalg.product_rows`,
:func:`~nhomlie.linalg.row_combination`).  A ``Mat`` is built only for a
failing claim's witness and for 38.2, whose membership test reads one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, partial
from itertools import combinations_with_replacement, product, starmap
from typing import NamedTuple

from .algebra import (NHomAlgebra, _require_valid, center, invert, is_alpha_surjective,
                      sparse_columns)
from .io import mat_doc
from .linalg import Mat, Rows, _grown, contains, product_rows, row_combination, subspace_sum
from .solver import (
    GradedEndo,
    Kind,
    TUPLE_KINDS,
    alpha_twist,
    compose,
    hom_associator,  # noqa: F401  (re-exported: the Mat form of the walk's _hom_associator)
    in_space,
    jordan_product,
    omega,
    qder_identity_holds,
    solve,
    supercommutator,
)

SEED = 20260811  # seeds every sampled check: 3.8's quadruples, 4.2's witness noise


@dataclass(frozen=True)
class Claim:
    claim_id: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str = ""
    witness: tuple = ()


@dataclass(frozen=True)
class PropReport:
    prop: str
    claims: tuple[Claim, ...]
    dims: tuple[tuple[str, int, int, int], ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.claims)

    def claim(self, claim_id: str) -> Claim:
        for c in self.claims:
            if c.claim_id == claim_id:
                return c
        raise KeyError(claim_id)


def _mat_witness(mat: Mat) -> tuple:
    return tuple(map(tuple, mat_doc(mat)))


def _report(prop: str, claims: list[Claim], dims=()) -> PropReport:
    return PropReport(prop, tuple(sorted(claims, key=lambda c: c.claim_id)), tuple(dims))


def solved_dims(alg: NHomAlgebra, kmax: int):
    """Dimension table of every solved space up to twist power kmax.

    The table is built once per algebra and kmax; every check of one
    ``props`` command reports the same table.
    """
    if kmax < 0:
        raise ValueError("twist power must be nonnegative")

    def build():
        out = []
        for xi in (0, 1):
            out.append((Kind.OMEGA.value, 0, xi, omega(alg, xi).dim))
            for kind in TUPLE_KINDS:
                for k in range(kmax + 1):
                    out.append((kind.value, k, xi, solve(alg, kind, k, xi).dim))
        return tuple(sorted(out))
    return alg.cached(("dims", kmax), build)


def _least_powers(alg: NHomAlgebra, kmax: int) -> list[int]:
    """For each k <= kmax, the least j with alpha^j = alpha^k.

    Every check reads it before its first walk or skip, so each check is
    refused here on an algebra that fails its axioms (``InvalidAlgebra``)
    and on a negative kmax, which would walk no grade and pass every claim.
    """
    _require_valid(alg)
    if kmax < 0:
        raise ValueError("twist power must be nonnegative")
    first = {}
    return [first.setdefault(alg.alpha_power(k), k) for k in range(kmax + 1)]


def _grades(kmax: int, bound: int, least):
    """Pairs of (k, xi) grades with k1, k2 <= kmax, k1 + k2 <= bound and least powers.

    A space at twist power k depends on k only through alpha^k, and
    alpha^(k1 + k2) = alpha^k1 alpha^k2, so a grade whose powers are not
    least repeats the inputs and target of the grade of their least
    powers, which comes earlier in this order; only ``least[k] == k`` is
    walked.
    """
    for k1, k2 in product(range(kmax + 1), repeat=2):
        if k1 + k2 <= bound and least[k1] == k1 and least[k2] == k2:
            for x1, x2 in product((0, 1), repeat=2):
                yield k1, x1, k2, x2


def _levels(kmax: int, least):
    """Single (k, xi) grades with k <= kmax and least powers."""
    return ((k, xi) for k in range(kmax + 1) if least[k] == k for xi in (0, 1))


def _basis(alg: NHomAlgebra, kinds, k: int, xi: int):
    """The solved basis of one kind, or of a tuple of kinds in turn."""
    if isinstance(kinds, Kind):
        return solve(alg, kinds, k, xi).basis
    return [e for kind in kinds for e in solve(alg, kind, k, xi).basis]


def _inputs(alg: NHomAlgebra, *kinds):
    """Input bases at a grade (k1, x1, k2, x2, ...), one kind per (k, xi)."""
    return lambda g: [_basis(alg, kind, g[2 * i], g[2 * i + 1]) for i, kind in enumerate(kinds)]


def _member(alg: NHomAlgebra, kind, shift: int):
    """Membership in ``kind`` at the total grade of g, its power raised by ``shift``."""
    return lambda g, endo: in_space(alg, kind, sum(g[0::2]) + shift, sum(g[1::2]) % 2, endo)


def _first_failure(grades, inputs, op, holds):
    """The closure-check loop shared by every grade-indexed claim.

    For each grade ``g`` in order, ``op`` is applied to every tuple of
    basis elements, one from each basis of ``inputs(g)``, and each value
    must satisfy ``holds(g, value)``.  Returns ``(g, value)`` for the
    first failure, or None.
    """
    for g in grades:
        for value in starmap(op, product(*inputs(g))):
            if not holds(g, value):
                return g, value
    return None


def _claim(claim_id: str, failure, detail: str = "",
           witness=lambda g, value: (g, _mat_witness(value.mat))) -> Claim:
    """A claim from a :func:`_first_failure` result; ``witness(g, value)`` renders a failure."""
    if failure is None:
        return Claim(claim_id, "pass", detail)
    return Claim(claim_id, "fail", detail, witness(*failure))


def _same(endo: GradedEndo) -> GradedEndo:
    return endo


def check_prop31(alg: NHomAlgebra, kmax: int = 2) -> PropReport:
    """Closure of GDer/QDer/C under the bracket and the twist; ZDer is an ideal."""
    least = _least_powers(alg, kmax)
    pairs, levels = partial(_grades, kmax, kmax, least), partial(_levels, kmax - 1, least)
    bracket = cache(supercommutator)
    twist = cache(partial(alpha_twist, alg))

    claims = []
    for kind in (Kind.GDER, Kind.QDER, Kind.C):
        claims.append(_claim(f"31.1.{kind.value}.bracket", _first_failure(
            pairs(), _inputs(alg, kind, kind), bracket, _member(alg, kind, 0))))
        claims.append(_claim(f"31.1.{kind.value}.twist", _first_failure(
            levels(), _inputs(alg, kind), twist, _member(alg, kind, 1))))
    claims.append(_claim("31.2.ZDer.ideal", _first_failure(
        pairs(), _inputs(alg, Kind.DER, Kind.ZDER), bracket, _member(alg, Kind.ZDER, 0))))
    claims.append(_claim("31.2.ZDer.twist", _first_failure(
        levels(), _inputs(alg, Kind.ZDER), twist, _member(alg, Kind.ZDER, 1))))
    return _report("3.1", claims, solved_dims(alg, kmax))


def check_prop32(alg: NHomAlgebra, kmax: int = 2) -> PropReport:
    """The six inclusion statements tying Der, C, QC, QDer and GDer together."""
    n = alg.arity
    least = _least_powers(alg, kmax)
    bracket = cache(supercommutator)
    claims = []

    def pair_claim(cid, kind_a, kind_b, target, op):
        claims.append(_claim(cid, _first_failure(
            _grades(kmax, kmax, least), _inputs(alg, kind_a, kind_b), op,
            _member(alg, target, 0))))

    in_qder = _member(alg, Kind.QDER, 0)

    def qder_with_witness(g, da):
        return in_qder(g, da) and qder_identity_holds(alg, *g, da, da.mat.scale(n))

    pair_claim("32.1.[Der,C]_in_C", Kind.DER, Kind.C, Kind.C, bracket)
    pair_claim("32.2.[QDer,QC]_in_QC", Kind.QDER, Kind.QC, Kind.QC, bracket)
    pair_claim("32.3.C.Der_in_Der", Kind.C, Kind.DER, Kind.DER, cache(compose))
    claims.append(_claim("32.4.C_in_QDer", _first_failure(
        _levels(kmax, least), _inputs(alg, Kind.C), _same, qder_with_witness),
        detail="witness n*D verified"))
    pair_claim("32.5.[QC,QC]_in_QDer", Kind.QC, Kind.QC, Kind.QDER, bracket)
    claims.append(_claim("32.6.QDer+QC_in_GDer", _first_failure(
        _levels(kmax, least), _inputs(alg, (Kind.QDER, Kind.QC)), _same,
        _member(alg, Kind.GDER, 0))))
    return _report("3.2", claims, solved_dims(alg, kmax))


def _qc_plus_brackets(alg: NHomAlgebra, kmax: int, bracket):
    """Graded pieces of QC + [QC, QC] at every level, as column-major flattened subspaces.

    A bracket set depends on the grade's powers through their least powers,
    but lands in the piece of the exact total, so each set is added once per
    (least k1, x1, least k2, x2, total).
    """
    every, least = list(range(kmax + 1)), _least_powers(alg, kmax)
    vecs = {grade: [g.mat.vec_pairs() for g in solve(alg, Kind.QC, *grade).basis]
            for grade in _levels(kmax, every)}
    for k1, x1, k2, x2, total in dict.fromkeys(
            (least[k1], x1, least[k2], x2, (k1 + k2, (x1 + x2) % 2))
            for k1, x1, k2, x2 in _grades(kmax, kmax, every)):
        vecs[total].extend(c.mat.vec_pairs() for c in starmap(bracket, product(
            solve(alg, Kind.QC, k1, x1).basis, solve(alg, Kind.QC, k2, x2).basis)))
    return {grade: _grown(alg.dim ** 2, (), v) for grade, v in vecs.items()}


def check_prop33(alg: NHomAlgebra, kmax: int = 2) -> PropReport:
    """QC + [QC, QC] sits inside GDer and is closed under the bracket.

    The pieces depend on k itself, not only on alpha^k, so both walks take
    every grade; the bracket walk keeps the first grade of each triple of
    piece values (the two inputs and the target).
    """
    d = alg.dim
    every = list(range(kmax + 1))
    bracket = cache(supercommutator)
    pieces = _qc_plus_brackets(alg, kmax, bracket)
    bases = {grade: tuple(GradedEndo(Mat.from_vec_pairs(d, row, row[0][1]), grade[1])
                          for row in piece.rows)
             for grade, piece in pieces.items()}

    def total(g):
        return sum(g[0::2]), sum(g[1::2]) % 2

    firsts = {}
    for g in _grades(kmax, kmax, every):
        firsts.setdefault((pieces[g[:2]], g[1], pieces[g[2:]], g[3], pieces[total(g)]), g)
    claims = [
        _claim("33.S_in_GDer", _first_failure(
            _levels(kmax, every), lambda g: (bases[g],), _same, _member(alg, Kind.GDER, 0))),
        _claim("33.S_bracket_closed", _first_failure(
            firsts.values(), lambda g: (bases[g[:2]], bases[g[2:]]), bracket,
            lambda g, c: contains(pieces[total(g)], c.mat.vec_pairs()))),
    ]
    return _report("3.3", claims, solved_dims(alg, kmax))


def check_prop34(alg: NHomAlgebra, kmax: int = 2) -> PropReport:
    """[C, QC] lands in Hom(N, Z(N)) when alpha is onto; zero when Z(N) = 0."""
    least = _least_powers(alg, kmax)
    claims = []
    if not is_alpha_surjective(alg):
        claims.append(Claim("34.1.image_in_center", "skipped", detail="alpha not surjective"))
        claims.append(Claim("34.2.zero_when_centerless", "skipped", detail="alpha not surjective"))
        return _report("3.4", claims, solved_dims(alg, kmax))
    z_even, z_odd = center(alg)
    z_full = subspace_sum(z_even, z_odd)
    bracket = cache(supercommutator)
    inputs = _inputs(alg, Kind.C, Kind.QC)

    def outside_center(c):
        return [j for j, col in enumerate(sparse_columns(c.mat)[0]) if not contains(z_full, col)]

    bad = _first_failure(_grades(kmax, 2 * kmax, least), inputs, bracket,
                         lambda _, c: not outside_center(c))
    claims.append(_claim("34.1.image_in_center", bad, witness=lambda g, c: (
        g + (outside_center(c)[0],), _mat_witness(c.mat))))
    if z_full.dim == 0:  # a column lies in Z = 0 only when zero: 34.1's walk decides
        claims.append(_claim("34.2.zero_when_centerless", bad))
    else:
        claims.append(Claim("34.2.zero_when_centerless", "skipped",
                            detail="center is nonzero"))
    return _report("3.4", claims, solved_dims(alg, kmax))


class SparseEndo(NamedTuple):
    """A graded map as prop 3.8's 38.1 claims hold it: nonzero rows over one denominator.

    ``rows`` is :attr:`Mat.row_pairs` and ``den`` the denominator of
    :attr:`Mat.ints`, reduced as a ``Mat`` is, so equal maps compare and hash
    equal and the value-keyed caches store one result per distinct map.
    """

    rows: Rows
    den: int
    xi: int

    @classmethod
    def of(cls, endo: GradedEndo) -> "SparseEndo":
        return cls(endo.mat.row_pairs, endo.mat.ints[1], endo.xi)

    def as_mat(self) -> Mat:
        return Mat.from_row_pairs(len(self.rows), self.rows, self.den)


def _jordan(u: SparseEndo, v: SparseEndo) -> SparseEndo:
    """:func:`~nhomlie.solver.jordan_product` of sparse maps, by :func:`product_rows`."""
    sign = -1 if (u.xi and v.xi) else 1
    return SparseEndo(*product_rows(u.rows, u.den, v.rows, v.den, sign, 2), (u.xi + v.xi) % 2)


def _twist(alpha: Mat, u: SparseEndo) -> SparseEndo:
    """:func:`~nhomlie.solver.alpha_twist` of a sparse map, ``u`` itself when alpha is the identity.

    Like it, raises ``ValueError`` for a map that does not commute with alpha.
    """
    if alpha.is_identity():
        return u
    arows, aden = alpha.row_pairs, alpha.ints[1]
    rows, den = product_rows(u.rows, u.den, arows, aden, 0)
    if (rows, den) != product_rows(arows, aden, u.rows, u.den, 0):
        raise ValueError("alpha twist requires the map to commute with alpha")
    return SparseEndo(rows, den, u.xi)


def _hom_associator(u: SparseEndo, v: SparseEndo, t: SparseEndo, jordan, twist) -> SparseEndo:
    """:func:`~nhomlie.solver.hom_associator` of sparse maps: J(J(u, v), T(t)) - J(T(u), J(v, t)).

    ``jordan`` and ``twist`` evaluate the inner operations, so the caller
    can share value-keyed caches of them across associators.  ``twist``
    refuses a ``t`` or ``u`` that does not commute with alpha.
    """
    left = jordan(jordan(u, v), twist(t))
    right = jordan(twist(u), jordan(v, t))
    return SparseEndo(*row_combination((1, -1), (left[:2], right[:2])), left.xi)


def _hom_jordan_residual(term, x: SparseEndo, y: SparseEndo, z: SparseEndo,
                         w: SparseEndo) -> Mat | None:
    """Cyclic associator combination that a Hom-Jordan product must kill, or None if zero.

    ``term(a, b, c, w)`` is the associator of (a*b, twist(w), twist(c)), as a
    :class:`SparseEndo`.  The sum is decided on the nonzero terms' rows over
    their lcm denominator; a ``Mat`` is built only when it is nonzero, as
    the witness.
    """
    def sgn(e):
        return -1 if (e % 2) else 1

    terms = [(s, m[:2]) for s, m in (
        (sgn(z.xi * (x.xi + w.xi)), term(x, y, z, w)),
        (sgn(x.xi * (y.xi + w.xi)), term(y, z, x, w)),
        (sgn(y.xi * (z.xi + w.xi)), term(z, x, y, w))) if any(m.rows)]
    if not terms:
        return None
    rows, den = row_combination(*zip(*terms))
    if not any(rows):
        return None
    return Mat.from_row_pairs(len(rows), rows, den)


def _random_homogeneous(rng: random.Random, basis_by_parity) -> SparseEndo:
    """A random homogeneous combination of the sparse basis maps of one parity."""
    xi = rng.choice([xi for xi in (0, 1) if basis_by_parity[xi]])
    basis = basis_by_parity[xi]
    coeffs = [rng.randint(-3, 3) for _ in basis]
    if not any(coeffs):
        coeffs[rng.randrange(len(coeffs))] = 1
    return SparseEndo(*row_combination(coeffs, [g[:2] for g in basis]), xi)


def rotation_classes(basis):
    """(position, quadruple) for the basis quadruples the Hom-Jordan walk evaluates.

    Positions count every basis quadruple in product order, from 1; only
    the quadruples whose index triple is the least of its three rotations
    are yielded, in that order, and the last position, len(basis)^4, always is.
    """
    b = len(basis)
    for i, j, k in product(range(b), repeat=3):
        if (i, j, k) <= (j, k, i) and (i, j, k) <= (k, i, j):
            head = ((i * b + j) * b + k) * b
            x, y, z = basis[i], basis[j], basis[k]
            for position, w in enumerate(basis, head + 1):
                yield position, (x, y, z, w)


def _hom_jordan_quadruples(basis, basis_by_parity, samples: int, rng: random.Random):
    """The (position, quadruple) pairs 38.1 evaluates, and the samples they imply.

    A sample is homogeneous, so its residual is a 4-linear combination of the
    residuals of basis quadruples of the same parities: evaluating all basis
    quadruples (one per rotation class), when there are at most 10^4,
    implies every sample.
    """
    if len(basis) ** 4 <= 10 ** 4:
        return rotation_classes(basis), samples if basis else 0
    return enumerate(([_random_homogeneous(rng, basis_by_parity) for _ in range(4)]
                      for _ in range(samples)), 1), 0


def hom_jordan_walk(alg: NHomAlgebra, quads):
    """Last position walked and the first failure's (parities, residual), or ().

    ``quads`` yields (position, quadruple), each map a :class:`SparseEndo`.
    The residual of (x, y, z, w) is the same three signed terms as that of
    (y, z, x, w), so every rotation of a failing basis quadruple fails with
    the same residual and the least one comes first in product order:
    :func:`rotation_classes` yields only that one.

    A term A(J(a, b), T(w), T(c)) goes through the value J(a, b).  Every
    value is a :class:`SparseEndo` and every product runs on its rows; the
    only ``Mat`` built is the residual of a failing quadruple.  The
    associator is cached on its operands' values (many J coincide or
    vanish), and its inner Jordan products and twists go through
    value-keyed caches, shared by all associators.
    """
    jordan = cache(_jordan)
    twist = cache(partial(_twist, alg.alpha))

    @cache
    def associator(u, v, t):
        return _hom_associator(u, v, t, jordan, twist)

    def term(a, b, c, w):
        return associator(jordan(a, b), twist(w), twist(c))

    checked = 0
    for checked, quad in quads:
        residual = _hom_jordan_residual(term, *quad)
        if residual is not None:
            return checked, (tuple(q.xi for q in quad), _mat_witness(residual))
    return checked, ()


def check_prop38(alg: NHomAlgebra, kmax: int = 2, samples: int = 40,
                 seed: int = SEED) -> PropReport:
    """The half-anticommutator turns the commutant into a Hom-Jordan structure.

    The residual is 4-linear, so up to 10^4 basis quadruples, walked one
    rotation class at a time, imply the ``samples`` random ones; past that,
    those are drawn and evaluated.

    Both 38.1 claims hold every map, basis map, sample, product and
    associator, as a :class:`SparseEndo` and compute on its rows; a ``Mat``
    is built only for a failing claim's witness.  38.2 takes QC's solved
    basis maps and their Jordan products as ``Mat``s, which its membership
    test reads.
    """
    least = _least_powers(alg, kmax)
    claims = []
    basis_by_parity = {xi: [SparseEndo.of(e) for e in omega(alg, xi).basis] for xi in (0, 1)}
    all_basis = basis_by_parity[0] + basis_by_parity[1]
    jordan = cache(_jordan)

    # J(a, b) = ±J(b, a) is symmetric in (a, b), so the first failing
    # ordered pair in product order has a no later than b in the basis
    bad = None
    for da, db in combinations_with_replacement(all_basis, 2):
        lhs, rhs = jordan(da, db), jordan(db, da)
        if da.xi and db.xi:
            rhs = rhs._replace(rows=tuple(tuple((j, -x) for j, x in row) for row in rhs.rows))
        if lhs != rhs:
            bad = ((da.xi, db.xi), _mat_witness(lhs.as_mat()))
            break
    claims.append(Claim("38.1.supercommutative", "fail" if bad else "pass",
                        witness=bad or ()))

    quads, implied = _hom_jordan_quadruples(all_basis, basis_by_parity, samples,
                                            random.Random(seed))
    checked, bad = hom_jordan_walk(alg, quads)
    checked += 0 if bad else implied
    claims.append(Claim("38.1.hom_jordan_identity", "fail" if bad else "pass",
                        detail=f"checked {checked} quadruples, seed {seed}",
                        witness=bad))

    claims.append(_claim("38.2.QC_jordan_closed", _first_failure(
        _grades(kmax, kmax, least), _inputs(alg, Kind.QC, Kind.QC), cache(jordan_product),
        _member(alg, Kind.QC, 0))))
    return _report("3.8", claims, solved_dims(alg, kmax))


def check_prop39(alg: NHomAlgebra, kmax: int = 2) -> PropReport:
    """Bracket closure of QC versus composition closure and commutativity."""
    pairs = partial(_grades, kmax, kmax, _least_powers(alg, kmax))
    bracket = cache(supercommutator)
    qc_pairs, in_qc = _inputs(alg, Kind.QC, Kind.QC), _member(alg, Kind.QC, 0)
    p1 = _first_failure(pairs(), qc_pairs, bracket, in_qc) is None
    p2 = _first_failure(pairs(), qc_pairs, cache(compose), in_qc) is None
    p3 = _first_failure(pairs(), qc_pairs, bracket, lambda _, c: c.mat.is_zero()) is None
    claims = [Claim("39.predicates", "pass",
                    detail=f"bracket_closed={p1} composition_closed={p2} "
                           f"brackets_vanish={p3}")]
    claims.append(Claim("39.1.bracket_closure_implies_composition",
                        "pass" if (not p1 or p2) else "fail",
                        detail=f"P1={p1}, P2={p2}"))
    z_even, z_odd = center(alg)
    if z_even.dim == 0 and z_odd.dim == 0:
        claims.append(Claim("39.2.centerless_equivalence",
                            "pass" if p1 == p3 else "fail",
                            detail=f"P1={p1}, P3={p3}"))
    else:
        claims.append(Claim("39.2.centerless_equivalence", "skipped",
                            detail="center is nonzero"))
    return _report("3.9", claims, solved_dims(alg, kmax))


def random_even_invertible(parity, rng: random.Random) -> Mat:
    """Random even basis change with small integer entries, retried to invertibility."""
    d = len(parity)
    while True:
        grid = [[0] * d for _ in range(d)]
        for r in range(d):
            for c in range(d):
                if parity[r] == parity[c]:
                    grid[r][c] = rng.randint(-2, 2)
        m = Mat.from_rows(grid, cols=d)
        try:
            invert(m)
        except ValueError:
            continue
        return m
