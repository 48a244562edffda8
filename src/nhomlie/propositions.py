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
returns.  Solved bases are kept per kind, twist level and parity.

3.8's Hom-Jordan residual of (x, y, z, w) is a sum of three terms, each with
its own sign, and rotating (x, y, z) only reorders them; so of the basis
quadruples, only those whose index triple is least among its rotations are
evaluated, and the first failure in product order is always one of them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, partial
from itertools import product, starmap

from .algebra import NHomAlgebra, center, invert, is_alpha_surjective, validate
from .io import _ratio_str
from .linalg import (
    Mat,
    SubspaceBasis,
    combined_ints,
    contains,
    linear_combination,
    subspace_sum,
)
from .solver import (
    GradedEndo,
    Kind,
    TUPLE_KINDS,
    alpha_twist,
    compose,
    hom_associator,
    in_space,
    jordan_product,
    omega,
    qder_identity_holds,
    solve,
    supercommutator,
)


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
    grid, den = mat.ints
    return tuple(tuple(_ratio_str(x, den) for x in row) for row in grid)


def _report(prop: str, claims: list[Claim], dims=()) -> PropReport:
    return PropReport(prop, tuple(sorted(claims, key=lambda c: c.claim_id)), tuple(dims))


def _require_valid(alg: NHomAlgebra):
    if not validate(alg).all_ok:
        raise ValueError("algebra does not satisfy its axioms")


def solved_dims(alg: NHomAlgebra, kmax: int):
    """Dimension table of every solved space up to twist power kmax.

    The table is built once per algebra and kmax; every check of one
    ``props`` command reports the same table.
    """
    cache_key = ("dims", kmax)
    hit = alg._cache.get(cache_key)
    if hit is not None:
        return hit
    out = []
    for xi in (0, 1):
        out.append((Kind.OMEGA.value, 0, xi, omega(alg, xi).dim))
        for kind in TUPLE_KINDS:
            for k in range(kmax + 1):
                out.append((kind.value, k, xi, solve(alg, kind, k, xi).dim))
    result = alg._cache[cache_key] = tuple(sorted(out))
    return result


def _grades(kmax: int, bound: int | None = None):
    """Pairs of (k, xi) grades with k1, k2 <= kmax and k1 + k2 <= bound (default kmax)."""
    bound = kmax if bound is None else bound
    for k1, k2 in product(range(kmax + 1), repeat=2):
        if k1 + k2 > bound:
            continue
        for x1, x2 in product((0, 1), repeat=2):
            yield k1, x1, k2, x2


def _levels(kmax: int):
    """Single (k, xi) grades with k <= kmax."""
    return product(range(kmax + 1), (0, 1))


class _Spaces:
    """Solved spaces of one algebra, under keys that coincide for equal spaces.

    A space at twist power k is determined by alpha^k, so its key carries
    the least j with alpha^j == alpha^k instead of k.  Each key's basis is
    built once.
    """

    def __init__(self, alg: NHomAlgebra, kmax: int):
        self.alg = alg
        pows = [alg.alpha_power(k) for k in range(kmax + 1)]
        self.level = [pows.index(p) for p in pows]
        self._bases: dict = {}

    def basis(self, kinds, k: int, xi: int):
        """(key, basis) of one kind, or of the sum of a tuple of kinds."""
        kinds = kinds if isinstance(kinds, tuple) else (kinds,)
        key = (kinds, self.level[k], xi)
        basis = self._bases.get(key)
        if basis is None:
            basis = self._bases[key] = tuple(
                g for kind in kinds for g in solve(self.alg, kind, k, xi).basis)
        return key, basis

    def inputs(self, *kinds):
        """Input spaces at a grade (k1, x1, k2, x2, ...), one kind per (k, xi)."""
        return lambda g: tuple(self.basis(kind, g[2 * i], g[2 * i + 1])
                               for i, kind in enumerate(kinds))

    def into(self, kind, shift: int = 0):
        """Membership target at the total grade of g, its power raised by ``shift``."""
        def target(g):
            k, xi = sum(g[0::2]) + shift, sum(g[1::2]) % 2
            return (kind, self.level[k], xi), (kind, k, xi)
        return target

    def member(self, target, endo: GradedEndo) -> bool:
        return in_space(self.alg, *target, endo)


def _nowhere(g):
    return None, None


def _total(g):
    """The total grade (k, xi) of g, as target key and as target."""
    grade = (sum(g[0::2]), sum(g[1::2]) % 2)
    return grade, grade


def _values(spaces, op):
    """``op`` on every tuple of basis elements, one from each input space."""
    return starmap(op, product(*(basis for _, basis in spaces)))


def _distinct(grades, inputs, target):
    """``(g, inputs(g), t)`` for each grade in order, with ``(key, t) = target(g)``.

    A grade whose input and target keys all match an earlier grade's
    would repeat its checks and is skipped.
    """
    seen = set()
    for g in grades:
        spaces = inputs(g)
        tkey, t = target(g)
        key = (tuple(k for k, _ in spaces), tkey)
        if key not in seen:
            seen.add(key)
            yield g, spaces, t


def _first_failure(grades, inputs, target, op, holds):
    """The closure-check loop shared by every grade-indexed claim.

    For each distinct grade ``g`` in order, ``op`` is applied to basis
    elements of the spaces ``inputs(g)`` and each value must satisfy
    ``holds(t, value)``.  Returns ``(g, value)`` for the first failure,
    or None.
    """
    for g, spaces, t in _distinct(grades, inputs, target):
        for value in _values(spaces, op):
            if not holds(t, value):
                return g, value
    return None


def _claim(claim_id: str, failure, detail: str = "") -> Claim:
    if failure is None:
        return Claim(claim_id, "pass", detail)
    g, value = failure
    return Claim(claim_id, "fail", detail, (g, _mat_witness(value.mat)))


def _same(endo: GradedEndo) -> GradedEndo:
    return endo


def check_prop31(alg: NHomAlgebra, kmax: int = 2) -> PropReport:
    """Closure of GDer/QDer/C under the bracket and the twist; ZDer is an ideal."""
    _require_valid(alg)
    sp = _Spaces(alg, kmax)
    bracket = cache(supercommutator)
    twist = cache(partial(alpha_twist, alg))

    claims = []
    for kind in (Kind.GDER, Kind.QDER, Kind.C):
        claims.append(_claim(f"31.1.{kind.value}.bracket", _first_failure(
            _grades(kmax), sp.inputs(kind, kind), sp.into(kind), bracket, sp.member)))
        claims.append(_claim(f"31.1.{kind.value}.twist", _first_failure(
            _levels(kmax - 1), sp.inputs(kind), sp.into(kind, 1), twist, sp.member)))
    claims.append(_claim("31.2.ZDer.ideal", _first_failure(
        _grades(kmax), sp.inputs(Kind.DER, Kind.ZDER), sp.into(Kind.ZDER), bracket,
        sp.member)))
    claims.append(_claim("31.2.ZDer.twist", _first_failure(
        _levels(kmax - 1), sp.inputs(Kind.ZDER), sp.into(Kind.ZDER, 1), twist, sp.member)))
    return _report("3.1", claims, solved_dims(alg, kmax))


def check_prop32(alg: NHomAlgebra, kmax: int = 2) -> PropReport:
    """The six inclusion statements tying Der, C, QC, QDer and GDer together."""
    _require_valid(alg)
    n = alg.arity
    sp = _Spaces(alg, kmax)
    bracket = cache(supercommutator)
    claims = []

    def pair_claim(cid, kind_a, kind_b, target, op):
        claims.append(_claim(cid, _first_failure(
            _grades(kmax), sp.inputs(kind_a, kind_b), sp.into(target), op, sp.member)))

    def qder_with_witness(target, da):
        return sp.member(target, da) and qder_identity_holds(alg, *target[1:], da,
                                                             da.mat.scale(n))

    pair_claim("32.1.[Der,C]_in_C", Kind.DER, Kind.C, Kind.C, bracket)
    pair_claim("32.2.[QDer,QC]_in_QC", Kind.QDER, Kind.QC, Kind.QC, bracket)
    pair_claim("32.3.C.Der_in_Der", Kind.C, Kind.DER, Kind.DER, cache(compose))
    claims.append(_claim("32.4.C_in_QDer", _first_failure(
        _levels(kmax), sp.inputs(Kind.C), sp.into(Kind.QDER), _same, qder_with_witness),
        detail="witness n*D verified"))
    pair_claim("32.5.[QC,QC]_in_QDer", Kind.QC, Kind.QC, Kind.QDER, bracket)
    claims.append(_claim("32.6.QDer+QC_in_GDer", _first_failure(
        _levels(kmax), sp.inputs((Kind.QDER, Kind.QC)), sp.into(Kind.GDER), _same,
        sp.member)))
    return _report("3.2", claims, solved_dims(alg, kmax))


def _qc_plus_brackets(sp: _Spaces, kmax: int, bracket):
    """Graded pieces of QC + [QC, QC], as flattened-matrix subspaces."""
    vecs = {grade: [g.mat.flat_ints() for g in sp.basis(Kind.QC, *grade)[1]]
            for grade in _levels(kmax)}
    for _, spaces, grade in _distinct(_grades(kmax), sp.inputs(Kind.QC, Kind.QC), _total):
        vecs[grade].extend(c.mat.flat_ints() for c in _values(spaces, bracket))
    return {grade: SubspaceBasis.span(sp.alg.dim ** 2, v) for grade, v in vecs.items()}


def check_prop33(alg: NHomAlgebra, kmax: int = 2) -> PropReport:
    """QC + [QC, QC] sits inside GDer and is closed under the bracket."""
    _require_valid(alg)
    d = alg.dim
    sp = _Spaces(alg, kmax)
    bracket = cache(supercommutator)
    pieces = _qc_plus_brackets(sp, kmax, bracket)
    # a piece's key is the first grade of its parity holding an equal piece
    keyed = {}
    for (k, xi), piece in pieces.items():
        first = next(g for g, p in pieces.items() if g[1] == xi and p == piece)
        keyed[(k, xi)] = (("S",) + first, tuple(GradedEndo(_unflatten(d, v), xi)
                                                for v in piece.rows))

    def into_piece(g):
        grade = _total(g)[0]
        return keyed[grade][0], pieces[grade]

    claims = [
        _claim("33.S_in_GDer", _first_failure(
            _levels(kmax), lambda g: (keyed[g],), sp.into(Kind.GDER), _same, sp.member)),
        _claim("33.S_bracket_closed", _first_failure(
            _grades(kmax), lambda g: (keyed[g[:2]], keyed[g[2:]]), into_piece, bracket,
            lambda piece, c: contains(piece, c.mat.flat_ints()))),
    ]
    return _report("3.3", claims, solved_dims(alg, kmax))


def _unflatten(d: int, row) -> Mat:
    lead = next(x for x in row if x)
    return Mat(d, d, (tuple(row[i * d:(i + 1) * d] for i in range(d)), lead))


def check_prop34(alg: NHomAlgebra, kmax: int = 2) -> PropReport:
    """[C, QC] lands in Hom(N, Z(N)) when alpha is onto; zero when Z(N) = 0."""
    _require_valid(alg)
    claims = []
    if not is_alpha_surjective(alg):
        claims.append(Claim("34.1.image_in_center", "skipped", detail="alpha not surjective"))
        claims.append(Claim("34.2.zero_when_centerless", "skipped", detail="alpha not surjective"))
        return _report("3.4", claims, solved_dims(alg, kmax))
    z_even, z_odd = center(alg)
    z_full = subspace_sum(z_even, z_odd)
    sp = _Spaces(alg, kmax)
    bracket = cache(supercommutator)
    inputs = sp.inputs(Kind.C, Kind.QC)

    def outside_center(c):
        return [j for j, col in enumerate(zip(*c.mat.ints[0])) if not contains(z_full, col)]

    bad = _first_failure(_grades(kmax, 2 * kmax), inputs, _nowhere, bracket,
                         lambda _, c: not outside_center(c))
    if bad is None:
        claims.append(Claim("34.1.image_in_center", "pass"))
    else:
        g, c = bad
        claims.append(Claim("34.1.image_in_center", "fail",
                            witness=(g + (outside_center(c)[0],), _mat_witness(c.mat))))
    if z_full.dim == 0:
        claims.append(_claim("34.2.zero_when_centerless", _first_failure(
            _grades(kmax, 2 * kmax), inputs, _nowhere, bracket,
            lambda _, c: c.mat.is_zero())))
    else:
        claims.append(Claim("34.2.zero_when_centerless", "skipped",
                            detail="center is nonzero"))
    return _report("3.4", claims, solved_dims(alg, kmax))


def _hom_jordan_residual(term, x: GradedEndo, y: GradedEndo, z: GradedEndo,
                         w: GradedEndo) -> Mat | None:
    """Cyclic associator combination that a Hom-Jordan product must kill, or None if zero.

    ``term(a, b, c, w)`` is the associator of (a*b, twist(w), twist(c)), as a
    ``Mat``.  The sum is decided on the nonzero terms' integer grids over
    their lcm denominator; a ``Mat`` is built only when it is nonzero.
    """
    def sgn(e):
        return -1 if (e % 2) else 1

    terms = [(s, m) for s, m in (
        (sgn(z.xi * (x.xi + w.xi)), term(x, y, z, w)),
        (sgn(x.xi * (y.xi + w.xi)), term(y, z, x, w)),
        (sgn(y.xi * (z.xi + w.xi)), term(z, x, y, w))) if not m.is_zero()]
    if not terms:
        return None
    signs, mats = zip(*terms)
    grid, den = combined_ints(signs, mats)
    if not any(map(any, grid)):
        return None
    return Mat(x.mat.rows, x.mat.cols, (grid, den))


def _random_homogeneous(rng: random.Random, basis_by_parity) -> GradedEndo:
    xi = rng.choice([xi for xi in (0, 1) if basis_by_parity[xi]])
    basis = basis_by_parity[xi]
    coeffs = [rng.randint(-3, 3) for _ in basis]
    if not any(coeffs):
        coeffs[rng.randrange(len(coeffs))] = 1
    return GradedEndo(linear_combination(coeffs, [g.mat for g in basis]), xi)


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


def hom_jordan_walk(alg: NHomAlgebra, quads, jordan):
    """Last position walked and the first failure's (parities, residual), or ().

    ``quads`` yields (position, quadruple).  The residual of (x, y, z, w) is
    the same three signed terms as that of (y, z, x, w), so every rotation of
    a failing basis quadruple fails with the same residual and the least one
    comes first in product order: :func:`rotation_classes` yields only that one.

    A term A(J(a, b), T(w), T(c)) goes through the value J(a, b).  The
    associator is cached on its operands' values (many J coincide or
    vanish), and its inner Jordan products and twists go through the
    value-keyed ``jordan`` and ``twist`` caches, shared by all associators.
    """
    twist = cache(partial(alpha_twist, alg))

    @cache
    def associator(u, v, t):
        return hom_associator(alg, u, v, t, jordan, twist).mat

    def term(a, b, c, w):
        return associator(jordan(a, b), twist(w), twist(c))

    checked = 0
    for checked, quad in quads:
        residual = _hom_jordan_residual(term, *quad)
        if residual is not None:
            return checked, (tuple(q.xi for q in quad), _mat_witness(residual))
    return checked, ()


def check_prop38(alg: NHomAlgebra, kmax: int = 2, samples: int = 40,
                 seed: int = 20260811) -> PropReport:
    """The half-anticommutator turns the commutant into a Hom-Jordan structure.

    The residual is 4-linear, so up to 10^4 basis quadruples, walked one
    rotation class at a time, imply the ``samples`` random ones; past that,
    those are drawn and evaluated.
    """
    _require_valid(alg)
    claims = []
    basis_by_parity = {0: list(omega(alg, 0).basis), 1: list(omega(alg, 1).basis)}
    all_basis = basis_by_parity[0] + basis_by_parity[1]
    jordan = cache(jordan_product)

    bad = None
    for da, db in product(all_basis, repeat=2):
        sign = -1 if (da.xi and db.xi) else 1
        lhs = jordan(da, db)
        if lhs.mat != jordan(db, da).mat.scale(sign):
            bad = ((da.xi, db.xi), _mat_witness(lhs.mat))
            break
    claims.append(Claim("38.1.supercommutative", "fail" if bad else "pass",
                        witness=bad or ()))

    quads, implied = _hom_jordan_quadruples(all_basis, basis_by_parity, samples,
                                            random.Random(seed))
    checked, bad = hom_jordan_walk(alg, quads, jordan)
    checked += 0 if bad else implied
    claims.append(Claim("38.1.hom_jordan_identity", "fail" if bad else "pass",
                        detail=f"checked {checked} quadruples, seed {seed}",
                        witness=bad))

    sp = _Spaces(alg, kmax)
    claims.append(_claim("38.2.QC_jordan_closed", _first_failure(
        _grades(kmax), sp.inputs(Kind.QC, Kind.QC), sp.into(Kind.QC), jordan, sp.member)))
    return _report("3.8", claims, solved_dims(alg, kmax))


def check_prop39(alg: NHomAlgebra, kmax: int = 2) -> PropReport:
    """Bracket closure of QC versus composition closure and commutativity."""
    _require_valid(alg)
    sp = _Spaces(alg, kmax)
    bracket = cache(supercommutator)
    qc_pairs, into_qc = sp.inputs(Kind.QC, Kind.QC), sp.into(Kind.QC)
    p1 = _first_failure(_grades(kmax), qc_pairs, into_qc, bracket, sp.member) is None
    p2 = _first_failure(_grades(kmax), qc_pairs, into_qc, cache(compose), sp.member) is None
    p3 = _first_failure(_grades(kmax), qc_pairs, _nowhere, bracket,
                        lambda _, c: c.mat.is_zero()) is None
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
