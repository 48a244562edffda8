import importlib.util
import pathlib
import random
from fractions import Fraction
from functools import cache, partial
from itertools import product

import hypothesis.strategies as st
import pytest
from conftest import check_basis_change, mixed_change, yau_twist
from hypothesis import given, settings

from nhomlie import propositions
from nhomlie.algebra import InvalidAlgebra, NHomAlgebra, center, transport, validate
from nhomlie.extension import check_prop42, check_prop43
from nhomlie.fixtures import (
    FIXTURES,
    abelian2,
    aff1,
    filippov,
    homaff1,
    nonsurjective_abelian2,
    super2,
    threeLie4,
)
from nhomlie.linalg import Mat, SubspaceBasis, linear_combination
from nhomlie.propositions import (
    Claim,
    SparseEndo,
    _hom_jordan_residual,
    _mat_witness,
    check_prop31,
    check_prop32,
    check_prop33,
    check_prop34,
    check_prop38,
    check_prop39,
    random_even_invertible,
    solved_dims,
)
from nhomlie.solver import (
    GradedEndo,
    Kind,
    alpha_twist,
    hom_associator,
    jordan_product,
    omega,
    solve,
    supercommutator,
)

F = Fraction

ALL_CHECKS = [check_prop31, check_prop32, check_prop33, check_prop34,
              check_prop38, check_prop39]


@pytest.mark.parametrize("name", sorted(FIXTURES))
@pytest.mark.parametrize("check", ALL_CHECKS)
def test_propositions_hold_on_fixtures(name, check):
    report = check(FIXTURES[name](), 2)
    failing = [c for c in report.claims if c.status == "fail"]
    assert not failing, [(c.claim_id, c.witness) for c in failing]


def test_prop32_verifies_the_explicit_witness():
    report = check_prop32(aff1(), 2)
    claim = report.claim("32.4.C_in_QDer")
    assert claim.status == "pass"
    assert "n*D" in claim.detail


def test_prop34_gates_on_surjectivity():
    report = check_prop34(nonsurjective_abelian2(), 1)
    assert all(c.status == "skipped" for c in report.claims)
    assert all("surjective" in c.detail for c in report.claims)


def test_prop34_zero_claim_skipped_with_center():
    report = check_prop34(abelian2(), 1)
    assert report.claim("34.1.image_in_center").status == "pass"
    assert report.claim("34.2.zero_when_centerless").status == "skipped"


def test_image_in_center_witness_is_the_first_failing_grade(monkeypatch):
    # abelian2 is all center, so [C, QC] lands in it; with the center faked
    # to zero, the first nonzero bracket fails 34.1 at its first nonzero
    # column, and 34.2, now ungated, reports the same grade and map
    monkeypatch.setattr(propositions, "center",
                        lambda alg: (SubspaceBasis.zero(alg.dim), SubspaceBasis.zero(alg.dim)))
    report = check_prop34(abelian2(), 2)
    # [E00, E10] = -E10 at grade (k1, xi1, k2, xi2) = (0, 0, 0, 0), column 0
    witness = (("0", "0"), ("-1", "0"))
    assert report.claim("34.1.image_in_center") == Claim(
        "34.1.image_in_center", "fail", witness=((0, 0, 0, 0, 0), witness))
    assert report.claim("34.2.zero_when_centerless") == Claim(
        "34.2.zero_when_centerless", "fail", witness=((0, 0, 0, 0), witness))


@pytest.mark.parametrize("check", ALL_CHECKS + [check_prop42, check_prop43, solved_dims])
@pytest.mark.parametrize("build", [homaff1, nonsurjective_abelian2, abelian2])
def test_negative_kmax_is_refused(check, build):
    # nonsurjective_abelian2 reaches 3.4's skip path, abelian2 4.3's
    with pytest.raises(ValueError, match="twist power must be nonnegative"):
        check(build(), -1)


@pytest.mark.parametrize("check", ALL_CHECKS + [check_prop42, check_prop43])
def test_invalid_algebra_is_refused_before_any_skip(check):
    # [e0, e1] = e1 with alpha = diag(2, 3, 1) breaks multiplicativity, and
    # e2 spans the center: 4.3's center gate must not answer "skipped" first
    alg = NHomAlgebra(2, 3, (0, 0, 0), {(0, 1): (0, 1, 0)},
                      Mat.from_rows([[2, 0, 0], [0, 3, 0], [0, 0, 1]]))
    assert not validate(alg).all_ok
    assert center(alg)[0].dim == 1
    with pytest.raises(InvalidAlgebra) as exc:
        check(alg, 2)
    assert isinstance(exc.value, ValueError)


def test_prop39_equivalence_gated_by_center():
    report = check_prop39(abelian2(), 1)
    assert report.claim("39.2.centerless_equivalence").status == "skipped"
    report = check_prop39(aff1(), 1)
    assert report.claim("39.2.centerless_equivalence").status == "pass"


def _with_diagonal_alpha(build, diag):
    alg = build()
    alpha = Mat.from_rows([[c if i == j else 0 for j in range(alg.dim)] for i, c in enumerate(diag)])
    return NHomAlgebra(alg.arity, alg.dim, alg.parity, alg.table_ints, alpha)


@pytest.mark.parametrize("build, diag, dims, p3", [
    (aff1, [0, 0], ["4+6=10", "0+0=0", "4+12=12", "0+0=0", "4+12=12", "0+0=0"], False),
    (threeLie4, [0] * 4, ["16+16=32", "0+0=0", "16+32=32", "0+0=0", "16+32=32", "0+0=0"],
     False),
    (super2, [0, 0], ["2+3=5", "1+3=4", "2+6=6", "2+6=6", "2+6=6", "2+6=6"], False),
    (aff1, [1, 0], ["2+3=5", "0+0=0", "2+5=6", "0+0=0", "2+5=6", "0+0=0"], True),
])
def test_centerless_claims_fail_when_alpha_is_not_onto(build, diag, dims, p3):
    # Pinned as found, not as the paper's verdict: 43.direct_sum and 39.2
    # gate only on Z(N) = 0, while 3.4 also gates on a surjective alpha.
    # Whether the paper assumes alpha onto must be settled before a gate moves.
    alg = _with_diagonal_alpha(build, diag)
    assert validate(alg).all_ok
    assert all(z.dim == 0 for z in center(alg))
    direct = check_prop43(alg, 2).claim("43.direct_sum")
    assert (direct.status, direct.witness) == ("fail", (((1, 0), "intersection is nonzero"),))
    assert direct.detail == "; ".join(
        f"k={k} xi={xi}: {sums}" for (k, xi), sums in zip(product(range(3), (0, 1)), dims))
    equivalence = check_prop39(alg, 2).claim("39.2.centerless_equivalence")
    assert equivalence == Claim("39.2.centerless_equivalence", "pass" if p3 else "fail",
                                f"P1=True, P3={p3}")


def test_prop38_records_the_seed():
    report = check_prop38(aff1(), 1, samples=5, seed=99)
    claim = report.claim("38.1.hom_jordan_identity")
    assert "seed 99" in claim.detail


def test_reports_are_deterministic():
    a = check_prop31(super2(), 2)
    b = check_prop31(super2(), 2)
    assert a == b
    assert [c.claim_id for c in a.claims] == sorted(c.claim_id for c in a.claims)


def test_dims_table_contains_every_kind():
    dims = dict(((kind, k, xi), v) for kind, k, xi, v in solved_dims(aff1(), 2))
    assert dims[("Der", 0, 0)] == 2
    assert dims[("Omega", 0, 0)] == 4
    assert dims[("GDer", 2, 0)] == 4
    assert dims[("Der", 0, 1)] == 0


def test_dims_table_is_built_once_per_kmax(monkeypatch):
    alg = homaff1()
    first = solved_dims(alg, 2)
    calls = []
    for name in ("solve", "omega"):
        real = getattr(propositions, name)
        monkeypatch.setattr(propositions, name,
                            lambda *a, real=real, name=name: calls.append(name) or real(*a))
    assert solved_dims(alg, 2) == first
    assert calls == []
    # another kmax is another table; its spaces are still solved
    assert len(solved_dims(alg, 1)) == 2 + 2 * 6 * 2
    assert calls


@pytest.mark.parametrize("name", ["abelian2", "homaff1", "threeLie4"])
@pytest.mark.parametrize("check", [check_prop31, check_prop33, check_prop34, check_prop39])
def test_each_bracket_is_built_once_per_operand_pair(name, check, monkeypatch):
    pairs = []
    real = propositions.supercommutator

    def counting(a, b):
        pairs.append((a, b))
        return real(a, b)

    monkeypatch.setattr(propositions, "supercommutator", counting)
    check(FIXTURES[name](), 2)
    assert pairs
    assert len(pairs) == len(set(pairs))


@pytest.mark.parametrize("build, least", [
    (threeLie4, [0, 0, 0]),  # alpha = id
    (homaff1, [0, 1, 2, 3]),  # every power distinct
    (lambda: yau_twist(filippov(3), [-1, -1, 1, 1]), [0, 1, 0, 1]),  # alpha^2 = id
    (lambda: _with_diagonal_alpha(aff1, [1, 0]), [0, 1, 1, 1]),  # alpha^2 = alpha
    (nonsurjective_abelian2, [0, 1, 1]),  # alpha = 0
    (lambda: NHomAlgebra(2, 2, (0, 0), {}, Mat.from_rows([[0, -1], [1, 0]])),
     [0, 1, 2, 3, 0, 1]),  # alpha^4 = id
], ids=["id", "distinct", "involution", "idempotent", "zero", "rotation"])
@pytest.mark.parametrize("check", [check_prop31, check_prop32, check_prop39])
def test_checks_solve_only_at_least_powers(build, least, check, monkeypatch):
    # a grade whose twist powers are not least repeats an earlier grade's
    # spaces, so with the dims table built no check solves at another power
    alg = build()
    kmax = len(least) - 1
    assert propositions._least_powers(alg, kmax) == least
    solved_dims(alg, kmax)
    calls = _counted(monkeypatch, "solve")
    check(alg, kmax)
    assert {args[2] for args in calls} == set(least)


def test_least_powers_keep_the_walk_order():
    least = [0, 1, 2, 1]  # alpha^3 = alpha
    grades = list(propositions._grades(3, 3, least))
    assert grades == [g for g in propositions._grades(3, 3, range(4)) if 3 not in g[0::2]]
    assert list(propositions._grades(3, 6, least))[-4:] == [(2, x1, 2, x2) for x1, x2 in
                                                          product((0, 1), repeat=2)]
    assert list(propositions._levels(3, least)) == [(0, 0), (0, 1), (1, 0), (1, 1),
                                                    (2, 0), (2, 1)]


@pytest.mark.parametrize("first", [False, True], ids=["later", "earlier"])
@pytest.mark.parametrize("name", ["aff1", "super2"])
def test_supercommutative_reports_the_first_ordered_pair(name, first, monkeypatch):
    # break J(a, b) = ±J(b, a) on one pair of basis maps a before b, of one
    # parity (odd on super2), by changing J(a, b) or J(b, a): the first
    # failing ordered pair is (a, b)
    alg = FIXTURES[name]()
    basis = list(omega(alg, 0).basis) + list(omega(alg, 1).basis)
    a, b = basis[-2], basis[-1]
    planted = tuple(map(SparseEndo.of, (a, b) if first else (b, a)))
    real = propositions._jordan

    def fake(u, v):
        value = real(u, v)
        if (u, v) == planted:
            return SparseEndo.of(GradedEndo(value.as_mat() + Mat.identity(alg.dim), value.xi))
        return value

    monkeypatch.setattr(propositions, "_jordan", fake)
    claim = check_prop38(alg, 1, samples=0).claim("38.1.supercommutative")
    lhs = fake(SparseEndo.of(a), SparseEndo.of(b)).as_mat()
    assert claim == Claim("38.1.supercommutative", "fail",
                          witness=((a.xi, b.xi), _mat_witness(lhs)))


def test_basis_change_identity_is_trivial():
    report = check_basis_change(aff1(), Mat.identity(2), 2)
    assert report.passed


def test_basis_change_diag_and_permutation():
    assert check_basis_change(aff1(), Mat.from_rows([[1, 0], [0, 3]]), 2).passed
    assert check_basis_change(abelian2(), Mat.from_rows([[0, 1], [1, 0]]), 2).passed


def test_basis_change_rejects_singular():
    with pytest.raises(ValueError):
        check_basis_change(aff1(), Mat.from_rows([[1, 1], [1, 1]]), 1)


def test_basis_change_rejects_odd():
    with pytest.raises(ValueError):
        check_basis_change(super2(), Mat.from_rows([[0, 1], [1, 0]]), 1)


def test_random_even_invertible_respects_parity():
    rng = random.Random(3)
    parity = (0, 1, 0, 1)
    for _ in range(5):
        p = random_even_invertible(parity, rng)
        for r in range(4):
            for c in range(4):
                if parity[r] != parity[c]:
                    assert p.entries[r][c] == 0


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_random_basis_changes_preserve_dims(name):
    alg = FIXTURES[name]()
    rng = random.Random(11)
    for _ in range(3):
        p = random_even_invertible(alg.parity, rng)
        assert check_basis_change(alg, p, 1).passed


def _reject_centroid_levels(monkeypatch, levels):
    """Make membership in C fail at the given twist powers."""
    real = propositions.in_space

    def fake(alg, kind, k, xi, endo):
        if kind is Kind.C and k in levels:
            return False
        return real(alg, kind, k, xi, endo)

    monkeypatch.setattr(propositions, "in_space", fake)


def test_pair_claim_reports_the_first_failing_grade(monkeypatch):
    alg = homaff1()  # alpha = diag(1, 2): every twist power is a different space
    _reject_centroid_levels(monkeypatch, {1, 2})
    claim = check_prop32(alg, 2).claim("32.1.[Der,C]_in_C")
    assert claim.status == "fail"
    # (0, 0, 1, 0) reaches C at k = 1 before (0, 0, 2, 0) and (2, 0, 0, 0) reach k = 2
    grade, witness = claim.witness
    assert grade == (0, 0, 1, 0)
    der = solve(alg, Kind.DER, 0, 0).basis[0]
    cen = solve(alg, Kind.C, 1, 0).basis[0]
    assert witness == _mat_witness(supercommutator(der, cen).mat)


def test_twist_claim_reports_the_first_failing_grade(monkeypatch):
    alg = homaff1()
    _reject_centroid_levels(monkeypatch, {1, 2})
    claim = check_prop31(alg, 2).claim("31.1.C.twist")
    assert claim.status == "fail"
    grade, witness = claim.witness
    assert grade == (0, 0)
    assert witness == _mat_witness(alpha_twist(alg, solve(alg, Kind.C, 0, 0).basis[0]).mat)


def test_hom_jordan_failure_records_a_rebuildable_witness(monkeypatch):
    alg = super2()
    residual = Mat.from_rows([[0, 1], [F(-1, 2), 0]])
    real = propositions._hom_jordan_residual

    def is_bad(x, y, z, w):
        # keyed, like every real residual, on what rotating (x, y, z) keeps:
        # the rotation class of their parities, and w's parity
        xyz = (x.xi, y.xi, z.xi)
        return min(xyz[i:] + xyz[:i] for i in range(3)) == (0, 1, 1) and w.xi == 0

    def fake(alg_, x, y, z, w):
        return residual if is_bad(x, y, z, w) else real(alg_, x, y, z, w)

    monkeypatch.setattr(propositions, "_hom_jordan_residual", fake)
    claim = check_prop38(alg, 1, samples=5, seed=7).claim("38.1.hom_jordan_identity")
    assert claim.status == "fail"
    # every basis quadruple is enumerated first; the walk stops at the first failure
    basis = list(omega(alg, 0).basis) + list(omega(alg, 1).basis)
    first, quad = next((i, quad) for i, quad in enumerate(product(basis, repeat=4))
                       if is_bad(*quad))
    assert claim.witness == (tuple(q.xi for q in quad), _mat_witness(residual))
    assert claim.detail == f"checked {first + 1} quadruples, seed 7"


def _ops_algebra(name):
    """Identity alpha (aff1, super2 and a dense copy of super2) and non-identity
    alpha: homaff1, its mixed copy, and super2 twisted by 2, whose commutant
    keeps super2's odd maps."""
    alg = FIXTURES[name.split("~")[0]]()
    if name == "super2~dense":
        return transport(alg, random_even_invertible(alg.parity, random.Random(3)))
    if name == "super2~twice":
        return yau_twist(alg, (2, 2))
    return transport(alg, mixed_change(alg.parity)) if name.endswith("~mixed") else alg


OPS_ALGEBRAS = {name: _ops_algebra(name) for name in (
    "aff1", "super2", "super2~dense", "homaff1", "homaff1~mixed", "super2~twice")}


@settings(max_examples=80)
@given(name=st.sampled_from(sorted(OPS_ALGEBRAS)), data=st.data())
def test_sparse_prop38_operations_match_the_mat_operations(name, data):
    # the walk's Jordan product, twist and associator on sparse maps against
    # the solver's operations on Mats; maps are zero, one basis map (a single
    # entry on the fixtures) or a dense combination, of either parity
    alg = OPS_ALGEBRAS[name]
    by_parity = {xi: omega(alg, xi).basis for xi in (0, 1)}

    def draw_map():
        xi = data.draw(st.sampled_from([xi for xi in (0, 1) if by_parity[xi]]))
        basis = by_parity[xi]
        shape = data.draw(st.sampled_from(["zero", "single", "dense"]))
        if shape == "zero":
            return GradedEndo(Mat.zero(alg.dim, alg.dim), xi)
        if shape == "single":
            return data.draw(st.sampled_from(basis))
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(basis),
                                    max_size=len(basis)))
        return GradedEndo(linear_combination(coeffs, [g.mat for g in basis]), xi)

    x, y, z = draw_map(), draw_map(), draw_map()
    sx, sy, sz = map(SparseEndo.of, (x, y, z))
    assert propositions._jordan(sx, sy) == SparseEndo.of(jordan_product(x, y))
    assert propositions._twist(alg.alpha, sx) == SparseEndo.of(alpha_twist(alg, x))
    jordan, twist = cache(propositions._jordan), cache(partial(propositions._twist, alg.alpha))
    assert propositions._hom_associator(sx, sy, sz, jordan, twist) == \
        SparseEndo.of(hom_associator(alg, x, y, z))
    assert sx.as_mat() == x.mat


def test_sparse_twist_refuses_a_non_commuting_map():
    alg = homaff1()
    x = GradedEndo(Mat.from_rows([[0, 1], [0, 0]]), 0)
    with pytest.raises(ValueError, match="commute with alpha") as mat_error:
        alpha_twist(alg, x)
    with pytest.raises(ValueError, match="commute with alpha") as sparse_error:
        propositions._twist(alg.alpha, SparseEndo.of(x))
    assert str(sparse_error.value) == str(mat_error.value)
    # the walk twists every map of a quadruple, so it refuses one too
    u = SparseEndo.of(omega(alg, 0).basis[0])
    with pytest.raises(ValueError, match="commute with alpha"):
        propositions.hom_jordan_walk(alg, [(1, (u, u, SparseEndo.of(x), u))])


@pytest.mark.parametrize("name", sorted(OPS_ALGEBRAS))
def test_sparse_draw_matches_the_textbook_draw(name):
    # the same calls to the generator, so the same samples for every seed
    alg = OPS_ALGEBRAS[name]
    by_parity = {xi: omega(alg, xi).basis for xi in (0, 1)}
    sparse = {xi: [SparseEndo.of(e) for e in basis] for xi, basis in by_parity.items()}
    for seed in range(5):
        rng, textbook = random.Random(seed), random.Random(seed)
        for _ in range(8):
            assert propositions._random_homogeneous(rng, sparse) == \
                SparseEndo.of(_random_homogeneous(textbook, by_parity))
        assert rng.getstate() == textbook.getstate()


def _fixture(name, mixed):
    alg = FIXTURES[name]()
    return transport(alg, mixed_change(alg.parity)) if mixed else alg


def _random_homogeneous(rng, basis_by_parity):
    """The textbook draw of a sample: ``propositions._random_homogeneous``'s
    calls to ``rng``, in its order, with the map built as a ``Mat``."""
    xi = rng.choice([xi for xi in (0, 1) if basis_by_parity[xi]])
    basis = basis_by_parity[xi]
    coeffs = [rng.randint(-3, 3) for _ in basis]
    if not any(coeffs):
        coeffs[rng.randrange(len(coeffs))] = 1
    return GradedEndo(linear_combination(coeffs, [g.mat for g in basis]), xi)


def reference_prop38_claims(alg, samples, seed):
    """The two 38.1 claims by the textbook loop: every term built afresh.

    Associators go through ``propositions.hom_associator`` as it is bound
    at call time, so a patch of it reaches this loop too.
    """
    by_parity = {xi: list(omega(alg, xi).basis) for xi in (0, 1)}
    basis = by_parity[0] + by_parity[1]

    witness = ()
    for da, db in product(basis, repeat=2):
        lhs = jordan_product(da, db)
        if lhs.mat != jordan_product(db, da).mat.scale(-1 if da.xi and db.xi else 1):
            witness = ((da.xi, db.xi), _mat_witness(lhs.mat))
            break
    supercommutative = Claim("38.1.supercommutative", "fail" if witness else "pass",
                             witness=witness)

    def term(a, b, c, w):
        return propositions.hom_associator(alg, jordan_product(a, b), alpha_twist(alg, w),
                                           alpha_twist(alg, c)).mat

    def residual(x, y, z, w):
        signs = [(-1) ** (p * (q + w.xi)) for p, q in ((z.xi, x.xi), (x.xi, y.xi), (y.xi, z.xi))]
        return linear_combination(signs, [term(x, y, z, w), term(y, z, x, w), term(z, x, y, w)])

    quads = list(product(basis, repeat=4)) if len(basis) ** 4 <= 10 ** 4 else []
    rng = random.Random(seed)
    for _ in range(samples):
        quads.append([_random_homogeneous(rng, by_parity) for _ in range(4)])
    witness = ()
    for checked, quad in enumerate(quads, 1):
        r = residual(*quad)
        if not r.is_zero():
            witness = (tuple(q.xi for q in quad), _mat_witness(r))
            break
    identity = Claim("38.1.hom_jordan_identity", "fail" if witness else "pass",
                     detail=f"checked {checked} quadruples, seed {seed}", witness=witness)
    return supercommutative, identity


@cache
def _reference(name, mixed, samples, seed):
    return reference_prop38_claims(_fixture(name, mixed), samples, seed)


@pytest.mark.parametrize("seed", [5, 20260811])
@pytest.mark.parametrize("kmax", [1, 2])
@pytest.mark.parametrize("mixed", [False, True], ids=["plain", "mixed"])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_prop38_matches_the_textbook_loop(name, mixed, kmax, seed):
    report = check_prop38(_fixture(name, mixed), kmax, samples=3, seed=seed)
    ref = _reference(name, mixed, 3, seed)
    assert tuple(report.claim(c.claim_id) for c in ref) == ref


# (a, b, c, w) as basis indices, taken modulo the basis size.  The walk
# evaluates a basis quadruple only when its index triple is the least of its
# rotations, so a term t(a, b, c, w) with (a, b, c) not least is reached only
# as a later term of that least rotation: (3, 2, 1) is the second term of
# (1, 3, 2), (2, 0, 1) the third of (0, 1, 2).  On super2 (parities 0, 0, 1, 1)
# (3, 2, ...) and (2, 3, ...) plant the Jordan product of two odd maps.
PLANTS = [(3, 2, 1, 0), (0, 1, 2, 3), (2, 0, 1, 3), (2, 3, 0, 1), (1, 1, 3, 2)]


def _plant_associator(alg, monkeypatch, indices=PLANTS[0]):
    """Add the identity to the associator of one (J(a, b), T(w), T(c)) of basis maps.

    The fault goes into both forms of the associator: ``hom_associator``,
    which the textbook loop calls, and the walk's ``_hom_associator``.
    """
    basis = list(omega(alg, 0).basis) + list(omega(alg, 1).basis)
    a, b, c, w = (basis[i % len(basis)] for i in indices)
    planted = (jordan_product(a, b).mat, alpha_twist(alg, w).mat, alpha_twist(alg, c).mat)
    real, real_sparse = propositions.hom_associator, propositions._hom_associator

    def fake(alg_, d1, d2, d3):
        value = real(alg_, d1, d2, d3)
        if (d1.mat, d2.mat, d3.mat) == planted:
            return GradedEndo(value.mat + Mat.identity(alg.dim), value.xi)
        return value

    def fake_sparse(u, v, t, *ops):
        value = real_sparse(u, v, t, *ops)
        if (u.as_mat(), v.as_mat(), t.as_mat()) == planted:
            return SparseEndo.of(GradedEndo(value.as_mat() + Mat.identity(alg.dim), value.xi))
        return value

    monkeypatch.setattr(propositions, "hom_associator", fake)
    monkeypatch.setattr(propositions, "_hom_associator", fake_sparse)


def _assert_planted_term_like_the_textbook_loop(name, mixed, indices, monkeypatch):
    alg = _fixture(name, mixed)
    _plant_associator(alg, monkeypatch, indices)
    claim = check_prop38(alg, 1, samples=3, seed=5).claim("38.1.hom_jordan_identity")
    assert claim.status == "fail"
    assert claim == reference_prop38_claims(alg, 3, 5)[1]


@pytest.mark.parametrize("mixed", [False, True], ids=["plain", "mixed"])
@pytest.mark.parametrize("name", ["abelian2", "aff1", "homaff1", "super2"])
def test_prop38_reports_a_planted_term_like_the_textbook_loop(name, mixed, monkeypatch):
    _assert_planted_term_like_the_textbook_loop(name, mixed, PLANTS[0], monkeypatch)


@pytest.mark.parametrize("indices", PLANTS[1:], ids=lambda t: "".join(map(str, t)))
@pytest.mark.parametrize("mixed", [False, True], ids=["plain", "mixed"])
@pytest.mark.parametrize("name", ["abelian2", "aff1", "homaff1", "super2"])
def test_prop38_reports_terms_planted_elsewhere_like_the_textbook_loop(name, mixed, indices,
                                                                        monkeypatch):
    _assert_planted_term_like_the_textbook_loop(name, mixed, indices, monkeypatch)


def _counted(monkeypatch, name):
    """Patch ``propositions.<name>`` to record the arguments of every call."""
    calls = []
    real = getattr(propositions, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(propositions, name, counting)
    return calls


def test_prop38_evaluates_each_basis_term_once(monkeypatch):
    # one associator per distinct (J(a, b), T(w), T(c)); the samples are
    # implied by the basis quadruples, so none is drawn
    for name, distinct in (("aff1", 96), ("super2", 112)):
        alg = FIXTURES[name]()
        basis = list(omega(alg, 0).basis) + list(omega(alg, 1).basis)
        twist = cache(partial(alpha_twist, alg))
        triples = {tuple(map(SparseEndo.of, (jordan_product(a, b), twist(w), twist(c))))
                   for a, b, c, w in product(basis, repeat=4)}
        assert len(triples) == distinct
        with monkeypatch.context() as patch:
            calls = _counted(patch, "_hom_associator")
            draws = _counted(patch, "_random_homogeneous")
            claim = check_prop38(alg, 1, samples=5).claim("38.1.hom_jordan_identity")
        assert claim.status == "pass"
        assert claim.detail == "checked 261 quadruples, seed 20260811"
        assert len(calls) == distinct
        assert {args[:3] for args in calls} == triples
        assert draws == []


def test_prop38_draws_and_evaluates_samples_past_the_basis_bound(monkeypatch):
    # threeLie4 has 16^4 basis quadruples: four draws and at most three
    # associators per sample
    calls = _counted(monkeypatch, "_hom_associator")
    draws = _counted(monkeypatch, "_random_homogeneous")
    claim = check_prop38(FIXTURES["threeLie4"](), 1, samples=5).claim(
        "38.1.hom_jordan_identity")
    assert claim.status == "pass"
    assert claim.detail == "checked 5 quadruples, seed 20260811"
    assert len(calls) <= 3 * 5
    assert len(draws) == 4 * 5


@settings(max_examples=15)
@given(name=st.sampled_from(sorted(FIXTURES)), seed=st.integers(0, 2 ** 16))
def test_prop38_matches_the_textbook_loop_on_dense_bases(name, seed):
    # a random even basis change makes the commutant's basis dense, so the
    # value-keyed caches see operands no fixture or mixed copy has
    alg = FIXTURES[name]()
    alg = transport(alg, random_even_invertible(alg.parity, random.Random(seed)))
    report = check_prop38(alg, 1, samples=3, seed=seed)
    ref = reference_prop38_claims(alg, 3, seed)
    assert tuple(report.claim(c.claim_id) for c in ref) == ref


def _hom_jordan_exact():
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "hom_jordan_exact.py"
    spec = importlib.util.spec_from_file_location("hom_jordan_exact", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mixed", [False, True], ids=["plain", "mixed"])
def test_exact_hom_jordan_script_reports_a_planted_term(mixed, monkeypatch):
    alg = _fixture("aff1", mixed)
    exact_failure = _hom_jordan_exact().exact_failure
    assert exact_failure(alg) == (4 ** 4, ())
    _plant_associator(alg, monkeypatch)
    checked, failure = exact_failure(alg)
    ref = reference_prop38_claims(alg, 0, 5)[1]
    assert failure and ref.status == "fail"
    assert (f"checked {checked} quadruples, seed 5", failure) == (ref.detail, ref.witness)


def _rotation_terms(alg):
    """The walk's associator term, and a term that is no associator: J(a, b) T(w) T(c).

    Both take and give sparse maps and compute on ``Mat``s.
    """
    jordan = cache(jordan_product)
    twist = cache(partial(alpha_twist, alg))

    def endo(u):
        return GradedEndo(u.as_mat(), u.xi)

    def associator(a, b, c, w):
        a, b, c, w = map(endo, (a, b, c, w))
        return SparseEndo.of(hom_associator(alg, jordan(a, b), twist(w), twist(c)))

    def composite(a, b, c, w):
        a, b, c, w = map(endo, (a, b, c, w))
        return SparseEndo.of(GradedEndo(jordan(a, b).mat @ twist(w).mat @ twist(c).mat,
                                        (a.xi + b.xi + c.xi + w.xi) % 2))

    return associator, composite


def _assert_residual_rotation_invariant(alg, rng):
    """R(x, y, z, w) == R(y, z, x, w) for every term: the walk's reduction rests on it."""
    by_parity = {xi: [SparseEndo.of(e) for e in omega(alg, xi).basis] for xi in (0, 1)}
    basis = by_parity[0] + by_parity[1]
    quads = list(product(basis, repeat=4)) if len(basis) ** 4 <= 10 ** 4 else []
    quads += [[propositions._random_homogeneous(rng, by_parity) for _ in range(4)]
              for _ in range(5)]
    associator, composite = _rotation_terms(alg)
    nonzero = 0
    for x, y, z, w in quads:
        assert _hom_jordan_residual(associator, x, y, z, w) is None
        assert _hom_jordan_residual(associator, y, z, x, w) is None
        residual = _hom_jordan_residual(composite, x, y, z, w)
        assert residual == _hom_jordan_residual(composite, y, z, x, w)
        nonzero += residual is not None
    # the composite term does not cancel, so the comparison has nonzero residuals
    assert nonzero


@pytest.mark.parametrize("mixed", [False, True], ids=["plain", "mixed"])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_hom_jordan_residual_is_rotation_invariant(name, mixed):
    _assert_residual_rotation_invariant(_fixture(name, mixed), random.Random(name))


@settings(max_examples=10)
@given(name=st.sampled_from(sorted(FIXTURES)), seed=st.integers(0, 2 ** 16))
def test_hom_jordan_residual_is_rotation_invariant_on_dense_bases(name, seed):
    alg = FIXTURES[name]()
    rng = random.Random(seed)
    _assert_residual_rotation_invariant(
        transport(alg, random_even_invertible(alg.parity, rng)), rng)
