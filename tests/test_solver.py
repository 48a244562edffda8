import dataclasses
import itertools
import random
from fractions import Fraction
from unittest import mock

import hypothesis.strategies as st
import pytest
from conftest import dense, is_subspace_of, span, yau_twist
from hypothesis import example, given, settings

from nhomlie import solver
from nhomlie.algebra import (
    NHomAlgebra,
    center,
    invert,
    is_alpha_surjective,
    opened_tensor,
    transport,
    validate,
)
from nhomlie.extension import build_check, phi
from nhomlie.fixtures import (
    FIXTURES,
    abelian2,
    aff1,
    corrupt_multiplicative,
    filippov,
    homaff1,
    nonsurjective_abelian2,
    super2,
    threeLie4,
)
from nhomlie.linalg import Mat, commutes_with, contains, kernel
from nhomlie.propositions import random_even_invertible
from nhomlie.solver import (
    TUPLE_KINDS,
    GradedEndo,
    Kind,
    allowed_positions,
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

F = Fraction


def endo(rows, xi=0):
    return GradedEndo(Mat.from_rows(rows), xi)


class TestOmega:
    def test_identity_twist_gives_all_even_maps(self):
        assert omega(aff1(), 0).dim == 4
        assert omega(aff1(), 1).dim == 0  # no odd part

    def test_distinct_eigenvalues_give_diagonals(self):
        sp = omega(homaff1(), 0)
        assert sp.dim == 2
        for g in sp.basis:
            assert g.mat.entries[0][1] == 0 and g.mat.entries[1][0] == 0

    def test_super2_odd_commutant(self):
        assert omega(super2(), 1).dim == 2


class TestSolveDimensions:
    def test_abelian_derivations_full_at_every_level(self):
        alg = abelian2()
        for k in range(3):
            assert solve(alg, Kind.DER, k, 0).dim == 4

    def test_aff1_der_basis(self):
        sp = solve(aff1(), Kind.DER, 0, 0)
        assert sp.dim == 2
        mats = {g.mat.entries for g in sp.basis}
        assert Mat.from_rows([[0, 0], [1, 0]]).entries in mats  # e0 -> e1
        assert Mat.from_rows([[0, 0], [0, 1]]).entries in mats  # e1 -> e1

    def test_homaff1_twisted_derivations(self):
        sp = solve(homaff1(), Kind.DER, 1, 0)
        assert sp.dim == 1
        assert sp.basis[0].mat == Mat.from_rows([[0, 0], [0, 1]])

    def test_aff1_centroid_is_scalars(self):
        sp = solve(aff1(), Kind.C, 0, 0)
        assert sp.dim == 1
        assert sp.basis[0].mat == Mat.identity(2)

    def test_aff1_quasiderivations_everything(self):
        assert solve(aff1(), Kind.QDER, 0, 0).dim == 4

    def test_super2_odd_derivation(self):
        sp = solve(super2(), Kind.DER, 0, 1)
        assert sp.dim == 1
        assert sp.basis[0].mat == Mat.from_rows([[0, 0], [1, 0]])

    def test_aff1_center_derivations_vanish(self):
        assert solve(aff1(), Kind.ZDER, 0, 0).dim == 0

    def test_threeLie4_derivations(self):
        assert solve(threeLie4(), Kind.DER, 0, 0).dim == 6


class TestWitnesses:
    def test_qder_witnesses_satisfy_identity(self):
        for name in ("aff1", "super2", "threeLie4", "homaff1"):
            alg = FIXTURES[name]()
            for k in (0, 1):
                for xi in (0, 1):
                    sp = solve(alg, Kind.QDER, k, xi)
                    assert len(sp.witnesses) == sp.dim
                    for g, w in zip(sp.basis, sp.witnesses):
                        assert qder_identity_holds(alg, k, xi, g, w)

    def test_qder_identity_is_evaluated_once_per_operand_value(self, monkeypatch):
        # alpha = id, so levels 1 and 2 ask again what level 0 asked; copies
        # built apart from the solved maps are the same values
        real = solver._qder_identity_uncached
        calls = []
        monkeypatch.setattr(solver, "_qder_identity_uncached",
                            lambda *args: calls.append(args) or real(*args))
        alg = threeLie4()
        for k in range(3):
            for xi in (0, 1):
                sp = solve(alg, Kind.QDER, k, xi)
                for g, w in zip(sp.basis, sp.witnesses):
                    assert qder_identity_holds(alg, k, xi, g, w)
                    copy = Mat.from_rows(g.mat.entries)
                    assert qder_identity_holds(alg, k, xi, GradedEndo(copy, xi), w)
        assert len(calls) == sum(solve(alg, Kind.QDER, 0, xi).dim for xi in (0, 1)) > 0

    def test_gder_witness_count(self):
        sp = solve(threeLie4(), Kind.GDER, 0, 0)
        assert all(len(ws) == 3 for ws in sp.witnesses)

    @pytest.mark.parametrize("size", [(2, 1), (3, 2), (2, 3)],
                             ids=["1x1 witness", "3x3 map", "3x3 witness"])
    def test_identity_rejects_a_map_or_witness_of_the_wrong_size(self, size):
        # aff1 has dimension 2; both the check and the extension embedding
        # refuse the operands as in_space refuses a map of the wrong size
        alg = aff1()
        g, w = GradedEndo(Mat.identity(size[0]), 0), Mat.identity(size[1])
        with pytest.raises(ValueError, match="size does not match the algebra"):
            qder_identity_holds(alg, 0, 0, g, w)
        with pytest.raises(ValueError, match="size does not match the algebra"):
            phi(build_check(alg), g, w, 0)
        if size[0] != 2:
            with pytest.raises(ValueError, match="size does not match the algebra"):
                in_space(alg, Kind.QDER, 0, 0, g)


class TestInSpace:
    def test_identity_is_centroid_of_aff1(self):
        assert in_space(aff1(), Kind.C, 0, 0, endo([[1, 0], [0, 1]]))

    def test_zero_map_in_everything(self):
        alg = super2()
        for kind in Kind:
            for xi in (0, 1):
                z = GradedEndo(Mat.zero(2, 2), xi)
                assert in_space(alg, kind, 0, xi, z)

    def test_projection_is_not_derivation(self):
        assert not in_space(aff1(), Kind.DER, 0, 0, endo([[1, 0], [0, 0]]))

    def test_rejects_inhomogeneous(self):
        with pytest.raises(ValueError):
            in_space(super2(), Kind.DER, 0, 0, endo([[0, 1], [1, 0]]))

    def test_solver_and_membership_agree(self):
        rng = random.Random(7)
        for name, build in FIXTURES.items():
            alg = build()
            for kind in (Kind.DER, Kind.ZDER, Kind.C, Kind.QC, Kind.QDER, Kind.GDER):
                for xi in (0, 1):
                    sp = solve(alg, kind, 0, xi)
                    for g in sp.basis:
                        assert in_space(alg, kind, 0, xi, g), (name, kind, xi)
                    # random homogeneous maps outside the span must fail
                    pos = allowed_positions(alg.parity, xi)
                    span = sp.as_subspace(alg.dim ** 2)
                    if not pos or span.dim == len(pos):
                        continue
                    found = 0
                    for _ in range(50):
                        grid = [[0] * alg.dim for _ in range(alg.dim)]
                        for r, c in pos:
                            grid[r][c] = rng.randint(-3, 3)
                        cand = Mat.from_rows(grid, cols=alg.dim)
                        if contains(span, cand.vec_pairs()):
                            continue
                        found += 1
                        assert not in_space(alg, kind, 0, xi, GradedEndo(cand, xi)), \
                            (name, kind, xi)
                        if found >= 3:
                            break
                    assert found > 0


class TestTower:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_tower_inclusions(self, name):
        alg = FIXTURES[name]()
        d2 = alg.dim ** 2
        for k in range(3):
            for xi in (0, 1):
                chain = [solve(alg, kd, k, xi).as_subspace(d2)
                         for kd in (Kind.ZDER, Kind.DER, Kind.QDER, Kind.GDER)]
                chain.append(omega(alg, xi).as_subspace(d2))
                for small, big in zip(chain, chain[1:]):
                    assert is_subspace_of(small, big)


@pytest.mark.parametrize("build, k, j", [
    (lambda: yau_twist(filippov(3), [-1, -1, 1, 1]), 3, 1),  # alpha^2 = id
    (nonsurjective_abelian2, 2, 1),  # alpha = 0
])
def test_equal_alpha_powers_share_one_object(build, k, j):
    # opened tensors and solved spaces depend on k only through alpha^k
    alg = build()
    assert validate(alg).all_ok
    assert alg.alpha_power(k) == alg.alpha_power(j)
    for s in range(alg.arity):
        assert opened_tensor(alg, k, s) is opened_tensor(alg, j, s)
    for kind in Kind:
        for xi in (0, 1):
            assert solve(alg, kind, k, xi) is solve(alg, kind, j, xi)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_filippov_closed_forms(n):
    # A_{n+1}: Der = so(n+1), C = QC = scalars, QDer = GDer = gl(n+1), no center
    alg = filippov(n)
    d = n + 1
    want = {Kind.DER: n * (n + 1) // 2, Kind.ZDER: 0, Kind.C: 1, Kind.QC: 1,
            Kind.QDER: d * d, Kind.GDER: d * d}
    for kind, dim in want.items():
        assert (solve(alg, kind, 0, 0).dim, solve(alg, kind, 0, 1).dim) == (dim, 0), kind
    assert omega(alg, 1).dim == 0
    assert [z.dim for z in center(alg)] == [0, 0]
    # every D is a quasiderivation with witness tr(D) I - D^T (the
    # generalized cross product), whichever the sign of the bracket
    negated = NHomAlgebra(n, d, alg.parity, {key: [-x for x in value]
                                             for key, value in alg.table.items()}, alg.alpha)
    for i, j in itertools.product(range(d), repeat=2):
        e_ij = Mat.from_rows([[int((r, c) == (i, j)) for c in range(d)] for r in range(d)])
        witness = Mat.identity(d).scale(int(i == j)) - e_ij.transpose()
        for signed in (alg, negated):
            assert qder_identity_holds(signed, 0, 0, GradedEndo(e_ij, 0), witness), (i, j)


@pytest.mark.parametrize("name", sorted(FIXTURES) + ["threeLie4^ext"])
def test_as_subspace_embeds_the_solved_basis_as_it_is(name):
    # a solved basis is canonical over the column-major allowed positions,
    # and so over the column-major flattening
    alg = build_check(threeLie4()).ext if name == "threeLie4^ext" else FIXTURES[name]()
    d2 = alg.dim ** 2
    for kind in Kind:
        for k in range(3):
            for xi in (0, 1):
                sp = solve(alg, kind, k, xi)
                flat = [g.mat.vec_pairs() for g in sp.basis]
                assert sp.as_subspace(d2) == span(d2, [dense(v, d2) for v in flat])
                assert sp.as_subspace(d2).rows == tuple(flat)


class TestGrading:
    def test_bracket_of_solutions_lands_in_higher_grade(self):
        for name in ("aff1", "homaff1", "super2"):
            alg = FIXTURES[name]()
            d2 = alg.dim ** 2
            for kind in (Kind.GDER, Kind.QDER, Kind.C):
                for k, s in ((0, 0), (0, 1), (1, 1)):
                    for xi, eta in ((0, 0), (0, 1), (1, 0), (1, 1)):
                        target = solve(alg, kind, k + s, (xi + eta) % 2).as_subspace(d2)
                        for da in solve(alg, kind, k, xi).basis:
                            for db in solve(alg, kind, s, eta).basis:
                                c = supercommutator(da, db)
                                assert contains(target, c.mat.vec_pairs())

    def test_twist_raises_the_level(self):
        for name in ("homaff1", "aff1", "super2"):
            alg = FIXTURES[name]()
            for kind in (Kind.DER, Kind.ZDER, Kind.C):
                for k in (0, 1):
                    for xi in (0, 1):
                        for g in solve(alg, kind, k, xi).basis:
                            assert in_space(alg, kind, k + 1, xi, alpha_twist(alg, g))


class TestEndoOperations:
    def test_even_self_commutator_vanishes(self):
        d = endo([[1, 2], [3, 4]])
        assert supercommutator(d, d).mat.is_zero()

    def test_odd_self_commutator_is_twice_square(self):
        d = endo([[0, 1], [2, 0]], xi=1)
        sc = supercommutator(d, d)
        assert sc.xi == 0
        assert sc.mat == (d.mat @ d.mat).scale(2)

    def test_commuting_diagonals(self):
        a = endo([[1, 0], [0, 2]])
        b = endo([[3, 0], [0, 5]])
        assert supercommutator(a, b).mat.is_zero()

    def test_jordan_square_of_even(self):
        d = endo([[1, 2], [0, 1]])
        assert jordan_product(d, d).mat == d.mat @ d.mat

    def test_jordan_identity_element(self):
        e = endo([[1, 2], [3, 4]])
        assert jordan_product(endo([[1, 0], [0, 1]]), e).mat == e.mat

    def test_jordan_supercommutative(self):
        a = endo([[0, 1], [1, 0]], xi=1)
        b = endo([[0, 2], [-1, 0]], xi=1)
        lhs = jordan_product(a, b)
        rhs = jordan_product(b, a)
        assert lhs.mat == rhs.mat.scale(-1)  # (-1)^{1*1}

    def test_alpha_twist_identity(self):
        a = aff1()
        d = endo([[1, 2], [3, 4]])
        assert alpha_twist(a, d).mat == d.mat

    def test_alpha_twist_diagonal(self):
        h = homaff1()
        assert alpha_twist(h, endo([[0, 0], [0, 1]])).mat == Mat.from_rows([[0, 0], [0, 2]])

    def test_alpha_twist_requires_commutation(self):
        h = homaff1()
        with pytest.raises(ValueError):
            alpha_twist(h, endo([[0, 1], [0, 0]]))

    def test_associator_with_zero_slot(self):
        a = aff1()
        z = GradedEndo(Mat.zero(2, 2), 0)
        d = endo([[1, 1], [0, 1]])
        assert hom_associator(a, z, d, d).mat.is_zero()
        assert hom_associator(a, d, z, d).mat.is_zero()
        assert hom_associator(a, d, d, z).mat.is_zero()

    def test_associator_of_scalars_vanishes(self):
        a = aff1()
        s1 = endo([[2, 0], [0, 2]])
        s2 = endo([[3, 0], [0, 3]])
        assert hom_associator(a, s1, s2, s1).mat.is_zero()

    def test_associator_reduces_to_classical_for_identity_twist(self):
        a = aff1()
        x = endo([[1, 2], [0, 1]])
        y = endo([[0, 1], [1, 0]])
        z = endo([[1, 0], [2, 1]])
        classical = jordan_product(jordan_product(x, y), z).mat - \
            jordan_product(x, jordan_product(y, z)).mat
        assert hom_associator(a, x, y, z).mat == classical


# ---------------------------------------------------------------------------
# differential tests of the endomorphism operations against textbook formulas
# ---------------------------------------------------------------------------

def twisted_super():
    """Abelian superalgebra, parity (0, 1, 0, 1), with a non-identity even twist."""
    alpha = Mat.from_rows([[2, 0, F(1, 2), 0], [0, 2, 0, F(1, 2)], [0, 0, 2, 0], [0, 0, 0, 2]])
    return NHomAlgebra(2, 4, (0, 1, 0, 1), {}, alpha, name="twisted_super")


def plain(m):
    return [list(row) for row in m.entries]


def ref_mul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), F(0)) for j in range(len(b[0]))]
            for i in range(len(a))]


def ref_comb(ca, a, cb, b):
    return [[ca * x + cb * y for x, y in zip(u, v)] for u, v in zip(a, b)]


def ref_jordan(x, y):
    sign = -1 if (x.xi and y.xi) else 1
    return GradedEndo(Mat.from_rows(ref_comb(F(1, 2), ref_mul(plain(x.mat), plain(y.mat)),
                                             F(sign, 2), ref_mul(plain(y.mat), plain(x.mat)))),
                      (x.xi + y.xi) % 2)


def ref_twist(alg, x):
    return GradedEndo(Mat.from_rows(ref_mul(plain(x.mat), plain(alg.alpha))), x.xi)


def commutant_samples(alg, count=4):
    """Basis of the commutant of alpha plus seeded rational combinations, per parity."""
    rng = random.Random(5)
    out = []
    for xi in (0, 1):
        basis = omega(alg, xi).basis
        out.extend(basis)
        for _ in range(count if basis else 0):
            acc = Mat.zero(alg.dim, alg.dim)
            for g in basis:
                acc = acc + g.mat.scale(F(rng.randint(-5, 5), rng.randint(1, 6)))
            out.append(GradedEndo(acc, xi))
    return out


@pytest.mark.parametrize("build", [homaff1, twisted_super])
def test_endo_operations_match_textbook_formulas(build):
    alg = build()
    assert not alg.alpha.is_identity()
    samples = commutant_samples(alg)
    assert any(g.xi for g in samples) == (build is twisted_super)
    for x in samples:
        assert alpha_twist(alg, x) == ref_twist(alg, x)
        for y in samples:
            xy, yx = ref_mul(plain(x.mat), plain(y.mat)), ref_mul(plain(y.mat), plain(x.mat))
            sign = -1 if (x.xi and y.xi) else 1
            bracket = Mat.from_rows(ref_comb(1, xy, -sign, yx))
            assert supercommutator(x, y) == GradedEndo(bracket, (x.xi + y.xi) % 2)
            assert jordan_product(x, y) == ref_jordan(x, y)
            assert compose(x, y) == GradedEndo(Mat.from_rows(xy), (x.xi + y.xi) % 2)
    for x, y, z in zip(samples, samples[1:] + samples[:1], samples[2:] + samples[:2]):
        left = ref_jordan(ref_jordan(x, y), ref_twist(alg, z))
        right = ref_jordan(ref_twist(alg, x), ref_jordan(y, z))
        assert hom_associator(alg, x, y, z).mat == \
            Mat.from_rows(ref_comb(1, plain(left.mat), -1, plain(right.mat)))


@pytest.mark.parametrize("build", [homaff1, twisted_super])
def test_alpha_twist_rejects_a_non_commuting_map(build):
    alg = build()
    bad = GradedEndo(Mat.from_rows([[1 if (r, c) == (0, 1) else 0 for c in range(alg.dim)]
                                    for r in range(alg.dim)]), alg.parity[0] ^ alg.parity[1])
    assert not commutes_with(bad.mat, alg.alpha)
    with pytest.raises(ValueError):
        alpha_twist(alg, bad)


def test_identity_twist_is_skipped():
    alg = aff1()
    d = endo([[1, 2], [3, 4]])
    assert alpha_twist(alg, d) is d
    assert commutes_with(d.mat, alg.alpha)


def test_a_graded_endo_stores_the_hash_of_its_value():
    m = Mat.from_rows([[1, F(1, 2)], [0, 3]])
    a, b = GradedEndo(m, 1), GradedEndo(Mat.from_rows([[2, 1], [0, 6]]).scale(F(1, 2)), 1)
    assert hash(a) == hash((m, 1)) == hash(b) == hash(a)
    assert a == b and len({a, b, GradedEndo(m, 0)}) == 2
    # the stored hash is no field: equality and repr read the value alone
    assert [f.name for f in dataclasses.fields(GradedEndo)] == ["mat", "xi"]
    assert repr(a) == repr(GradedEndo(m, 1)) and a == GradedEndo(m, 1)


def osp12():
    """osp(1|2) on (h, e, f | x, y) with alpha = id."""
    terms = {
        (0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1},
        (0, 3): {3: 1}, (0, 4): {4: -1}, (1, 4): {3: -1}, (2, 3): {4: -1},
        (3, 3): {1: 2}, (3, 4): {0: 1}, (4, 4): {2: -2},
    }
    table = {args: [value.get(i, 0) for i in range(5)] for args, value in terms.items()}
    return NHomAlgebra(2, 5, (0, 0, 0, 1, 1), table, Mat.identity(5), name="osp12")


def osp12_torus(c):
    """The diagonal automorphism of osp(1|2) with eigenvalue c on x."""
    c = F(c)
    return [1, c * c, 1 / (c * c), c, 1 / c]


def osp12yau():
    return yau_twist(osp12(), osp12_torus(2))


@pytest.mark.parametrize("build, dims", [
    (osp12, {Kind.OMEGA: (13, 12), Kind.DER: (3, 2), Kind.ZDER: (0, 0), Kind.C: (1, 0),
             Kind.QC: (1, 0), Kind.QDER: (4, 2), Kind.GDER: (4, 2)}),
    (osp12yau, {Kind.OMEGA: (5, 0), Kind.DER: (1, 0), Kind.ZDER: (0, 0), Kind.C: (1, 0),
                Kind.QC: (1, 0), Kind.QDER: (2, 0), Kind.GDER: (2, 0)}),
], ids=["osp12", "osp12yau"])
def test_osp12_dims(build, dims):
    # odd maps meet odd arguments here: a prefix sign in _rows that ignored
    # the parity of the map would give osp(1|2) Der 1|2 and C 0|0
    alg = build()
    for kind, want in dims.items():
        for k in range(3):
            assert (solve(alg, kind, k, 0).dim, solve(alg, kind, k, 1).dim) == want, (kind, k)


def solve_from_rows(alg, kind, k, xi):
    """The space at k from the rows of every tuple and ``kernel``: each
    equation's ``sorted_from`` is set to n, so no tuple symmetry is used."""
    nblocks, equations = solver._EQUATIONS[kind](alg.arity)
    every = [eq._replace(sorted_from=alg.arity) for eq in equations]
    with mock.patch.dict(solver._EQUATIONS, {kind: lambda n: (nblocks, every)}):
        rows, nblocks, pos = solver._rows(alg, kind, k, xi)
        return solver._space(alg.dim, kind, xi, pos, nblocks,
                             kernel(rows, nblocks * len(pos)))


# Yau twists by diagonal automorphisms, for a drawn nonzero c; threeLie4's
# only ones are signs, so its twist has alpha^2 = id
AUTOMORPHISMS = {
    "abelian2": (abelian2, lambda c: [c, 1 - c]),
    "aff1": (aff1, lambda c: [1, c]),
    "super2": (super2, lambda c: [1, c]),
    "threeLie4": (threeLie4, lambda c: [-1, -1, 1, 1]),
    "osp12": (osp12, osp12_torus),
}


@st.composite
def scaled_twists(draw):
    """A Yau twist of a fixture or of osp(1|2), or a ``transport`` copy of one."""
    build, diag = AUTOMORPHISMS[draw(st.sampled_from(sorted(AUTOMORPHISMS)))]
    c = draw(st.sampled_from([2, -1, 3, F(1, 2), -2, F(-2, 3)]))
    alg = yau_twist(build(), diag(c))
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 9)))
        alg = transport(alg, random_even_invertible(alg.parity, rng))
    return alg


@pytest.mark.parametrize("kind", TUPLE_KINDS, ids=str)
@settings(max_examples=20)
@given(alg=scaled_twists())
@example(alg=transport(osp12yau(), random_even_invertible(osp12().parity, random.Random(0))))
@example(alg=transport(yau_twist(threeLie4(), [-1, -1, 1, 1]),
                       random_even_invertible((0,) * 4, random.Random(1))))
def test_scaled_spaces_are_the_spaces_solved_from_rows(kind, alg):
    # alpha^k times the space at 0, canonicalized, is the kernel's output
    # at k: basis, witnesses and slack alike
    assert validate(alg).all_ok and solver._scales(alg)
    for k in range(4):
        for xi in (0, 1):
            assert solve(alg, kind, k, xi) == solve_from_rows(alg, kind, k, xi), (k, xi)


@pytest.fixture
def kernel_calls(monkeypatch):
    calls = []
    real = solver.kernel
    monkeypatch.setattr(solver, "kernel",
                        lambda rows, width: calls.append(width) or real(rows, width))
    return calls


def distinct_powers(alg, kmax=3):
    return len({alg.alpha_power(k) for k in range(kmax + 1)})


@pytest.mark.parametrize("kind", TUPLE_KINDS, ids=str)
@pytest.mark.parametrize("build", [homaff1, osp12yau], ids=["homaff1", "osp12yau"])
def test_scaled_algebras_run_kernel_once_per_parity(build, kind, kernel_calls):
    alg = build()
    assert distinct_powers(alg) == 4
    for k in range(4):
        for xi in (0, 1):
            solve(alg, kind, k, xi)
    assert len(kernel_calls) == 2


def odd_alpha_draw(seed):
    """An abelian algebra (so multiplicative) with an odd, invertible alpha."""
    rng = random.Random(seed)
    parity = (0, 1, 1)
    while True:
        alpha = Mat.from_rows([[rng.randint(-2, 2) for _ in parity] for _ in parity])
        try:
            invert(alpha)
        except ValueError:
            continue
        alg = NHomAlgebra(2, 3, parity, {}, alpha)
        if not validate(alg).even_alpha_ok and distinct_powers(alg) == 4:
            return alg


@pytest.mark.parametrize("kind", TUPLE_KINDS, ids=str)
@pytest.mark.parametrize("build", [corrupt_multiplicative, lambda: odd_alpha_draw(0),
                                   lambda: odd_alpha_draw(1), nonsurjective_abelian2],
                         ids=["not multiplicative", "odd alpha 0", "odd alpha 1", "alpha = 0"])
def test_unscaled_algebras_solve_each_power_from_its_rows(build, kind, kernel_calls):
    alg = build()
    report = validate(alg)
    # each input breaks exactly one of the gate's three conditions
    assert [report.multiplicative_ok, report.even_alpha_ok,
            is_alpha_surjective(alg)].count(False) == 1
    assert not solver._scales(alg)
    for k in range(4):
        for xi in (0, 1):
            assert solve(alg, kind, k, xi) == solve_from_rows(alg, kind, k, xi)
    assert len(kernel_calls) == 2 * distinct_powers(alg)


@pytest.mark.parametrize("kind", TUPLE_KINDS, ids=str)
def test_an_identity_power_is_never_scaled(kind, kernel_calls, monkeypatch):
    # the sign twist of A_4 has alpha^2 = id: k = 2 is the k = 0 entry,
    # solved from its rows even when it is asked for first
    alg = yau_twist(filippov(3), [-1, -1, 1, 1])
    scaled = []
    real = solver._scaled_rows
    monkeypatch.setattr(solver, "_scaled_rows", lambda *args: scaled.append(args) or real(*args))
    for xi in (0, 1):
        assert solve(alg, kind, 2, xi) is solve(alg, kind, 0, xi)
    assert (len(kernel_calls), len(scaled)) == (2, 0)
    for xi in (0, 1):
        assert solve(alg, kind, 3, xi) is solve(alg, kind, 1, xi)
    assert (len(kernel_calls), len(scaled)) == (2, 2)
