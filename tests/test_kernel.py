"""Differential tests of the integer bracket kernel against Fraction references.

The structure tensor is compared tuple by tuple with ``basis_value``, and
each opened tensor entry by entry with the bracket it stands for.
``bracket`` is compared with the multilinear expansion over
``basis_value``; ``in_space`` for the six tuple kinds and
``qder_identity_holds`` are compared with their definitions evaluated in
``Fraction`` arithmetic, with the QDer/GDer witnesses solved for by rank.
The solver's integer constraint rows are compared with the same rows built
in ``Fraction`` arithmetic through ``bracket``, scaled by one denominator
for each kind of row, and the rows ``solve`` reads,
over tuple-orbit representatives only, with the rows over every tuple.
The algebras are aff1, homaff1, super2 and threeLie4, three Heisenberg
algebras on which QDer and GDer are proper subspaces of Omega (so a map
of Omega can lack a witness), and a copy of each transported through
``mixed_change``, whose table and twist carry mixed denominators; the
membership tests also run on the two-block extensions of threeLie4 and
homaff1, whose slot terms reach few of their tuples.  Each
example checks a random combination of a space's basis (a member) and the
same map plus a random alpha-commuting perturbation (mostly a non-member).
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm

import hypothesis.strategies as st
import pytest
from conftest import apply, basis_value, col, dense, mixed_change, sparse
from hypothesis import given, settings

from nhomlie import algebra, solver
from nhomlie.algebra import (
    NHomAlgebra,
    bracket,
    opened_tensor,
    sparse_rows,
    summed_slot_terms,
    transport,
)
from nhomlie.extension import build_check
from nhomlie.fixtures import aff1, homaff1, super2, threeLie4
from nhomlie.linalg import Mat, SubspaceBasis, kernel
from nhomlie.solver import (
    _EQUATIONS,
    TUPLE_KINDS,
    VALUE,
    GradedEndo,
    Kind,
    _rows,
    allowed_positions,
    in_space,
    omega,
    qder_identity_holds,
    solve,
)

F = Fraction


def homheis3():
    """[e0, e1] = e2 twisted by diag(1, 2, 2)."""
    alpha = Mat.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 2]])
    return NHomAlgebra(2, 3, (0, 0, 0), {(0, 1): (0, 0, 1)}, alpha, name="homheis3")


def superheis3():
    """[e1, e2] = e0 with e1, e2 odd."""
    return NHomAlgebra(2, 3, (0, 1, 1), {(1, 2): (1, 0, 0)}, Mat.identity(3),
                       name="superheis3")


def homheis4():
    """The ternary [e0, e1, e2] = e3 twisted by diag(1, 1, 2, 2)."""
    alpha = Mat.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])
    return NHomAlgebra(3, 4, (0, 0, 0, 0), {(0, 1, 2): (0, 0, 0, 1)}, alpha, name="homheis4")


def _algebras():
    out = {}
    for make in (aff1, homaff1, super2, threeLie4, homheis3, superheis3, homheis4):
        alg = make()
        out[alg.name] = alg
        out[alg.name + "~"] = transport(alg, mixed_change(alg.parity))
    # two-block extensions: sparse, with a zero second block; homaff1's has alpha != id
    for make in (threeLie4, homaff1):
        out[f"ext({make.__name__})"] = build_check(make()).ext
    return out


ALGEBRAS = _algebras()
EXTENSIONS = sorted(name for name in ALGEBRAS if name.startswith("ext("))
NAMES = sorted(set(ALGEBRAS) - set(EXTENSIONS))
# the Fraction references of ext(threeLie4)'s witness systems (over 512
# tuples) take seconds to build, so it is checked on its one-block kinds
IN_SPACE_CASES = [(name, kind) for name in NAMES + EXTENSIONS for kind in TUPLE_KINDS
                  if name != "ext(threeLie4)" or kind not in (Kind.QDER, Kind.GDER)]

rationals = st.builds(F, st.integers(-4, 4), st.integers(1, 6))
nonzero = st.builds(F, st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]), st.integers(1, 6))


# ---------------------------------------------------------------------------
# Fraction references
# ---------------------------------------------------------------------------

def ref_bracket(alg, args):
    """Multilinear expansion of the bracket over the basis values."""
    out = [F(0)] * alg.dim
    supports = [[i for i, x in enumerate(a) if x] for a in args]
    for t in product(*supports):
        c = F(1)
        for a, i in zip(args, t):
            c *= a[i]
        for j, x in enumerate(basis_value(alg, t)):
            if x:
                out[j] += c * x
    return out


def commutes(a, b):
    d = a.rows
    return all(sum(a.entries[i][j] * b.entries[j][m] - b.entries[i][j] * a.entries[j][m]
                   for j in range(d)) == 0
               for i in range(d) for m in range(d))


def sign(alg, t, s, xi):
    """(-1)^(xi |e_{t_0}| + ... + xi |e_{t_{s-1}}|)."""
    return -1 if xi and sum(alg.parity[i] for i in t[:s]) % 2 else 1


def slot_term(alg, k, xi, m, t, s):
    """Signed bracket of (alpha^k e_{t_0}, ..., m e_{t_s}, ..., alpha^k e_{t_{n-1}})."""
    a = alg.alpha_power(k)
    args = [col(m, t[j]) if j == s else col(a, t[j]) for j in range(alg.arity)]
    value = ref_bracket(alg, args)
    return value if sign(alg, t, s, xi) > 0 else [-x for x in value]


def positions(alg, xi):
    d = alg.dim
    return [(r, c) for r in range(d) for c in range(d) if alg.parity[r] == alg.parity[c] ^ xi]


@lru_cache(maxsize=None)
def witness_map(name, kind, a, xi):
    """The nonzero rows of the matrix from the witness blocks to the defect.

    ``a`` is the twist power alpha^k, so twist powers that coincide share
    one matrix.  Rows are (tuple, component) pairs followed by every
    block's commutation with alpha.  QDer has one block, the right-hand
    witness; GDer has one per slot 1..n-1 and then the right-hand witness.
    Returns the indices of the nonzero rows and a basis of the left
    nullspace of those rows, as sparse (position, coefficient) lists.
    """
    alg = ALGEBRAS[name]
    d, n = alg.dim, alg.arity
    alpha = alg.alpha.entries
    tuples = list(product(range(d), repeat=n))
    slots = list(range(1, n)) if kind is Kind.GDER else []
    blocks = slots + [None]
    columns = []
    for b, slot in enumerate(blocks):
        for r, c in positions(alg, xi):
            entries = []
            for t in tuples:
                if slot is None:  # minus W [e_t] for W = E_rc
                    value = basis_value(alg, t)
                    entries.extend(-value[c] if l == r else F(0) for l in range(d))
                elif t[slot] == c:  # W e_{t_s} = e_r
                    args = [col(a, t[j]) for j in range(n)]
                    args[slot] = [F(int(i == r)) for i in range(d)]
                    entries.extend(sign(alg, t, slot, xi) * x for x in ref_bracket(alg, args))
                else:
                    entries.extend([F(0)] * d)
            for bb in range(len(blocks)):
                for l in range(d):
                    for m in range(d):
                        entries.append(F(0) if bb != b else
                                       int(l == r) * alpha[c][m] - alpha[l][r] * int(c == m))
            columns.append(entries)
    kept = [i for i, row in enumerate(zip(*columns)) if any(row)]
    if not kept:
        return kept, []
    transposed = [[column[i] for i in kept] for column in columns]
    return kept, [[(p, y) for p, y in enumerate(v) if y]
                  for v in ref_nullspace(transposed, len(kept))]


def ref_nullspace(rows, width):
    """A basis of {v : row . v = 0}, by textbook Gauss-Jordan elimination in Fractions."""
    rows = [list(map(F, row)) for row in rows]
    pivots = []
    for c in range(width):
        r = next((i for i in range(len(pivots), len(rows)) if rows[i][c]), None)
        if r is None:
            continue
        top = len(pivots)
        rows[top], rows[r] = rows[r], rows[top]
        rows[top] = [x / rows[top][c] for x in rows[top]]
        for i, row in enumerate(rows):
            if i != top and row[c]:
                rows[i] = [x - row[c] * y for x, y in zip(row, rows[top])]
        pivots.append(c)
    basis = []
    for f in (c for c in range(width) if c not in pivots):
        v = [F(0)] * width
        v[f] = F(1)
        for i, c in enumerate(pivots):
            v[c] = -rows[i][f]
        basis.append(v)
    return basis


def has_witness(name, kind, k, xi, defect):
    """True iff some witness blocks cancel ``defect`` (a vector over the tuple rows).

    By the Fredholm alternative: iff ``defect`` vanishes on the zero rows and
    is orthogonal to the left nullspace of the others.
    """
    kept, left_null = witness_map(name, kind, ALGEBRAS[name].alpha_power(k), xi)
    kept_set = set(kept)
    if any(x for i, x in enumerate(defect) if i not in kept_set):
        return False
    rhs = [defect[i] if i < len(defect) else F(0) for i in kept]
    return all(sum(y * rhs[p] for p, y in v) == 0 for v in left_null)


def ref_in_space(name, kind, k, xi, m):
    alg = ALGEBRAS[name]
    d, n = alg.dim, alg.arity
    if not commutes(m, alg.alpha):
        return False
    tuples = list(product(range(d), repeat=n))
    if kind in (Kind.QDER, Kind.GDER):
        defect = []
        for t in tuples:
            slots = range(n) if kind is Kind.QDER else (0,)
            terms = [slot_term(alg, k, xi, m, t, s) for s in slots]
            defect.extend(sum(xs) for xs in zip(*terms))
        return has_witness(name, kind, k, xi, defect)
    for t in tuples:
        image = apply(m, basis_value(alg, t))
        terms = [slot_term(alg, k, xi, m, t, s) for s in range(n)]
        if kind is Kind.DER:
            ok = [sum(xs) for xs in zip(*terms)] == image
        elif kind is Kind.C:
            ok = all(term == image for term in terms)
        elif kind is Kind.QC:
            ok = all(term == terms[0] for term in terms)
        else:  # ZDer
            ok = not any(image) and not any(terms[0])
        if not ok:
            return False
    return True


def ref_qder_identity(name, k, xi, m, w):
    alg = ALGEBRAS[name]
    n = alg.arity
    for t in product(range(alg.dim), repeat=n):
        lhs = [sum(xs) for xs in zip(*(slot_term(alg, k, xi, m, t, s) for s in range(n)))]
        if lhs != apply(w, basis_value(alg, t)):
            return False
    return True


@lru_cache(maxsize=None)
def unit_slot_bracket(name, k, t, s, r):
    """``bracket`` of (alpha^k e_{t_0}, ..., e_r in slot s, ..., alpha^k e_{t_{n-1}})."""
    alg = ALGEBRAS[name]
    a = alg.alpha_power(k)
    args = [col(a, i) for i in t]
    args[s] = [F(int(i == r)) for i in range(alg.dim)]
    return bracket(alg, args)


def ref_rows(name, kind, k, xi):
    """``(equation rows, commutation rows)`` of ``kind`` in ``Fraction`` arithmetic.

    The order is that of the solver's rows: tuple, equation, component, then
    the commutation rows of each block; unknowns are the blocks' allowed
    positions.  Zero rows are dropped.
    """
    alg = ALGEBRAS[name]
    d, n = alg.dim, alg.arity
    nblocks, equations = _EQUATIONS[kind](n)
    pos = allowed_positions(alg.parity, xi)
    width = nblocks * len(pos)
    eq_rows = []
    for t in product(range(d), repeat=n):
        for eq in equations:
            block = [[F(0)] * width for _ in range(d)]
            for b, s, c in eq.terms:
                for m, (r, cc) in enumerate(pos):
                    j = b * len(pos) + m
                    if s is VALUE:  # E_{r cc} [e_t]
                        block[r][j] += c * basis_value(alg, t)[cc]
                    elif t[s] == cc:  # E_{r cc} e_{t_s} = e_r
                        for l, x in enumerate(unit_slot_bracket(name, k, t, s, r)):
                            block[l][j] += c * sign(alg, t, s, xi) * x
            eq_rows.extend(row for row in block if any(row))
    alpha = alg.alpha.entries
    comm_rows = []
    for b in range(nblocks):
        for l in range(d):
            for m in range(d):
                row = [F(0)] * width
                for p, (r, cc) in enumerate(pos):  # (E_{r cc} alpha - alpha E_{r cc})[l][m]
                    row[b * len(pos) + p] = int(l == r) * alpha[cc][m] - alpha[l][r] * int(cc == m)
                if any(row):
                    comm_rows.append(row)
    return eq_rows, comm_rows


# ---------------------------------------------------------------------------
# the tests
# ---------------------------------------------------------------------------

def combination(data, mats, d):
    """A combination of ``mats`` with nonzero rational coefficients (zero when there are none)."""
    out = Mat.zero(d, d)
    for m in mats:
        out = out + m.scale(data.draw(nonzero))
    return out


def test_references_cover_members_and_non_members():
    # the drawn maps below are only informative if both answers occur
    alg = ALGEBRAS["threeLie4~"]
    der = solve(alg, Kind.DER, 0, 0).basis[0].mat
    outside = omega(alg, 0).basis[0].mat
    assert ref_in_space("threeLie4~", Kind.DER, 0, 0, der)
    assert not ref_in_space("threeLie4~", Kind.DER, 0, 0, der + outside)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_tensor_is_the_reference_over_its_support(name):
    # a tuple is a key exactly when its Fraction value is nonzero, the two
    # agree as integers over the denominator, and the keys are in product order
    alg = ALGEBRAS[name]
    values, den = alg.tensor
    tuples = list(product(range(alg.dim), repeat=alg.arity))
    assert list(values) == [t for t in tuples if t in values]
    for t in tuples:
        scaled = [x * den for x in basis_value(alg, t)]
        assert all(x.denominator == 1 for x in scaled)
        assert (t in values) == any(scaled)
        assert values.get(t, ()) == tuple((j, int(x)) for j, x in enumerate(scaled) if x)


@pytest.mark.parametrize("name", NAMES)
@given(data=st.data())
def test_bracket_matches_multilinear_expansion(name, data):
    alg = ALGEBRAS[name]
    vec = st.lists(rationals, min_size=alg.dim, max_size=alg.dim)
    args = [data.draw(vec) for _ in range(alg.arity)]
    assert list(bracket(alg, args)) == ref_bracket(alg, args)


@pytest.mark.parametrize("name, kind", IN_SPACE_CASES,
                         ids=[f"{name}-{kind}" for name, kind in IN_SPACE_CASES])
@settings(max_examples=6)
@given(data=st.data())
def test_in_space_matches_reference(name, kind, data):
    alg = ALGEBRAS[name]
    d = alg.dim
    k = data.draw(st.integers(0, 2))
    xi = data.draw(st.integers(0, 1))
    member = combination(data, [g.mat for g in solve(alg, kind, k, xi).basis], d)
    outside = combination(data, [g.mat for g in omega(alg, xi).basis], d)
    for m in (member, member + outside):
        assert in_space(alg, kind, k, xi, GradedEndo(m, xi)) == ref_in_space(name, kind, k, xi, m)


@pytest.mark.parametrize("kind", TUPLE_KINDS, ids=str)
@pytest.mark.parametrize("name", NAMES + ["ext(homaff1)"])
def test_in_space_matches_reference_on_omega_basis(name, kind):
    # the canonical basis maps are sparse: a map that moves some values of
    # the bracket while its slot terms reach few tuples must still be judged
    # on every tuple
    alg = ALGEBRAS[name]
    for k, xi in product(range(2), (0, 1)):
        for g in omega(alg, xi).basis:
            assert in_space(alg, kind, k, xi, g) == ref_in_space(name, kind, k, xi, g.mat), \
                (k, xi, g.mat.ints)


@pytest.mark.parametrize("name", ["threeLie4~", "homheis4~"])
def test_membership_reads_no_equation_rows(name, monkeypatch):
    # every witness lies in Omega, so QDer/GDer membership reads Omega's
    # commutation rows and no equation row that solve reads
    source = ALGEBRAS[name]
    alg = NHomAlgebra(source.arity, source.dim, source.parity, source.table, source.alpha)
    cases = [(kind, k, xi, g) for kind, k, xi in product((Kind.QDER, Kind.GDER), range(2), (0, 1))
             for g in solve(source, kind, k, xi).basis + omega(source, xi).basis]
    real_rows, kinds = solver._rows, []

    def rows(given, kind, *args, **kwargs):
        kinds.append(kind)
        return real_rows(given, kind, *args, **kwargs)

    monkeypatch.setattr(solver, "_rows", rows)
    for kind, k, xi, g in cases:
        in_space(alg, kind, k, xi, g)
    assert set(kinds) == {Kind.OMEGA}


def test_drawn_maps_reach_both_rejections():
    # a map of Omega outside QDer/GDer has slot terms either at a tuple
    # that no witness reaches or, inside the reached tuples, outside the
    # span of the witnesses' contributions; the drawn maps hit both
    rng = random.Random(25)

    def draw(mats, d):
        return sum((m.scale(F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))) for m in mats),
                   Mat.zero(d, d))

    unreached = outside = 0
    for name, kind, k, xi in product(NAMES + EXTENSIONS, (Kind.QDER, Kind.GDER), range(3), (0, 1)):
        alg = ALGEBRAS[name]
        reached, span = solver._witness_span(alg, kind, k, xi)
        weights = dict.fromkeys(range(alg.arity) if kind is Kind.QDER else (0,), 1)
        member = draw([g.mat for g in solve(alg, kind, k, xi).basis], alg.dim)
        for _ in range(3):
            m = member + draw([g.mat for g in omega(alg, xi).basis], alg.dim)
            if in_space(alg, kind, k, xi, GradedEndo(m, xi)):
                continue
            terms = summed_slot_terms(alg, k, xi, sparse_rows(m)[0], weights)
            if any(any(term) for t, term in terms.items() if t not in reached):
                unreached += 1
            else:
                outside += 1
    assert unreached >= 10 and outside >= 10, (unreached, outside)


@pytest.mark.parametrize("name", NAMES + EXTENSIONS)
@settings(max_examples=10)
@given(data=st.data())
def test_qder_identity_matches_reference(name, data):
    alg = ALGEBRAS[name]
    d = alg.dim
    k = data.draw(st.integers(0, 2))
    xi = data.draw(st.integers(0, 1))
    space = solve(alg, Kind.QDER, k, xi)
    m, w = Mat.zero(d, d), Mat.zero(d, d)
    for g, wit in zip(space.basis, space.witnesses):
        c = data.draw(nonzero)
        m, w = m + g.mat.scale(c), w + wit.scale(c)
    outside = [g.mat for g in omega(alg, xi).basis]
    for dm, dw in ((m, w), (m + combination(data, outside, d), w + combination(data, outside, d))):
        got = qder_identity_holds(alg, k, xi, GradedEndo(dm, xi), dw)
        assert got == ref_qder_identity(name, k, xi, dm, dw)


@pytest.mark.parametrize("kind", TUPLE_KINDS, ids=str)
@pytest.mark.parametrize("name", NAMES)
def test_rows_are_the_reference_over_one_denominator(name, kind):
    # every equation row is over tden den(alpha^k)^(n-1), every commutation
    # row over den(alpha)
    alg = ALGEBRAS[name]
    tden = lcm(1, *(x.denominator for value in alg.table.values() for x in value))
    aden = lcm(1, *(x.denominator for row in alg.alpha.entries for x in row))
    for k, xi in product(range(3), (0, 1)):
        kden = lcm(1, *(x.denominator for row in alg.alpha_power(k).entries for x in row))
        eq_rows, comm_rows = ref_rows(name, kind, k, xi)
        factor = tden * kden ** (alg.arity - 1)
        expected = ([sparse([x * factor for x in row]) for row in eq_rows] +
                    [sparse([x * aden for x in row]) for row in comm_rows])
        rows = list(_rows(alg, kind, k, xi)[0])
        assert all(type(j) is int and type(x) is int for row in rows for j, x in row)
        # the same nonzero entries at the same columns, in the same rows
        assert [sorted(row) for row in rows] == expected


@pytest.mark.parametrize("kind", TUPLE_KINDS, ids=str)
@pytest.mark.parametrize("name", ["threeLie4", "homheis4", "superheis3"])
def test_rows_evaluate_no_bracket(name, kind, monkeypatch):
    # slot terms are read from the opened tensors, so no bracket is
    # evaluated, and every k and xi of one algebra reads the same
    # opened tensor of each (k, s): one built and cached for a non-identity
    # alpha^k, the tensor itself otherwise
    source = ALGEBRAS[name]
    alg = NHomAlgebra(source.arity, source.dim, source.parity, source.table, source.alpha)
    real_bracket, real_opened = algebra.bracket, solver.opened_tensor
    brackets, opened = [], {}
    monkeypatch.setattr(algebra, "bracket", lambda *a: brackets.append(a) or real_bracket(*a))

    def opened_tensor(given, k, s):
        out = real_opened(given, k, s)
        opened.setdefault((k, s), []).append(out)
        return out

    monkeypatch.setattr(solver, "opened_tensor", opened_tensor)
    for k, xi in product(range(3), (0, 1)):
        list(_rows(alg, kind, k, xi)[0])
    assert brackets == []
    assert opened
    for (k, s), got in opened.items():
        assert all(x is got[0] for x in got), (k, s)
        assert (got[0] is alg.tensor[0]) == alg.alpha_power(k).is_identity(), (k, s)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_opened_tensor_is_the_reference(name):
    # entry v is the Fraction bracket of (alpha^k e_{v_0}, .., e_{v_s}, ..,
    # alpha^k e_{v_{n-1}}) over tden den(alpha^k)^(n-1), and the keys are
    # exactly the tuples with a nonzero entry, in product order
    alg = ALGEBRAS[name]
    d, n = alg.dim, alg.arity
    tden = lcm(1, *(x.denominator for value in alg.table.values() for x in value))
    for k in range(3):
        kden = lcm(1, *(x.denominator for row in alg.alpha_power(k).entries for x in row))
        factor = tden * kden ** (n - 1)
        for s in range(n):
            expected = []
            for v in product(range(d), repeat=n):
                scaled = [x * factor for x in unit_slot_bracket(name, k, v, s, v[s])]
                assert all(x.denominator == 1 for x in scaled)
                if any(scaled):
                    expected.append((v, tuple((j, int(x)) for j, x in enumerate(scaled) if x)))
            assert list(opened_tensor(alg, k, s).items()) == expected, (k, s)


ORBIT_ALGEBRAS = {name: ALGEBRAS[name] for name in NAMES + ["ext(threeLie4)"]}


def is_representative(t, sorted_from):
    return list(t[sorted_from:]) == sorted(t[sorted_from:])


@pytest.mark.parametrize("kind", TUPLE_KINDS, ids=str)
@pytest.mark.parametrize("name", sorted(ORBIT_ALGEBRAS))
def test_rows_over_representatives_span_the_full_rows(name, kind):
    # sorting a tuple only permutes the slot terms of its equations, with
    # one sign, so the representatives' rows span every tuple's rows
    alg = ORBIT_ALGEBRAS[name]
    for k, xi in product(range(3), (0, 1)):
        full, nblocks, pos = _rows(alg, kind, k, xi)
        full = list(full)
        reduced = list(_rows(alg, kind, k, xi, reduced=True)[0])
        width = nblocks * len(pos)
        assert SubspaceBasis.span(width, [dense(row, width) for row in reduced]) == \
            SubspaceBasis.span(width, [dense(row, width) for row in full]), (k, xi)
        assert kernel(reduced, width) == kernel(full, width), (k, xi)


def so3_sum(m):
    """so(3)^(+m): m commuting copies of [e0, e1] = e2, [e1, e2] = e0, [e2, e0] = e1."""
    d = 3 * m
    table = {}
    for i in range(0, d, 3):
        for args, (j, c) in (((i, i + 1), (i + 2, 1)), ((i + 1, i + 2), (i, 1)),
                             ((i, i + 2), (i + 1, -1))):
            table[args] = tuple(c if l == j else 0 for l in range(d))
    return NHomAlgebra(2, d, (0,) * d, table, Mat.identity(d), name=f"so3x{m}")


def test_zder_reads_its_value_equation_over_sorted_tuples():
    # so(3)^(+4) at k = 0, xi = 0: the slot equation [D e_{t_0}, e_{t_1}] = 0
    # singles out slot 0 and gives 288 rows over all 144 tuples; D [e_t] = 0
    # is symmetric in all of t and gives 288 rows over every tuple (12 per
    # ordered pair in one block) but 144 over the sorted ones
    alg = so3_sum(4)
    full, nblocks, pos = _rows(alg, Kind.ZDER, 0, 0)
    full = list(full)
    reduced = list(_rows(alg, Kind.ZDER, 0, 0, reduced=True)[0])
    assert (len(full), len(reduced)) == (576, 432)
    width = nblocks * len(pos)
    assert kernel(reduced, width) == kernel(full, width)
    assert solve(alg, Kind.ZDER, 0, 0).dim == 0


@pytest.mark.parametrize("kind", TUPLE_KINDS, ids=str)
@pytest.mark.parametrize("name", NAMES)
def test_rows_over_representatives_are_the_full_rows_of_those_tuples(name, kind, monkeypatch):
    # the full path is pinned to the Fraction reference above; for each
    # equation on its own, fed only its representative tuples in product
    # order, it must give the reduced stream
    alg = ALGEBRAS[name]
    nblocks, equations = _EQUATIONS[kind](alg.arity)
    if kind is Kind.GDER:
        assert [eq.sorted_from for eq in equations] == [alg.arity]
    for eq in equations:
        reps = [t for t in product(range(alg.dim), repeat=alg.arity)
                if is_representative(t, eq.sorted_from)]
        for k, xi in product(range(3), (0, 1)):
            with monkeypatch.context() as m:
                m.setitem(solver._EQUATIONS, kind, lambda n: (nblocks, [eq]))
                reduced = list(_rows(alg, kind, k, xi, reduced=True)[0])
                m.setattr(solver, "_tuples", lambda d, n, start: iter(reps))
                expected = list(_rows(alg, kind, k, xi)[0])
            assert reduced == expected, (k, xi)
            if kind is Kind.GDER:
                assert reduced == list(_rows(alg, kind, k, xi)[0]), (k, xi)
    # all equations together: offered every tuple, each equation's own
    # filter keeps the stream that the representatives alone give
    for k, xi in product(range(3), (0, 1)):
        reduced = list(_rows(alg, kind, k, xi, reduced=True)[0])
        with monkeypatch.context() as m:
            m.setattr(solver, "_tuples", lambda d, n, start: product(range(d), repeat=n))
            assert list(_rows(alg, kind, k, xi, reduced=True)[0]) == reduced, (k, xi)


def test_odd_alpha_is_solved_over_every_tuple():
    # the tuple symmetry needs an even alpha; solve does not validate, so an
    # input with an odd alpha entry keeps the answer of the full system
    alpha = Mat.from_rows([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    alg = NHomAlgebra(3, 3, (0, 1, 1), {(0, 1, 2): (0, 0, -1)}, alpha)
    rows, nblocks, pos = _rows(alg, Kind.QDER, 1, 0)
    width = nblocks * len(pos)
    full = kernel(rows, width)
    assert kernel(_rows(alg, Kind.QDER, 1, 0, reduced=True)[0], width) != full
    npos = len(pos)
    projected = SubspaceBasis.span(npos, [v[:npos] for v in full])
    space = solve(alg, Kind.QDER, 1, 0)
    assert SubspaceBasis.span(npos, [[g.mat.ints[0][r][c] for r, c in pos]
                                     for g in space.basis]) == projected
