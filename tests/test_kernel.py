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
Those rows, read only on the tuples a term reaches, are compared row for
row with the nonzero rows of a walk over every tuple, on these algebras
and on drawn ones.
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
from itertools import combinations_with_replacement, product
from math import lcm

import hypothesis.strategies as st
import pytest
from conftest import apply, basis_value, col, dense, mixed_change, span, sparse
from hypothesis import example, given, settings

from nhomlie import algebra, solver
from nhomlie.algebra import (
    NHomAlgebra,
    bracket,
    is_homogeneous,
    opened_tensor,
    summed_slot_terms,
    transport,
)
from nhomlie.extension import build_check
from nhomlie.fixtures import aff1, homaff1, super2, threeLie4
from nhomlie.linalg import Mat, kernel
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


def ref_rows(name, kind, k, xi, reduced=False):
    """``(equation rows, commutation rows)`` of ``kind`` in ``Fraction`` arithmetic.

    The order is that of the solver's rows: tuple, equation, component, then
    the commutation rows of each block; unknowns are the blocks' allowed
    positions.  Zero rows are dropped.  With ``reduced``, each equation is
    read only on the tuples weakly increasing from its ``sorted_from`` slot
    on.
    """
    alg = ALGEBRAS[name]
    d, n = alg.dim, alg.arity
    nblocks, equations = _EQUATIONS[kind](n)
    pos = allowed_positions(alg.parity, xi)
    width = nblocks * len(pos)
    eq_rows = []
    for t in product(range(d), repeat=n):
        for eq in equations:
            if reduced and not is_representative(t, eq.sorted_from):
                continue
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
                (k, xi, g.mat)


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
            terms = summed_slot_terms(alg, k, xi, m.nz, weights)
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
    # row over den(alpha); _rows reads each equation on its representatives
    # (alpha is even here), and the walk over every tuple reads them all
    alg = ALGEBRAS[name]
    assert is_homogeneous(alg.parity, 0, alg.alpha)
    tden = lcm(1, *(x.denominator for value in alg.table.values() for x in value))
    aden = lcm(1, *(x.denominator for row in alg.alpha.entries for x in row))
    for k, xi in product(range(3), (0, 1)):
        kden = lcm(1, *(x.denominator for row in alg.alpha_power(k).entries for x in row))
        factor = tden * kden ** (alg.arity - 1)
        for rows, reduced in ((list(_rows(alg, kind, k, xi)[0]), True),
                              (walked_rows(alg, kind, k, xi), False)):
            eq_rows, comm_rows = ref_rows(name, kind, k, xi, reduced)
            expected = ([sparse([x * factor for x in row]) for row in eq_rows] +
                        [sparse([x * aden for x in row]) for row in comm_rows])
            assert all(type(j) is int and type(x) is int for row in rows for j, x in row)
            # the same nonzero entries at the same columns, in the same rows
            assert [sorted(row) for row in rows] == expected, (k, xi, reduced)


@pytest.mark.parametrize("kind", TUPLE_KINDS, ids=str)
@pytest.mark.parametrize("name", ["threeLie4", "homheis4", "superheis3"])
def test_rows_evaluate_no_bracket(name, kind, monkeypatch):
    # slot terms are read from the opened tensors' indexes, so no bracket is
    # evaluated, and every k and xi of one algebra reads the same index of
    # each (k, s), which lists exactly the entries of the opened tensor (the
    # tensor itself when alpha^k is the identity) by their other slots
    source = ALGEBRAS[name]
    alg = NHomAlgebra(source.arity, source.dim, source.parity, source.table, source.alpha)
    real_bracket, real_index = algebra.bracket, solver.opened_index
    brackets, indexes = [], {}
    monkeypatch.setattr(algebra, "bracket", lambda *a: brackets.append(a) or real_bracket(*a))

    def opened_index(given, k, s):
        out = real_index(given, k, s)
        indexes.setdefault((k, s), []).append(out)
        return out

    monkeypatch.setattr(solver, "opened_index", opened_index)
    for k, xi in product(range(3), (0, 1)):
        list(_rows(alg, kind, k, xi)[0])
    assert brackets == []
    assert indexes
    for (k, s), got in indexes.items():
        assert all(x is got[0] for x in got), (k, s)
        entries = sorted((other[:s] + (j,) + other[s:], value)
                         for other, pairs in got[0].items() for j, value in pairs)
        opened = opened_tensor(alg, k, s)
        assert entries == list(opened.items()), (k, s)
        assert (opened is alg.tensor[0]) == alg.alpha_power(k).is_identity(), (k, s)


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
    assert is_homogeneous(alg.parity, 0, alg.alpha)
    for k, xi in product(range(3), (0, 1)):
        reduced, nblocks, pos = _rows(alg, kind, k, xi)
        reduced = list(reduced)
        full = walked_rows(alg, kind, k, xi)
        width = nblocks * len(pos)
        assert span(width, [dense(row, width) for row in reduced]) == \
            span(width, [dense(row, width) for row in full]), (k, xi)
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
    reduced, nblocks, pos = _rows(alg, Kind.ZDER, 0, 0)
    reduced = list(reduced)
    full = walked_rows(alg, Kind.ZDER, 0, 0)
    assert (len(full), len(reduced)) == (576, 432)
    width = nblocks * len(pos)
    assert kernel(reduced, width) == kernel(full, width)
    assert solve(alg, Kind.ZDER, 0, 0).dim == 0


def walked_rows(alg, kind, k, xi, tuples=None, reduced=False):
    """The rows of ``kind`` from a walk over ``tuples`` (every tuple, in
    product order, by default), each slot term looked up in the opened
    tensor entry by entry and zero rows left out, followed by the
    commutation rows.  With ``reduced``, each equation is read only on the
    tuples weakly increasing from its ``sorted_from`` slot on."""
    d, n = alg.dim, alg.arity
    nblocks, equations = _EQUATIONS[kind](n)
    pos = allowed_positions(alg.parity, xi)
    npos = len(pos)
    posidx = {rc: m for m, rc in enumerate(pos)}
    values = alg.tensor[0]
    lift = alg.alpha_power(k).den ** (n - 1)
    rows = []
    for t in product(range(d), repeat=n) if tuples is None else tuples:
        for eq in equations:
            if reduced and not is_representative(t, eq.sorted_from):
                continue
            comps = [{} for _ in range(d)]
            for b, s, c in eq.terms:
                if s is VALUE:
                    terms = [(l, (l, j), c * v * lift)
                             for j, v in values.get(t, ()) for l in range(d)]
                else:
                    w = -c if xi and sum(alg.parity[i] for i in t[:s]) % 2 else c
                    opened = opened_tensor(alg, k, s)
                    terms = [(l, (j, t[s]), w * x) for j in range(d)
                             for l, x in opened.get(t[:s] + (j,) + t[s + 1:], ())]
                for l, rc, x in terms:
                    if rc in posidx:
                        col = b * npos + posidx[rc]
                        comps[l][col] = comps[l].get(col, 0) + x
            rows += [row for row in ([(col, x) for col, x in comp.items() if x]
                                     for comp in comps) if row]
    for b in range(nblocks):
        rows += solver._commutation_rows(alg, posidx, b * npos)
    return rows


@pytest.mark.parametrize("kind", TUPLE_KINDS, ids=str)
@pytest.mark.parametrize("name", NAMES)
def test_rows_over_representatives_are_the_full_rows_of_those_tuples(name, kind, monkeypatch):
    # the walks are pinned to the Fraction reference above; for each
    # equation on its own, walked over its representative tuples only in
    # product order, it must give the stream of _rows (alpha is even here)
    alg = ALGEBRAS[name]
    assert is_homogeneous(alg.parity, 0, alg.alpha)
    nblocks, equations = _EQUATIONS[kind](alg.arity)
    if kind is Kind.GDER:
        assert [eq.sorted_from for eq in equations] == [alg.arity]
    for eq in equations:
        reps = [t for t in product(range(alg.dim), repeat=alg.arity)
                if is_representative(t, eq.sorted_from)]
        for k, xi in product(range(3), (0, 1)):
            with monkeypatch.context() as m:
                m.setitem(solver._EQUATIONS, kind, lambda n: (nblocks, [eq]))
                reduced = list(_rows(alg, kind, k, xi)[0])
                assert reduced == walked_rows(alg, kind, k, xi, reps), (k, xi)
            if kind is Kind.GDER:
                assert reduced == walked_rows(alg, kind, k, xi), (k, xi)
    # all equations together: offered every tuple, each equation's own
    # filter keeps the stream that the representatives alone give
    for k, xi in product(range(3), (0, 1)):
        assert list(_rows(alg, kind, k, xi)[0]) == \
            walked_rows(alg, kind, k, xi, reduced=True), (k, xi)


def assert_reached_rows_are_the_walked_rows(alg, kind):
    # representatives when alpha is even, every tuple when it is not
    reduced = is_homogeneous(alg.parity, 0, alg.alpha)
    for k, xi in product(range(3), (0, 1)):
        assert list(_rows(alg, kind, k, xi)[0]) == \
            walked_rows(alg, kind, k, xi, reduced=reduced), (k, xi, reduced)


@pytest.mark.parametrize("kind", TUPLE_KINDS, ids=str)
@pytest.mark.parametrize("name", sorted(ORBIT_ALGEBRAS))
def test_reached_tuples_give_the_full_walks_nonzero_rows(name, kind):
    # _rows visits only the tuples its terms reach; its stream must be the
    # walk over every tuple with the zero rows left out, row for row
    assert_reached_rows_are_the_walked_rows(ORBIT_ALGEBRAS[name], kind)


@st.composite
def drawn_algebras(draw):
    """Mixed-parity algebras with n <= 4 and d^n <= 256, bracketless or with
    a few drawn brackets, and an identity, even invertible, even singular or
    odd alpha.  They need not satisfy the axioms: the row stream is read
    off the tensor whatever it holds."""
    n = draw(st.integers(2, 4))
    d = draw(st.integers(1, 4))
    parity = draw(st.lists(st.integers(0, 1), min_size=d, max_size=d))
    keys = list(combinations_with_replacement(range(d), n))
    value = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    table = {key: draw(value) for key in draw(st.lists(st.sampled_from(keys), max_size=4))}
    style = draw(st.sampled_from(["identity", "invertible", "singular", "odd"]))
    entry = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))
    grid = [[F(int(r == c)) for c in range(d)] for r in range(d)]
    if style != "identity":
        for r, c in product(range(d), repeat=2):
            if style == "odd" or parity[r] == parity[c]:
                if style != "invertible" or r < c:
                    grid[r][c] = draw(entry)
                elif r == c:
                    grid[r][c] = draw(entry.filter(bool))
        if style == "singular":
            grid[draw(st.integers(0, d - 1))] = [F(0)] * d
    return NHomAlgebra(n, d, parity, table, Mat.from_rows(grid), name=style)


def odd_alpha_algebra():
    """A ternary algebra whose alpha has an odd entry, so it is not even."""
    alpha = Mat.from_rows([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    return NHomAlgebra(3, 3, (0, 1, 1), {(0, 1, 2): (0, 0, -1)}, alpha, name="odd")


@settings(max_examples=25, deadline=None)
@given(alg=drawn_algebras())
@example(alg=odd_alpha_algebra())
@pytest.mark.parametrize("kind", TUPLE_KINDS, ids=str)
def test_reached_tuples_give_the_full_walks_nonzero_rows_on_drawn_algebras(kind, alg):
    assert_reached_rows_are_the_walked_rows(alg, kind)


def test_odd_alpha_is_solved_over_every_tuple():
    # the tuple symmetry needs an even alpha; solve does not validate, so an
    # input with an odd alpha entry keeps the answer of the full system
    alg = odd_alpha_algebra()
    rows, nblocks, pos = _rows(alg, Kind.QDER, 1, 0)
    width = nblocks * len(pos)
    full = kernel(rows, width)
    assert kernel(walked_rows(alg, Kind.QDER, 1, 0, reduced=True), width) != full
    npos = len(pos)
    projected = span(npos, [dense(v, width)[:npos] for v in full])
    space = solve(alg, Kind.QDER, 1, 0)
    assert span(npos, [[g.mat.entries[r][c] for r, c in pos]
                                     for g in space.basis]) == projected
