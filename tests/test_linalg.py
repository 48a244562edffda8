from fractions import Fraction
from math import gcd

import hypothesis.strategies as st
from hypothesis import given

from nhomlie.linalg import (
    Mat,
    SubspaceBasis,
    contains,
    extend_to_complement,
    nullspace,
    rref,
    subspace_intersect,
    subspace_sum,
    unit_vector,
    vector,
)

F = Fraction

rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


def small_matrix(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(rationals, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(Mat.from_rows)
        )
    )


def test_rref_proportional_rows():
    m = Mat.from_rows([[1, 2], [2, 4]])
    res = rref(m)
    assert res.rank == 1
    assert res.pivots == (0,)


def test_rref_identity_fixed_point():
    m = Mat.identity(3)
    res = rref(m)
    assert res.reduced == m
    assert res.rank == 3


def test_rref_swaps_rows():
    m = Mat.from_rows([[0, 1], [1, 0]])
    res = rref(m)
    assert res.reduced == Mat.identity(2)
    assert res.rank == 2


def test_nullspace_zero_map():
    assert nullspace(Mat.zero(2, 3)).dim == 3


def test_nullspace_injective_map():
    assert nullspace(Mat.identity(3)).dim == 0


def test_nullspace_single_relation():
    ns = nullspace(Mat.from_rows([[1, 1]]))
    assert ns.vectors == (vector([1, -1]),)


def test_sum_of_axes_is_plane():
    e1 = SubspaceBasis.span(2, [unit_vector(2, 0)])
    e2 = SubspaceBasis.span(2, [unit_vector(2, 1)])
    assert subspace_sum(e1, e2) == SubspaceBasis.full(2)


def test_sum_idempotent():
    v = SubspaceBasis.span(3, [vector([1, 2, 3]), vector([0, 1, 1])])
    assert subspace_sum(v, v) == v


def test_sum_of_two_lines():
    a = SubspaceBasis.span(3, [vector([1, 1, 0])])
    b = SubspaceBasis.span(3, [vector([1, -1, 0])])
    s = subspace_sum(a, b)
    assert s == SubspaceBasis.span(3, [unit_vector(3, 0), unit_vector(3, 1)])


def test_intersect_axes_trivial():
    e1 = SubspaceBasis.span(2, [unit_vector(2, 0)])
    e2 = SubspaceBasis.span(2, [unit_vector(2, 1)])
    assert subspace_intersect(e1, e2).dim == 0


def test_intersect_self():
    v = SubspaceBasis.span(3, [vector([1, 2, 3]), vector([0, 1, 1])])
    assert subspace_intersect(v, v) == v


def test_intersect_planes():
    a = SubspaceBasis.span(3, [unit_vector(3, 0), unit_vector(3, 1)])
    b = SubspaceBasis.span(3, [vector([1, 1, 0]), vector([0, 0, 1])])
    assert subspace_intersect(a, b) == SubspaceBasis.span(3, [vector([1, 1, 0])])


def test_contains_zero_and_units():
    line = SubspaceBasis.span(2, [unit_vector(2, 0)])
    assert contains(line, vector([0, 0]))
    assert not contains(line, unit_vector(2, 1))
    diag = SubspaceBasis.span(2, [vector([1, 1])])
    assert contains(diag, vector([2, 2]))


def test_extend_complement_examples():
    zero = SubspaceBasis.zero(2)
    assert extend_to_complement(zero, [0, 1]) == SubspaceBasis.full(2)
    assert extend_to_complement(SubspaceBasis.full(2), [0, 1]).dim == 0
    diag = SubspaceBasis.span(2, [vector([1, 1])])
    assert extend_to_complement(diag, [0, 1]) == SubspaceBasis.span(2, [unit_vector(2, 0)])


def test_extend_complement_rejects_unsupported_inner():
    import pytest

    line = SubspaceBasis.span(3, [vector([1, 0, 1])])
    with pytest.raises(ValueError):
        extend_to_complement(line, [0, 1])


@given(small_matrix())
def test_rank_nullity(m):
    res = rref(m)
    assert res.rank + nullspace(m).dim == m.cols


@given(small_matrix())
def test_nullspace_vectors_are_exact_solutions(m):
    # independent verification: plain matrix-vector products
    for v in nullspace(m).vectors:
        assert all(x == 0 for x in m.apply(v))


@given(small_matrix())
def test_rref_row_space_preserved(m):
    res = rref(m)
    orig = SubspaceBasis.span(m.cols, m.entries)
    red = SubspaceBasis.span(m.cols, res.reduced.entries)
    assert orig == red


@given(st.data())
def test_dimension_formula(data):
    n = data.draw(st.integers(1, 4))
    vecs = st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=0, max_size=4)
    a = SubspaceBasis.span(n, data.draw(vecs))
    b = SubspaceBasis.span(n, data.draw(vecs))
    s = subspace_sum(a, b)
    i = subspace_intersect(a, b)
    assert a.dim + b.dim == s.dim + i.dim
    for v in i.vectors:
        assert contains(a, v) and contains(b, v)


@given(st.data())
def test_canonical_form_is_representation_independent(data):
    n = data.draw(st.integers(1, 4))
    vecs = data.draw(
        st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=1, max_size=3)
    )
    a = SubspaceBasis.span(n, vecs)
    # rescale and add linear combinations: same subspace, same value
    mixed = [tuple(2 * x for x in vecs[0])]
    for v in vecs[1:]:
        mixed.append(tuple(x + y for x, y in zip(v, vecs[0])))
    b = SubspaceBasis.span(n, mixed + list(vecs))
    assert a == b


@given(st.data())
def test_complement_direct_sum(data):
    n = data.draw(st.integers(1, 5))
    allowed = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=0, max_size=n)))
    coords = st.lists(rationals, min_size=len(allowed), max_size=len(allowed))
    raw = data.draw(st.lists(coords, min_size=0, max_size=3))
    embedded = []
    for row in raw:
        v = [F(0)] * n
        for idx, x in zip(allowed, row):
            v[idx] = x
        embedded.append(tuple(v))
    inner = SubspaceBasis.span(n, embedded)
    comp = extend_to_complement(inner, allowed)
    assert inner.dim + comp.dim == len(allowed)
    assert subspace_intersect(inner, comp).dim == 0


# ---------------------------------------------------------------------------
# differential tests of the integer kernel against plain Fraction loops
# ---------------------------------------------------------------------------

mixed_rationals = st.builds(F, st.integers(-9, 9), st.integers(1, 12))


def grid(rows, cols):
    return st.lists(st.lists(mixed_rationals, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def ref_matmul(a, b, inner, cols):
    return [[sum((row[k] * b[k][j] for k in range(inner)), F(0)) for j in range(cols)]
            for row in a]


@given(st.data())
def test_matmul_matches_triple_loop(data):
    r, m, c = (data.draw(st.integers(0, 4)) for _ in range(3))
    a, b = data.draw(grid(r, m)), data.draw(grid(m, c))
    prod = Mat.from_rows(a, cols=m) @ Mat.from_rows(b, cols=c)
    assert (prod.rows, prod.cols) == (r, c)
    assert prod.entries == tuple(tuple(row) for row in ref_matmul(a, b, m, c))


@given(st.data())
def test_linear_operations_match_entrywise_arithmetic(data):
    r, c = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    a, b = data.draw(grid(r, c)), data.draw(grid(r, c))
    s = data.draw(mixed_rationals)
    ma, mb = Mat.from_rows(a, cols=c), Mat.from_rows(b, cols=c)
    assert (ma + mb).entries == tuple(tuple(x + y for x, y in zip(u, v)) for u, v in zip(a, b))
    assert (ma - mb).entries == tuple(tuple(x - y for x, y in zip(u, v)) for u, v in zip(a, b))
    assert ma.scale(s).entries == tuple(tuple(s * x for x in u) for u in a)
    assert (-ma).entries == tuple(tuple(-x for x in u) for u in a)
    assert ma.is_zero() == all(x == 0 for u in a for x in u)


@given(st.data())
def test_integer_form_is_the_lcm_form(data):
    r, c = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    a = data.draw(grid(r, c))
    m = Mat.from_rows(a, cols=c)
    nums, den = m.ints
    expected_den = 1
    for x in (x for u in a for x in u):
        expected_den = expected_den * x.denominator // gcd(expected_den, x.denominator)
    assert den == expected_den
    assert tuple(tuple(F(n, den) for n in u) for u in nums) == m.entries
    # a product keeps the same canonical form as a matrix built from its entries
    prod = m @ Mat.identity(c)
    assert prod.ints == Mat(r, c, prod.entries).ints


def test_identity_detection():
    assert Mat.identity(3).is_identity()
    assert Mat.identity(0).is_identity()
    assert not Mat.from_rows([[1, 0], [0, 2]]).is_identity()
    assert not Mat.from_rows([[1, 0, 0], [0, 1, 0]]).is_identity()
