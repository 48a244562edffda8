import dataclasses
from bisect import bisect
from fractions import Fraction
from itertools import compress
from math import gcd

import hypothesis.strategies as st
import pytest
from conftest import (
    apply, dense, dense_product_sum, full_space, grid_linear_combination, grid_mat, grid_matmul,
    grid_plus, grid_scale, grid_transpose, int_grid, is_subspace_of, mixed_change, nullspace,
    pairs, rref, span, sparse, subspace_intersect, unit_vector, vectors, widened,
)
from hypothesis import given, settings

from nhomlie.algebra import NHomAlgebra, center, invert, is_alpha_surjective, transport
from nhomlie.fixtures import FIXTURES
from nhomlie.linalg import (
    Mat,
    _grown,
    _insert,
    SubspaceBasis,
    commutes_with,
    contains,
    extend_to_complement,
    kernel,
    linear_combination,
    product_sum,
    subspace_sum,
    vector,
)

F = Fraction
ZERO = F(0)

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
    assert vectors(ns) == (vector([1, -1]),)


def test_sum_of_axes_is_plane():
    e1 = span(2, [unit_vector(2, 0)])
    e2 = span(2, [unit_vector(2, 1)])
    assert subspace_sum(e1, e2) == full_space(2)


def test_sum_idempotent():
    v = span(3, [vector([1, 2, 3]), vector([0, 1, 1])])
    assert subspace_sum(v, v) == v


def test_sum_of_two_lines():
    a = span(3, [vector([1, 1, 0])])
    b = span(3, [vector([1, -1, 0])])
    s = subspace_sum(a, b)
    assert s == span(3, [unit_vector(3, 0), unit_vector(3, 1)])


def test_intersect_axes_trivial():
    e1 = span(2, [unit_vector(2, 0)])
    e2 = span(2, [unit_vector(2, 1)])
    assert subspace_intersect(e1, e2).dim == 0


def test_intersect_self():
    v = span(3, [vector([1, 2, 3]), vector([0, 1, 1])])
    assert subspace_intersect(v, v) == v


def test_intersect_planes():
    a = span(3, [unit_vector(3, 0), unit_vector(3, 1)])
    b = span(3, [vector([1, 1, 0]), vector([0, 0, 1])])
    assert subspace_intersect(a, b) == span(3, [vector([1, 1, 0])])


def test_contains_zero_and_units():
    line = span(2, [unit_vector(2, 0)])
    assert contains(line, pairs(vector([0, 0])))
    assert not contains(line, pairs(unit_vector(2, 1)))
    diag = span(2, [vector([1, 1])])
    assert contains(diag, pairs(vector([2, 2])))


def test_extend_complement_examples():
    zero = SubspaceBasis.zero(2)
    assert extend_to_complement(zero, [0, 1]) == full_space(2)
    assert extend_to_complement(full_space(2), [0, 1]).dim == 0
    diag = span(2, [vector([1, 1])])
    assert extend_to_complement(diag, [0, 1]) == span(2, [unit_vector(2, 0)])


def test_extend_complement_rejects_unsupported_inner():
    import pytest

    line = span(3, [vector([1, 0, 1])])
    with pytest.raises(ValueError):
        extend_to_complement(line, [0, 1])


@given(small_matrix())
def test_rank_nullity(m):
    res = rref(m)
    assert res.rank + nullspace(m).dim == m.cols


@given(small_matrix())
def test_nullspace_vectors_are_exact_solutions(m):
    # independent verification: plain matrix-vector products
    for v in vectors(nullspace(m)):
        assert not any(apply(m, v))


@given(small_matrix())
def test_rref_row_space_preserved(m):
    res = rref(m)
    orig = span(m.cols, m.entries)
    red = span(m.cols, res.reduced.entries)
    assert orig == red


@given(st.data())
def test_dimension_formula(data):
    n = data.draw(st.integers(1, 4))
    vecs = st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=0, max_size=4)
    a = span(n, data.draw(vecs))
    b = span(n, data.draw(vecs))
    s = subspace_sum(a, b)
    i = subspace_intersect(a, b)
    assert a.dim + b.dim == s.dim + i.dim
    for v in vectors(i):
        assert contains(a, pairs(v)) and contains(b, pairs(v))


@given(st.data())
def test_canonical_form_is_representation_independent(data):
    n = data.draw(st.integers(1, 4))
    vecs = data.draw(
        st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=1, max_size=3)
    )
    a = span(n, vecs)
    # rescale and add linear combinations: same subspace, same value
    mixed = [tuple(2 * x for x in vecs[0])]
    for v in vecs[1:]:
        mixed.append(tuple(x + y for x, y in zip(v, vecs[0])))
    b = span(n, mixed + list(vecs))
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
    inner = span(n, embedded)
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


@st.composite
def shaped_matrices(draw, rows, cols):
    """rows x cols rational matrices over mixed denominators, negative entries
    included: zero, with one nonzero entry, or dense."""
    shape = draw(st.sampled_from(["zero", "single", "dense"]))
    if shape == "dense":
        return Mat.from_rows(draw(grid(rows, cols)), cols=cols)
    entries = [[F(0)] * cols for _ in range(rows)]
    if shape == "single" and rows and cols:
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        entries[i][j] = draw(mixed_rationals.filter(bool))
    return Mat.from_rows(entries, cols=cols)


@given(st.data())
def test_product_sum_matches_the_dense_grid_loop(data):
    # sign 0 is the plain product; odd-odd Jordan products take sign -1
    n = data.draw(st.integers(0, 5))
    a, b = data.draw(shaped_matrices(n, n)), data.draw(shaped_matrices(n, n))
    sign, divisor = data.draw(st.sampled_from([-1, 0, 1])), data.draw(st.integers(1, 3))
    expected = dense_product_sum(a, b, sign, divisor)
    got = product_sum(a, b, sign, divisor)
    assert got == expected and (got.nz, got.den) == (expected.nz, expected.den)
    assert hash(got) == hash(expected)
    assert commutes_with(a, b) == (product_sum(a, b, -1) == Mat.zero(n, n)) == \
        (grid_matmul(a, b) == grid_matmul(b, a))


def _same_value(got, want):
    """``got`` and ``want`` are one value: equal, with equal hashes, stored rows and readings."""
    assert got == want and hash(got) == hash(want)
    assert (got.rows, got.cols, got.nz, got.den) == (want.rows, want.cols, want.nz, want.den)
    grid, den = int_grid(got)
    assert (grid, den) == int_grid(want)
    assert got.entries == tuple(tuple(F(x, den) for x in row) for row in grid) == want.entries
    # column-major index order, read off the grid column by column
    assert got.vec_pairs() == tuple((c * got.rows + r, row[c]) for c in range(got.cols)
                                    for r, row in enumerate(grid) if row[c])


@pytest.mark.parametrize("shape", [(0, 0, 0), (0, 3, 2), (2, 3, 0), (3, 0, 2), (1, 1, 1), None],
                         ids=["empty", "no_rows", "no_cols", "no_inner", "one", "drawn"])
@given(data=st.data())
def test_row_form_matches_the_dense_grid_reference(shape, data):
    # (r, m, c): a is r x m and b is m x c
    r, m, c = shape or data.draw(st.tuples(*[st.integers(0, 4)] * 3))
    a, b = data.draw(shaped_matrices(r, m)), data.draw(shaped_matrices(m, c))
    _same_value(a @ b, grid_matmul(a, b))  # non-square whenever r, m, c differ
    _same_value(a.transpose(), grid_transpose(a))
    same = data.draw(shaped_matrices(r, m))
    for sign, op in ((1, Mat.__add__), (-1, Mat.__sub__)):
        _same_value(op(a, same), grid_plus(a, same, sign))
    s = data.draw(mixed_rationals)
    _same_value(a.scale(s), grid_scale(a, s))
    _same_value(-a, grid_scale(a, -1))
    mats = [a, same] + data.draw(st.lists(shaped_matrices(r, m), max_size=3))
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(mats), max_size=len(mats)))
    _same_value(linear_combination(coeffs, mats), grid_linear_combination(coeffs, mats))
    # every route to one value gives the same matrix
    grid_a, den = int_grid(a)
    routes = [Mat.from_rows(a.entries, cols=m), a @ Mat.identity(m), Mat.identity(r) @ a,
              grid_mat(r, m, grid_a, den), a.transpose().transpose()]
    if r == m:
        routes.append(Mat.from_vec_pairs(r, a.vec_pairs(), a.den))
    for other in routes:
        _same_value(other, a)


def test_sum_and_difference_refuse_a_shape_mismatch():
    for op in (Mat.__add__, Mat.__sub__):
        with pytest.raises(ValueError, match="shape mismatch"):
            op(Mat.zero(1, 2), Mat.zero(2, 1))


@given(st.data())
def test_integer_form_is_the_lcm_form(data):
    r, c = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    a = data.draw(grid(r, c))
    m = Mat.from_rows(a, cols=c)
    nums, den = int_grid(m)
    expected_den = 1
    for x in (x for u in a for x in u):
        expected_den = expected_den * x.denominator // gcd(expected_den, x.denominator)
    assert den == expected_den
    assert tuple(tuple(F(n, den) for n in u) for u in nums) == m.entries
    # a product keeps the same canonical form as a matrix built from its entries
    prod = m @ Mat.identity(c)
    assert (prod.nz, prod.den) == (m.nz, m.den)


@given(st.data())
def test_equal_values_compare_and_hash_equal_across_construction_paths(data):
    r, c = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    a = data.draw(grid(r, c))
    g = data.draw(st.integers(2, 30))
    m = Mat.from_rows(a, cols=c)
    same = (
        Mat(r, c, tuple(tuple((j, g * x) for j, x in row) for row in m.nz), g * m.den),
        m @ Mat.identity(c),
        m.scale(g) @ Mat.identity(c).scale(F(1, g)),
        Mat.from_rows(m.entries, cols=c),
    )
    for other in same:
        assert other == m and hash(other) == hash(m) and (other.nz, other.den) == (m.nz, m.den)
        assert other.entries == tuple(tuple(row) for row in a)
    assert (m.scale(g) == m) == m.is_zero()


@given(st.data())
def test_a_stored_hash_stays_the_hash_of_the_value(data):
    # the hash is stored on first use; reading ``entries`` before or after it
    # does not change it, and equal matrices still make one dictionary key
    r, c = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    a = data.draw(grid(r, c))
    first, second, third = (Mat.from_rows(a, cols=c) for _ in range(3))
    before = hash(first)
    assert first.entries == second.entries
    assert hash(first) == before == hash(second) == hash(Mat.from_rows(first.entries, cols=c))
    assert hash(third) == before
    assert before == hash((r, c, first.nz, first.den))
    assert len({first, second, third, Mat(r, c, first.nz, first.den)}) == 1
    # the stored hash is no field: equality and repr read the value alone
    assert [f.name for f in dataclasses.fields(Mat)] == ["rows", "cols", "nz", "den"]
    assert repr(first) == repr(Mat(r, c, first.nz, first.den))


def test_a_matrix_needs_a_positive_denominator():
    with pytest.raises(ValueError):
        Mat(1, 1, (((0, 1),),), 0)
    with pytest.raises(ValueError):
        Mat(1, 1, (((0, 1),),), -2)
    with pytest.raises(ValueError):
        Mat(1, 2, (((0, 1),), ()), 1)


@pytest.mark.parametrize("rows, cols, nz, den", [
    (2, 2, (((0, 1),),), 1),  # one row short
    (1, 2, (((0, 1),), ()), 1),  # one row too many
    (1, 2, (((-1, 1),),), 1),  # a negative column
    (1, 2, (((2, 1),),), 1),  # a column past the last
    (1, 3, (((1, 1), (0, 2)),), 1),  # columns decreasing
    (1, 3, (((1, 1), (1, 2)),), 1),  # a column repeated
    (1, 2, (((0, 0),),), 1),  # a zero value
    (1, 2, (((0, F(1, 2)),),), 1),  # a value that is no int
    (1, 2, (((0, True),),), 1),  # a bool, which is no int value
    (1, 2, (((F(0), 1),),), 1),  # a column that is no int
    (1, 2, (((0, 1, 2),),), 1),  # a pair of three
    (1, 2, ([(0, 1)],), 1),  # a row that is no tuple
    (1, 2, (((0, 1),),), 0),  # a zero denominator
    (1, 2, (((0, 1),),), -3),  # a negative denominator
    (1, 2, (((0, 1),),), F(2)),  # a denominator that is no int
], ids=["short", "long", "negative_col", "col_past_end", "cols_decreasing", "col_repeated",
        "zero_value", "fraction_value", "bool_value", "fraction_col", "triple", "list_row",
        "den_zero", "den_negative", "den_fraction"])
def test_the_constructor_rejects_malformed_rows(rows, cols, nz, den):
    with pytest.raises(ValueError):
        Mat(rows, cols, nz, den)


def test_identity_detection():
    assert Mat.identity(3).is_identity()
    assert Mat.identity(0).is_identity()
    assert not Mat.from_rows([[1, 0], [0, 2]]).is_identity()
    assert not Mat.from_rows([[1, 0, 0], [0, 1, 0]]).is_identity()


# ---------------------------------------------------------------------------
# differential tests of the one-elimination bases against the two-elimination
# reference: reduced rows built as Fractions, a nullspace from them, then a
# second elimination of that nullspace to make it canonical
# ---------------------------------------------------------------------------

def ref_int_row(row):
    den = 1  # ints and Fractions alike have a numerator and a denominator
    for x in row:
        den = den * x.denominator // gcd(den, x.denominator)
    out = [x.numerator * (den // x.denominator) for x in row]
    g = gcd(*out) if out else 0
    return [x // g for x in out] if g > 1 else out


class RefEchelon:
    def __init__(self, width):
        self.width = width
        self.pivots = {}

    def add(self, row):
        row = ref_int_row(row)
        j = next((c for c, x in enumerate(row) if x), None)
        while j is not None and j in self.pivots:
            p = self.pivots[j]
            g = gcd(p[j], row[j])
            am, bm = p[j] // g, row[j] // g
            row = [am * x - bm * y for x, y in zip(row, p)]
            j = next((c for c, x in enumerate(row) if x), None)
        if j is None:
            return
        g = gcd(*row)
        row = [x // g for x in row]
        self.pivots[j] = [-x for x in row] if row[j] < 0 else row

    def rref_rows(self):
        cols = sorted(self.pivots)
        rows = [list(self.pivots[c]) for c in cols]
        for i in range(len(cols) - 1, -1, -1):
            c, prow = cols[i], rows[i]
            for m in range(i):
                b = rows[m][c]
                if b:
                    g = gcd(prow[c], b)
                    row = [prow[c] // g * x - b // g * y for x, y in zip(rows[m], prow)]
                    rows[m] = [x // gcd(*row) for x in row]
        return [(c, tuple(F(x, r[c]) if x else ZERO for x in r)) for c, r in zip(cols, rows)]

    def nullspace_vectors(self):
        reduced = self.rref_rows()
        out = []
        for f in range(self.width):
            if f in self.pivots:
                continue
            v = [F(0)] * self.width
            v[f] = F(1)
            for c, row in reduced:
                if row[f]:
                    v[c] = -row[f]
            out.append(tuple(v))
        return out


def ref_span(width, vectors):
    ech = RefEchelon(width)
    for v in vectors:
        ech.add(v)
    return tuple(row for _, row in ech.rref_rows())


def ref_kernel(rows, width):
    ech = RefEchelon(width)
    for row in rows:
        ech.add(row)
    return ref_span(width, ech.nullspace_vectors())


def ref_intersect(n, a, b):
    ech = RefEchelon(2 * n)
    for v in a:
        ech.add(tuple(v) + tuple(v))
    for v in b:
        ech.add(tuple(v) + (F(0),) * n)
    return ref_span(n, [row[n:] for c, row in ech.rref_rows() if c >= n])


# small entries, so rank deficiency is common, and entries past 2^63, so
# arithmetic leaves native-size ints (multiples of 2^64 share a big factor)
int_entries = st.one_of(st.integers(-3, 3), st.integers(-3, 3),
                        st.integers(-3, 3).map(lambda x: x << 64),
                        st.integers(-(1 << 90), 1 << 90).filter(lambda x: abs(x) > 1 << 63))
rat_entries = st.one_of(int_entries, st.builds(F, st.integers(-9, 9), st.integers(1, 12)))


@st.composite
def row_lists(draw, entries):
    """Rows of one width (possibly 0), with zero rows and rows repeated up to scale."""
    width = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(entries, min_size=width, max_size=width), max_size=6))
    extra = [[0] * width] * draw(st.integers(0, 1))
    for row in draw(st.lists(st.sampled_from(rows), max_size=2)) if rows else []:
        c = draw(st.integers(-4, 4).filter(bool))
        extra.append([c * x for x in row])
    order = draw(st.permutations(range(len(rows) + len(extra))))
    every = rows + extra
    return [every[i] for i in order], width


@given(row_lists(int_entries))
def test_kernel_matches_two_eliminations(case):
    rows, width = case
    assert_reference_kernel(kernel(map(sparse, rows), width), rows, width)


@given(row_lists(int_entries), st.data())
def test_kernel_does_not_depend_on_the_order_of_a_rows_pairs(case, data):
    rows, width = case
    shuffled = [data.draw(st.permutations(sparse(row))) for row in rows]
    # zero values may be left in or out
    padded = [row + [(j, 0) for j in range(width) if not x]
              for row, x in zip(shuffled, data.draw(st.lists(
                  st.integers(0, 1), min_size=len(rows), max_size=len(rows))))]
    assert kernel(shuffled, width) == kernel(padded, width) == kernel(map(sparse, rows), width)


@st.composite
def wide_sparse_systems(draw):
    """Width 300 to 340 and 1 to 3 nonzeros per row, as in the rows of a
    GDer solve on so(3)^(+4); most columns are drawn from a few hot ones,
    so rows meet, and some rows are combinations of earlier ones."""
    width = draw(st.integers(300, 340))
    hot = draw(st.lists(st.integers(0, width - 1), min_size=4, max_size=24, unique=True))
    column = st.one_of(st.sampled_from(hot), st.sampled_from(hot), st.integers(0, width - 1))
    pair = st.tuples(column, st.integers(-3, 3).filter(bool))
    rows = draw(st.lists(st.lists(pair, min_size=1, max_size=3, unique_by=lambda p: p[0]),
                         min_size=1, max_size=40))
    dense_rows = [dense(row, width) for row in rows]
    for i, j, c in draw(st.lists(st.tuples(st.integers(0, len(rows) - 1),
                                           st.integers(0, len(rows) - 1),
                                           st.integers(-2, 2)), max_size=4)):
        dense_rows.append([x + c * y for x, y in zip(dense_rows[i], dense_rows[j])])
    return draw(st.permutations(dense_rows)), width


@settings(max_examples=15)
@given(wide_sparse_systems())
def test_kernel_of_wide_sparse_systems_matches_the_reference(case):
    rows, width = case
    assert_reference_kernel(kernel(map(sparse, rows), width), rows, width)


@st.composite
def narrow_dense_systems(draw):
    """Width 2 to 7, every entry nonzero with 30 to 40 bits, and rows that
    are combinations of earlier ones, so the kernel is often not zero."""
    width = draw(st.integers(2, 7))
    big = st.integers(1 << 29, 1 << 40).flatmap(lambda x: st.sampled_from([x, -x]))
    gens = draw(st.lists(st.lists(big, min_size=width, max_size=width),
                         min_size=1, max_size=width))
    coeffs = st.lists(st.integers(-3, 3), min_size=len(gens), max_size=len(gens))
    extra = [[sum(c * g[j] for c, g in zip(cs, gens)) for j in range(width)]
             for cs in draw(st.lists(coeffs, max_size=3))]
    return draw(st.permutations(gens + extra)), width


@given(narrow_dense_systems())
def test_kernel_of_narrow_dense_systems_with_large_entries_matches_the_reference(case):
    rows, width = case
    assert_reference_kernel(kernel(map(sparse, rows), width), rows, width)


def assert_reference_kernel(basis, rows, width):
    basis = [dense(v, width) for v in basis]
    assert all(next(x for x in v if x) > 0 and gcd(*v) == 1 for v in basis)
    assert tuple(tuple(F(x, next(y for y in v if y)) if x else ZERO for x in v)
                 for v in basis) == \
        ref_kernel(rows, width)
    for row in map(sparse, rows):
        assert all(sum(x * v[j] for j, x in row) == 0 for v in basis)


@st.composite
def tall_systems(draw):
    """Up to three rows per column: generators, then combinations of them.

    Half the draws put an invertible block among the generators, so the
    rows reach full rank and go on; the others keep going at a lower rank.
    """
    width = draw(st.integers(1, 5))
    row = st.lists(int_entries, min_size=width, max_size=width)
    gens = draw(st.lists(row, min_size=1, max_size=width))
    if draw(st.booleans()):
        # upper triangular with a nonzero diagonal, rows in a drawn order
        block = [[0] * i + [draw(st.integers(-3, 3).filter(bool))] + draw(row)[i + 1:]
                 for i in range(width)]
        gens = draw(st.permutations(block + gens[:1]))
    coeffs = st.lists(st.integers(-3, 3), min_size=len(gens), max_size=len(gens))
    extra = [[sum(c * g[j] for c, g in zip(cs, gens)) for j in range(width)]
             for cs in draw(st.lists(coeffs, min_size=1, max_size=3 * width - len(gens)))]
    return gens + extra, width


@given(tall_systems())
def test_kernel_of_tall_systems_matches_the_reference_and_stops_at_full_rank(case):
    rows, width = case
    full = next((i for i in range(len(rows))
                 if len(ref_span(width, rows[:i + 1])) == width), None)

    def stream():
        for i, row in enumerate(rows):
            if full is not None and i > full:
                raise AssertionError(f"row {i} read after full rank at row {full}")
            yield sparse(row)

    assert_reference_kernel(kernel(stream(), width), rows, width)


def test_kernel_stops_at_the_row_that_retires_the_last_free_column():
    def stream():
        yield sparse([0, 1, 1])
        yield sparse([0, 0, 0])
        yield sparse([1, 2, 0])
        yield sparse([0, 2, 2])  # dependent
        yield sparse([0, 0, 5])  # full rank
        raise AssertionError("row read after full rank")

    assert kernel(stream(), 3) == ()
    assert kernel(iter(stream, None), 0) == ()  # nothing is free: no row is read


@st.composite
def blocked_systems(draw, max_blocks=4, full_rank=False, nonzero=False):
    """Columns dealt into up to ``max_blocks`` disjoint blocks, rows drawn
    inside one block each (generators, then combinations of them), and the
    blocks' rows interleaved in a drawn order.  With ``full_rank`` each
    block's generators hold an upper triangular block with a nonzero
    diagonal, so the stream reaches full rank; with ``nonzero`` every
    generator entry is nonzero."""
    width = draw(st.integers(1, 12))
    owner = draw(st.lists(st.integers(0, max_blocks - 1), min_size=width, max_size=width))
    entry = st.integers(-3, 3).filter(bool) if nonzero else st.integers(-3, 3)
    rows = []
    for b in sorted(set(owner)):
        cols = [j for j in range(width) if owner[j] == b]
        row = st.lists(entry, min_size=len(cols), max_size=len(cols))
        gens = draw(st.lists(row, min_size=1, max_size=len(cols)))
        if full_rank:
            gens += [[0] * i + draw(row)[i:] for i in range(len(cols))]
            for i, g in enumerate(gens[-len(cols):]):
                g[i] = g[i] or 1
        coeffs = st.lists(st.integers(-3, 3), min_size=len(gens), max_size=len(gens))
        for values in gens + [[sum(c * g[i] for c, g in zip(cs, gens)) for i in range(len(cols))]
                              for cs in draw(st.lists(coeffs, max_size=3))]:
            out = [0] * width
            for j, x in zip(cols, values):
                out[j] = x
            rows.append(out)
    return draw(st.permutations(rows)), width


@given(blocked_systems())
def test_kernel_of_interleaved_column_blocks_matches_the_reference(case):
    rows, width = case
    assert_reference_kernel(kernel(map(sparse, rows), width), rows, width)


@given(blocked_systems(max_blocks=1, nonzero=True))
def test_kernel_of_one_dense_block_matches_the_reference(case):
    rows, width = case
    assert_reference_kernel(kernel(map(sparse, rows), width), rows, width)


@pytest.mark.parametrize("width", range(6))
def test_kernel_of_no_rows_is_every_unit_vector(width):
    basis = kernel(iter(()), width)
    assert basis == full_space(width).rows
    assert_reference_kernel(basis, [], width)


@given(blocked_systems(full_rank=True))
def test_kernel_of_interleaved_blocks_stops_at_the_row_of_full_rank(case):
    # the blocks reach full rank together at one row, the last one any
    # kernel must read; no row after it is read
    rows, width = case
    full = next(i for i in range(len(rows)) if len(ref_span(width, rows[:i + 1])) == width)
    read = []

    def stream():
        for i, row in enumerate(rows):
            if i > full:
                raise AssertionError(f"row {i} read after full rank at row {full}")
            read.append(i)
            yield sparse(row)

    assert kernel(stream(), width) == ()
    assert read[-1] == full


@given(row_lists(rat_entries))
def test_nullspace_rref_and_span_match_the_reference(case):
    rows, width = case
    m = Mat.from_rows(rows, cols=width)
    assert vectors(nullspace(m)) == ref_kernel(rows, width)
    expected = ref_span(width, rows)
    assert vectors(span(width, rows)) == expected
    res = rref(m)
    assert res.reduced.entries == expected + ((F(0),) * width,) * (len(rows) - len(expected))
    assert res.rank == len(expected) == len(res.pivots)


@given(row_lists(rat_entries), st.data())
def test_intersect_matches_the_reference(case, data):
    rows, width = case
    other = data.draw(st.lists(st.lists(rat_entries, min_size=width, max_size=width),
                               max_size=4))
    a, b = span(width, rows), span(width, other + rows[:1])
    expected = ref_intersect(width, vectors(a), vectors(b))
    assert vectors(subspace_intersect(a, b)) == expected


def ref_complement(width, inner, allowed):
    """Unit vectors tried in increasing index order, each kept if it raises the rank."""
    ech = RefEchelon(width)
    for v in inner:
        ech.add(v)
    chosen = []
    for i in sorted(set(allowed)):
        rank = len(ech.pivots)
        ech.add(unit_vector(width, i))
        if len(ech.pivots) > rank:
            chosen.append(unit_vector(width, i))
    return tuple(chosen)


@given(st.data())
def test_extend_to_complement_matches_the_greedy_reference(data):
    width = data.draw(st.integers(1, 6))
    allowed = data.draw(st.lists(st.integers(0, width - 1), max_size=width + 2))
    support = sorted(set(allowed))
    coords = st.lists(st.one_of(st.integers(-2, 2), rat_entries),
                      min_size=len(support), max_size=len(support))
    inner = []
    for xs in data.draw(st.lists(coords, max_size=len(support))):
        row = [0] * width
        for j, x in zip(support, xs):
            row[j] = x
        inner.append(row)
    assert vectors(extend_to_complement(span(width, inner), allowed)) == \
        ref_complement(width, inner, allowed)


@st.composite
def square_matrices(draw):
    """Square rational matrices, a third of them invertible and a third singular by design."""
    n = draw(st.integers(1, 4))
    row = st.lists(rat_entries, min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    shape = draw(st.sampled_from(["any", "invertible", "singular"]))
    if shape == "invertible":
        # a permuted upper triangle with a nonzero diagonal, then row additions
        upper = [[0] * i + [draw(rat_entries.filter(bool))] + rows[i][i + 1:] for i in range(n)]
        rows = draw(st.permutations(upper))
        ops = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-3, 3))
        for i, j, c in draw(st.lists(ops, max_size=n)):
            if i != j:
                rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    elif shape == "singular":
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1))
        rows[-1] = [sum((c * r[j] for c, r in zip(coeffs, rows)), 0) for j in range(n)]
    return Mat.from_rows(rows)


@given(square_matrices())
def test_invert_and_alpha_surjectivity_match_the_reference_rank(m):
    n = m.rows
    full = len(ref_span(n, m.entries)) == n
    if full:
        assert invert(m) @ m == Mat.identity(n) == m @ invert(m)
    else:
        with pytest.raises(ValueError):
            invert(m)
    assert is_alpha_surjective(NHomAlgebra(2, n, (0,) * n, {}, m)) == full


def test_kernel_of_a_row_whose_left_to_right_nullspace_is_not_reduced():
    # eliminating left to right frees columns 1 and 2, and the vector of
    # column 1, (-1, 1, 0), leads at column 0: it is not reduced
    ech = RefEchelon(3)
    ech.add([1, 1, 0])
    assert ech.nullspace_vectors() == [vector([-1, 1, 0]), vector([0, 0, 1])]
    assert kernel([sparse([1, 1, 0])], 3) == (((0, 1), (1, -1)), ((2, 1),))
    assert kernel([], 0) == () and kernel([[]], 2) == (((0, 1),), ((1, 1),))


def test_kernel_compresses_growth_past_the_limit():
    # the first row leaves the kernel vector (big, -2), so the second row's
    # dot product 6 * (big - 1) lies past 2^63; kernel vectors are kept
    # primitive, so such entries pass through with no compression step
    big = 3 * (1 << 64) + 1
    rows = [[2, big], [6, 3]]
    assert kernel(map(sparse, rows), 2) == ref_kernel(rows, 2) == ()
    assert kernel(map(sparse, [[2, big, 0], [6, 3, 0]]), 3) == (((2, 1),),)


# ---------------------------------------------------------------------------
# subspaces held as canonical integer rows: reduced row-echelon, each row
# primitive with a positive leading entry
# ---------------------------------------------------------------------------

def assert_canonical(s):
    leads = []
    for row in widened(s):
        assert len(row) == s.ambient_dim and all(type(x) is int for x in row)
        lead = next(j for j, x in enumerate(row) if x)
        assert row[lead] > 0 and gcd(*row) == 1
        leads.append(lead)
    assert leads == sorted(set(leads))
    for j in leads:
        assert sum(1 for row in widened(s) if row[j]) == 1


def ref_contains(width, gens, v):
    return len(ref_span(width, list(gens) + [v])) == len(ref_span(width, gens))


def combination(data, rows, width):
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
    return tuple(sum((c * F(r[j]) for c, r in zip(coeffs, rows)), F(0)) for j in range(width))


@given(row_lists(rat_entries), st.data())
def test_every_subspace_result_is_canonical(case, data):
    rows, width = case
    other = data.draw(st.lists(st.lists(rat_entries, min_size=width, max_size=width),
                               max_size=4))
    allowed = sorted(data.draw(st.sets(st.integers(0, width - 1), max_size=width))
                     if width else [])
    a, b = span(width, rows), span(width, other)
    results = [a, b, nullspace(Mat.from_rows(rows, cols=width)),
               subspace_sum(a, b), subspace_intersect(a, b),
               extend_to_complement(a, range(width)),
               extend_to_complement(SubspaceBasis.zero(width), allowed)]
    for s in results:
        assert_canonical(s)
        assert SubspaceBasis(width, s.rows) == s
    assert subspace_sum(a, b) == span(width, rows + other)


def test_center_bases_are_canonical():
    for alg in map(lambda build: build(), FIXTURES.values()):
        for copy in (alg, transport(alg, mixed_change(alg.parity))):
            for s in center(copy):
                assert_canonical(s)


@given(row_lists(rat_entries), st.data())
def test_contains_and_is_subspace_of_match_the_reference(case, data):
    rows, width = case
    member = combination(data, rows, width)
    outside = tuple(x + F(y) for x, y in zip(
        member, data.draw(st.lists(rat_entries, min_size=width, max_size=width))))
    identity = [unit_vector(width, i) for i in range(width)]
    gens = [rows, [], identity, [member], [outside], rows[:1] + [outside]]
    spaces = [span(width, g) for g in gens]
    for g, s in zip(gens, spaces):
        for v in (member, outside):
            assert contains(s, pairs(v)) == ref_contains(width, g, v)
    for ga, a in zip(gens, spaces):
        for gb, b in zip(gens, spaces):
            assert is_subspace_of(a, b) == \
                (len(ref_span(width, list(gb) + list(ga))) == len(ref_span(width, gb)))


def test_the_constructor_rejects_rows_not_in_canonical_form():
    assert SubspaceBasis(2, (((0, 1),),)) == span(2, [(F(2), F(0))])
    for rows in [(((0, F(2)),),), (((0, F(1)),),), (((0, 2),),), (((0, -1),),), ((),),
                 (((0, 0),),), (((1, 1),), ((0, 1),)), (((0, 1),), ((0, 1), (1, 1))),
                 (((0, 1), (1, 1)), ((1, 1),)), (((2, 1),),), (((1, 1), (0, 1)),),
                 (((0, 1), (0, 1)),)]:
        with pytest.raises(ValueError):
            SubspaceBasis(2, rows)


def test_reduced_rows_are_primitive():
    # clearing column 1 from (2, 1) with the row (0, 1) leaves (2, 0)
    assert widened(span(2, [(0, 2), (2, 1)])) == ((1, 0), (0, 1))


def test_floats_are_rejected_where_vectors_come_in():
    with pytest.raises(TypeError):
        span(2, [(0.5, 1)])
    with pytest.raises(TypeError):
        Mat.from_rows([(0.5, 0)])


def test_extend_complement_rejects_indices_outside_the_space():
    for allowed in ([-1], [5], [0, 2]):
        with pytest.raises(ValueError):
            extend_to_complement(SubspaceBasis.zero(2), allowed)


def test_from_rows_rejects_a_column_count_the_rows_do_not_have():
    with pytest.raises(ValueError):
        Mat.from_rows([[1, 2]], cols=3)
    assert Mat.from_rows([[1, 2]], cols=2) == Mat.from_rows([[1, 2]])


# ---------------------------------------------------------------------------
# differential tests of the sparse row form against the dense elimination it
# replaced: the same canonical rows, grown row by row, and the same verdicts
# ---------------------------------------------------------------------------

def dense_reduce(basis, leads, row):
    """``row`` with the lead of every canonical dense ``basis`` row cleared, one row at a time."""
    for p, j in compress(zip(basis, leads), map(row.__getitem__, leads)):
        g = gcd(p[j], row[j])
        am, bm = p[j] // g, row[j] // g
        row = [am * x - bm * y for x, y in zip(row, p)]
    return row


def dense_insert(basis, leads, row):
    """Grow the canonical dense ``basis`` (``leads`` alongside) by ``row``; True if it grew."""
    row = dense_reduce(basis, leads, row)
    j = next(compress(range(len(row)), row), None)
    if j is None:
        return False
    g = gcd(*row) if row[j] > 0 else -gcd(*row)
    row = [x // g for x in row]
    for i, p in enumerate(basis):
        if p[j]:
            g = gcd(row[j], p[j])
            q = [row[j] // g * x - p[j] // g * y for x, y in zip(p, row)]
            basis[i] = [x // gcd(*q) for x in q]
    i = bisect(leads, j)
    leads.insert(i, j)
    basis.insert(i, row)
    return True


@st.composite
def row_systems(draw):
    """Integer rows of one width: drawn rows (no rows, zero rows and rows
    repeated up to scale among them), one-column rows mixed with a few full
    ones, planted column blocks, or one dense block."""
    shape = draw(st.sampled_from(["drawn", "one-column", "blocks", "dense"]))
    if shape == "drawn":
        return draw(row_lists(int_entries))
    if shape == "blocks":
        return draw(blocked_systems())
    if shape == "dense":
        return draw(blocked_systems(max_blocks=1, nonzero=True))
    width = draw(st.integers(1, 8))
    unit = st.tuples(st.integers(0, width - 1), int_entries.filter(bool))
    rows = [dense([pair], width) for pair in draw(st.lists(unit, max_size=10))]
    rows += draw(st.lists(st.lists(int_entries, min_size=width, max_size=width), max_size=3))
    return draw(st.permutations(rows)), width


@given(row_systems(), st.data())
def test_sparse_rows_grow_the_dense_references_canonical_rows(case, data):
    rows, width = case
    basis, leads = [], []
    held = {}
    for row in rows:
        assert _insert(held, {j: x for j, x in sparse(row)}) == dense_insert(basis, leads, row)
        assert sorted(held) == leads
        assert [dense(sorted(held[j].items()), width) for j in leads] == basis
    assert widened(_grown(width, (), map(sparse, rows))) == tuple(map(tuple, basis))
    # grown on from a canonical start, as subspace_sum grows
    cut = data.draw(st.integers(0, len(rows)))
    start = _grown(width, (), map(sparse, rows[:cut]))
    assert _grown(width, start.rows, map(sparse, rows[cut:])) == \
        _grown(width, (), map(sparse, rows))


@given(row_systems(), st.data())
def test_contains_matches_the_dense_reduction(case, data):
    rows, width = case
    s = _grown(width, (), map(sparse, rows))
    basis = [list(row) for row in widened(s)]
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
    member = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(width)]
    shift = data.draw(st.lists(st.integers(-2, 2), min_size=width, max_size=width))
    outside = [x + y for x, y in zip(member, shift)]
    assert contains(s, sparse(member))
    for v in (member, outside):
        assert contains(s, sparse(v)) == (not any(dense_reduce(basis, list(s.leads), v)))
