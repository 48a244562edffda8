"""Hypothesis profile and the references that only the tests use.

``basis_value`` is the bracket of one basis tuple in ``Fraction``
arithmetic, read from the stored table through the graded sign rule, so
the tests can compare the integer structure tensor with it.
``ref_transport`` is the basis change as one ``bracket`` call per weakly
increasing tuple, the reference for ``algebra.transport``;
``mixed_change`` is a basis change whose copies carry mixed denominators,
and ``check_basis_change`` compares the solved dimensions of an algebra
and of such a copy (acceptance criterion 6).  ``nullspace``
and ``full_space`` build subspaces that only the tests need,
``vectors`` reads a subspace basis back as ``Fraction`` vectors and
``widened`` as integer rows at the full width, and ``pairs`` gives a
rational vector as the integer (column, value) row that ``contains``
reads.  ``int_row``, ``span``, ``subspace_intersect`` and ``rref`` are
the rational-vector entry points that only the tests call: ``span`` and
``subspace_intersect`` build canonical subspaces, ``rref`` the reduced
row-echelon form of a matrix.
``yau_twist`` composes an algebra with a diagonal morphism.
``dense_product_sum`` is the dense grid loop that ``linalg.product_sum``
replaced, the reference for its sparse kernel.  ``ref_endospace_doc`` is
the dict form of a ``solve`` report entry that ``io.endospace_doc`` once
built, the reference for its text writer.
"""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

import hypothesis

from nhomlie.algebra import NHomAlgebra, bracket, canonicalize_tuple, invert, transport
from nhomlie.linalg import Mat, SubspaceBasis, _grown, as_scalar, contains, kernel
from nhomlie.propositions import Claim, _report, solved_dims
from nhomlie.solver import Kind

hypothesis.settings.register_profile(
    "default", max_examples=40, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("default")


def basis_value(alg, indices):
    """Bracket of basis elements e_{i_1}, ..., e_{i_n} in any order."""
    canon, sign = canonicalize_tuple(indices, alg.parity)
    val = alg.table.get(canon) if sign else None
    if val is None:
        return (Fraction(0),) * alg.dim
    return val if sign == 1 else tuple(-x for x in val)


def yau_twist(alg, diag):
    """The algebra with bracket diag [..] and twist diag, for a diagonal map."""
    table = {key: [x * c for x, c in zip(value, diag)] for key, value in alg.table.items()}
    alpha = Mat.from_rows([[c if i == j else 0 for j in range(alg.dim)] for i, c in enumerate(diag)])
    return NHomAlgebra(alg.arity, alg.dim, alg.parity, table, alpha)


def dense_product_sum(a, b, sign, divisor=1):
    """``(a b + sign * b a) / divisor`` for square ``a`` and ``b``, one dot product per entry."""
    (na, da), (nb, db) = a.ints, b.ints
    bt = tuple(zip(*nb))
    at = tuple(zip(*na))
    grid = tuple(
        tuple(sum(map(mul, ra, cb)) + sign * sum(map(mul, rb, ca))
              for cb, ca in zip(bt, at))
        for ra, rb in zip(na, nb)
    )
    return Mat(a.rows, a.cols, (grid, da * db * divisor))


def ref_endospace_doc(space):
    """A ``solve`` report entry of ``space`` without its ``k``, as a dict:
    the basis, and the QDer or GDer witnesses, as lists of rows of
    ``Fraction`` strings."""
    def mat(m):
        return [[str(x) for x in row] for row in m.entries]

    doc = {
        "kind": space.kind.value,
        "xi": space.xi,
        "dim": space.dim,
        "basis": [mat(g.mat) for g in space.basis],
    }
    if space.witnesses is not None:
        if space.kind is Kind.QDER:
            doc["witnesses"] = [mat(w) for w in space.witnesses]
        else:
            doc["witnesses"] = [[mat(w) for w in ws] for ws in space.witnesses]
    return doc


def unit_vector(n, i):
    return tuple(Fraction(int(j == i)) for j in range(n))


def is_subspace_of(a, b):
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimensions differ")
    return all(contains(b, row) for row in a.rows)


def flatten(m):
    """Row-major flattening of a matrix, used to treat matrices as vectors."""
    return tuple(x for row in m.entries for x in row)


def sparse(row):
    """The nonzero (column, value) pairs of a dense row: the row form of ``kernel``."""
    return [(j, x) for j, x in enumerate(row) if x]


def nullspace(m):
    """Canonical basis of ``{v : m v = 0}``, read off ``kernel``."""
    return SubspaceBasis(m.cols, kernel(map(sparse, m.ints[0]), m.cols))


def int_row(row):
    """Scale a rational row to a primitive integer row (same projective row).

    Entries other than ints and Fractions go through ``as_scalar``, so a
    float raises TypeError.
    """
    row = [x if isinstance(x, (int, Fraction)) else as_scalar(x) for x in row]
    den = lcm(*(x.denominator for x in row))
    row = [x.numerator * (den // x.denominator) for x in row]
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def pairs(v):
    """A rational vector as the (column, value) pairs of its primitive integer row."""
    return sparse(int_row(v))


def span(n, vectors):
    """The canonical basis of the span of rational ``vectors`` of length n."""
    rows = list(map(int_row, vectors))
    if any(len(row) != n for row in rows):
        raise ValueError("spanning vector length does not match ambient dimension")
    return _grown(n, (), map(enumerate, rows))


def subspace_intersect(a, b):
    """Zassenhaus: echelonize [A|A] over [B|0]; zero-left rows span a ∩ b.

    The rows [A|A] are already canonical, so they are the starting basis.
    The zero-left rows of the reduced basis are already reduced, so their
    right halves are the canonical basis of the intersection.
    """
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimensions differ")
    n = a.ambient_dim
    both = _grown(2 * n, (row + tuple((c + n, x) for c, x in row) for row in a.rows), b.rows)
    return SubspaceBasis(n, tuple(tuple((c - n, x) for c, x in row)
                                  for row in both.rows if row[0][0] >= n))


class RrefResult(NamedTuple):
    reduced: Mat
    pivots: tuple
    rank: int


def rref(m):
    """Unique reduced row-echelon form of ``m`` over the rationals."""
    s = _grown(m.cols, (), (enumerate(row) for row in m.ints[0]))
    den = lcm(*(row[0][1] for row in s.rows))  # each row is over its pivot
    grid = tuple(tuple(dict(row).get(c, 0) * (den // row[0][1]) for c in range(m.cols))
                 for row in s.rows) + ((0,) * m.cols,) * (m.rows - s.dim)
    return RrefResult(Mat(m.rows, m.cols, (grid, den)), s.leads, s.dim)


def full_space(n):
    """The whole of F^n, as its canonical subspace basis."""
    return SubspaceBasis(n, tuple(((i, 1),) for i in range(n)))


def widened(s):
    """The basis rows of ``s`` written out at the full width, as integer tuples."""
    return tuple(tuple(dense(row, s.ambient_dim)) for row in s.rows)


def vectors(s):
    """The basis of ``s`` as ``Fraction`` vectors with leading entry 1."""
    return tuple(tuple(Fraction(x, row[0][1]) for x in dense(row, s.ambient_dim))
                 for row in s.rows)


def dense(row, width):
    """A row of (column, value) pairs written out at the full width."""
    out = [0] * width
    for j, x in row:
        out[j] += x
    return out


def col(m, j):
    """Column j of a matrix, as ``Fraction``s."""
    return [row[j] for row in m.entries]


def apply(m, v):
    """The product m v in ``Fraction`` arithmetic."""
    nonzero = [(j, y) for j, y in enumerate(v) if y]
    return [sum((row[j] * y for j, y in nonzero), Fraction(0)) for row in m.entries]


def ref_transport(alg, p):
    """Conjugate the structure through an even invertible basis change.

    New basis f_i = sum_j p[j][i] e_j; the bracket table and alpha are
    rewritten in the f-coordinates.
    """
    d, n = alg.dim, alg.arity
    if (p.rows, p.cols) != (d, d):
        raise ValueError("basis-change matrix has wrong shape")
    for r in range(d):
        for c in range(d):
            if alg.parity[r] != alg.parity[c] and p.entries[r][c] != 0:
                raise ValueError("basis-change matrix must be even")
    p_inv = invert(p)
    cols = [col(p, i) for i in range(d)]
    new_table = {}
    for t in combinations_with_replacement(range(d), n):
        val = bracket(alg, [cols[i] for i in t])
        if any(val):
            new_table[t] = apply(p_inv, val)
    new_alpha = p_inv @ alg.alpha @ p
    return NHomAlgebra(n, d, alg.parity, new_table, new_alpha,
                       name=f"{alg.name}~" if alg.name else "")


def mixed_change(parity):
    """An even, upper-triangular basis change with entries over 1, 2 and 3.

    Transported through it, an algebra's table and twist carry mixed
    denominators; the tests use such copies to exercise the integer
    structure tensor's common denominator.
    """
    d = len(parity)
    grid = [[0] * d for _ in range(d)]
    for r in range(d):
        grid[r][r] = Fraction(r + 2, r + 1)
        for c in range(r + 1, d):
            if parity[r] == parity[c]:
                grid[r][c] = Fraction(1, 2 + (c - r) % 2)
    return Mat.from_rows(grid, cols=d)


def check_basis_change(alg, p, kmax=2):
    """Every solved dimension is unchanged under an even invertible change."""
    moved = transport(alg, p)  # raises when p is odd or singular
    before = solved_dims(alg, kmax)
    after = solved_dims(moved, kmax)
    mismatches = tuple(
        (b, a) for b, a in zip(before, after) if b != a
    )
    claims = [Claim("basis_change.dims_invariant",
                    "fail" if mismatches else "pass",
                    witness=mismatches)]
    return _report("basis-change", claims, after)
