"""Hypothesis profile and the references that only the tests use.

``basis_value`` is the bracket of one basis tuple in ``Fraction``
arithmetic, read from the stored table through the graded sign rule, so
the tests can compare the integer structure tensor with it.
``ref_transport`` is the basis change as one ``bracket`` call per weakly
increasing tuple, the reference for ``algebra.transport``;
``mixed_change`` is a basis change whose copies carry mixed denominators,
and ``check_basis_change`` compares the solved dimensions of an algebra
and of such a copy (acceptance criterion 6).  ``nullspace``
and ``full_space`` build subspaces that only the tests need, and
``vectors`` reads a subspace basis back as ``Fraction`` vectors.
"""

from fractions import Fraction
from itertools import combinations_with_replacement

import hypothesis

from nhomlie.algebra import NHomAlgebra, bracket, canonicalize_tuple, invert, transport
from nhomlie.linalg import Mat, SubspaceBasis, _reduce, kernel
from nhomlie.propositions import Claim, _report, solved_dims

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


def unit_vector(n, i):
    return tuple(Fraction(int(j == i)) for j in range(n))


def is_subspace_of(a, b):
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimensions differ")
    return not any(any(_reduce(b.rows, b.leads, row)) for row in a.rows)


def flatten(m):
    """Row-major flattening of a matrix, used to treat matrices as vectors."""
    return tuple(x for row in m.entries for x in row)


def sparse(row):
    """The nonzero (column, value) pairs of a dense row: the row form of ``kernel``."""
    return [(j, x) for j, x in enumerate(row) if x]


def nullspace(m):
    """Canonical basis of ``{v : m v = 0}``, read off ``kernel``."""
    return SubspaceBasis(m.cols, kernel(map(sparse, m.ints[0]), m.cols))


def full_space(n):
    """The whole of F^n, as its canonical subspace basis."""
    return SubspaceBasis(n, Mat.identity(n).ints[0])


def vectors(s):
    """The basis of ``s`` as ``Fraction`` vectors with leading entry 1."""
    return tuple(tuple(Fraction(x, row[j]) for x in row) for row, j in zip(s.rows, s.leads))


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
