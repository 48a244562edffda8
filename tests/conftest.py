"""Hypothesis profile and the references that only the tests use.

``basis_value`` is the bracket of one basis tuple in ``Fraction``
arithmetic, read from the stored table through the graded sign rule, so
the tests can compare the integer structure tensor with it.
"""

from fractions import Fraction

import hypothesis

from nhomlie.algebra import canonicalize_tuple
from nhomlie.linalg import _reduce

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


def dense(row, width):
    """A row of (column, value) pairs written out at the full width."""
    out = [0] * width
    for j, x in row:
        out[j] += x
    return out
