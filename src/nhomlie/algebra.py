"""Structure-constant model of multiplicative n-ary Hom-Lie superalgebras.

An algebra is an arity ``n``, a Z2-graded basis e_0 .. e_{d-1}, a twist
matrix ``alpha``, and a table of bracket values on weakly increasing index
tuples.  Values on arbitrary tuples follow from the graded sign rule: each
adjacent swap of homogeneous slots multiplies by -(-1)^{|x||y|}, and a
repeated even index forces the value to vanish (a repeated odd index does
not).

Brackets are evaluated on one integer structure tensor per algebra,
:attr:`NHomAlgebra.tensor`: a dict from each ordered basis tuple with a
nonzero bracket to its value, as integer numerators over one common
denominator stored as a sparse tuple of ``(index, int)`` pairs, with the
tuples in product order.  It is built from the table alone: each stored
key's distinct orderings, with the sign that sorts them back, so its size
is that of the support and a tuple missing from it has a zero bracket.
:func:`bracket_ints` is the one kernel: it adds the bracket of sparse
integer vectors to an integer accumulator.  :func:`validate` and the
membership tests of the solver compare integer numerators whose
denominators they track, and the solver builds its constraint rows from
the tensor.  ``Fraction`` remains only in the stored table (the edge form
that the serializer and the extension read), in the arguments and value
of :func:`bracket`, and in a validation failure's residual, which is
converted only when the failure is recorded.

The constructor only enforces the structural shape (canonical keys, index
ranges, lengths); the mathematical axioms, including the twisted Jacobi
identity, are checked by :func:`validate` so that deliberately broken
inputs can be constructed and reported on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import lcm
from typing import Mapping, Sequence

from .linalg import (
    Mat,
    SubspaceBasis,
    Vector,
    as_scalar,
    kernel,
    rref,
    vector,
)

EVEN = 0
ODD = 1

# a sparse integer vector: (index, nonzero int) pairs in increasing index order
SparseInts = tuple[tuple[int, int], ...]


def canonicalize_tuple(indices: Sequence[int], parity: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Sort a basis index tuple, tracking the graded sign.

    Returns ``(sorted_tuple, sign)`` with sign in {1, -1, 0}.  Each adjacent
    transposition contributes -(-1)^{pq} (so swapping two odd slots costs
    nothing, every other swap flips the sign); a repeated even index makes
    the whole bracket vanish, giving sign 0.
    """
    d = len(parity)
    idx = list(indices)
    for i in idx:
        if not 0 <= i < d:
            raise IndexError(f"basis index {i} out of range for dimension {d}")
    sign = 1
    n = len(idx)
    for i in range(n):
        for j in range(n - 1 - i):
            a, b = idx[j], idx[j + 1]
            if a > b:
                idx[j], idx[j + 1] = b, a
                if not (parity[a] and parity[b]):
                    sign = -sign
    for j in range(n - 1):
        if idx[j] == idx[j + 1] and parity[idx[j]] == EVEN:
            return tuple(idx), 0
    return tuple(idx), sign


class NHomAlgebra:
    """Multiplicative n-ary Hom-Lie superalgebra given by structure constants."""

    __slots__ = ("arity", "dim", "parity", "table", "alpha", "name",
                 "_alpha_pows", "_tensor", "_cache")

    def __init__(self, arity: int, dim: int, parity: Sequence[int],
                 table: Mapping[Sequence[int], Sequence], alpha: Mat,
                 name: str = ""):
        if arity < 2:
            raise ValueError("arity must be at least 2")
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        parity = tuple(int(p) for p in parity)
        if len(parity) != dim or any(p not in (0, 1) for p in parity):
            raise ValueError("parity vector must contain 0/1 entries, one per basis element")
        if (alpha.rows, alpha.cols) != (dim, dim):
            raise ValueError("alpha must be a dim x dim matrix")
        canon: dict[tuple[int, ...], Vector] = {}
        for key, value in table.items():
            key = tuple(int(i) for i in key)
            if len(key) != arity:
                raise ValueError(f"bracket key {key} does not have arity {arity}")
            if any(not 0 <= i < dim for i in key):
                raise ValueError(f"bracket key {key} has an index out of range")
            if any(key[i] > key[i + 1] for i in range(arity - 1)):
                raise ValueError(f"bracket key {key} is not weakly increasing")
            vec = vector(value)
            if len(vec) != dim:
                raise ValueError(f"bracket value for {key} has wrong length")
            if any(vec):
                canon[key] = vec
        self.arity = arity
        self.dim = dim
        self.parity = parity
        self.table = canon
        self.alpha = alpha
        self.name = name
        self._alpha_pows: dict[int, Mat] = {0: Mat.identity(dim)}
        self._tensor: tuple[dict[tuple[int, ...], SparseInts], int] | None = None
        self._cache: dict = {}

    def __eq__(self, other):
        if not isinstance(other, NHomAlgebra):
            return NotImplemented
        return (self.arity, self.dim, self.parity, self.table, self.alpha) == \
               (other.arity, other.dim, other.parity, other.table, other.alpha)

    __hash__ = None

    def __repr__(self):
        label = self.name or "?"
        return f"NHomAlgebra({label}, n={self.arity}, dim={self.dim})"

    def tuple_parity(self, indices: Sequence[int]) -> int:
        p = 0
        for i in indices:
            p ^= self.parity[i]
        return p

    @property
    def tensor(self) -> tuple[dict[tuple[int, ...], SparseInts], int]:
        """``(values, denominator)``: the integer structure tensor (built lazily).

        ``values`` maps each ordered basis tuple with a nonzero bracket, in
        ``product(range(dim), repeat=arity)`` order, to that bracket as
        integer numerators over ``denominator``, the lcm of the table's
        denominators.  The orderings of a stored key carry its value times
        the sign :func:`canonicalize_tuple` gives them; those with sign 0
        (a repeated even index) are left out.
        """
        if self._tensor is None:
            den = lcm(1, *(x.denominator for val in self.table.values() for x in val))
            values = {}
            for key, val in self.table.items():
                ints = tuple((j, x.numerator * (den // x.denominator))
                             for j, x in enumerate(val) if x)
                for t in set(permutations(key)):
                    sign = canonicalize_tuple(t, self.parity)[1]
                    if sign:
                        values[t] = ints if sign == 1 else tuple((j, -x) for j, x in ints)
            self._tensor = (dict(sorted(values.items())), den)
        return self._tensor

    def alpha_power(self, k: int) -> Mat:
        if k < 0:
            raise ValueError("alpha power must be nonnegative")
        pows = self._alpha_pows
        if k not in pows:
            high = max(pows)
            acc = pows[high]
            for i in range(high + 1, k + 1):
                acc = acc @ self.alpha
                pows[i] = acc
        return pows[k]


def sparse_columns(m: Mat) -> tuple[list[SparseInts], int]:
    """The columns of ``m``'s integer form as sparse vectors, and its denominator."""
    grid, den = m.ints
    return [tuple((r, row[c]) for r, row in enumerate(grid) if row[c])
            for c in range(m.cols)], den


def apply_ints(cols: Sequence[SparseInts], vec: SparseInts, dim: int) -> list[int]:
    """Dense integer image of ``vec`` under the matrix with sparse columns ``cols``."""
    out = [0] * dim
    for j, v in vec:
        for r, x in cols[j]:
            out[r] += x * v
    return out


def bracket_ints(alg: NHomAlgebra, acc: list[int], args: Sequence[SparseInts],
                 coeff: int = 1) -> None:
    """Add ``coeff`` times the bracket of ``args`` to the dense list ``acc``.

    ``args`` are ``n`` sparse integer vectors.  What is added is numerators
    over the tensor's denominator times the product of the arguments' own
    denominators; callers keep track of the latter.
    """
    values, _ = alg.tensor
    terms = [((), coeff)]
    for arg in args:
        terms = [(t + (j,), c * x) for t, c in terms for j, x in arg]
    for t, c in terms:
        for j, v in values.get(t, ()):
            acc[j] += c * v


def _sparse_ints(vec: Sequence) -> tuple[SparseInts, int]:
    """A rational vector as sparse integer numerators over the lcm of its denominators."""
    vec = [as_scalar(x) for x in vec]
    den = lcm(1, *(x.denominator for x in vec))
    return tuple((j, x.numerator * (den // x.denominator))
                 for j, x in enumerate(vec) if x), den


def bracket(alg: NHomAlgebra, args: Sequence[Sequence[Fraction]]) -> Vector:
    """Multilinear bracket of ``n`` coefficient vectors."""
    if len(args) != alg.arity:
        raise ValueError(f"bracket expects {alg.arity} arguments")
    d = alg.dim
    den = alg.tensor[1]
    sparse = []
    for a in args:
        if len(a) != d:
            raise ValueError("argument length does not match algebra dimension")
        vec, a_den = _sparse_ints(a)
        sparse.append(vec)
        den *= a_den
    acc = [0] * d
    bracket_ints(alg, acc, sparse)
    return tuple(Fraction(x, den) for x in acc)


def _residual(lhs: Sequence[int], rhs: Sequence[int], den: int) -> Vector:
    return tuple(Fraction(x - y, den) for x, y in zip(lhs, rhs))


@dataclass(frozen=True)
class ValidationFailure:
    axiom: str
    witness: tuple
    residual: Vector


@dataclass(frozen=True)
class ValidationReport:
    skew_ok: bool
    jacobi_ok: bool
    multiplicative_ok: bool
    even_alpha_ok: bool
    degree_ok: bool
    failures: tuple[ValidationFailure, ...]

    @property
    def all_ok(self) -> bool:
        return not self.failures


def validate(alg: NHomAlgebra) -> ValidationReport:
    """Check all defining axioms on basis tuples, collecting witnesses."""
    if "validate" in alg._cache:
        return alg._cache["validate"]
    d, n = alg.dim, alg.arity
    parity = alg.parity
    failures: list[ValidationFailure] = []

    # stored-table canonical form: repeated even index must map to zero
    skew_ok = True
    for key, val in alg.table.items():
        if any(key[i] == key[i + 1] and parity[key[i]] == EVEN for i in range(n - 1)):
            skew_ok = False
            failures.append(ValidationFailure("skew", key, val))

    # degree law and evenness of alpha
    degree_ok = True
    for key, val in alg.table.items():
        want = alg.tuple_parity(key)
        bad = tuple(x if parity[j] != want else Fraction(0) for j, x in enumerate(val))
        if any(bad):
            degree_ok = False
            failures.append(ValidationFailure("degree", key, bad))
    even_alpha_ok = True
    for r in range(d):
        for c in range(d):
            if parity[r] != parity[c] and alg.alpha.entries[r][c] != 0:
                even_alpha_ok = False
                failures.append(
                    ValidationFailure("even_alpha", (r, c),
                                      (alg.alpha.entries[r][c],)))

    # Brackets below are integer numerators: the tensor's values are over
    # tden, alpha's columns over aden, so a bracket with m alpha arguments
    # and one value argument is over tden^2 aden^m.
    values, tden = alg.tensor
    alpha_cols, aden = sparse_columns(alg.alpha)

    # The tensor needs no sign check.  Each entry is a stored value times
    # the sign that sorts its tuple: the product of -(-1)^{pq} over its
    # pairs of slots out of order, whatever the order of the sort.  An
    # adjacent swap of unequal entries puts one pair in or out of order, and
    # a swap of equal (odd) entries changes nothing, so every adjacent swap
    # multiplies an entry by -(-1)^{pq}.  Tuples with a repeated even index
    # are absent, as are their swaps; a stored key of that kind is the skew
    # failure recorded above.

    # multiplicativity on canonical tuples (extends multilinearly):
    # alpha [e_t] over aden tden, [alpha e_t] over aden^n tden
    multiplicative_ok = True
    lift = aden ** (n - 1)
    for t in combinations_with_replacement(range(d), n):
        lhs = [x * lift for x in apply_ints(alpha_cols, values.get(t, ()), d)]
        rhs = [0] * d
        bracket_ints(alg, rhs, [alpha_cols[i] for i in t])
        if lhs != rhs:
            multiplicative_ok = False
            failures.append(ValidationFailure(
                "multiplicative", t, _residual(lhs, rhs, aden ** n * tden)))

    # twisted Jacobi identity on the d^(2n-1) pairs of basis tuples; both
    # sides are over tden^2 aden^(n-1).  A pair whose inner bracket [e_ys]
    # and plugs [e_xs, e_{y_i}] are all zero holds trivially and is skipped,
    # so with no nonzero plug only the tensor's support is visited; the
    # pairs left keep their product order, and with it the failures.
    jacobi_ok = True
    jden = tden ** 2 * aden ** (n - 1)
    for xs in product(range(d), repeat=n - 1):
        px = alg.tuple_parity(xs)
        ax = [alpha_cols[i] for i in xs]
        plugs = [values.get(xs + (y,), ()) for y in range(d)]  # [e_xs, e_y] for each y
        live = {y for y, plug in enumerate(plugs) if plug}
        for ys in product(range(d), repeat=n) if live else values:
            inner = values.get(ys, ())
            if not inner and live.isdisjoint(ys):
                continue
            lhs = [0] * d
            if inner:
                bracket_ints(alg, lhs, ax + [inner])
            rhs = [0] * d
            pprefix = 0
            for i in range(n):
                plug = plugs[ys[i]]
                if plug:
                    args = [alpha_cols[j] for j in ys[:i]] + [plug] + \
                           [alpha_cols[j] for j in ys[i + 1:]]
                    bracket_ints(alg, rhs, args, -1 if px & pprefix else 1)
                pprefix ^= parity[ys[i]]
            if lhs != rhs:
                jacobi_ok = False
                failures.append(ValidationFailure(
                    "jacobi", (xs, ys), _residual(lhs, rhs, jden)))

    report = ValidationReport(skew_ok, jacobi_ok, multiplicative_ok,
                              even_alpha_ok, degree_ok, tuple(failures))
    alg._cache["validate"] = report
    return report


def center(alg: NHomAlgebra) -> tuple[SubspaceBasis, SubspaceBasis]:
    """Per-parity bases of {x : [x, y_2, ..., y_n] = 0 for all y}."""
    key = "center"
    if key in alg._cache:
        return alg._cache[key]
    d, n = alg.dim, alg.arity
    values = alg.tensor[0]
    out = []
    for par in (EVEN, ODD):
        idxs = [i for i in range(d) if alg.parity[i] == par]
        if not idxs:
            out.append(SubspaceBasis.zero(d))
            continue
        rows = []
        for rest in product(range(d), repeat=n - 1):
            brackets = [dict(values.get((i,) + rest, ())) for i in idxs]
            rows.extend([b.get(l, 0) for b in brackets] for l in range(d))
        # spread over the increasing idxs, a reduced basis stays reduced
        vecs = []
        for v in kernel(rows, len(idxs)):
            full = [0] * d
            for pos, i in enumerate(idxs):
                full[i] = v[pos]
            vecs.append(tuple(full))
        out.append(SubspaceBasis(d, tuple(vecs)))
    result = (out[0], out[1])
    alg._cache[key] = result
    return result


def derived_subspace(alg: NHomAlgebra) -> tuple[SubspaceBasis, SubspaceBasis]:
    """Per-parity span of all brackets of basis elements."""
    key = "derived"
    if key in alg._cache:
        return alg._cache[key]
    d = alg.dim
    by_parity = {EVEN: [], ODD: []}
    for t, val in alg.table.items():
        by_parity[alg.tuple_parity(t)].append(val)
    result = (SubspaceBasis.span(d, by_parity[EVEN]),
              SubspaceBasis.span(d, by_parity[ODD]))
    alg._cache[key] = result
    return result


def alpha_power(alg: NHomAlgebra, k: int) -> Mat:
    return alg.alpha_power(k)


def is_alpha_surjective(alg: NHomAlgebra) -> bool:
    return rref(alg.alpha).rank == alg.dim


def transport(alg: NHomAlgebra, p: Mat) -> NHomAlgebra:
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
    cols = [p.col(i) for i in range(d)]
    new_table = {}
    for t in combinations_with_replacement(range(d), n):
        val = bracket(alg, [cols[i] for i in t])
        if any(val):
            new_table[t] = p_inv.apply(val)
    new_alpha = p_inv @ alg.alpha @ p
    return NHomAlgebra(n, d, alg.parity, new_table, new_alpha,
                       name=f"{alg.name}~" if alg.name else "")


def invert(m: Mat) -> Mat:
    """Exact inverse; raises ValueError when singular."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    grid, den = m.ints
    # [m | identity] as numerators over den
    aug = tuple(row + tuple(den if j == i else 0 for j in range(n))
                for i, row in enumerate(grid))
    res = rref(Mat(n, 2 * n, (aug, den)))
    if res.pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    inv, inv_den = res.reduced.ints
    return Mat(n, n, (tuple(row[n:] for row in inv), inv_den))
