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
Every slot term is read from one primitive, :func:`opened_tensor`, which
pushes the support through the row supports of alpha^k in all slots but
one: its entry v is the bracket [alpha^k e_{v_0}, .., e_{v_s}, ..,
alpha^k e_{v_{n-1}}].  The solver reads its constraint rows from it by
lookup, and :func:`summed_slot_terms` pushes it on through the rows of a
map D in slot s, which gives a weighted sum of the slot terms of D on the
tuples it reaches and nowhere else.  Every space of the solver and both
identity axioms have one form: that sum equals some map W applied to
[e_t], and :func:`identity_failures` is its one evaluator.  So the cost of
:func:`validate` and of the membership tests of the solver follows the
table rather than the d^n ordered tuples, as does that of :func:`center`,
which reads only the argument tails in the support.  Multiplicativity
is alpha in slot 0 against W = alpha, and the twisted Jacobi identity is
ad_xs in every slot against W = ad_{alpha xs}, for the prefixes xs the
support reaches.  All of them compare integer numerators over a common
denominator; :func:`transport` pushes the support through the basis change
with the loop of :func:`opened_tensor`.  The table is stored in the same
integer form, which the parser, the serializer and the extension write or
read.  ``Fraction`` remains only in the rational tables the constructor
accepts, in the :attr:`NHomAlgebra.table` view, in the arguments and value
of :func:`bracket`, and in a validation failure's residual.

The constructor only enforces the structural shape (canonical keys, index
ranges, lengths); the mathematical axioms, including the twisted Jacobi
identity, are checked by :func:`validate` so that deliberately broken
inputs can be constructed and reported on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import gcd, lcm, prod
from typing import Mapping, Sequence

from .linalg import (
    Mat,
    SubspaceBasis,
    Vector,
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


def is_homogeneous(parity: Sequence[int], xi: int, mat: Mat) -> bool:
    """True iff ``mat`` maps each basis element of parity p into parity p + xi."""
    grid = mat.ints[0]
    d = len(parity)
    for r in range(d):
        for c in range(d):
            if parity[r] != parity[c] ^ xi and grid[r][c]:
                return False
    return True


class NHomAlgebra:
    """Multiplicative n-ary Hom-Lie superalgebra given by structure constants.

    ``table_ints = (values, den)`` is the stored table: each weakly increasing
    key with a nonzero bracket maps to its value as sparse integer numerators
    over ``den``, the lcm of the values' denominators.  The constructor takes
    a table of rational vectors, or a pair of that form over any denominator.
    """

    __slots__ = ("arity", "dim", "parity", "table_ints", "alpha", "name",
                 "_table", "_alpha_pows", "_tensor", "_cache")

    def __init__(self, arity: int, dim: int, parity: Sequence[int],
                 table: Mapping[Sequence[int], Sequence] | tuple[Mapping, int],
                 alpha: Mat, name: str = ""):
        if arity < 2:
            raise ValueError("arity must be at least 2")
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        parity = tuple(int(p) for p in parity)
        if len(parity) != dim or any(p not in (0, 1) for p in parity):
            raise ValueError("parity vector must contain 0/1 entries, one per basis element")
        if (alpha.rows, alpha.cols) != (dim, dim):
            raise ValueError("alpha must be a dim x dim matrix")
        table, den = table if isinstance(table, tuple) else (table, None)
        canon = {}
        for key, value in table.items():
            key = tuple(int(i) for i in key)
            if len(key) != arity:
                raise ValueError(f"bracket key {key} does not have arity {arity}")
            if any(not 0 <= i < dim for i in key):
                raise ValueError(f"bracket key {key} has an index out of range")
            if any(key[i] > key[i + 1] for i in range(arity - 1)):
                raise ValueError(f"bracket key {key} is not weakly increasing")
            if den is None:
                value = vector(value)
                if len(value) != dim:
                    raise ValueError(f"bracket value for {key} has wrong length")
            if any(value):
                canon[key] = value
        self._table = None
        if den is None:  # rational values: they are the Fraction view
            self._table = canon
            den = lcm(1, *(x.denominator for vec in canon.values() for x in vec))
            canon = {key: tuple((j, x.numerator * (den // x.denominator))
                                for j, x in enumerate(vec) if x) for key, vec in canon.items()}
        g = gcd(den, *(x for ints in canon.values() for _, x in ints)) if den > 1 else 1
        self.arity = arity
        self.dim = dim
        self.parity = parity
        self.table_ints = ({key: tuple((j, x // g) for j, x in ints) for key, ints in canon.items()}
                           if g > 1 else canon, den // g)
        self.alpha = alpha
        self.name = name
        self._alpha_pows: dict[int, Mat] = {0: Mat.identity(dim)}
        self._tensor: tuple[dict[tuple[int, ...], SparseInts], int] | None = None
        self._cache: dict = {}

    @property
    def table(self) -> dict[tuple[int, ...], Vector]:
        """The bracket values as ``Fraction`` vectors, built on first read."""
        if self._table is None:
            values, den = self.table_ints
            self._table = {key: tuple(Fraction(row.get(j, 0), den) for j in range(self.dim))
                           for key, row in zip(values, map(dict, values.values()))}
        return self._table

    def __eq__(self, other):
        if not isinstance(other, NHomAlgebra):
            return NotImplemented
        return (self.arity, self.dim, self.parity, self.table_ints, self.alpha) == \
               (other.arity, other.dim, other.parity, other.table_ints, other.alpha)

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
        integer numerators over ``denominator``, that of :attr:`table_ints`.
        The orderings of a stored key carry its value times the sign
        :func:`canonicalize_tuple` gives them; those with sign 0 (a repeated
        even index) are left out.
        """
        if self._tensor is None:
            table, den = self.table_ints
            values = {}
            for key, ints in table.items():
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


def sparse_rows(m: Mat) -> tuple[list[SparseInts], int]:
    """The rows of ``m``'s integer form as sparse vectors, and its denominator."""
    grid, den = m.ints
    return [tuple((c, x) for c, x in enumerate(row) if x) for row in grid], den


def apply_ints(cols: Sequence[SparseInts], vec: SparseInts, dim: int) -> list[int]:
    """Dense integer image of ``vec`` under the matrix with sparse columns ``cols``."""
    out = [0] * dim
    for j, v in vec:
        for r, x in cols[j]:
            out[r] += x * v
    return out


def opened_tensor(alg: NHomAlgebra, k: int, s: int) -> dict[tuple[int, ...], SparseInts]:
    """The tensor with alpha^k applied in every slot but s.

    Entry v is the bracket of (alpha^k e_{v_0}, ..., e_{v_s}, ...,
    alpha^k e_{v_{n-1}}): the sum over the support tuples u with u_s = v_s
    of [e_u] times alpha^k[u_m][v_m] for m != s.  It is pushed from the
    support through the row supports of alpha^k, so its size follows the
    support, and maps each v with a nonzero entry, in product order, to
    integer numerators over the tensor's denominator times
    den(alpha^k)^(n-1).  When alpha^k is the identity it is the tensor
    itself; otherwise it is cached on ``alg``.
    """
    values = alg.tensor[0]
    power = alg.alpha_power(k)
    if power.is_identity():
        return values
    key = ("opened", k, s)
    hit = alg._cache.get(key)
    if hit is not None:
        return hit
    slot_rows = [sparse_rows(power)[0]] * alg.arity
    slot_rows[s] = [((i, 1),) for i in range(alg.dim)]
    hit = alg._cache[key] = _pushed(values, slot_rows, alg.dim)
    return hit


def _pushed(values: Mapping[tuple[int, ...], SparseInts],
            slot_rows: Sequence[Sequence[SparseInts]], dim: int) -> dict[tuple[int, ...], SparseInts]:
    """The tensor ``values`` pushed through one list of sparse integer rows per slot.

    Entry v is the sum over the support tuples u of values[u] times the
    product over the slots m of row u_m of ``slot_rows[m]`` at column v_m,
    so the cost follows the support.  Returns the nonzero entries in
    product order, over the denominators of ``values`` and of the rows.
    """
    pushed: dict[tuple[int, ...], list[int]] = {}
    for u, value in values.items():
        for picked in product(*(rows[i] for rows, i in zip(slot_rows, u))):
            _add_to(pushed, tuple(c for c, _ in picked), prod(x for _, x in picked), value, dim)
    return {v: tuple((j, x) for j, x in enumerate(dense) if x)
            for v, dense in sorted(pushed.items()) if any(dense)}


def summed_slot_terms(alg: NHomAlgebra, k: int, xi: int,
                      drows: Sequence[Sequence[tuple[int, int]]],
                      weights: Mapping[int, int]) -> dict[tuple[int, ...], list[int]]:
    """``{t: sum over s of weights[s] times the slot-s term of t}`` for a map D,
    pushed from the tensor's support.

    The slot-s term of a basis tuple t is (-1)^(xi |t[:s]|) times the
    bracket of (alpha^k e_{t_0}, ..., D e_{t_s}, ..., alpha^k e_{t_{n-1}}),
    with D given by its sparse integer rows ``drows``.  Expanded in slot s,
    it is the sum over the entries v of :func:`opened_tensor` that agree
    with t outside slot s of their value times D[v_s][t_s].  So each v
    sends its value, times a signed entry of D, to the tuples reached
    through row v_s of D, and is skipped at once when that row is empty.
    The sums are dense integer lists over the tensor's denominator times
    den(D) times den(alpha^k)^(n-1); a tuple missing from the dict has a
    zero sum.
    """
    parity, d = alg.parity, alg.dim
    out: dict[tuple[int, ...], list[int]] = {}
    for s, weight in weights.items():
        for v, value in opened_tensor(alg, k, s).items():
            drow = drows[v[s]]
            if not drow:
                continue
            head, tail = v[:s], v[s + 1:]
            w = -weight if xi and sum(map(parity.__getitem__, head)) & 1 else weight
            for y, x in drow:
                _add_to(out, head + (y,) + tail, w * x, value, d)
    return out


def identity_failures(alg: NHomAlgebra, k: int, xi: int,
                      drows: Sequence[Sequence[tuple[int, int]]], dden: int,
                      weights: Mapping[int, int], wcols: Sequence[SparseInts], wden: int):
    """Yield ``(t, lhs, rhs)`` wherever W [e_t] differs from the weighted
    slot terms of D, in product order.

    ``lhs`` is W [e_t] and ``rhs`` the :func:`summed_slot_terms` of D with
    ``weights``, both as integer numerators over the tensor's denominator
    times ``dden`` ``wden`` den(alpha^k)^(n-1); D is given by its sparse
    integer rows over ``dden`` and W by its sparse integer columns over
    ``wden``.  Both sides are zero off the support and the tuples the slot
    terms reach, so only those are compared.
    """
    values, d = alg.tensor[0], alg.dim
    terms = summed_slot_terms(alg, k, xi, drows, weights)
    lift = dden * alg.alpha_power(k).ints[1] ** (alg.arity - 1)
    zero = [0] * d
    for t in sorted(terms.keys() | values.keys()):
        lhs = [x * lift for x in apply_ints(wcols, values.get(t, ()), d)]
        rhs = [x * wden for x in terms.get(t, zero)]
        if lhs != rhs:
            yield t, lhs, rhs


def _add_to(acc: dict, key, coeff: int, value: SparseInts, dim: int) -> None:
    """Add ``coeff`` times ``value`` to the dense list ``acc[key]``."""
    dense = acc.get(key)
    if dense is None:
        dense = acc[key] = [0] * dim
    for j, v in value:
        dense[j] += coeff * v


def bracket(alg: NHomAlgebra, args: Sequence[Sequence[Fraction]]) -> Vector:
    """Multilinear bracket of ``n`` coefficient vectors."""
    if len(args) != alg.arity:
        raise ValueError(f"bracket expects {alg.arity} arguments")
    d = alg.dim
    values, den = alg.tensor
    # the products of the arguments' nonzero entries, by basis tuple
    terms = [((), 1)]
    for a in args:
        if len(a) != d:
            raise ValueError("argument length does not match algebra dimension")
        (row,), a_den = Mat.from_rows([a]).ints
        terms = [(t + (j,), c * x) for t, c in terms for j, x in enumerate(row) if x]
        den *= a_den
    acc = [0] * d
    for t, c in terms:
        for j, v in values.get(t, ()):
            acc[j] += c * v
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
    stored = alg.table_ints[0]
    for key in stored:
        if any(key[i] == key[i + 1] and parity[key[i]] == EVEN for i in range(n - 1)):
            failures.append(ValidationFailure("skew", key, alg.table[key]))
    skew_ok = not failures

    # degree law and evenness of alpha
    degree_ok = True
    for key, ints in stored.items():
        want = alg.tuple_parity(key)
        if any(parity[j] != want for j, _ in ints):
            degree_ok = False
            failures.append(ValidationFailure("degree", key, tuple(
                x if parity[j] != want else Fraction(0) for j, x in enumerate(alg.table[key]))))
    grid, aden = alg.alpha.ints
    odd = [ValidationFailure("even_alpha", (r, c), (Fraction(grid[r][c], aden),))
           for r, c in product(range(d), repeat=2) if parity[r] != parity[c] and grid[r][c]]
    failures += odd
    even_alpha_ok = not odd

    values, tden = alg.tensor
    alpha_cols = sparse_columns(alg.alpha)[0]

    # The tensor needs no sign check.  Each entry is a stored value times
    # the sign that sorts its tuple: the product of -(-1)^{pq} over its
    # pairs of slots out of order, whatever the order of the sort.  An
    # adjacent swap of unequal entries puts one pair in or out of order, and
    # a swap of equal (odd) entries changes nothing, so every adjacent swap
    # multiplies an entry by -(-1)^{pq}.  Tuples with a repeated even index
    # are absent, as are their swaps; a stored key of that kind is the skew
    # failure recorded above.

    # Multiplicativity on canonical tuples (extends multilinearly): alpha's
    # slot-0 term with alpha in the other slots, [alpha e_t], against
    # W = alpha, both over tden aden^(n+1); kept to the weakly increasing t,
    # in combinations_with_replacement order.
    multiplicative_ok = True
    alpha_rows = sparse_rows(alg.alpha)[0]
    for t, lhs, rhs in identity_failures(alg, 1, 0, alpha_rows, aden, {0: 1}, alpha_cols, aden):
        if all(a <= b for a, b in zip(t, t[1:])):
            multiplicative_ok = False
            failures.append(ValidationFailure(
                "multiplicative", t, _residual(lhs, rhs, tden * aden ** (n + 1))))

    # Twisted Jacobi identity on the pairs (xs, ys) of basis tuples, as a
    # map identity: with D = ad_xs in the slots and W = ad_{alpha xs} on the
    # value, sum_i (-1)^{|xs||ys[:i]|} [alpha y_0, .., D y_i, .., alpha y_{n-1}]
    # = W [e_ys].  D's rows are over tden.  W's column j, [alpha e_xs, e_j],
    # is the entry xs + (j,) of the tensor opened at its last slot, over
    # wden = tden aden^(n-1).  Both sides are zero on every xs outside
    # _jacobi_prefixes, so only those are visited, in product order, and
    # the failures keep the product order of (xs, ys).
    jacobi_ok = True
    wden = tden * aden ** (n - 1)
    jden = tden * tden * wden * aden ** (n - 1)
    last = opened_tensor(alg, 1, n - 1)
    weights = dict.fromkeys(range(n), 1)
    for xs in _jacobi_prefixes(alg):
        # row r of D holds the (y, [e_xs, e_y]_r) with a nonzero entry
        drows: list[list[tuple[int, int]]] = [[] for _ in range(d)]
        for y in range(d):
            for r, x in values.get(xs + (y,), ()):
                drows[r].append((y, x))
        wcols = [last.get(xs + (j,), ()) for j in range(d)]
        for ys, lhs, rhs in identity_failures(alg, 1, alg.tuple_parity(xs), drows, tden,
                                              weights, wcols, wden):
            jacobi_ok = False
            failures.append(ValidationFailure("jacobi", (xs, ys), _residual(lhs, rhs, jden)))

    report = ValidationReport(skew_ok, jacobi_ok, multiplicative_ok,
                              even_alpha_ok, degree_ok, tuple(failures))
    alg._cache["validate"] = report
    return report


def _jacobi_prefixes(alg: NHomAlgebra) -> list[tuple[int, ...]]:
    """The xs on which the twisted Jacobi identity can fail, in product order.

    Its slot side is zero unless D = ad_xs is, that is unless xs is the head
    u[:-1] of a support tuple u; its value side is zero unless
    W = ad_{alpha xs} is, that is unless xs + (j,) is an entry of the tensor
    opened at its last slot for some j.
    """
    heads = {u[:-1] for u in alg.tensor[0]}
    return sorted(heads.union(v[:-1] for v in opened_tensor(alg, 1, alg.arity - 1)))


def center(alg: NHomAlgebra) -> tuple[SubspaceBasis, SubspaceBasis]:
    """Per-parity bases of {x : [x, y_2, ..., y_n] = 0 for all y}."""
    key = "center"
    if key in alg._cache:
        return alg._cache[key]
    d = alg.dim
    values = alg.tensor[0]
    out = []
    for par in (EVEN, ODD):
        idxs = [i for i in range(d) if alg.parity[i] == par]
        if not idxs:
            out.append(SubspaceBasis.zero(d))
            continue
        # a tail that follows no index of this parity in the support gives
        # zero rows only
        rows = []
        for rest in sorted({u[1:] for u in values if alg.parity[u[0]] == par}):
            # component l of the bracket of each idxs[pos] with rest, as a sparse row
            comps = [[] for _ in range(d)]
            for pos, i in enumerate(idxs):
                for l, x in values.get((i,) + rest, ()):
                    comps[l].append((pos, x))
            rows.extend(comps)
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
    d = alg.dim
    by_parity = {EVEN: [], ODD: []}
    values = alg.table_ints[0]
    for t, row in zip(values, map(dict, values.values())):
        by_parity[alg.tuple_parity(t)].append([row.get(j, 0) for j in range(d)])
    return (SubspaceBasis.span(d, by_parity[EVEN]),
            SubspaceBasis.span(d, by_parity[ODD]))


def is_alpha_surjective(alg: NHomAlgebra) -> bool:
    return rref(alg.alpha).rank == alg.dim


def transport(alg: NHomAlgebra, p: Mat) -> NHomAlgebra:
    """Conjugate the structure through an even invertible basis change.

    New basis f_i = sum_j p[j][i] e_j; the bracket table and alpha are
    rewritten in the f-coordinates.  [f_t] is the tensor pushed through the
    rows of p in every slot, then mapped through p^-1: integer numerators
    over the tensor's denominator times den(p)^n den(p^-1), which the new
    table keeps for the weakly increasing t.
    """
    d, n = alg.dim, alg.arity
    if (p.rows, p.cols) != (d, d):
        raise ValueError("basis-change matrix has wrong shape")
    if not is_homogeneous(alg.parity, 0, p):
        raise ValueError("basis-change matrix must be even")
    p_inv = invert(p)
    values, tden = alg.tensor
    prows, pden = sparse_rows(p)
    inv_cols, inv_den = sparse_columns(p_inv)
    den = tden * pden ** n * inv_den
    new_table = {}
    for t, value in _pushed(values, [prows] * n, d).items():
        if all(a <= b for a, b in zip(t, t[1:])):
            image = apply_ints(inv_cols, value, d)
            new_table[t] = tuple((j, x) for j, x in enumerate(image) if x)
    new_alpha = p_inv @ alg.alpha @ p
    return NHomAlgebra(n, d, alg.parity, (new_table, den), new_alpha,
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
