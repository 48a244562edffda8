import random
import re
import time
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import factorial

import hypothesis.strategies as st
import pytest
from conftest import (
    apply,
    basis_value,
    col,
    mixed_change,
    ref_transport,
    unit_vector,
    vectors,
    yau_twist,
)
from hypothesis import example, given, settings

from nhomlie import algebra
from nhomlie.algebra import (
    NHomAlgebra,
    bracket,
    canonicalize_tuple,
    center,
    derived_subspace,
    is_alpha_surjective,
    transport,
    validate,
)
from nhomlie.extension import build_check
from nhomlie.fixtures import (
    CORRUPTED,
    FIXTURES,
    abelian2,
    aff1,
    corrupt_degree,
    filippov,
    homaff1,
    super2,
    threeLie4,
)
from nhomlie.linalg import Mat, vector
from nhomlie.propositions import random_even_invertible

F = Fraction


@st.composite
def graded_algebras(draw):
    """Tables on n <= 3, d <= 4 with mixed parity; keys may repeat any index."""
    n = draw(st.integers(2, 3))
    d = draw(st.integers(1, 4))
    parity = draw(st.lists(st.integers(0, 1), min_size=d, max_size=d))
    keys = draw(st.lists(st.sampled_from(list(combinations_with_replacement(range(d), n))),
                         max_size=4, unique=True))
    entry = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
    table = {key: draw(st.lists(entry, min_size=d, max_size=d)) for key in keys}
    return NHomAlgebra(n, d, parity, table, Mat.identity(d))


@st.composite
def twisted_algebras(draw):
    """n <= 4 with mixed parity and a twist with off-diagonal entries.

    The twist is even or, when ``odd`` is drawn, may mix the parities, and
    may be singular; d shrinks as n grows, so the full loops of the
    references stay small.
    """
    n = draw(st.integers(2, 4))
    d = draw(st.integers(1, {2: 4, 3: 3, 4: 2}[n]))
    parity = draw(st.lists(st.integers(0, 1), min_size=d, max_size=d))
    keys = draw(st.lists(st.sampled_from(list(combinations_with_replacement(range(d), n))),
                         max_size=3, unique=True))
    table = {key: draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
             for key in keys}
    odd = draw(st.booleans())
    alpha = [[draw(st.sampled_from([1, 2, -1, F(1, 2), 0])) if i == j
              else draw(st.sampled_from([0, 0, 1, -1, F(1, 3)]))
              if odd or parity[i] == parity[j] else 0
              for j in range(d)] for i in range(d)]
    return NHomAlgebra(n, d, parity, table, Mat.from_rows(alpha))


@st.composite
def degree_respecting_algebras(draw):
    """Mixed-parity tables that keep the degree law, with an even twist.

    No key repeats an even index, but keys at n = 3 may repeat an odd one;
    many of these algebras satisfy the twisted Jacobi identity, so
    ``validate`` decides them by the pass over canonical prefixes alone.
    """
    n = draw(st.integers(2, 3))
    d = draw(st.integers(1, {2: 4, 3: 3}[n]))
    parity = draw(st.lists(st.integers(0, 1), min_size=d, max_size=d))
    keys = [key for key in combinations_with_replacement(range(d), n)
            if not any(a == b and not parity[a] for a, b in zip(key, key[1:]))]
    keys = draw(st.lists(st.sampled_from(keys), max_size=3, unique=True)) if keys else []
    table = {key: [draw(st.integers(-2, 2)) if parity[j] == sum(parity[i] for i in key) % 2 else 0
                   for j in range(d)] for key in keys}
    alpha = [[draw(st.sampled_from([1, -1, 2])) if i == j
              else draw(st.sampled_from([0, 0, 1])) if parity[i] == parity[j] else 0
              for j in range(d)] for i in range(d)]
    return NHomAlgebra(n, d, parity, table, Mat.from_rows(alpha))


class TestCanonicalize:
    def test_even_swap_flips_sign(self):
        assert canonicalize_tuple((2, 1), (0, 0, 0)) == ((1, 2), -1)

    def test_repeated_odd_index_survives(self):
        # swapping two odd slots costs -(-1)^{1*1} = +1
        assert canonicalize_tuple((1, 1), (0, 1)) == ((1, 1), 1)

    def test_repeated_even_index_vanishes(self):
        assert canonicalize_tuple((1, 1), (0, 0)) == ((1, 1), 0)

    def test_odd_odd_swap_keeps_sign(self):
        assert canonicalize_tuple((2, 1), (0, 1, 1)) == ((1, 2), 1)

    def test_three_slot_sort(self):
        canon, sign = canonicalize_tuple((2, 1, 0), (0, 0, 0))
        assert canon == (0, 1, 2)
        assert sign == -1  # three adjacent swaps

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            canonicalize_tuple((0, 5), (0, 0))


class TestBracket:
    def test_aff1_table_lookup(self):
        a = aff1()
        assert bracket(a, [unit_vector(2, 0), unit_vector(2, 1)]) == vector([0, 1])

    def test_zero_argument(self):
        a = aff1()
        assert bracket(a, [unit_vector(2, 0), vector([0, 0])]) == vector([0, 0])

    def test_skew_even_pair(self):
        a = aff1()
        assert bracket(a, [unit_vector(2, 1), unit_vector(2, 0)]) == vector([0, -1])

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            bracket(aff1(), [unit_vector(2, 0)])

    @given(st.lists(st.integers(-5, 5), min_size=6, max_size=6),
           st.integers(-3, 3))
    def test_multilinearity(self, flat, lam):
        alg = aff1()
        u = vector(flat[0:2])
        v = vector(flat[2:4])
        w = vector(flat[4:6])
        lam = F(lam)
        combined = bracket(alg, [tuple(x + lam * y for x, y in zip(u, v)), w])
        split = tuple(x + lam * y for x, y in zip(bracket(alg, [u, w]),
                                                  bracket(alg, [v, w])))
        assert combined == split

    def test_skew_enumeration_all_fixtures(self):
        for alg in (build() for build in FIXTURES.values()):
            n, d = alg.arity, alg.dim
            units = [unit_vector(d, i) for i in range(d)]
            for t in product(range(d), repeat=n):
                base = bracket(alg, [units[i] for i in t])
                for s in range(n - 1):
                    swapped = list(t)
                    swapped[s], swapped[s + 1] = swapped[s + 1], swapped[s]
                    factor = 1 if (alg.parity[t[s]] and alg.parity[t[s + 1]]) else -1
                    got = bracket(alg, [units[i] for i in swapped])
                    assert got == tuple(factor * x for x in base)

    @settings(max_examples=60)
    @given(alg=graded_algebras())
    @example(alg=NHomAlgebra(3, 3, (0, 1, 1), {(1, 1, 2): (1, 0, 0), (0, 1, 1): (1, 0, 0)},
                             Mat.identity(3)))
    @example(alg=NHomAlgebra(3, 3, (0, 1, 0), {(0, 0, 1): (0, 1, 0), (1, 1, 2): (0, 0, 1)},
                             Mat.identity(3)))
    def test_adjacent_swaps_follow_the_sign_rule(self, alg):
        # the property validate no longer checks: every adjacent swap
        # multiplies the tensor by -(-1)^{pq}, repeated odd indices included,
        # and a stored key that repeats an even index leaves no entry behind
        # but is still reported by the stored-table skew check
        values, _ = alg.tensor
        parity = alg.parity
        for t in product(range(alg.dim), repeat=alg.arity):
            base = values.get(t, ())
            for s in range(alg.arity - 1):
                swapped = t[:s] + (t[s + 1], t[s]) + t[s + 2:]
                factor = 1 if (parity[t[s]] and parity[t[s + 1]]) else -1
                assert values.get(swapped, ()) == tuple((j, factor * x) for j, x in base)
        even_repeats = {key for key in alg.table
                        if any(a == b and parity[a] == 0 for a, b in zip(key, key[1:]))}
        assert all(tuple(sorted(t)) not in even_repeats for t in values)
        skew = {f.witness for f in validate(alg).failures if f.axiom == "skew"}
        assert skew == even_repeats

    def test_tensor_is_built_from_the_table_alone(self, monkeypatch):
        # no call per ordered tuple: none for an empty table, and at most n!
        # for one stored key, one per distinct ordering
        calls = []
        real = algebra.canonicalize_tuple
        monkeypatch.setattr(algebra, "canonicalize_tuple",
                            lambda *args: calls.append(args) or real(*args))
        alg = NHomAlgebra(6, 6, (0,) * 6, {}, Mat.identity(6))
        assert alg.tensor == ({}, 1)
        assert validate(alg).all_ok
        assert calls == []
        for key, parity in (((0, 1, 2, 3), (0, 1, 1, 0)), ((1, 1, 2, 3), (0, 1, 1, 0))):
            calls.clear()
            alg = NHomAlgebra(4, 4, parity, {key: (1, 0, 0, 0)}, Mat.identity(4))
            values, _ = alg.tensor
            assert len(calls) <= factorial(4)
            assert len(values) == len(set(permutations(key)))


class TestValidate:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_fixtures_pass(self, name):
        report = validate(FIXTURES[name]())
        assert report.all_ok, [f.axiom for f in report.failures]

    @pytest.mark.parametrize("name", sorted(CORRUPTED))
    def test_corrupted_fail_with_witness(self, name):
        report = validate(CORRUPTED[name]())
        assert not report.all_ok
        assert report.failures
        for f in report.failures:
            assert any(x != 0 for x in f.residual) or f.axiom in ("skew", "even_alpha")

    def test_degree_corruption_names_the_axiom(self):
        report = validate(CORRUPTED["corrupt_degree"]())
        assert not report.degree_ok

    def test_jacobi_corruption_names_the_axiom(self):
        report = validate(CORRUPTED["corrupt_jacobi"]())
        assert not report.jacobi_ok
        assert report.skew_ok

    def test_multiplicative_corruption_names_the_axiom(self):
        report = validate(CORRUPTED["corrupt_multiplicative"]())
        assert not report.multiplicative_ok
        assert report.jacobi_ok is False or report.jacobi_ok  # jacobi may also break

    def test_odd_alpha_flagged(self):
        alg = NHomAlgebra(2, 2, (0, 1), {}, Mat.from_rows([[0, 1], [1, 0]]))
        report = validate(alg)
        assert not report.even_alpha_ok

    @settings(max_examples=30)
    @given(data=st.data())
    def test_jacobi_failures_match_every_pair(self, data):
        # the Jacobi loop skips pairs that hold trivially; every failure, its
        # witness, its residual and their order must be those of the full loop
        n = data.draw(st.integers(2, 3))
        d = data.draw(st.integers(2, 3))
        parity = data.draw(st.lists(st.integers(0, 1), min_size=d, max_size=d))
        keys = data.draw(st.lists(st.sampled_from(list(
            combinations_with_replacement(range(d), n))), max_size=3, unique=True))
        table = {key: data.draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
                 for key in keys}
        alpha = Mat.from_rows([[data.draw(st.sampled_from([1, 2, -1])) if i == j else 0
                                for j in range(d)] for i in range(d)])
        alg = NHomAlgebra(n, d, parity, table, alpha)
        got = [(f.witness, f.residual) for f in validate(alg).failures if f.axiom == "jacobi"]
        assert got == ref_jacobi_failures(alg)

    @settings(max_examples=40)
    @given(alg=twisted_algebras())
    @example(alg=NHomAlgebra(4, 2, (0, 1), {(0, 1, 1, 1): (0, 1), (1, 1, 1, 1): (1, 0)},
                             Mat.from_rows([[1, 1], [0, 2]])))
    # [alpha e_0, alpha e_1] = 0 though alpha [e_0, e_1] is not: a failure
    # on the support that no push reaches
    @example(alg=NHomAlgebra(2, 2, (0, 0), {(0, 1): (1, 0)}, Mat.from_rows([[1, 0], [0, 0]])))
    def test_failures_match_the_full_loops(self, alg):
        # multiplicativity and the Jacobi identity are checked only where the
        # support reaches; on non-diagonal and odd twists, every failure, its
        # witness, its residual and their order must be those of the loops
        # over every tuple and every pair
        failures = validate(alg).failures
        got = {axiom: [(f.witness, f.residual) for f in failures if f.axiom == axiom]
               for axiom in ("multiplicative", "jacobi")}
        assert got["multiplicative"] == ref_multiplicative_failures(alg)
        assert got["jacobi"] == ref_jacobi_failures(alg)

    @settings(max_examples=60)
    @given(alg=degree_respecting_algebras())
    @example(alg=corrupt_degree())
    @example(alg=NHomAlgebra(2, 2, (0, 1), {(0, 1): (0, 1)}, Mat.from_rows([[1, 1], [0, 1]])))
    @example(alg=NHomAlgebra(3, 3, (0, 1, 1), {(1, 1, 1): (0, 0, 1)}, Mat.identity(3)))
    @example(alg=NHomAlgebra(3, 3, (0, 0, 1), {(1, 2, 2): (1, 0, 0)},
                             Mat.from_rows([[1, 0, 0], [1, 1, 0], [0, 0, -1]])))
    def test_canonical_pass_matches_every_pair(self, alg):
        # the pass over canonical prefixes and weakly increasing arguments
        # decides the passing inputs, the full loop the failing ones and
        # those with a degree failure or an odd twist: every failure, its
        # witness, its residual and their order are those of every pair
        report = validate(alg)
        got = [(f.witness, f.residual) for f in report.failures if f.axiom == "jacobi"]
        assert got == ref_jacobi_failures(alg)
        assert report.jacobi_ok == (not got)

    def test_jacobi_cost_follows_the_support(self, monkeypatch):
        # both sides are read from the support, with no bracket call,
        # where the loop over every pair made 6,264 on this extension; with
        # alpha = id, the prefixes visited are the canonical heads of
        # support tuples, and the other orderings of each are not
        ext = build_check(threeLie4()).ext
        alg = NHomAlgebra(ext.arity, ext.dim, ext.parity, ext.table, ext.alpha)
        calls, visited = _count_calls(monkeypatch)
        assert validate(alg).all_ok
        assert calls == []
        heads = {u[:-1] for u in alg.tensor[0]}
        assert visited == sorted(xs for xs in heads if xs[0] <= xs[1])
        assert len(visited) == 6 < len(heads) == 12 < alg.dim ** (alg.arity - 1)

    def test_bracketless_validate_and_center_build_nothing(self, monkeypatch):
        # no Jacobi prefix is visited and no kernel row is built, where the
        # loops over every tuple visited 6^5 prefixes and built 6^6 rows
        alg = NHomAlgebra(6, 6, (0,) * 6, {}, Mat.identity(6))
        calls, visited = _count_calls(monkeypatch)
        rows = []
        real_kernel = algebra.kernel

        def kernel(given, width):
            given = list(given)
            rows.extend(given)
            return real_kernel(given, width)

        monkeypatch.setattr(algebra, "kernel", kernel)
        assert validate(alg).all_ok
        even, odd = center(alg)
        assert (even.dim, odd.dim) == (6, 0)
        assert (calls, visited, rows) == ([], [], [])

    def test_bracketless_algebra_skips_every_jacobi_pair(self):
        # 6^9 Jacobi pairs, all trivially true: none is evaluated
        alg = NHomAlgebra(5, 6, (0,) * 6, {}, Mat.identity(6))
        start = time.perf_counter()
        assert validate(alg).all_ok
        assert time.perf_counter() - start < 3


class TestFilippov:
    def test_n3_is_threeLie4(self):
        assert filippov(3) == threeLie4()

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_validates_in_under_a_second(self, n):
        # A_7 (n = 6) took about 90 s on every prefix and argument ordering
        alg = filippov(n)
        assert (alg.arity, alg.dim, len(alg.table)) == (n, n + 1, n + 1)
        start = time.perf_counter()
        assert validate(alg).all_ok
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("n", [3, 4])
    def test_sign_twist_validates(self, n):
        # diag(-1, -1, 1, .., 1) has determinant 1, so it is a morphism of
        # A_{n+1} and its Yau twist is multiplicative
        assert validate(yau_twist(filippov(n), [-1, -1] + [1] * (n - 1))).all_ok


def _count_calls(monkeypatch):
    """Record every ``bracket`` call and every Jacobi prefix visited."""
    calls, visited = [], []
    real_bracket, real_prefixes = algebra.bracket, algebra._jacobi_prefixes

    def bracket(*args, **kwargs):
        calls.append(args)
        return real_bracket(*args, **kwargs)

    def prefixes(*args):
        out = real_prefixes(*args)
        visited.extend(out)
        return out

    monkeypatch.setattr(algebra, "bracket", bracket)
    monkeypatch.setattr(algebra, "_jacobi_prefixes", prefixes)
    return calls, visited


def ref_multiplicative_failures(alg):
    """``(t, alpha [e_t] - [alpha e_t])`` for every failing canonical tuple, through ``bracket``."""
    cols = [col(alg.alpha, i) for i in range(alg.dim)]
    out = []
    for t in combinations_with_replacement(range(alg.dim), alg.arity):
        lhs = apply(alg.alpha, basis_value(alg, t))
        rhs = list(bracket(alg, [cols[i] for i in t]))
        if lhs != rhs:
            out.append((t, tuple(x - y for x, y in zip(lhs, rhs))))
    return out


def ref_jacobi_failures(alg):
    """``((xs, ys), lhs - rhs)`` for every failing Jacobi pair, through ``bracket``."""
    d, n = alg.dim, alg.arity
    cols = [col(alg.alpha, i) for i in range(d)]
    out = []
    for xs in product(range(d), repeat=n - 1):
        px = alg.tuple_parity(xs)
        for ys in product(range(d), repeat=n):
            lhs = bracket(alg, [cols[i] for i in xs] + [basis_value(alg, ys)])
            rhs = [F(0)] * d
            prefix = 0
            for i in range(n):
                args = [cols[j] for j in ys]
                args[i] = basis_value(alg, xs + (ys[i],))
                sign = -1 if px & prefix else 1
                rhs = [r + sign * x for r, x in zip(rhs, bracket(alg, args))]
                prefix ^= alg.parity[ys[i]]
            if list(lhs) != rhs:
                out.append(((xs, ys), tuple(x - y for x, y in zip(lhs, rhs))))
    return out


class TestConstructor:
    def test_requires_weakly_increasing_keys(self):
        with pytest.raises(ValueError):
            NHomAlgebra(2, 2, (0, 0), {(1, 0): (0, 1)}, Mat.identity(2))

    def test_requires_index_in_range(self):
        with pytest.raises(ValueError):
            NHomAlgebra(2, 2, (0, 0), {(0, 5): (0, 1)}, Mat.identity(2))

    def test_requires_arity_two(self):
        with pytest.raises(ValueError):
            NHomAlgebra(1, 2, (0, 0), {}, Mat.identity(2))

    def test_zero_dim_is_legal(self):
        alg = NHomAlgebra(2, 0, (), {}, Mat.zero(0, 0))
        assert validate(alg).all_ok

    def test_zero_values_are_dropped(self):
        alg = NHomAlgebra(2, 2, (0, 0), {(0, 1): (0, 0)}, Mat.identity(2))
        assert alg.table == {}

    @pytest.mark.parametrize("table, message", [
        (({(0, 1): ((1, 1),)}, -1), "table denominator must be a positive int, got -1"),
        (({(0, 1): ((1, 1),)}, 0), "table denominator must be a positive int, got 0"),
        (({(0, 1): ((1, 1),)}, F(1)), "table denominator must be a positive int, got Fraction"),
        (({(0, 1): ((1, 1), (1, 2))}, 3), "(0, 1) needs int indices in range, strictly increasing"),
        (({(0, 1): ((1, 1), (0, 2))}, 3), "(0, 1) needs int indices in range, strictly increasing"),
        (({(0, 1): ((2, 1),)}, 3), "(0, 1) needs int indices in range, strictly increasing"),
        (({(0, 1): ((-1, 1),)}, 3), "(0, 1) needs int indices in range, strictly increasing"),
        (({(0, 1): ((F(1), 1),)}, 3), "(0, 1) needs int indices in range, strictly increasing"),
        (({(0, 1): ((1, 0),)}, 3), "(0, 1) needs nonzero int coefficients"),
        (({(0, 1): ((1, F(1, 2)),)}, 3), "(0, 1) needs nonzero int coefficients"),
    ], ids=["den_negative", "den_zero", "den_fraction", "index_repeated", "index_decreasing",
            "index_past_dim", "index_negative", "index_fraction", "coeff_zero", "coeff_fraction"])
    def test_integer_table_is_checked(self, table, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            NHomAlgebra(2, 2, (0, 0), table, Mat.identity(2))


class TestStore:
    def test_slots_are_the_inputs_and_the_store(self):
        assert NHomAlgebra.__slots__ == ("arity", "dim", "parity", "table_ints", "alpha", "name",
                                         "_cache")

    def test_tensor_powers_and_view_are_read_through_the_store(self, monkeypatch):
        keys = []
        real = NHomAlgebra.cached
        monkeypatch.setattr(NHomAlgebra, "cached",
                            lambda alg, key, build: keys.append(key) or real(alg, key, build))
        alg = homaff1()
        for read in (lambda: alg.tensor, lambda: alg.alpha_power(3), lambda: alg.table):
            keys.clear()
            first = read()
            assert keys, "built outside the store"
            keys.clear()
            assert read() is first
            assert len(keys) == 1  # a hit is one store lookup
        assert alg.alpha_power(3) == Mat.from_rows([[1, 0], [0, 8]])

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_table_view_is_the_rational_table_given(self, name, monkeypatch):
        given = []
        real = NHomAlgebra.__init__

        def recording(alg, arity, dim, parity, table, *args, **kwargs):
            given.append(table)
            real(alg, arity, dim, parity, table, *args, **kwargs)

        monkeypatch.setattr(NHomAlgebra, "__init__", recording)
        alg = FIXTURES[name]()
        (table,) = given
        assert alg.table == {tuple(key): vector(value) for key, value in table.items()
                             if any(value)}


class TestCenterAndDerived:
    def test_abelian_center_is_everything(self):
        even, odd = center(abelian2())
        assert (even.dim, odd.dim) == (2, 0)

    def test_aff1_center_trivial(self):
        even, odd = center(aff1())
        assert (even.dim, odd.dim) == (0, 0)

    def test_threeLie4_center_trivial(self):
        even, odd = center(threeLie4())
        assert (even.dim, odd.dim) == (0, 0)

    def test_abelian_derived_trivial(self):
        even, odd = derived_subspace(abelian2())
        assert (even.dim, odd.dim) == (0, 0)

    def test_aff1_derived_is_e2_line(self):
        even, odd = derived_subspace(aff1())
        assert vectors(even) == (unit_vector(2, 1),)
        assert odd.dim == 0

    def test_threeLie4_derived_full(self):
        even, odd = derived_subspace(threeLie4())
        assert even.dim == 4

    def test_super2_derived_is_odd(self):
        even, odd = derived_subspace(super2())
        assert (even.dim, odd.dim) == (0, 1)


class TestAlphaPower:
    def test_power_zero_is_identity(self):
        assert homaff1().alpha_power(0) == Mat.identity(2)

    def test_diagonal_square(self):
        assert homaff1().alpha_power(2) == Mat.from_rows([[1, 0], [0, 4]])

    def test_identity_alpha_stays_identity(self):
        assert aff1().alpha_power(5) == Mat.identity(2)

    def test_high_powers_are_built_from_halves(self):
        # built from alpha^(k//2) and alpha^(k - k//2), not k calls deep
        assert aff1().alpha_power(5000) == Mat.identity(2)
        assert homaff1().alpha_power(3000) == Mat(2, 2, (((1, 0), (0, 2 ** 3000)), 1))

    def test_surjectivity(self):
        assert is_alpha_surjective(aff1())
        assert is_alpha_surjective(homaff1())
        zero_twist = NHomAlgebra(2, 2, (0, 0), {}, Mat.zero(2, 2))
        assert not is_alpha_surjective(zero_twist)


class TestTransport:
    def test_dims_invariant_under_transport(self):
        p = Mat.from_rows([[1, 3], [0, 1]])
        a = aff1()
        moved = transport(a, p)
        assert validate(moved).all_ok
        assert [s.dim for s in center(moved)] == [s.dim for s in center(a)]
        assert [s.dim for s in derived_subspace(moved)] == \
               [s.dim for s in derived_subspace(a)]

    def test_transport_rejects_odd_change(self):
        p = Mat.from_rows([[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            transport(super2(), p)

    def test_transport_rejects_singular_change(self):
        p = Mat.from_rows([[1, 1], [1, 1]])
        with pytest.raises(ValueError):
            transport(aff1(), p)

    @given(alg=twisted_algebras(), seed=st.integers(0, 2**16))
    def test_transport_is_the_reference(self, alg, seed):
        for p in (random_even_invertible(alg.parity, random.Random(seed)),
                  mixed_change(alg.parity)):
            moved, ref = transport(alg, p), ref_transport(alg, p)
            assert moved.table == ref.table
            assert moved.alpha == ref.alpha
            assert moved.name == ref.name

    def test_transport_evaluates_no_bracket(self, monkeypatch):
        calls, _ = _count_calls(monkeypatch)
        transport(threeLie4(), mixed_change(threeLie4().parity))
        bracketless = NHomAlgebra(4, 6, (0,) * 6, {}, Mat.identity(6))
        assert transport(bracketless, mixed_change(bracketless.parity)).table == {}
        assert calls == []
