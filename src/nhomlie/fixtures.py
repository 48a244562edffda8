"""Bundled example algebras used by the test suite and the CLI docs.

All of them are desk-scale and exactly verifiable:

* ``abelian2``  -- n=2, dim 2, even, zero bracket, alpha = id.
* ``aff1``      -- n=2, dim 2, even, [e0, e1] = e1, alpha = id (the
                   nonabelian 2-dim Lie algebra).
* ``homaff1``   -- aff1 twisted by alpha = diag(1, 2).
* ``super2``    -- n=2, dim 2, parity (0, 1), [e0, e1] = e1, [e1, e1] = 0,
                   alpha = id.
* ``threeLie4`` -- n=3, dim 4, even, [e_i, e_j, e_k] = sign * e_l over
                   complementary indices (the Levi-Civita ternary bracket),
                   alpha = id.

``filippov(n)`` builds the simple n-Lie algebra A_{n+1} (Filippov, "n-Lie
algebras", Sib. Math. J. 26 (1985)): dim n + 1, even, [e_0, .., ê_i, ..,
e_n] = (-1)^{i+1} e_i, alpha = id.  At n = 3 it is ``threeLie4``.
"""

from __future__ import annotations

from .algebra import NHomAlgebra
from .linalg import Mat


def abelian2() -> NHomAlgebra:
    return NHomAlgebra(2, 2, (0, 0), {}, Mat.identity(2), name="abelian2")


def aff1() -> NHomAlgebra:
    return NHomAlgebra(2, 2, (0, 0), {(0, 1): (0, 1)}, Mat.identity(2), name="aff1")


def homaff1() -> NHomAlgebra:
    alpha = Mat.from_rows([[1, 0], [0, 2]])
    return NHomAlgebra(2, 2, (0, 0), {(0, 1): (0, 1)}, alpha, name="homaff1")


def super2() -> NHomAlgebra:
    return NHomAlgebra(2, 2, (0, 1), {(0, 1): (0, 1)}, Mat.identity(2), name="super2")


def threeLie4() -> NHomAlgebra:
    # [e_i, e_j, e_k] = epsilon_{ijkl} e_l
    table = {
        (0, 1, 2): (0, 0, 0, 1),
        (0, 1, 3): (0, 0, -1, 0),
        (0, 2, 3): (0, 1, 0, 0),
        (1, 2, 3): (-1, 0, 0, 0),
    }
    return NHomAlgebra(3, 4, (0, 0, 0, 0), table, Mat.identity(4), name="threeLie4")


def filippov(n: int) -> NHomAlgebra:
    # the key omitting i, whose value is (-1)^{i+1} e_i
    d = n + 1
    table = {tuple(j for j in range(d) if j != i): tuple((-1) ** (i + 1) if j == i else 0
                                                          for j in range(d))
             for i in range(d)}
    return NHomAlgebra(n, d, (0,) * d, table, Mat.identity(d), name=f"filippov{n}")


FIXTURES = {
    "abelian2": abelian2,
    "aff1": aff1,
    "homaff1": homaff1,
    "super2": super2,
    "threeLie4": threeLie4,
}


# --- deliberately broken variants, used to exercise the validator ----------

def corrupt_degree() -> NHomAlgebra:
    # super2 with an even value on an odd-degree tuple
    return NHomAlgebra(2, 2, (0, 1), {(0, 1): (1, 0)}, Mat.identity(2),
                       name="corrupt_degree")


def corrupt_jacobi() -> NHomAlgebra:
    # [e0, e1] = e2 and [e0, e2] = e0 break the 2-ary Jacobi identity
    table = {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0)}
    return NHomAlgebra(2, 3, (0, 0, 0), table, Mat.identity(3),
                       name="corrupt_jacobi")


def corrupt_multiplicative() -> NHomAlgebra:
    # alpha = diag(2, 3) fails alpha([e0,e1]) = [alpha e0, alpha e1] on aff1
    alpha = Mat.from_rows([[2, 0], [0, 3]])
    return NHomAlgebra(2, 2, (0, 0), {(0, 1): (0, 1)}, alpha,
                       name="corrupt_multiplicative")


def nonsurjective_abelian2() -> NHomAlgebra:
    # valid algebra with alpha = 0: gates the surjectivity-dependent checks
    return NHomAlgebra(2, 2, (0, 0), {}, Mat.zero(2, 2),
                       name="nonsurjective_abelian2")


CORRUPTED = {
    "corrupt_degree": corrupt_degree,
    "corrupt_jacobi": corrupt_jacobi,
    "corrupt_multiplicative": corrupt_multiplicative,
}

