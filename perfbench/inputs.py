"""Input algebras of the benchmark, built from structure constants.

Every constructor here returns an ``NHomAlgebra``; ``write_algebra``
stores it as the canonical algebra JSON the CLI reads, with a serializer of
its own, so that the input files (and the report digests keyed by them) do
not change when nhomlie's serializer does.  The ``nhomlie`` package is
passed in by the caller, so set-up can time a fresh import of it.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction


def so3_sum(nh, m: int):
    """so(3)^(+m): m commuting copies of [e0,e1]=e2, [e1,e2]=e0, [e2,e0]=e1."""
    d = 3 * m
    table = {}
    for c in range(m):
        i, j, k = 3 * c, 3 * c + 1, 3 * c + 2
        for args, (idx, coeff) in (((i, j), (k, 1)), ((j, k), (i, 1)), ((i, k), (j, -1))):
            vec = [0] * d
            vec[idx] = coeff
            table[args] = tuple(vec)
    return nh.NHomAlgebra(2, d, (0,) * d, table, nh.Mat.identity(d),
                          name=f"so3x{m}" if m > 1 else "so3")


def osp12(nh):
    """osp(1|2) on (h, e, f | x, y) with alpha = id."""
    terms = {
        (0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1},
        (0, 3): {3: 1}, (0, 4): {4: -1}, (1, 4): {3: -1}, (2, 3): {4: -1},
        (3, 3): {1: 2}, (3, 4): {0: 1}, (4, 4): {2: -2},
    }
    table = {args: tuple(val.get(i, 0) for i in range(5)) for args, val in terms.items()}
    return nh.NHomAlgebra(2, 5, (0, 0, 0, 1, 1), table, nh.Mat.identity(5), name="osp12")


def yau_twist(nh, alg, diag, name: str):
    """Twist a bracket by the diagonal automorphism ``diag``: [x, y]' = a([x, y])."""
    diag = [Fraction(x) for x in diag]
    table = {args: tuple(a * x for a, x in zip(diag, val)) for args, val in alg.table.items()}
    alpha = nh.Mat.from_rows([[diag[r] if r == c else 0 for c in range(alg.dim)]
                              for r in range(alg.dim)])
    return nh.NHomAlgebra(alg.arity, alg.dim, alg.parity, table, alpha, name=name)


def osp12_yau(nh):
    """osp(1|2) twisted by the lambda = 2 automorphism diag(1, 4, 1/4, 2, 1/2)."""
    return yau_twist(nh, osp12(nh), (1, 4, Fraction(1, 4), 2, Fraction(1, 2)), "osp12yau")


def dense_copy(nh, alg, rng: random.Random):
    """``transport`` of ``alg`` through a seeded even invertible basis change."""
    return nh.transport(alg, nh.random_even_invertible(alg.parity, rng))


def _rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def write_algebra(alg, path) -> None:
    """Canonical algebra JSON: sorted keys, compact, lowest-term rationals."""
    doc = {
        "arity": alg.arity,
        "dim": alg.dim,
        "parity": list(alg.parity),
        "alpha": [[_rational(x) for x in row] for row in alg.alpha.entries],
        "brackets": [{"args": list(args),
                      "value": [{"index": j, "coeff": _rational(x)}
                                for j, x in enumerate(alg.table[args]) if x]}
                     for args in sorted(alg.table)],
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
