#!/usr/bin/env python3
"""Exact check of prop 3.8's Hom-Jordan identity on every bundled fixture.

``check_prop38`` evaluates every basis quadruple of the commutant only when
there are at most 10^4 of them.  On threeLie4 (Omega of dimension 16,
65,536 basis quadruples) its ``38.1.hom_jordan_identity`` claim rests on
random samples, and the report must not change.  The residual is 4-linear
on homogeneous maps, so it vanishes everywhere iff it vanishes on every
basis quadruple.  This script walks all of them through
``propositions.hom_jordan_walk``, the loop ``check_prop38`` uses: one
quadruple per rotation class of its first three indices is evaluated (a
rotation only reorders the residual's signed terms), and the Jordan values
and the associators are cached on operand values exactly as in the report.
It prints one line per fixture and, on a nonzero residual, the parities of
the quadruple and the residual, and then exits 1.

    python3 scripts/hom_jordan_exact.py
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from nhomlie.fixtures import FIXTURES  # noqa: E402
from nhomlie.propositions import hom_jordan_walk, rotation_classes  # noqa: E402
from nhomlie.solver import omega  # noqa: E402


def exact_failure(alg):
    """Basis quadruples walked, and the first failure's (parities, residual) or ()."""
    basis = [e for xi in (0, 1) for e in omega(alg, xi).basis]
    return hom_jordan_walk(alg, rotation_classes(basis))


def main() -> int:
    bad = 0
    for name in sorted(FIXTURES):
        checked, failure = exact_failure(FIXTURES[name]())
        if failure:
            bad += 1
            parities, residual = failure
            print(f"FAIL: {name}: basis quadruple {checked} of parities {parities}, "
                  f"residual {residual}")
        else:
            print(f"ok: {name}: every residual is zero on {checked} basis quadruples")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
