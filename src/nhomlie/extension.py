"""Two-block extension of an algebra and the derivation embedding.

Given N of dimension d, the extension lives on 2d coordinates: indices
0..d-1 form the first block ("degree one"), indices d..2d-1 the second
("degree n").  Brackets multiply block degrees, and anything past degree n
is annihilated, so the only surviving products take first-block arguments
to the second block.  The twist acts blockwise.

Quasiderivations of N embed as derivations of the extension: a pair
(D, D') acts as D on the first block, as D' on the bracket-image part of
the second block, and as zero on the chosen complement U.  D' is fixed
only up to the maps that commute with alpha and kill [N, ..., N]; the QDer
solve returns them as its ``slack``, and prop 4.2 checks that the
embedding does not see them.  When N is centerless, these embedded maps
together with the center derivations of the extension decompose its whole
derivation space as a direct sum.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .algebra import (NHomAlgebra, _require_valid, center, derived_subspace, invert,
                      is_homogeneous, validate)
from .linalg import (
    Mat,
    SubspaceBasis,
    _grown,
    linear_combination,
    subspace_sum,
    extend_to_complement,
)
from .propositions import SEED, Claim, PropReport, _least_powers, _levels, _mat_witness, _report
from .solver import GradedEndo, Kind, in_space, qder_identity_holds, solve


@dataclass(frozen=True)
class TExtension:
    base: NHomAlgebra
    ext: NHomAlgebra
    # projection of the base space onto the derived subspace along U
    derived_projection: Mat


def build_check(alg: NHomAlgebra) -> TExtension:
    """Construct the two-block extension and validate it end to end.

    A source that fails its axioms raises ``InvalidAlgebra``.  The result is
    cached on ``alg``, so every check on one source algebra shares one
    extension, with its validation and solver caches.
    """
    return alg.cached("build_check", lambda: _build_check(alg))


def _build_check(alg: NHomAlgebra) -> TExtension:
    _require_valid(alg)
    d, n = alg.dim, alg.arity
    values, den = alg.table_ints
    table = {key: tuple((j + d, x) for j, x in ints) for key, ints in values.items()}
    parity = alg.parity + alg.parity
    alpha = _block_diagonal(alg.alpha, alg.alpha)
    ext = NHomAlgebra(n, 2 * d, parity, (table, den), alpha,
                      name=f"{alg.name}^ext" if alg.name else "ext")
    if not validate(ext).all_ok:
        raise ValueError("extension failed axiom validation")

    der_even, der_odd = derived_subspace(alg)
    u_even = extend_to_complement(der_even, [i for i in range(d) if alg.parity[i] == 0])
    u_odd = extend_to_complement(der_odd, [i for i in range(d) if alg.parity[i] == 1])
    # rescaling a column of change leaves change @ selector @ change_inv as it is
    cols = u_even.rows + u_odd.rows + der_even.rows + der_odd.rows
    if len(cols) != d:
        raise ValueError("complement construction did not produce a direct sum")
    change = Mat.from_vec_pairs(d, [(c * d + i, x) for c, col in enumerate(cols)
                                    for i, x in col], 1)
    change_inv = invert(change)
    n_u = u_even.dim + u_odd.dim
    selector = Mat(d, d, (((0,) * d,) * n_u + Mat.identity(d).ints[0][n_u:], 1))
    projection = change @ selector @ change_inv
    return TExtension(alg, ext, projection)


def phi(text: TExtension, endo: GradedEndo, witness: Mat, k: int) -> GradedEndo:
    """Embed a quasiderivation witness pair as a map on the extension.

    Acts as ``endo`` on the first block, as ``witness`` on the derived part
    of the second block, and as zero on the complement part.
    """
    if not qder_identity_holds(text.base, k, endo.xi, endo, witness):
        raise ValueError("witness pair fails the quasiderivation identity")
    return GradedEndo(_block_diagonal(endo.mat, witness @ text.derived_projection), endo.xi)


def _block_diagonal(a: Mat, b: Mat) -> Mat:
    """The block-diagonal matrix with ``a`` top left and ``b`` bottom right."""
    (ga, da), (gb, db) = a.ints, b.ints
    za, zb = (0,) * b.cols, (0,) * a.cols
    grid = tuple(tuple(db * x for x in row) + za for row in ga) + \
        tuple(zb + tuple(da * x for x in row) for row in gb)
    return Mat(a.rows + b.rows, a.cols + b.cols, (grid, da * db))


def _embedded(alg: NHomAlgebra, k: int, xi: int):
    """QDer at (k, xi), phi of its basis pairs and their span, cached for 4.2 and 4.3."""
    def build():
        qd = solve(alg, Kind.QDER, k, xi)
        images = [phi(build_check(alg), g, w, k) for g, w in zip(qd.basis, qd.witnesses)]
        return qd, images, _grown((2 * alg.dim) ** 2, (), (g.mat.vec_pairs() for g in images))
    return alg.cached(("embedded", alg.alpha_power(k), xi), build)


def check_prop42(alg: NHomAlgebra, kmax: int = 2) -> PropReport:
    """Parity preservation, injectivity, witness independence, image in Der.

    Witness independence adds random combinations of the solved space's
    ``slack`` to each witness: the maps that commute with alpha and kill
    [N, ..., N], the witnesses of the zero map, which phi must not see.
    Each claim's witness is its first failure in (k, xi) order, walking only
    least twist powers: every space read depends on k through alpha^k alone.
    """
    text = build_check(alg)
    ext = text.ext
    rng = random.Random(SEED)
    bad_parity = bad_inject = bad_witness = bad_der = None
    for k, xi in _levels(kmax, _least_powers(alg, kmax)):
        qd, images, stacked = _embedded(alg, k, xi)
        for img in images:
            if bad_parity is None and not is_homogeneous(ext.parity, xi, img.mat):
                bad_parity = ((k, xi), _mat_witness(img.mat))
            if bad_der is None and not in_space(ext, Kind.DER, k, xi, img):
                bad_der = ((k, xi), _mat_witness(img.mat))
        if bad_inject is None and stacked.dim != qd.dim:
            bad_inject = ((k, xi, qd.dim, stacked.dim), ())
        if bad_witness is None and qd.slack:
            for g, w, img in zip(qd.basis, qd.witnesses, images):
                noise = linear_combination([rng.randint(-3, 3) for _ in qd.slack], qd.slack)
                if phi(text, g, w + noise, k).mat != img.mat:
                    bad_witness = ((k, xi), _mat_witness(noise))
                    break
    claims = [Claim(name, "fail" if bad else "pass", detail=detail, witness=bad or ())
              for name, bad, detail in (
                  ("42.1.parity_preserving", bad_parity, ""),
                  ("42.2.injective", bad_inject, ""),
                  ("42.2.witness_independent", bad_witness, f"seed {SEED}"),
                  ("42.3.image_in_Der", bad_der, ""))]
    return _report("4.2", claims)


def check_prop43(alg: NHomAlgebra, kmax: int = 2) -> PropReport:
    """Der(ext) splits as the embedded quasiderivations plus ZDer(ext).

    Grades are walked as in 4.2; the witness is the first failing grade, and
    the detail lists every k with its least power's dims.  Maps are compared
    flattened column-major, the solver's order, so the solved spaces embed
    with no elimination (:meth:`EndoSubspace.as_subspace`).
    """
    least = _least_powers(alg, kmax)
    z_even, z_odd = center(alg)
    if z_even.dim or z_odd.dim:
        claims = [
            Claim("43.center_of_ext", "skipped", detail="center of the base is nonzero"),
            Claim("43.direct_sum", "skipped", detail="center of the base is nonzero"),
        ]
        return _report("4.3", claims)
    ext = build_check(alg).ext
    d = alg.dim
    d2 = (2 * d) ** 2
    claims = []

    ok = center(ext) == tuple(
        SubspaceBasis(2 * d, tuple(((d + i, 1),) for i, p in enumerate(alg.parity) if p == par))
        for par in (0, 1))
    claims.append(Claim("43.center_of_ext", "pass" if ok else "fail",
                        detail="center of the extension is the second block"))

    bad = None
    dims = {}
    for k, xi in _levels(kmax, least):
        a_sub = _embedded(alg, k, xi)[2]
        b_sub = solve(ext, Kind.ZDER, k, xi).as_subspace(d2)
        c_sub = solve(ext, Kind.DER, k, xi).as_subspace(d2)
        dims[k, xi] = f"{a_sub.dim}+{b_sub.dim}={c_sub.dim}"
        if bad is None:
            # A meets B in zero exactly when dim(A + B) = dim A + dim B
            both = subspace_sum(a_sub, b_sub)
            if both.dim < a_sub.dim + b_sub.dim:
                bad = ((k, xi), "intersection is nonzero")
            elif both != c_sub:
                bad = ((k, xi), "sum does not exhaust the derivation space")
    claims.append(Claim("43.direct_sum", "fail" if bad else "pass",
                        detail="; ".join(f"k={k} xi={xi}: {dims[least[k], xi]}"
                                         for k in range(kmax + 1) for xi in (0, 1)),
                        witness=(bad,) if bad else ()))
    return _report("4.3", claims)
