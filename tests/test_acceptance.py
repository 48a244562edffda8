"""Acceptance suite: one test per criterion, one printed line per criterion.

Everything is exact rational arithmetic, so every comparison is equality;
there are no tolerances anywhere.  Criterion 2 is confirmed against the
independent dense oracle in ``scripts/oracle_dims.py`` before the main
solver's numbers are accepted.
"""

import importlib.util
import json
import pathlib
import random

import pytest
from conftest import (check_basis_change, dense, is_subspace_of, span, subspace_intersect,
                      unit_vector)

from nhomlie.algebra import center, validate
from nhomlie.cli import main
from nhomlie.extension import build_check, check_prop42, check_prop43, phi
from nhomlie.fixtures import CORRUPTED, FIXTURES
from nhomlie.linalg import Mat, contains
from nhomlie.propositions import (
    check_prop31,
    check_prop32,
    check_prop33,
    check_prop34,
    check_prop38,
    check_prop39,
    random_even_invertible,
)
from nhomlie.solver import (
    GradedEndo,
    Kind,
    allowed_positions,
    in_space,
    omega,
    solve,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "nhomlie" / "data"
KMAX = 2

# constructed once so solver caches are shared across criteria
ALGS = {name: build() for name, build in FIXTURES.items()}


def _load_oracle():
    spec = importlib.util.spec_from_file_location(
        "oracle_dims", ROOT / "scripts" / "oracle_dims.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _line(num: int, ok: bool, message: str):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {message}")


def test_criterion_1_axiom_validation():
    good = {name: validate(alg).all_ok for name, alg in ALGS.items()}
    corrupted = {name: validate(build()) for name, build in CORRUPTED.items()}
    bad_ok = {name: (not rep.all_ok and len(rep.failures) > 0)
              for name, rep in corrupted.items()}
    ok = all(good.values()) and len(good) == 5 and \
        all(bad_ok.values()) and len(bad_ok) == 3
    _line(1, ok, f"5 fixtures validate, {sum(bad_ok.values())}/3 corrupted "
                 "variants fail with nonempty witnesses")
    assert all(good.values()), good
    assert all(bad_ok.values()), bad_ok


def test_criterion_2_dimension_table_with_oracle():
    oracle = _load_oracle()
    dims, centers, ext_dims = oracle.compute_reference()

    # the oracle must reproduce the reference values first
    oracle_ok = all(dims[(f, kind, k, xi)] == want
                    for f, kind, k, xi, want in oracle.REFERENCE_TABLE)
    oracle_ok &= all(centers[f] == want for f, want in oracle.REFERENCE_CENTERS)
    oracle_ok &= all(ext_dims[kind] == want
                     for kind, want in oracle.REFERENCE_EXTENSION)
    assert oracle_ok, "independent oracle disagrees with the reference table"

    # and the main solver must agree with the oracle on every entry
    solver_ok = True
    for f, kind, k, xi, want in oracle.REFERENCE_TABLE:
        got = solve(ALGS[f], Kind(kind), k, xi).dim
        solver_ok &= got == want == dims[(f, kind, k, xi)]
    for f, want in oracle.REFERENCE_CENTERS:
        even, odd = center(ALGS[f])
        solver_ok &= even.dim + odd.dim == want == centers[f]
    text = build_check(ALGS["aff1"])
    solver_ok &= solve(text.ext, Kind.DER, 0, 0).dim == 10 == ext_dims["Der"]
    solver_ok &= solve(text.ext, Kind.ZDER, 0, 0).dim == 6 == ext_dims["ZDer"]
    _line(2, solver_ok, "dimension table confirmed by the independent dense oracle")
    assert solver_ok


def test_criterion_3_tower():
    ok = True
    for name, alg in ALGS.items():
        d2 = alg.dim ** 2
        for k in range(KMAX + 1):
            for xi in (0, 1):
                chain = [solve(alg, kd, k, xi).as_subspace(d2)
                         for kd in (Kind.ZDER, Kind.DER, Kind.QDER, Kind.GDER)]
                chain.append(omega(alg, xi).as_subspace(d2))
                for small, big in zip(chain, chain[1:]):
                    if not is_subspace_of(small, big):
                        ok = False
    _line(3, ok, "ZDer <= Der <= QDer <= GDer <= Omega on every fixture, "
                 f"k <= {KMAX}, both parities")
    assert ok


def test_criterion_4_propositions():
    checks = [check_prop31, check_prop32, check_prop33, check_prop34,
              check_prop38, check_prop39]
    failures = []
    skipped = []
    for name, alg in ALGS.items():
        for check in checks:
            report = check(alg, KMAX)
            for c in report.claims:
                if c.status == "fail":
                    failures.append((name, report.prop, c.claim_id))
                if c.status == "skipped":
                    skipped.append((name, report.prop, c.claim_id))
    # every fixture has surjective alpha, so only the center-gated
    # sub-claims may be skipped
    gate_ok = all("centerless" in cid or "center" in cid
                  for _, _, cid in skipped)
    ok = not failures and gate_ok
    _line(4, ok, f"prop checks 3.1-3.9 pass on all fixtures at K_max={KMAX} "
                 f"({len(skipped)} center-gated skips)")
    assert not failures, failures
    assert gate_ok, skipped


def test_criterion_5_extension_decomposition():
    alg = ALGS["aff1"]
    text = build_check(alg)
    qd = solve(alg, Kind.QDER, 0, 0)
    images = [phi(text, g, w, 0).mat.vec_pairs() for g, w in zip(qd.basis, qd.witnesses)]
    from nhomlie.linalg import subspace_sum
    a_sub = span(16, [dense(v, 16) for v in images])
    b_sub = solve(text.ext, Kind.ZDER, 0, 0).as_subspace(16)
    c_sub = solve(text.ext, Kind.DER, 0, 0).as_subspace(16)
    dims_ok = (a_sub.dim, b_sub.dim, c_sub.dim) == (4, 6, 10)
    split_ok = subspace_intersect(a_sub, b_sub).dim == 0 and \
        subspace_sum(a_sub, b_sub) == c_sub
    even, odd = center(text.ext)
    center_ok = even == span(4, [unit_vector(4, 2), unit_vector(4, 3)]) \
        and odd.dim == 0
    report_ok = check_prop43(alg, KMAX).passed and check_prop42(alg, KMAX).passed
    ok = dims_ok and split_ok and center_ok and report_ok
    _line(5, ok, "aff1 extension: 4 + 6 = 10 exact direct sum at k=0, "
                 "center of the extension is the second block")
    assert dims_ok and split_ok and center_ok and report_ok


def test_criterion_6_isomorphism_invariance():
    ok = True
    for name, alg in ALGS.items():
        rng = random.Random(f"criterion6:{name}")
        for _ in range(100):
            p = random_even_invertible(alg.parity, rng)
            report = check_basis_change(alg, p, KMAX)
            if not report.passed:
                ok = False
                break
    _line(6, ok, "100 random even basis changes per fixture leave every "
                 "solved dimension unchanged")
    assert ok


def test_criterion_7_cross_validation():
    ok = True
    checked_spaces = 0
    for name, alg in ALGS.items():
        d = alg.dim
        for kind in Kind:
            for k in range(KMAX + 1):
                if kind is Kind.OMEGA and k > 0:
                    continue
                for xi in (0, 1):
                    space = solve(alg, kind, k, xi)
                    checked_spaces += 1
                    for g in space.basis:
                        if not in_space(alg, kind, k, xi, g):
                            ok = False
                    pos = allowed_positions(alg.parity, xi)
                    span = space.as_subspace(d * d)
                    if not pos or span.dim == len(pos):
                        continue  # no homogeneous map lies outside the span
                    rng = random.Random((name, kind.value, k, xi).__repr__())
                    outside = 0
                    attempts = 0
                    while outside < 20 and attempts < 400:
                        attempts += 1
                        grid = [[0] * d for _ in range(d)]
                        for r, c in pos:
                            grid[r][c] = rng.randint(-4, 4)
                        cand = Mat.from_rows(grid, cols=d)
                        if contains(span, cand.vec_pairs()):
                            continue
                        outside += 1
                        if in_space(alg, kind, k, xi, GradedEndo(cand, xi)):
                            ok = False
                    if outside < 20:
                        ok = False
    _line(7, ok, f"every basis element of {checked_spaces} solved spaces "
                 "re-passes its definition; 20 outside maps per space fail")
    assert ok


def test_criterion_8_cli_round_trip(tmp_path):
    ext_path = tmp_path / "aff1_ext.json"
    code_extend = main(["extend", str(DATA / "aff1.json"), "--out", str(ext_path)])
    code_validate = main(["validate", str(ext_path),
                          "--out", str(tmp_path / "v.json")])
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["props", str(DATA / "aff1.json"), "--kmax", "1"]
    main(args + ["--out", str(r1)])
    main(args + ["--out", str(r2)])
    identical = r1.read_bytes() == r2.read_bytes()
    ok = code_extend == 0 and code_validate == 0 and identical
    _line(8, ok, "extend | validate exits 0; reports byte-identical across runs")
    assert code_extend == 0
    assert code_validate == 0
    assert identical
