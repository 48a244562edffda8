"""Command-line driver.

Commands emit a canonical JSON report on stdout (or ``--out``).  Exit code
0 means every requested check passed, 1 means a mathematical check failed
(the report is still emitted), 2 means the input could not be used.
"""

from __future__ import annotations

import argparse
import sys

from .algebra import center, validate
from .extension import build_check, check_prop42, check_prop43
from .io import (
    PrecheckError,
    SchemaError,
    canonical_json,
    digest_bytes,
    dims_doc,
    endospace_doc,
    parse_algebra,
    prop_report_doc,
    report_envelope,
    serialize_algebra,
    subspace_doc,
)
from .propositions import (
    check_prop31,
    check_prop32,
    check_prop33,
    check_prop34,
    check_prop38,
    check_prop39,
    solved_dims,
)
from .solver import TUPLE_KINDS, Kind, solve

KIND_NAMES = [k.value for k in Kind]


def nonnegative_int(text: str) -> int:
    """argparse type of ``--kmax``: a negative twist power is a usage error (exit 2)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(path):
    """The algebra at ``path`` and the SHA-256 of the bytes it was parsed from.

    The file is read once, so a pipe is hashed as it was parsed.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    return parse_algebra(path, raw), digest_bytes(raw)


def _cmd_validate(args) -> int:
    alg, digest = _load(args.file)
    report = validate(alg)
    body = {
        "validation": {
            "skew_ok": report.skew_ok,
            "jacobi_ok": report.jacobi_ok,
            "multiplicative_ok": report.multiplicative_ok,
            "even_alpha_ok": report.even_alpha_ok,
            "degree_ok": report.degree_ok,
            "failures": [
                {"axiom": f.axiom, "witness": repr(f.witness),
                 "residual": [str(x) for x in f.residual]}
                for f in report.failures
            ],
        }
    }
    doc = report_envelope("validate", args.file, digest, body, report.all_ok)
    _emit(canonical_json(doc), args.out)
    return 0 if report.all_ok else 1


def _cmd_center(args) -> int:
    alg, digest = _load(args.file)
    even, odd = center(alg)
    body = {
        "center": {
            "even": {"dim": even.dim, "basis": subspace_doc(even)},
            "odd": {"dim": odd.dim, "basis": subspace_doc(odd)},
        }
    }
    doc = report_envelope("center", args.file, digest, body, True)
    _emit(canonical_json(doc), args.out)
    return 0


def _cmd_solve(args) -> int:
    alg, digest = _load(args.file)
    kind = Kind(args.kind)
    parities = (0, 1) if args.parity == "both" else (int(args.parity),)
    docs = []
    dims = []
    # grades whose alpha powers coincide share one solved space: render it
    # once and share its lists, only "k" differs
    rendered = {}
    # Omega's identities do not involve the twist, so it has one grade per parity
    kmax = args.kmax if kind in TUPLE_KINDS else 0
    for xi in parities:
        for k in range(kmax + 1):
            space = solve(alg, kind, k, xi)
            dims.append((kind.value, k, xi, space.dim))
            key = (xi, space.basis, space.witnesses)
            entry = rendered.get(key)
            if entry is None:
                entry = rendered[key] = endospace_doc(space)
            docs.append({**entry, "k": k})
    body = {"dims": dims_doc(sorted(dims)), "spaces": docs}
    doc = report_envelope("solve", args.file, digest, body, True)
    _emit(canonical_json(doc), args.out)
    return 0


def _cmd_props(args) -> int:
    alg, digest = _load(args.file)
    if not validate(alg).all_ok:
        print("input algebra does not satisfy its axioms", file=sys.stderr)
        return 2
    reports = [
        check_prop31(alg, args.kmax),
        check_prop32(alg, args.kmax),
        check_prop33(alg, args.kmax),
        check_prop34(alg, args.kmax),
        check_prop38(alg, args.kmax, seed=args.seed),
        check_prop39(alg, args.kmax),
    ]
    passed = all(r.passed for r in reports)
    body = {
        "dims": dims_doc(solved_dims(alg, args.kmax)),
        "propositions": [prop_report_doc(r) for r in reports],
    }
    doc = report_envelope("props", args.file, digest, body, passed)
    _emit(canonical_json(doc), args.out)
    return 0 if passed else 1


def _cmd_extend(args) -> int:
    alg = parse_algebra(args.file)
    if not validate(alg).all_ok:
        print("input algebra does not satisfy its axioms", file=sys.stderr)
        return 2
    text = build_check(alg)
    _emit(serialize_algebra(text.ext), args.out)
    return 0


def _cmd_decompose(args) -> int:
    alg, digest = _load(args.file)
    if not validate(alg).all_ok:
        print("input algebra does not satisfy its axioms", file=sys.stderr)
        return 2
    reports = [check_prop42(alg, args.kmax), check_prop43(alg, args.kmax)]
    passed = all(r.passed for r in reports)
    body = {"propositions": [prop_report_doc(r) for r in reports]}
    doc = report_envelope("decompose", args.file, digest, body, passed)
    _emit(canonical_json(doc), args.out)
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nhomlie",
        description="Exact computations with multiplicative n-ary Hom-Lie "
                    "superalgebras given by structure constants.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="algebra JSON file")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")

    p = sub.add_parser("validate", help="check all structure axioms")
    common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("center", help="compute the per-parity center")
    common(p)
    p.set_defaults(func=_cmd_center)

    p = sub.add_parser("solve", help="solve one operator-space family")
    common(p)
    p.add_argument("--kind", required=True, choices=KIND_NAMES)
    p.add_argument("--kmax", type=nonnegative_int, default=2,
                   help="largest twist power (default 2)")
    p.add_argument("--parity", choices=["0", "1", "both"], default="both")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("props", help="machine-check the structural propositions")
    common(p)
    p.add_argument("--kmax", type=nonnegative_int, default=2)
    p.add_argument("--seed", type=int, default=20260811,
                   help="seed for the sampled identity checks")
    p.set_defaults(func=_cmd_props)

    p = sub.add_parser("extend", help="emit the two-block extension as an algebra file")
    common(p)
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("decompose", help="check the derivation embedding and splitting")
    common(p)
    p.add_argument("--kmax", type=nonnegative_int, default=2)
    p.set_defaults(func=_cmd_decompose)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, SchemaError, PrecheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
