"""Command-line driver.

:func:`main` is the one driver.  It reads the input file once and hashes
those bytes, runs the command, and emits its report in the canonical JSON
envelope on stdout (or ``--out``); ``extend`` emits the extension as an
algebra file instead.  Each command maps ``(args, alg)`` to
``(body, passed)`` and formats nothing itself.  The checks behind
``props``, ``extend`` and ``decompose`` refuse an algebra that fails its
axioms before any output (``InvalidAlgebra``), which ``main`` maps to exit 2.

Exit code 0 means every requested check passed, 1 means a mathematical
check failed (the report is still emitted), 2 means the input could not
be used.
"""

from __future__ import annotations

import argparse
import sys

from .algebra import InvalidAlgebra, center, validate
from .extension import build_check, check_prop42, check_prop43
from .io import (
    PrecheckError,
    SchemaError,
    canonical_json,
    center_doc,
    digest_bytes,
    dims_doc,
    endospace_doc,
    parse_algebra,
    prop_report_doc,
    report_envelope,
    serialize_algebra,
    validation_doc,
)
from .propositions import (
    SEED,
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


def _cmd_validate(args, alg):
    report = validate(alg)
    return validation_doc(report), report.all_ok


def _cmd_center(args, alg):
    return center_doc(*center(alg)), True


def _cmd_solve(args, alg):
    kind = Kind(args.kind)
    parities = (0, 1) if args.parity == "both" else (int(args.parity),)
    # Omega's identities do not involve the twist, so it has one grade per parity
    kmax = args.kmax if kind in TUPLE_KINDS else 0
    grades = [(k, solve(alg, kind, k, xi)) for xi in parities for k in range(kmax + 1)]
    dims = sorted((kind.value, k, space.xi, space.dim) for k, space in grades)
    return {"dims": dims_doc(dims), "spaces": endospace_doc(grades)}, True


def _cmd_props(args, alg):
    reports = [
        check_prop31(alg, args.kmax),
        check_prop32(alg, args.kmax),
        check_prop33(alg, args.kmax),
        check_prop34(alg, args.kmax),
        check_prop38(alg, args.kmax, seed=args.seed),
        check_prop39(alg, args.kmax),
    ]
    body = {
        "dims": dims_doc(solved_dims(alg, args.kmax)),
        "propositions": [prop_report_doc(r) for r in reports],
    }
    return body, all(r.passed for r in reports)


def _cmd_extend(args, alg):
    return serialize_algebra(build_check(alg).ext), True


def _cmd_decompose(args, alg):
    reports = [check_prop42(alg, args.kmax), check_prop43(alg, args.kmax)]
    body = {"propositions": [prop_report_doc(r) for r in reports]}
    return body, all(r.passed for r in reports)


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
    p.add_argument("--seed", type=int, default=SEED,
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
        with open(args.file, "rb") as fh:
            raw = fh.read()
        alg = parse_algebra(args.file, raw)
        body, passed = args.func(args, alg)
        text = body if args.command == "extend" else canonical_json(report_envelope(
            args.command, args.file, digest_bytes(raw), body, passed))
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except InvalidAlgebra:
        print("input algebra does not satisfy its axioms", file=sys.stderr)
        return 2
    except (OSError, SchemaError, PrecheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
