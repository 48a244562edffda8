"""Algebra file format, canonical serialization, and report documents.

Algebra files are JSON with keys ``arity``, ``dim``, ``parity``, ``alpha``
and ``brackets``; rationals travel as strings like ``"-2/3"`` (plain
integers are also accepted on input).  A plain literal such as ``"-7"`` or
``"6/4"`` is read as an integer pair, and alpha and the table are built as
integer numerators over one denominator; any other literal goes through
``Fraction``, which decides its value or why it is malformed.
Serialization is canonical: sorted keys, compact separators, lowest-term
rationals, one trailing newline, so a parsed-and-reserialized file is
byte-identical and reports are reproducible run to run.

Every document the CLI emits is built here, and every rational in it is
written by one formatter, :func:`_ratio_str`, from an integer pair: a
matrix's nonzero numerators over its denominator, a subspace row's nonzero
values over its leading value, and a validation residual's ``Fraction``
entries, the only rationals of a report not held as integers.  The
writers here are the one place a matrix row or a subspace row is written
out at the full width, with a ``"0"`` at every column its pairs lack.

Most documents are dicts and lists that :func:`canonical_json` encodes
with ``json.dumps``.  The ``spaces`` list of a ``solve`` report, nearly all
of its bytes, is written as canonical JSON text instead
(:func:`endospace_doc`, a :class:`JsonText`), straight from each matrix's
integer rows: a memo per report maps each distinct (row, denominator,
width) to its text, so a row repeated across matrices, spaces and grades is
formatted once, and a space repeated at several grades (equal alpha^k) is
written once and reused with only its ``k`` changed.  The text is the
bytes ``json.dumps`` would give for the same lists: its strings are
rationals, ``-?[0-9]+(/[0-9]+)?``, which need no escaping.
:func:`canonical_json` writes a dict's sorted top-level keys itself and
copies a :class:`JsonText` value verbatim.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from fractions import Fraction
from math import gcd, lcm
from typing import TYPE_CHECKING

from . import __version__
from .algebra import NHomAlgebra, ValidationReport
from .linalg import Mat, SubspaceBasis
from .solver import EndoSubspace, Kind

if TYPE_CHECKING:  # propositions imports this module's formatter
    from .propositions import PropReport


class SchemaError(ValueError):
    """Malformed algebra document; ``field`` locates the offending entry."""

    def __init__(self, message: str, fld: str = ""):
        super().__init__(f"{fld}: {message}" if fld else message)
        self.field = fld


class PrecheckError(ValueError):
    """Structurally valid document that violates the grading law."""

    def __init__(self, message: str, witness=()):
        super().__init__(message)
        self.witness = witness


def _ratio_str(num: int, den: int) -> str:
    """``num / den`` in lowest terms, for a positive ``den``."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


# Bounds on a rational string literal, checked before ``Fraction`` parses
# it: its length in characters, and the magnitude of a decimal exponent
# (``"1e100000000"`` is short but would build a 100-million-digit integer).
MAX_LITERAL_CHARS = 1000
MAX_DECIMAL_EXPONENT = 1000

_EXPONENT = re.compile(r"[eE]([-+]?[0-9][0-9_]*)")
_PLAIN = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")  # a nonzero denominator


def _bounded_int(text: str):
    """JSON integer hook: an over-long integer stays a string, so the
    field check that reads it rejects it and names the field."""
    return int(text) if len(text) <= MAX_LITERAL_CHARS else text


def parse_rational(value, fld: str) -> Fraction:
    if isinstance(value, bool):
        raise SchemaError("expected a rational, got a boolean", fld)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if len(value) > MAX_LITERAL_CHARS:
            raise SchemaError(f"literal longer than {MAX_LITERAL_CHARS} characters", fld)
        exp = _EXPONENT.search(value)
        if exp and abs(int(exp.group(1).replace("_", ""))) > MAX_DECIMAL_EXPONENT:
            raise SchemaError(f"decimal exponent beyond +-{MAX_DECIMAL_EXPONENT}", fld)
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"malformed rational {value!r} ({exc})", fld) from None
    raise SchemaError(f"expected a rational string or integer, got {type(value).__name__}", fld)


def _rational_pair(value, fld: str, *where: int) -> tuple[int, int]:
    """``value`` in lowest terms as ``(num, den)``, ``den`` positive: a plain
    literal read with ``int``, any other form by :func:`parse_rational`.
    The field name is ``fld.format(*where)``, built only for that form."""
    if type(value) is int:
        return value, 1
    if type(value) is str and len(value) <= MAX_LITERAL_CHARS and _PLAIN.fullmatch(value):
        num, _, den = value.partition("/")
        num, den = int(num), int(den or 1)
        g = gcd(num, den)
        return num // g, den // g
    x = parse_rational(value, fld.format(*where))
    return x.numerator, x.denominator


def _expect_int(value, fld: str, *where: int) -> int:
    """``value`` if it is an integer; else a ``SchemaError`` naming the
    field ``fld.format(*where)``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"expected an integer, got {type(value).__name__}", fld.format(*where))
    return value


def algebra_from_doc(doc, name: str = "") -> NHomAlgebra:
    """Validate a parsed JSON document and build the algebra."""
    if not isinstance(doc, dict):
        raise SchemaError("top level must be a JSON object")
    for key in ("arity", "dim", "parity", "alpha", "brackets"):
        if key not in doc:
            raise SchemaError("missing required key", key)
    arity = _expect_int(doc["arity"], "arity")
    if arity < 2:
        raise SchemaError("arity must be at least 2", "arity")
    dim = _expect_int(doc["dim"], "dim")
    if dim < 0:
        raise SchemaError("dim must be nonnegative", "dim")
    parity = doc["parity"]
    if not isinstance(parity, list) or len(parity) != dim:
        raise SchemaError(f"parity must be a list of length {dim}", "parity")
    parity = tuple(_expect_int(p, "parity[{}]", i) for i, p in enumerate(parity))
    if any(p not in (0, 1) for p in parity):
        raise SchemaError("parity entries must be 0 or 1", "parity")

    alpha_doc = doc["alpha"]
    if not isinstance(alpha_doc, list) or len(alpha_doc) != dim:
        raise SchemaError(f"alpha must be a {dim}x{dim} array", "alpha")
    rows = []
    for i, row in enumerate(alpha_doc):
        if not isinstance(row, list) or len(row) != dim:
            raise SchemaError(f"alpha row must have length {dim}", f"alpha[{i}]")
        rows.append([_rational_pair(x, "alpha[{}][{}]", i, j) for j, x in enumerate(row)])
    den = lcm(1, *(d for row in rows for _, d in row))
    alpha = Mat(dim, dim, tuple(tuple([(j, x * (den // d)) for j, (x, d) in enumerate(row) if x])
                                for row in rows), den)

    brackets = doc["brackets"]
    if not isinstance(brackets, list):
        raise SchemaError("brackets must be an array", "brackets")
    # each bracket's value as {index: (num, den)} in lowest terms
    terms = {}
    # field names are formatted only when an entry is rejected
    for b, entry in enumerate(brackets):
        if not isinstance(entry, dict) or set(entry) != {"args", "value"}:
            raise SchemaError("each bracket needs exactly 'args' and 'value'", f"brackets[{b}]")
        args = entry["args"]
        if not isinstance(args, list) or len(args) != arity:
            raise SchemaError(f"args must be a list of {arity} indices", f"brackets[{b}].args")
        args = tuple(_expect_int(a, "brackets[{}].args[{}]", b, i) for i, a in enumerate(args))
        if any(not 0 <= a < dim for a in args):
            raise SchemaError("args index out of range", f"brackets[{b}].args")
        if any(args[i] > args[i + 1] for i in range(arity - 1)):
            raise SchemaError("args must be weakly increasing", f"brackets[{b}].args")
        if args in terms:
            raise SchemaError("duplicate bracket key", f"brackets[{b}].args")
        value = entry["value"]
        if not isinstance(value, list):
            raise SchemaError("value must be an array of terms", f"brackets[{b}].value")
        vec = terms[args] = {}
        for t, term in enumerate(value):
            if not isinstance(term, dict) or set(term) != {"index", "coeff"}:
                raise SchemaError("each term needs exactly 'index' and 'coeff'",
                                  f"brackets[{b}].value[{t}]")
            idx = _expect_int(term["index"], "brackets[{}].value[{}].index", b, t)
            if not 0 <= idx < dim:
                raise SchemaError("term index out of range", f"brackets[{b}].value[{t}].index")
            pair = _rational_pair(term["coeff"], "brackets[{}].value[{}].coeff", b, t)
            if idx in vec:  # a repeated index, rare: summed in lowest terms
                x = Fraction(*vec[idx]) + Fraction(*pair)
                pair = x.numerator, x.denominator
            vec[idx] = pair

    den = lcm(1, *(d for vec in terms.values() for _, d in vec.values()))
    table = {}
    for args, vec in terms.items():
        table[args] = ints = tuple((j, x * (den // d)) for j, (x, d) in sorted(vec.items()) if x)
        # grading precheck: the value of a bracket must carry the degree of its args
        want = sum(parity[a] for a in args) & 1
        for j, x in ints:
            if parity[j] != want:
                raise PrecheckError(
                    f"bracket {list(args)} has a component of wrong degree at index {j}",
                    witness=(args, j, _ratio_str(x, den)))
    return NHomAlgebra(arity, dim, parity, (table, den), alpha, name=name)


def parse_algebra(path, raw: bytes | None = None) -> NHomAlgebra:
    """The algebra in the JSON file ``path``; ``raw`` is its content, if already read."""
    if raw is None:
        with open(path, "rb") as fh:
            raw = fh.read()
    # bytes that are not UTF-8 and nesting too deep for the decoder are
    # unusable input too, not a failed check
    try:
        doc = json.loads(raw, parse_int=_bounded_int)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None
    return algebra_from_doc(doc, name=os.path.splitext(os.path.basename(str(path)))[0])


def algebra_to_doc(alg: NHomAlgebra) -> dict:
    values, den = alg.table_ints
    brackets = [{"args": list(args),
                 "value": [{"index": j, "coeff": _ratio_str(x, den)} for j, x in values[args]]}
                for args in sorted(values)]
    return {
        "arity": alg.arity,
        "dim": alg.dim,
        "parity": list(alg.parity),
        "alpha": mat_doc(alg.alpha),
        "brackets": brackets,
    }


class JsonText(str):
    """A value already written as canonical JSON text.  As the value of a
    top-level key it is copied verbatim by :func:`canonical_json`; nested
    deeper, ``json.dumps`` would encode it as a string."""


# json.dumps(value, sort_keys=True, separators=(",", ":")), with one encoder
# for every call instead of a new one each time
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def canonical_json(doc) -> str:
    """``doc`` as canonical JSON text with one trailing newline.

    A dict, whose keys must be strings, is written key by key in sorted
    order: a :class:`JsonText` value as it is, every other value as
    ``json.dumps`` with sorted keys and compact separators writes it, so
    the bytes are those of ``json.dumps`` on the whole document with each
    :class:`JsonText` replaced by the value it writes.
    """
    if not isinstance(doc, dict):
        return _dumps(doc) + "\n"
    return "{" + ",".join(
        f"{_dumps(key)}:{value if type(value) is JsonText else _dumps(value)}"
        for key, value in sorted(doc.items())) + "}\n"


def serialize_algebra(alg: NHomAlgebra) -> str:
    return canonical_json(algebra_to_doc(alg))


def digest_bytes(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


# ---------------------------------------------------------------------------
# report documents
# ---------------------------------------------------------------------------

def mat_doc(m: Mat) -> list:
    """The entries as strings, each row at the full width: each distinct row
    is formatted once and its copies share that list, and a zero is written
    without a gcd."""
    lines = {}
    for row in set(m.nz):
        line = lines[row] = ["0"] * m.cols
        for c, x in row:
            line[c] = _ratio_str(x, m.den)
    return list(map(lines.__getitem__, m.nz))


def subspace_doc(s: SubspaceBasis) -> list:
    """The basis rows at the full width, each over its leading value."""
    return [[_ratio_str(entries.get(c, 0), row[0][1]) for c in range(s.ambient_dim)]
            for row, entries in zip(s.rows, map(dict, s.rows))]


def dims_doc(dims) -> dict:
    return {f"{kind}/{k}/{xi}": dim for kind, k, xi, dim in dims}


def _row_text(row, den: int, width: int) -> str:
    """One matrix row, its nonzero (column, value) pairs over ``den``, as a
    JSON list of ``width`` rational strings."""
    cells = ['"0"'] * width
    for c, x in row:
        cells[c] = f'"{_ratio_str(x, den)}"'
    return "[" + ",".join(cells) + "]"


def _mat_text(m: Mat, lines: dict) -> str:
    """The text of :func:`mat_doc` of ``m``; ``lines`` maps each (row,
    denominator, width) met so far to its text and gains the rows it lacks."""
    den, width = m.den, m.cols
    out = []
    for row in m.nz:
        text = lines.get((row, den, width))
        if text is None:
            text = lines[row, den, width] = _row_text(row, den, width)
        out.append(text)
    return "[" + ",".join(out) + "]"


def _space_text(space: EndoSubspace, lines: dict) -> tuple[str, str]:
    """The text of one ``solve`` report entry of ``space``, split where the
    value of its ``"k"`` member goes, keys in sorted order."""
    def mats(ms):
        return "[" + ",".join([_mat_text(m, lines) for m in ms]) + "]"

    head = f'{{"basis":{mats(g.mat for g in space.basis)},"dim":{space.dim},"k":'
    tail = f',"kind":{_dumps(space.kind.value)}'
    if space.witnesses is not None:
        if space.kind is Kind.QDER:
            tail += f',"witnesses":{mats(space.witnesses)}'
        else:
            tail += f',"witnesses":[{",".join(map(mats, space.witnesses))}]'
    return head, f'{tail},"xi":{space.xi}}}'


def endospace_doc(grades) -> JsonText:
    """The ``spaces`` list of a ``solve`` report as canonical JSON text: the
    entry of each ``(k, space)`` of ``grades``, in order.

    An entry is the space's ``kind``, ``xi``, ``dim``, ``basis`` (one
    :func:`mat_doc` per element), and for QDer and GDer its ``witnesses``
    (QDer one matrix per element, GDer a list of n), with ``k``.  Grades
    whose alpha powers coincide share one solved space; its text is written
    once and reused with only ``k`` changed, and every distinct row is
    formatted once per report.
    """
    lines = {}  # (row, denominator) -> its text
    split = {}  # space -> its text around the value of "k"
    entries = []
    for k, space in grades:
        parts = split.get(space)
        if parts is None:
            parts = split[space] = _space_text(space, lines)
        entries.append(str(k).join(parts))
    return JsonText("[" + ",".join(entries) + "]")


def validation_doc(report: ValidationReport) -> dict:
    return {
        "validation": {
            "skew_ok": report.skew_ok,
            "jacobi_ok": report.jacobi_ok,
            "multiplicative_ok": report.multiplicative_ok,
            "even_alpha_ok": report.even_alpha_ok,
            "degree_ok": report.degree_ok,
            "failures": [
                {"axiom": f.axiom, "witness": repr(f.witness),
                 "residual": [_ratio_str(x.numerator, x.denominator) for x in f.residual]}
                for f in report.failures
            ],
        }
    }


def center_doc(even: SubspaceBasis, odd: SubspaceBasis) -> dict:
    return {
        "center": {
            "even": {"dim": even.dim, "basis": subspace_doc(even)},
            "odd": {"dim": odd.dim, "basis": subspace_doc(odd)},
        }
    }


def prop_report_doc(report: PropReport) -> dict:
    return {
        "prop": report.prop,
        "passed": report.passed,
        "claims": [
            {
                "id": c.claim_id,
                "status": c.status,
                "detail": c.detail,
                "witness": c.witness,
            }
            for c in report.claims
        ],
        "dims": dims_doc(report.dims),
    }


def report_envelope(command: str, input_path, input_digest: str, body: dict,
                    passed: bool) -> dict:
    doc = {
        "tool": {"name": "nhomlie", "version": __version__},
        "command": command,
        "input": {"path": str(input_path), "digest": input_digest},
        "passed": passed,
    }
    doc.update(body)
    return doc
