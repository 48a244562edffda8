import hashlib
import json
import os
import pathlib
import random
import re
import time
from fractions import Fraction
from functools import cache

import hypothesis.strategies as st
import pytest
from conftest import mixed_change, ref_endospace_doc, span, vectors
from hypothesis import example, given

from nhomlie.algebra import NHomAlgebra, transport, validate
from nhomlie.cli import main
from nhomlie.fixtures import CORRUPTED, FIXTURES
from nhomlie.io import (
    MAX_DECIMAL_EXPONENT,
    MAX_LITERAL_CHARS,
    JsonText,
    PrecheckError,
    SchemaError,
    _ratio_str,
    _rational_pair,
    _row_text,
    _space_text,
    algebra_from_doc,
    canonical_json,
    digest_bytes,
    endospace_doc,
    mat_doc,
    parse_algebra,
    parse_rational,
    report_envelope,
    serialize_algebra,
    subspace_doc,
)
from nhomlie.linalg import Mat
from nhomlie.propositions import random_even_invertible
from nhomlie.solver import TUPLE_KINDS, Kind, solve

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "nhomlie" / "data"


def doc_for(name):
    return json.loads((DATA / f"{name}.json").read_text())


class TestRationals:
    def test_integer_string(self):
        assert str(parse_rational("7", "t")) == "7"

    def test_fraction_string(self):
        assert str(parse_rational("-2/6", "t")) == "-1/3"

    def test_plain_integer(self):
        assert str(parse_rational(-3, "t")) == "-3"

    def test_malformed(self):
        with pytest.raises(SchemaError):
            parse_rational("2/0", "t")
        with pytest.raises(SchemaError):
            parse_rational("x", "t")
        with pytest.raises(SchemaError):
            parse_rational(1.5, "t")

    def test_literal_bounds(self):
        # each of these would build an integer of millions of digits
        for literal in ("1e100000000", "1E-1_000_000", "7" * (MAX_LITERAL_CHARS + 1)):
            with pytest.raises(SchemaError) as info:
                parse_rational(literal, "alpha[0][0]")
            assert info.value.field == "alpha[0][0]"
        bound = f"1e{MAX_DECIMAL_EXPONENT}"
        assert parse_rational(bound, "t") == 10 ** MAX_DECIMAL_EXPONENT
        assert str(parse_rational("2.5e-1", "t")) == "1/4"

    def test_literal_bound_names_the_field_in_a_document(self):
        doc = doc_for("aff1")
        doc["brackets"][0]["value"][0]["coeff"] = "1e100000000"
        with pytest.raises(SchemaError) as info:
            algebra_from_doc(doc)
        assert info.value.field == "brackets[0].value[0].coeff"

    def test_overlong_json_integer_names_the_field(self, tmp_path):
        doc = doc_for("homaff1")
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc).replace('"2"', "1" * 5000, 1))
        with pytest.raises(SchemaError) as info:
            parse_algebra(path)
        assert info.value.field == "alpha[1][1]"

    @given(st.one_of(
        st.sampled_from(["7", "6/4", "-0", "007", "-007/0021", "+1", " 1", "1 ", "1_0", "1/1_0",
                         "1.5", "-.5", "1e3", "2.5e-1", "1e1001", "1/0", "0/0", "-1/00", "1/-2",
                         "1//2", "/2", "1/", "-", "", "x", "\u0661", "1\n",
                         "7" * MAX_LITERAL_CHARS, "7" * (MAX_LITERAL_CHARS + 1),
                         "1/" + "3" * (MAX_LITERAL_CHARS - 2), "1/" + "3" * (MAX_LITERAL_CHARS - 1)]),
        st.from_regex(r"[-+ ]?[0-9]{1,5}(/[0-9]{1,4})?", fullmatch=True),
        st.text(alphabet="0123456789-+/._eE \u0661", max_size=10),
        st.integers(-10 ** 30, 10 ** 30),
        st.booleans(),
        st.sampled_from([1.5, None, [1], {"n": 1}])))
    def test_literal_pairs_match_the_fraction_parser(self, value):
        # the integer fast path gives parse_rational's value, or its error and field
        def outcome(parse):
            try:
                x = parse(value, "brackets[0].value[0].coeff")
            except SchemaError as exc:
                return str(exc), exc.field
            if isinstance(x, tuple):
                assert x[1] > 0
                x = Fraction(*x)
            return x
        assert outcome(_rational_pair) == outcome(parse_rational)

    def test_canonical_strings(self):
        assert _ratio_str(4, 2) == "2"
        assert _ratio_str(-1, 3) == "-1/3"
        assert _ratio_str(-6, 4) == "-3/2"
        assert _ratio_str(0, 5) == "0"


class TestParse:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_bundled_files_match_fixtures(self, name):
        assert parse_algebra(DATA / f"{name}.json") == FIXTURES[name]()

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_round_trip_is_byte_identical(self, name):
        path = DATA / f"{name}.json"
        assert serialize_algebra(parse_algebra(path)) == path.read_text()

    def test_empty_brackets_is_abelian(self):
        doc = {"arity": 2, "dim": 2, "parity": [0, 0],
               "alpha": [["1", "0"], ["0", "1"]], "brackets": []}
        alg = algebra_from_doc(doc)
        assert alg.table == {}
        assert validate(alg).all_ok

    def test_args_must_be_weakly_increasing(self):
        doc = doc_for("aff1")
        doc["brackets"][0]["args"] = [1, 0]
        with pytest.raises(SchemaError, match="weakly increasing"):
            algebra_from_doc(doc)

    def test_out_of_range_index(self):
        doc = doc_for("aff1")
        doc["brackets"][0]["args"] = [0, 5]
        with pytest.raises(SchemaError, match="out of range"):
            algebra_from_doc(doc)

    def test_missing_key(self):
        doc = doc_for("aff1")
        del doc["parity"]
        with pytest.raises(SchemaError, match="parity"):
            algebra_from_doc(doc)

    def test_duplicate_bracket_key(self):
        doc = doc_for("aff1")
        doc["brackets"].append(doc["brackets"][0])
        with pytest.raises(SchemaError, match="duplicate"):
            algebra_from_doc(doc)

    def test_alpha_shape(self):
        doc = doc_for("aff1")
        doc["alpha"] = [["1", "0"]]
        with pytest.raises(SchemaError, match="alpha"):
            algebra_from_doc(doc)

    def test_degree_precheck(self):
        doc = doc_for("super2")
        # value of the odd tuple (0,1) placed on the even coordinate 0
        doc["brackets"][0]["value"] = [{"index": 0, "coeff": "1"}]
        with pytest.raises(PrecheckError) as err:
            algebra_from_doc(doc)
        assert err.value.witness

    def test_cancelling_terms_keep_no_denominator(self):
        # 1200 terms over distinct 300-digit denominators that cancel in
        # pairs: each value is summed in lowest terms, so the table's
        # denominator never holds their product (which took seconds to build)
        terms = []
        for i in range(600):
            den = 10 ** 299 + 2 * i + 1
            terms += [{"index": 1, "coeff": f"1/{den}"}, {"index": 1, "coeff": f"-1/{den}"}]
        doc = {"arity": 2, "dim": 2, "parity": [0, 0], "alpha": [["1", "0"], ["0", "1"]],
               "brackets": [{"args": [0, 1], "value": terms + [{"index": 1, "coeff": "3/2"}]}]}
        start = time.perf_counter()
        alg = algebra_from_doc(doc)
        assert time.perf_counter() - start < 1.0
        assert alg.table_ints == ({(0, 1): ((1, 3),)}, 2)

    def test_arity_too_small(self):
        doc = doc_for("aff1")
        doc["arity"] = 1
        with pytest.raises(SchemaError, match="arity"):
            algebra_from_doc(doc)


class TestCli:
    def test_validate_fixture_exits_zero(self, capsys):
        assert main(["validate", str(DATA / "aff1.json")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert doc["validation"]["jacobi_ok"] is True

    def test_validate_broken_algebra_exits_one(self, tmp_path, capsys):
        # structurally fine, mathematically broken: alpha not a homomorphism
        doc = doc_for("aff1")
        doc["alpha"] = [["2", "0"], ["0", "3"]]
        f = tmp_path / "broken.json"
        f.write_text(json.dumps(doc))
        assert main(["validate", str(f)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] is False
        assert out["validation"]["failures"]

    def test_schema_error_exits_two(self, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text('{"arity": 2}')
        assert main(["validate", str(f)]) == 2
        assert "error" in capsys.readouterr().err

    def test_undecodable_bytes_exit_two(self, tmp_path, capsys):
        f = tmp_path / "latin.json"
        f.write_bytes(b'{"arity": "\xff\xfe", "dim": 2}')
        with pytest.raises(SchemaError, match="invalid JSON"):
            parse_algebra(f)
        assert main(["validate", str(f)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_nesting_too_deep_to_decode_exits_two(self, tmp_path, capsys):
        f = tmp_path / "deep.json"
        f.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(SchemaError, match="invalid JSON"):
            parse_algebra(f)
        assert main(["validate", str(f)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_solve_renders_each_distinct_space_once(self, monkeypatch, capsys):
        # alpha = id, so every twist power solves to the same space per parity
        rendered = []

        def counting(space, lines):
            rendered.append(space.xi)
            return _space_text(space, lines)

        monkeypatch.setattr("nhomlie.io._space_text", counting)
        assert main(["solve", str(DATA / "super2.json"), "--kind", "QDer",
                     "--kmax", "2"]) == 0
        assert sorted(rendered) == [0, 1]
        spaces = json.loads(capsys.readouterr().out)["spaces"]
        assert [(s["xi"], s["k"]) for s in spaces] == [(xi, k) for xi in (0, 1)
                                                        for k in (0, 1, 2)]
        for s in spaces:
            assert s == {**spaces[3 * s["xi"]], "k": s["k"]}
            assert s["basis"] and "witnesses" in s

    @pytest.mark.parametrize("argv", [["validate"], ["solve", "--kind", "Der", "--kmax", "0"]])
    def test_digest_is_of_the_bytes_parsed(self, argv, capsys):
        # a pipe can be read only once: the digest must not re-read the path
        raw = (DATA / "aff1.json").read_bytes()
        assert main([argv[0], str(DATA / "aff1.json"), *argv[1:]]) == 0
        from_file = json.loads(capsys.readouterr().out)
        assert from_file["input"]["digest"] == hashlib.sha256(raw).hexdigest()
        r, w = os.pipe()
        try:
            os.write(w, raw)
            os.close(w)
            assert main([argv[0], f"/dev/fd/{r}", *argv[1:]]) == 0
        finally:
            os.close(r)
        piped = json.loads(capsys.readouterr().out)
        assert piped["input"]["digest"] == hashlib.sha256(raw).hexdigest()
        assert {**piped, "input": None} == {**from_file, "input": None}

    @pytest.mark.parametrize("name", ["corrupt_jacobi", "corrupt_multiplicative"])
    @pytest.mark.parametrize("command", ["props", "extend", "decompose"])
    def test_invalid_algebra_exits_two_before_any_output(self, command, name, tmp_path, capsys):
        f = tmp_path / f"{name}.json"
        f.write_text(serialize_algebra(CORRUPTED[name]()))
        assert main([command, str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "input algebra does not satisfy its axioms\n"
        assert captured.out == ""
        assert main([command, str(f), "--out", str(tmp_path / "r.json")]) == 2
        assert not (tmp_path / "r.json").exists()

    def test_missing_file_exits_two(self, capsys):
        assert main(["validate", "/nonexistent/algebra.json"]) == 2

    @pytest.mark.parametrize("argv", [["solve", "--kind", "Der"], ["props"], ["decompose"]])
    def test_negative_kmax_exits_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + [str(DATA / "aff1.json"), "--kmax", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--kmax: must be nonnegative" in captured.err
        assert captured.out == ""

    def test_solve_reports_the_known_dimension(self, capsys):
        assert main(["solve", str(DATA / "aff1.json"), "--kind", "Der",
                     "--kmax", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dims"]["Der/0/0"] == 2

    def test_solve_single_parity(self, capsys):
        assert main(["solve", str(DATA / "super2.json"), "--kind", "Der",
                     "--kmax", "0", "--parity", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dims"] == {"Der/0/1": 1}

    def test_center_command(self, capsys):
        assert main(["center", str(DATA / "abelian2.json")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["center"]["even"]["dim"] == 2

    def test_extend_then_validate(self, tmp_path):
        ext_path = tmp_path / "ext.json"
        assert main(["extend", str(DATA / "aff1.json"), "--out", str(ext_path)]) == 0
        assert main(["validate", str(ext_path), "--out", str(tmp_path / "r.json")]) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["passed"] is True

    def test_extend_output_reparses_to_the_extension(self, tmp_path):
        from nhomlie.extension import build_check
        ext_path = tmp_path / "ext.json"
        main(["extend", str(DATA / "super2.json"), "--out", str(ext_path)])
        assert parse_algebra(ext_path) == build_check(FIXTURES["super2"]()).ext

    def test_decompose_skips_on_abelian(self, capsys):
        assert main(["decompose", str(DATA / "abelian2.json"), "--kmax", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        statuses = {c["id"]: c["status"] for p in doc["propositions"]
                    for c in p["claims"]}
        assert statuses["43.direct_sum"] == "skipped"

    def test_props_pass_on_fixture(self, capsys):
        assert main(["props", str(DATA / "aff1.json"), "--kmax", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert len(doc["propositions"]) == 6

    def test_reports_are_byte_identical(self, tmp_path):
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        args = ["props", str(DATA / "super2.json"), "--kmax", "1"]
        assert main(args + ["--out", str(r1)]) == 0
        assert main(args + ["--out", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_no_decimal_notation_in_reports(self, capsys):
        main(["solve", str(DATA / "homaff1.json"), "--kind", "C", "--kmax", "1"])
        out = capsys.readouterr().out
        doc = json.loads(out)
        def walk(x):
            if isinstance(x, float):
                raise AssertionError("float leaked into a report")
            if isinstance(x, dict):
                for v in x.values():
                    walk(v)
            elif isinstance(x, list):
                for v in x:
                    walk(v)
        walk(doc)


@st.composite
def doc_matrices(draw):
    """Matrices with negative and zero entries, over denominator 1 or mixed ones."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    dens = draw(st.sampled_from([(1,), (1, 2, 3, 4, 6, 12)]))
    entry = st.builds(Fraction, st.integers(-12, 12), st.sampled_from(dens))
    grid = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return Mat.from_rows(grid, cols=cols)


@st.composite
def repeated_row_matrices(draw):
    """Matrices drawn from a few rows, a zero row among them, over mixed denominators."""
    cols = draw(st.integers(0, 4))
    entry = st.builds(Fraction, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 6, 12)))
    pool = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=1, max_size=3))
    grid = draw(st.lists(st.sampled_from(pool + [[0] * cols]), max_size=6))
    return Mat.from_rows(grid, cols=cols)


@given(st.one_of(doc_matrices(), repeated_row_matrices()))
@example(Mat.from_rows([[Fraction(-1, 2), 0, 3], [Fraction(2, 3), -4, Fraction(5, 6)]]))
@example(Mat.from_rows([[0, -7], [2, 0]]))
@example(Mat.from_rows([[Fraction(1, 2), 0, Fraction(-1, 3)], [0, 0, 0],
                        [Fraction(1, 2), 0, Fraction(-1, 3)], [0, 0, 0], [4, Fraction(5, 4), 0]]))
@example(Mat.zero(3, 2))
def test_mat_doc_formats_each_entry_from_the_integer_form(m):
    want = [[str(x) for x in row] for row in m.entries]
    doc = mat_doc(m)
    assert doc == want
    assert canonical_json(doc) == canonical_json(want)
    # each distinct row is rendered once, and equal rows share it
    assert all((doc[i] is doc[j]) == (m.nz[i] == m.nz[j])
               for i in range(m.rows) for j in range(m.rows))


@given(doc_matrices())
@example(Mat.from_rows([[2, -4, 6], [0, 3, -1], [1, 0, 0]]))
def test_subspace_doc_formats_each_entry_from_the_primitive_rows(m):
    s = span(m.cols, m.entries)
    assert subspace_doc(s) == [[str(x) for x in v] for v in vectors(s)]


# ---------------------------------------------------------------------------
# the text writer of ``solve`` reports against the dict form it replaced
# ---------------------------------------------------------------------------

DIFF_KMAX = 11  # so k has two digits
DIFF_NAMES = [*sorted(FIXTURES), *(f"{name}~" for name in sorted(FIXTURES)), "super2~odd"]
RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")
COMPACT = {"sort_keys": True, "separators": (",", ":")}


@cache
def diff_algebra(name):
    """A fixture; ``<name>~``, the fixture through a dense even basis change;
    or ``super2~odd``, super2 with the odd twist that swaps its two basis
    vectors.  Built once, so its solved spaces are shared between tests."""
    if name == "super2~odd":
        alg = FIXTURES["super2"]()
        return NHomAlgebra(alg.arity, alg.dim, alg.parity, alg.table_ints,
                           Mat.from_rows([[0, 1], [1, 0]]))
    alg = FIXTURES[name.rstrip("~")]()
    if name.endswith("~"):
        alg = transport(alg, random_even_invertible(alg.parity, random.Random(2016)))
    return alg


def solve_grades(alg, kind):
    """The (k, space) of a ``solve --kmax 11`` report, in report order."""
    kmax = DIFF_KMAX if kind in TUPLE_KINDS else 0
    return [(k, solve(alg, kind, k, xi)) for xi in (0, 1) for k in range(kmax + 1)]


def ref_spaces(grades):
    return [{**ref_endospace_doc(space), "k": k} for k, space in grades]


@pytest.mark.parametrize("kind", list(Kind), ids=str)
@pytest.mark.parametrize("name", DIFF_NAMES)
def test_space_text_is_json_dumps_of_the_reference(name, kind):
    grades = solve_grades(diff_algebra(name), kind)
    text = endospace_doc(grades)
    assert type(text) is JsonText
    assert text == json.dumps(ref_spaces(grades), **COMPACT)
    # grades in another order read the same
    assert endospace_doc(grades[::-1]) == json.dumps(ref_spaces(grades[::-1]), **COMPACT)


@pytest.mark.parametrize("kind", list(Kind), ids=str)
@pytest.mark.parametrize("name", DIFF_NAMES)
def test_solve_report_is_the_reference_envelope(name, kind, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    raw = serialize_algebra(diff_algebra(name)).encode()
    path = f"{name}.json"
    (tmp_path / path).write_bytes(raw)
    assert main(["solve", path, "--kind", kind.value, "--kmax", str(DIFF_KMAX)]) == 0
    grades = solve_grades(diff_algebra(name), kind)
    body = {"dims": {f"{kind}/{k}/{space.xi}": space.dim for k, space in grades},
            "spaces": ref_spaces(grades)}
    envelope = report_envelope("solve", path, digest_bytes(raw), body, True)
    want = json.dumps(envelope, **COMPACT) + "\n"
    assert capsys.readouterr().out == want == canonical_json(envelope)


def leaves(x):
    return [y for v in x for y in leaves(v)] if isinstance(x, list) else [x]


def test_differential_cases_reach_the_edge_cases():
    entries = [entry for name in DIFF_NAMES for kind in Kind
               for entry in json.loads(endospace_doc(solve_grades(diff_algebra(name), kind)))]
    strings = [x for entry in entries for x in leaves([entry["basis"], entry.get("witnesses", [])])]
    assert all(RATIONAL.fullmatch(x) for x in strings)
    assert any(entry["dim"] == 0 for entry in entries)
    assert max(entry["k"] for entry in entries) == DIFF_KMAX
    for kind in ("QDer", "GDer"):
        assert any(x != "0" for entry in entries if entry["kind"] == kind
                   for x in leaves(entry["witnesses"]))
    assert any(x.startswith("-") and "/" not in x for x in strings)
    assert any(x.startswith("-") and "/" in x for x in strings)
    assert any("/" in x and not x.startswith("-") for x in strings)


@given(st.lists(st.integers(-10**30, 10**30), max_size=6), st.integers(1, 10**6))
@example([0, -3, 6, 4, 5], 6)
@example([], 1)
def test_row_writer_emits_only_rational_literals(row, den):
    text = _row_text(tuple((j, x) for j, x in enumerate(row) if x), den, len(row))
    strings = json.loads(text)
    assert all(RATIONAL.fullmatch(x) for x in strings)
    assert strings == [str(Fraction(x, den)) for x in row]
    # such strings need no escaping, so the text is what json.dumps writes
    assert text == json.dumps(strings, **COMPACT)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8)


@given(st.dictionaries(st.text(max_size=4), JSON_VALUES, max_size=5), st.data())
def test_canonical_json_copies_pre_written_values(doc, data):
    written = data.draw(st.sets(st.sampled_from(sorted(doc)))) if doc else set()
    mixed = {key: JsonText(json.dumps(value, **COMPACT)) if key in written else value
             for key, value in doc.items()}
    assert canonical_json(mixed) == json.dumps(doc, **COMPACT) + "\n"


def reparsed(alg):
    """``alg`` serialized, then parsed again."""
    return parse_algebra("reparsed.json", serialize_algebra(alg).encode())


def so3_pair():
    """so(3) + so(3), built in the test: [e0,e1]=e2, [e1,e2]=e0, [e2,e0]=e1 per copy."""
    table = {}
    for i in (0, 3):
        table[(i, i + 1)] = tuple(int(j == i + 2) for j in range(6))
        table[(i + 1, i + 2)] = tuple(int(j == i) for j in range(6))
        table[(i, i + 2)] = tuple(-int(j == i + 1) for j in range(6))
    return NHomAlgebra(2, 6, (0,) * 6, table, Mat.identity(6), name="so3x2")


def parse_cases():
    for name in sorted(FIXTURES):
        alg = FIXTURES[name]()
        yield name, alg
        rng = random.Random(2016)
        yield f"{name}~", transport(alg, random_even_invertible(alg.parity, rng))
        yield f"{name}~mixed", transport(alg, mixed_change(alg.parity))
    dense = transport(so3_pair(), random_even_invertible((0,) * 6, random.Random(7)))
    assert len(dense.table) > 6 and dense.tensor[1] > 1
    yield "so3x2~", dense


@pytest.mark.parametrize("name, alg", list(parse_cases()), ids=lambda x: x if isinstance(x, str) else "")
def test_parsed_algebra_equals_the_one_built_from_fractions(name, alg):
    again = reparsed(alg)
    assert again.tensor == alg.tensor
    assert again.table == alg.table
    assert again == alg
    rational = NHomAlgebra(alg.arity, alg.dim, alg.parity, alg.table, alg.alpha)
    assert rational.table_ints == alg.table_ints
    assert rational.tensor == alg.tensor
    assert rational == alg == again


def fraction_reference(doc):
    """The algebra of ``doc`` with every literal read by ``Fraction`` and each value summed."""
    dim = doc["dim"]
    table = {}
    for entry in doc["brackets"]:
        vec = [Fraction(0)] * dim
        for term in entry["value"]:
            vec[term["index"]] += Fraction(term["coeff"])
        table[tuple(entry["args"])] = vec
    alpha = Mat.from_rows([[Fraction(x) for x in row] for row in doc["alpha"]], cols=dim)
    return NHomAlgebra(doc["arity"], dim, doc["parity"], table, alpha)


def test_unreduced_and_cancelling_terms_parse_to_the_fraction_values():
    terms = lambda *pairs: [{"index": j, "coeff": c} for j, c in pairs]  # noqa: E731
    doc = {"arity": 2, "dim": 3, "parity": [0, 0, 0],
           "alpha": [["2/4", "0", "0"], ["0", "6/3", "0/7"], ["0", "0", "-0"]],
           "brackets": [
               # 1/6 + 1/3 = 1/2: the sum cancels the 3 of the denominator
               {"args": [0, 1], "value": terms((2, "1/6"), (2, "1/3"), (0, "-4/8"))},
               # the whole value cancels, so its 5 and 10 leave no trace
               {"args": [0, 2], "value": terms((1, "1/5"), (1, "-2/10"))},
               # 6/4 + 1/2 = 2 and 9/3 = 3: integers written over 4, 2 and 3
               {"args": [1, 2], "value": terms((0, "6/4"), (0, "1/2"), (1, "9/3"), (2, 0))}]}
    alg = algebra_from_doc(doc)
    ref = fraction_reference(doc)
    assert alg.table_ints == ({(0, 1): ((0, -1), (2, 1)), (1, 2): ((0, 4), (1, 6))}, 2)
    assert alg.tensor == ref.tensor
    assert alg.table == ref.table
    assert (alg.alpha.nz, alg.alpha.den) == ((((0, 1),), ((1, 4),), ()), 2)
    assert alg == ref
    again = reparsed(alg)
    assert (again.tensor, again.table) == (alg.tensor, alg.table)
    assert again == alg
    # every term cancels: no bracket and denominator 1
    doc["brackets"] = [{"args": [0, 1], "value": terms((2, "1/7"), (2, "-3/21"))}]
    assert algebra_from_doc(doc).table_ints == ({}, 1)


@st.composite
def literal_docs(draw):
    """Even documents whose values repeat indices, with plain literals in unreduced forms."""
    dim = draw(st.integers(1, 3))
    literal = st.one_of(
        st.integers(-6, 6),
        st.builds(lambda n, d: f"{n}/{d}", st.integers(-12, 12), st.integers(1, 12)),
        st.builds(str, st.integers(-12, 12)))
    keys = [(i, j) for i in range(dim) for j in range(i, dim)]
    brackets = [{"args": list(key),
                 "value": draw(st.lists(st.builds(lambda j, c: {"index": j, "coeff": c},
                                                  st.integers(0, dim - 1), literal), max_size=4))}
                for key in draw(st.lists(st.sampled_from(keys), unique=True))]
    alpha = draw(st.lists(st.lists(literal, min_size=dim, max_size=dim), min_size=dim, max_size=dim))
    return {"arity": 2, "dim": dim, "parity": [0] * dim, "alpha": alpha, "brackets": brackets}


@given(literal_docs())
def test_parsed_documents_match_their_fraction_reading(doc):
    alg = algebra_from_doc(doc)
    ref = fraction_reference(doc)
    assert alg.tensor == ref.tensor
    assert alg.table == ref.table
    assert alg == ref
    assert reparsed(alg) == alg
