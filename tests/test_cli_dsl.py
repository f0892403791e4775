"""Program parsing, source round-tripping, and the command line driver."""

import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cni_prover.algebra_core import Add, Const, Div, Mul, PointRef, Sub
from cni_prover.cli_dsl import (
    CliConfig,
    DslSyntaxError,
    PredicateArityError,
    SourceProgram,
    UnknownPredicateError,
    format_construction,
    main,
    parse,
    run_cli,
)
from cni_prover.geometry_model import Declarative, Equidistant, Perpendicular, RealRelational

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


# ---------------------------------------------------------------------------
# Parsing.


EXAMPLE2 = """\
# a right angle subtended by a diameter
point A, B, C
O := midpoint(A, B)
assume equidist(O, A, C)
prove perpendicular(A, C, C, B)
"""


def test_parse_example_program_structure():
    c = parse(SourceProgram(EXAMPLE2))
    assert c.free_points == (0, 1, 2)
    assert [c.table.name(i) for i in range(4)] == ["A", "B", "C", "O"]
    d, h = c.steps
    assert isinstance(d, Declarative) and d.point == 3
    assert d.definition == Div(Add(PointRef(0), PointRef(1)), Const(Fraction(2)))
    assert isinstance(h, RealRelational)
    assert h.source == Equidistant(3, 0, 2)
    assert isinstance(c.thesis, RealRelational)
    assert c.thesis.source == Perpendicular(0, 2, 2, 1)


def test_parse_explicit_expression_definition():
    c = parse(SourceProgram("point A, B\nM := (A+B)/2 - (B-A)*2\nprove collinear(A, M, B)"))
    d = c.steps[0]
    expected = Sub(
        Div(Add(PointRef(0), PointRef(1)), Const(Fraction(2))),
        Mul(Sub(PointRef(1), PointRef(0)), Const(Fraction(2))),
    )
    assert d.definition == expected


def test_parse_unary_minus():
    c = parse(SourceProgram("point A, C\nB := -A + 1\nprove collinear(A, B, C)"))
    d = c.steps[0]
    assert d.definition == Add(Sub(Const(Fraction(0)), PointRef(0)), Const(Fraction(1)))
    # a run of minuses folds into a constant, and otherwise nests once per minus
    c = parse(SourceProgram("point A, C\nB := --A*C - ---3\nprove collinear(A, B, C)"))
    zero = Const(Fraction(0))
    assert c.steps[0].definition == Sub(
        Mul(Sub(zero, Sub(zero, PointRef(0))), PointRef(1)), Const(Fraction(-3))
    )


def test_parse_requires_prove():
    with pytest.raises(DslSyntaxError, match="missing prove"):
        parse(SourceProgram("point A, B, C\nassume collinear(A, B, C)"))


def test_parse_rejects_second_prove():
    src = "point A, B, C\nprove collinear(A, B, C)\nprove collinear(B, A, C)"
    with pytest.raises(DslSyntaxError, match="multiple prove"):
        parse(SourceProgram(src))


def test_parse_flags_forward_reference_with_position():
    with pytest.raises(DslSyntaxError) as exc:
        parse(SourceProgram("point A, B\nassume collinear(A, B, Z)\nprove collinear(A, B, B)"))
    assert "unknown point 'Z'" in str(exc.value)
    assert "line 2" in str(exc.value)


def test_parse_rejects_duplicate_and_keyword_names():
    with pytest.raises(DslSyntaxError, match="duplicate"):
        parse(SourceProgram("point A, A\nprove collinear(A, A, A)"))
    with pytest.raises(DslSyntaxError, match="keyword"):
        parse(SourceProgram("point prove\nprove collinear(A, A, A)"))
    with pytest.raises(DslSyntaxError, match="duplicate"):
        parse(SourceProgram("point A, B\nA := midpoint(A, B)\nprove collinear(A, B, B)"))


def test_parse_rejects_underscore_in_point_name():
    with pytest.raises(DslSyntaxError):
        parse(SourceProgram("point A_1, B\nprove collinear(A_1, B, B)"))


def test_parse_sugar_arity():
    with pytest.raises(DslSyntaxError, match="midpoint takes 2 points"):
        parse(SourceProgram("point A, B, C\nM := midpoint(A, B, C)\nprove collinear(A, M, B)"))


_A, _B, _C = (PointRef(i) for i in range(3))


@pytest.mark.parametrize(
    "definition, expected",
    [
        ("(midpoint(A, B))", (_A + _B) / 2),
        ("midpoint(A, B) - C + C", (_A + _B) / 2 - _C + _C),
        ("2*barycenter(A, B, C)", 2 * ((_A + _B + _C) / 3)),
    ],
)
def test_parse_shorthand_inside_an_expression(definition, expected):
    c = parse(SourceProgram(f"point A, B, C\nD := {definition}\nprove collinear(A, D, B)"))
    assert c.steps[0].definition == expected


def test_parse_shorthand_arity_inside_an_expression():
    with pytest.raises(DslSyntaxError, match="barycenter takes 3 points, got 2") as err:
        parse(SourceProgram("point A, B, C\nD := C - barycenter(A, B)\nprove collinear(A, D, B)"))
    assert (err.value.line, err.value.column) == (2, 10)


def test_parse_unknown_function_reads_as_expression():
    # 'foo' is not sugar, so it parses as an expression and fails on the
    # undeclared name
    with pytest.raises(DslSyntaxError, match="unknown point 'foo'"):
        parse(SourceProgram("point A, B\nM := foo(A, B)\nprove collinear(A, M, B)"))


def test_parse_unknown_predicate():
    with pytest.raises(UnknownPredicateError):
        parse(SourceProgram("point A, B, C\nprove cocircular(A, B, C)"))


def test_parse_predicate_arity():
    with pytest.raises(PredicateArityError):
        parse(SourceProgram("point A, B\nprove collinear(A, B)"))


def test_parse_degenerate_segment_is_syntax_error():
    with pytest.raises(DslSyntaxError):
        parse(SourceProgram("point A, B\nprove collinear(A, A, B)"))


def test_parse_malformed_tokens():
    with pytest.raises(DslSyntaxError):
        parse(SourceProgram("point A; B\nprove collinear(A, B, B)"))
    with pytest.raises(DslSyntaxError):
        parse(SourceProgram("prove collinear(A B)"))
    with pytest.raises(DslSyntaxError):
        parse(SourceProgram("M :=\nprove collinear(M, M, M)"))


@pytest.mark.parametrize(
    "statement, column, char",
    [
        ("point A,   ;B", 12, ";"),
        ("point A,\fB", 9, "\f"),
        ("point A,\t\f B", 10, "\f"),
        # decimal digits other than 0-9: Arabic-Indic and fullwidth two
        ("M := (A + B)/\u0662", 14, "\u0662"),
        ("M := (A + B)/\uff12", 14, "\uff12"),
    ],
)
def test_unexpected_character_names_itself_and_its_column(statement, column, char):
    """The error skips the blanks a token may follow, spaces and tabs, and
    nothing more: a form feed is the unexpected character, not the point
    name after it. An integer literal is written in the digits 0-9 only."""
    with pytest.raises(DslSyntaxError) as info:
        parse(SourceProgram(statement + "\nprove collinear(A, B, A)"))
    assert (info.value.line, info.value.column) == (1, column)
    assert f"unexpected character {char!r}" in str(info.value)


# str.splitlines ends a line at each of these as well as at \n, \r\n and \r
NOT_LINE_ENDS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("ch", NOT_LINE_ENDS)
def test_separator_inside_a_comment_still_proves(ch, tmp_path):
    f = tmp_path / "page.cni"
    f.write_bytes(
        f"point A, B\n# page{ch}break\nM := midpoint(A, B)\nprove collinear(A, M, B)\n"
        .encode("utf-8")
    )
    code, out, err = _run(str(f))
    assert (code, err) == (0, "")


@pytest.mark.parametrize("ch", NOT_LINE_ENDS)
def test_error_after_a_separator_in_a_comment_names_its_line(ch):
    with pytest.raises(DslSyntaxError) as info:
        parse(SourceProgram(f"point A, B\n# page break{ch}\nprove collinear(A B)\n"))
    assert info.value.line == 3


@pytest.mark.parametrize("end", ["\r\n", "\r"])
def test_crlf_and_lone_cr_keep_line_numbers(end, tmp_path, monkeypatch):
    lines = ["# header", "point A, B", "", "prove collinear(A B)", ""]
    text = end.join(lines)
    assert SourceProgram(text).statements() == [
        (2, "point A, B"), (4, "prove collinear(A B)")
    ]
    with pytest.raises(DslSyntaxError) as info:
        parse(SourceProgram(text))
    assert info.value.line == 4
    f = tmp_path / "ends.cni"
    f.write_bytes(text.encode("utf-8"))
    assert "line 4, column" in _run(str(f))[2]
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text.encode("utf-8"))))
    assert "line 4, column" in _run("-")[2]


@pytest.mark.parametrize("stem", [p.stem for p in sorted(PROBLEMS.glob("*.cni"))])
def test_round_trip_through_source_form(stem):
    src = (PROBLEMS / f"{stem}.cni").read_text()
    printed = format_construction(parse(SourceProgram(src, stem)))
    again = format_construction(parse(SourceProgram(printed, stem)))
    assert printed == again


# ---------------------------------------------------------------------------
# CLI driver.


def _run(args_or_cfg, **kw):
    out, err = io.StringIO(), io.StringIO()
    if isinstance(args_or_cfg, CliConfig):
        code = run_cli(args_or_cfg, out=out, err=err)
    else:
        code = run_cli(CliConfig(**{"input": args_or_cfg, **kw}), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_run_cli_proves_varignon():
    code, out, err = _run(str(PROBLEMS / "varignon.cni"))
    assert code == 0
    assert "-r-1=0" in out
    assert "(E-F)/(G-H)=-1" in out
    assert err == ""


def test_run_cli_missing_file():
    code, out, err = _run("no_such_file.cni")
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_run_cli_stdin(monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(EXAMPLE2))
    code, out, err = _run("-")
    assert code == 0
    assert "r1*r-r1-4*r=0" in out


def test_run_cli_syntax_error(monkeypatch, tmp_path):
    f = tmp_path / "bad.cni"
    f.write_text("point A,\nprove collinear(A, A, A)\n")
    code, out, err = _run(str(f))
    assert code == 1
    assert "line 1" in err


def test_run_cli_zero_denominator_is_an_error(tmp_path):
    f = tmp_path / "zero.cni"
    f.write_text("point A, B, C\nD := (A+B)/(A-A)\nprove collinear(A, B, D)\n")
    code, out, err = _run(str(f))
    assert code == 1
    assert out == ""
    assert err == f"error: {f}: the definition of D divides by zero\n"


@pytest.mark.parametrize("fix", ["zero_one", "minus_one_one", "off"])
@pytest.mark.parametrize(
    "program",
    [
        # D is in no relation
        "point A, B, C\nD := A/(B-B)\nprove collinear(A, B, C)\n",
        "point A, B, C\nD := A/(B-B)\nassume collinear(A, B, C)\nprove collinear(A, C, B)\n",
        "point A, B, C\nD := A/(1-1)\nprove collinear(A, B, C)\n",
        # the divisor is zero once E is inlined
        "point A, B, C\nE := B-B\nD := A/E\nprove collinear(A, B, C)\n",
        # a relation uses D
        "point A, B, C\nD := A/(B-B)\nprove collinear(A, B, D)\n",
    ],
)
def test_a_definition_that_divides_by_zero_is_refused_in_every_fix_mode(tmp_path, program, fix):
    f = tmp_path / "zero.cni"
    f.write_text(program)
    assert _run(str(f), fix_mode=fix) == (1, "", f"error: {f}: the definition of D divides by zero\n")


def test_run_cli_division_by_literal_zero_is_an_error(tmp_path):
    f = tmp_path / "zero.cni"
    f.write_text("point A, B\nX := A/0\nprove collinear(A, B, X)\n")
    code, out, err = _run(str(f))
    assert code == 1
    assert out == ""
    assert err == f"error: {f}: line 2, column 7: division by the constant zero\n"


@pytest.mark.parametrize("definition,column", [("A/0", 7), ("A*B/(0)", 9), ("A / -0 + B", 8)])
def test_division_by_literal_zero_is_a_syntax_error_at_the_slash(definition, column):
    with pytest.raises(DslSyntaxError, match="division by the constant zero") as info:
        parse(SourceProgram(f"point A, B\nX := {definition}\nprove collinear(A, B, X)\n"))
    assert (info.value.line, info.value.column) == (2, column)


def test_run_cli_engine_error_is_an_error(tmp_path):
    # P15 = C^32768: no packed monomial holds that degree, so clearing the
    # relation that uses it fails with the engine's message
    lines = ["point A, B, C", "P0 := C"]
    lines += [f"P{i} := P{i - 1}*P{i - 1}" for i in range(1, 16)]
    f = tmp_path / "deep.cni"
    f.write_text("\n".join(lines + ["prove collinear(A, B, P15)", ""]))
    code, out, err = _run(str(f))
    assert code == 1
    assert out == ""
    assert err == (
        f"error: {f}: a monomial of total degree 32768 or more does not fit a packed field\n"
    )


def test_run_cli_non_utf8_file_is_an_error(tmp_path):
    f = tmp_path / "latin1.cni"
    f.write_bytes(b"point A, B\xff\nprove collinear(A, B, A)\n")
    code, out, err = _run(str(f))
    assert code == 1
    assert out == ""
    assert err == f"error: {f}: not valid UTF-8 (invalid start byte at byte 10)\n"


def test_run_cli_non_utf8_stdin_is_an_error(monkeypatch):
    # the bytes under a text stream are read as UTF-8 whatever the locale
    raw = io.BytesIO(b"# caf\xe9\npoint A, B, C\nprove collinear(A, B, C)\n")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(raw, encoding="latin-1"))
    code, out, err = _run("-")
    assert code == 1
    assert out == ""
    assert err == "error: <stdin>: not valid UTF-8 (invalid continuation byte at byte 5)\n"


def test_a_leading_byte_order_mark_is_dropped(tmp_path, monkeypatch):
    # a file saved with a UTF-8 byte-order mark, and stdin bytes or text
    # starting with one, give what the same text without it gives
    data = EXAMPLE2.encode("utf-8")
    plain = tmp_path / "plain.cni"
    plain.write_bytes(data)
    bom = tmp_path / "bom.cni"
    bom.write_bytes(b"\xef\xbb\xbf" + data)
    want = _run(str(plain), format="json")
    assert want[0] == 0 and want[2] == ""
    assert _run(str(bom), format="json") == want
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xef\xbb\xbf" + data)))
    assert _run("-", format="json") == want
    monkeypatch.setattr("sys.stdin", io.StringIO("\ufeff" + EXAMPLE2))
    assert _run("-", format="json") == want


@pytest.mark.parametrize(
    "text,column",
    [("point A, B\ufeff\n", 11), ("\ufeffpoint A, B\ufeff\n", 11), ("\ufeff\ufeffpoint A, B\n", 1)],
    ids=["later", "leading-and-later", "two-leading"],
)
def test_a_byte_order_mark_past_the_first_is_an_error(text, column, tmp_path):
    # only one leading mark is dropped: a U+FEFF later in the line, or a
    # second leading one, is an unexpected character as before
    f = tmp_path / "mark.cni"
    f.write_bytes((text + "prove collinear(A, B, A)\n").encode("utf-8"))
    code, out, err = _run(str(f))
    assert (code, out) == (1, "")
    assert err == f"error: {f}: line 1, column {column}: unexpected character '\\ufeff'\n"


def test_overlong_integer_literal_is_a_syntax_error(tmp_path):
    src = "point A, B\nX := A + " + "7" * 5000 + "\nprove collinear(A, B, X)\n"
    with pytest.raises(DslSyntaxError) as info:
        parse(SourceProgram(src))
    assert (info.value.line, info.value.column) == (2, 10)
    f = tmp_path / "long.cni"
    f.write_text(src)
    code, out, err = _run(str(f))
    assert code == 1
    assert out == ""
    assert err == f"error: {f}: line 2, column 10: integer literal of 5000 digits is too long\n"


@pytest.mark.parametrize(
    "definition",
    [
        pytest.param("(" * 3000 + "A" + ")" * 3000, id="parentheses"),
    ],
)
def test_run_cli_too_deep_input_is_an_error(tmp_path, definition):
    # the parser recurses per parenthesis, which caps the depth of nesting
    f = tmp_path / "deep.cni"
    f.write_text(f"point A, B\nX := {definition}\nprove collinear(A, B, X)\n")
    code, out, err = _run(str(f))
    assert code == 1
    assert out == ""
    assert err == f"error: {f}: input nested too deeply\n"


@pytest.mark.parametrize(
    "definition,status",
    [
        pytest.param("+".join(["A"] * 5000), 2, id="5000A"),
        pytest.param("+".join(["A"] * 1500) + "-1499*A", 0, id="A"),
        pytest.param("(" + "+".join(["A"] * 2500 + ["B"] * 2500) + ")/5000", 0, id="midpoint"),
    ],
)
@pytest.mark.parametrize("fix", ["zero_one", "off"])
def test_run_cli_long_sum_ends_with_a_verdict(tmp_path, definition, status, fix):
    # a sum of thousands of terms nests as deep, and every walk over it
    # keeps its own stack: parsing, substitution, clearing, pinning, printing
    f = tmp_path / "long.cni"
    f.write_text(f"point A, B\nX := {definition}\nprove collinear(A, B, X)\n")
    code, out, err = _run(str(f), fix_mode=fix)
    assert (code, err) == (status, "")
    assert out.startswith("Let A, B be arbitrary points.\n")
    assert f"X:={definition}\n" in out


@pytest.mark.parametrize("minuses,status", [(3000, 0), (3001, 2)])
@pytest.mark.parametrize("fix", ["zero_one", "off"])
def test_run_cli_long_unary_minus_run_ends_with_a_verdict(tmp_path, minuses, status, fix):
    # the parser reads a run of unary minuses in a loop, and X is A after an
    # even count, -A after an odd one, which pinning refuses
    f = tmp_path / "minus.cni"
    f.write_text(f"point A, B\nX := {'-' * minuses}A\nprove collinear(A, B, X)\n")
    code, out, err = _run(str(f), fix_mode=fix)
    assert (code, err) == (status, "")
    assert out.startswith("Let A, B be arbitrary points.\n")
    k = minuses - 1
    assert "X:=" + "0-(" * k + "0-A" + ")" * k + "\n" in out


def test_run_cli_unknown_predicate_is_inconclusive(tmp_path):
    f = tmp_path / "unk.cni"
    f.write_text("point A, B, C\nprove tangent(A, B, C)\n")
    code, out, err = _run(str(f))
    assert code == 2
    assert "Reason code: niu." in out
    assert "no implementation" in out


def test_run_cli_wrong_arity_is_inconclusive(tmp_path):
    f = tmp_path / "ar.cni"
    f.write_text("point A, B, C\nprove parallel(A, B, C)\n")
    code, out, err = _run(str(f))
    assert code == 2
    assert "Reason code: nfiu." in out


def test_run_cli_timeout_exits_2(tmp_path):
    code, out, err = _run(str(PROBLEMS / "angle_bisectors.cni"), timeout=0.001)
    assert code == 2
    assert "Reason code: t/o." in out


def test_run_cli_json_format():
    code, out, err = _run(str(PROBLEMS / "midpoint_circle.cni"), format="json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "Proved"
    assert payload["rational_form"] == "r1/(r1-4)"


# Pinning needs the hypotheses and the thesis to commute with z -> az + b.
# Each of these definitions breaks that, and pinning once turned its e0u
# under --fix off into Proved.
NOT_PINNABLE = [
    ("point A, B, C\nD := A*B\nprove collinear(A, D, C)\n", "zero_one"),
    ("point A, B\nD := A + 1\nprove parallel(A, D, A, B)\n", "zero_one"),
    ("point A, B\nD := A + B\nprove collinear(A, D, B)\n", "minus_one_one"),
    ("point A, B, C\nD := A/(A - B)\nprove collinear(A, D, C)\n", "zero_one"),
    # the weights sum to 2/3; it clears to A + B - 3*D
    ("point A, B\nD := (A + B)/3\nprove collinear(A, D, B)\n", "zero_one"),
    ("point A, B\nD := (A + B)/3\nprove collinear(A, D, B)\n", "minus_one_one"),
]


@pytest.mark.parametrize(
    "text,fix",
    NOT_PINNABLE,
    ids=["product", "shift", "sum", "quotient", "third-zero_one", "third-minus_one_one"],
)
def test_pinning_is_refused_for_a_definition_that_is_not_affine(text, fix, monkeypatch):
    docs = {}
    for mode in (fix, "off"):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = _run("-", fix_mode=mode, format="json")
        assert err == ""
        docs[mode] = (code, json.loads(out))
    (code, pinned), (code_off, off) = docs[fix], docs["off"]
    assert (code, pinned["verdict"], pinned["reason"]) == (code_off, off["verdict"], off["reason"])
    assert pinned["verdict"] != "Proved"
    assert pinned["fixed"] == []
    assert pinned["notes"] == off["notes"] + [
        "No coordinates were pinned: the hypotheses and the thesis do not commute "
        "with the similarities of the plane (rotations, scalings and translations), "
        "so pinning could change the statement."
    ]


@pytest.mark.parametrize(
    "text",
    [
        # (3*A - B)/2 weighs A and B by 3/2 and -1/2, which sum to 1
        "point A, B\nD := (3*A - B)/2\nprove collinear(A, D, B)\n",
        # A*B is not affine, but no relation uses D, so the system the
        # elimination decides is invariant and homogeneous all the same
        "point A, B, C\nD := A*B\nassume collinear(A, B, C)\nprove collinear(A, C, B)\n",
    ],
    ids=["affine", "unused"],
)
@pytest.mark.parametrize("fix", ["zero_one", "minus_one_one"])
def test_pinning_is_kept_for_an_affine_definition_whatever_its_denominator(text, fix, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = _run("-", fix_mode=fix, format="json")
    doc = json.loads(out)
    assert (code, err, doc["verdict"], doc["notes"]) == (0, "", "Proved", [])
    assert [f["point"] for f in doc["fixed"]] == ["A", "B"]


def test_cli_config_validation():
    with pytest.raises(ValueError):
        CliConfig("x.cni", timeout=0)
    with pytest.raises(ValueError):
        CliConfig("x.cni", timeout=float("nan"))
    with pytest.raises(ValueError):
        CliConfig("x.cni", fix_mode="pin_three")
    with pytest.raises(ValueError):
        CliConfig("x.cni", format="xml")


def test_main_argument_handling(capsys):
    assert main(["prove", str(PROBLEMS / "varignon.cni")]) == 0
    capsys.readouterr()
    assert main(["prove", "--timeout", "-5", str(PROBLEMS / "varignon.cni")]) == 1
    capsys.readouterr()
    assert main(["prove", "--timeout", "nan", str(PROBLEMS / "varignon.cni")]) == 1
    assert capsys.readouterr() == ("", "error: timeout must be positive\n")
    assert main(["prove", "--fix", "nonsense", "x.cni"]) == 1
    capsys.readouterr()
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main([]) == 1
    capsys.readouterr()


def test_main_show_ideal(capsys):
    assert main(["prove", "--show-ideal", "--format", "json",
                 str(PROBLEMS / "varignon.cni")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "ideal" in payload


class _ClosedPipe(io.StringIO):
    def write(self, s):
        raise BrokenPipeError(32, "Broken pipe")


def test_main_broken_pipe_ends_quietly(monkeypatch, capsys):
    # `cni-prover prove ... | head` closes the pipe before the document is out
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["prove", str(PROBLEMS / "varignon.cni")]) == 1
    assert capsys.readouterr().err == ""


def test_main_broken_pipe_through_a_real_pipe():
    # the reader is gone before the child writes; nothing may reach stderr,
    # not even from the flush of the buffered rest at interpreter exit
    code = "import sys; from cni_prover.cli_dsl import main; sys.exit(main(sys.argv[1:]))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, "-c", code, "prove", str(PROBLEMS / "varignon.cni")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_python_m_cni_prover_runs_from_a_checkout():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "cni_prover", "prove", str(PROBLEMS / "varignon.cni")],
        capture_output=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr == b""
    assert b"The statement is true" in proc.stdout
