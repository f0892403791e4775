"""Rendering proof traces: expression printing, polynomial printing, text
and LaTeX narration, the summarizing identity, and the JSON payload."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from cni_prover.algebra_core import (
    Add,
    Const,
    Div,
    Mul,
    PointRef,
    Pow,
    Sub,
    VarTable,
)
from cni_prover.cli_dsl import SourceProgram, parse
from cni_prover.geometry_model import (
    build_system,
    fix_coordinates,
    substitute_declaratives,
)
from cni_prover.prover import (
    INCONCLUSIVE,
    REASON_MEANINGS,
    ProofTrace,
    ProverConfig,
    ProverVerdict,
    prove,
)
from cni_prover.proof_emitter import (
    BANNER_INCONCLUSIVE,
    BANNER_PROVED,
    emit_identity,
    emit_trace,
    format_expr,
    format_polynomial,
)

from support import poly

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

_CACHE = {}


def _verdict(name):
    if name not in _CACHE:
        src = (PROBLEMS / f"{name}.cni").read_text()
        c = substitute_declaratives(parse(SourceProgram(src, name)))
        sys = fix_coordinates(build_system(c), c, "zero_one")
        _CACHE[name] = prove(sys, ProverConfig())
    return _CACHE[name]


# ---------------------------------------------------------------------------
# Expression printing.


NAMES = ("A", "B", "C", "D")


def test_format_expr_division_chain_is_left_associative():
    e = Div(Div(Sub(PointRef(1), PointRef(0)), Sub(PointRef(1), PointRef(3))),
            Div(Sub(PointRef(1), PointRef(3)), Sub(PointRef(1), PointRef(2))))
    assert format_expr(e, NAMES) == "(B-A)/(B-D)/((B-D)/(B-C))"


def test_format_expr_power_parenthesizes_base():
    e = Pow(Div(Sub(PointRef(2), PointRef(1)), Sub(PointRef(2), PointRef(0))), 2)
    assert format_expr(e, NAMES) == "((C-B)/(C-A))^2"


def test_format_expr_product_and_sums():
    e = Mul(Add(PointRef(0), PointRef(1)), Sub(PointRef(2), PointRef(3)))
    assert format_expr(e, NAMES) == "(A+B)*(C-D)"
    e2 = Sub(PointRef(0), Add(PointRef(1), PointRef(2)))
    assert format_expr(e2, NAMES) == "A-(B+C)"


def test_format_expr_constants():
    assert format_expr(Div(Add(PointRef(0), PointRef(1)), Const(Fraction(2))), NAMES) == "(A+B)/2"
    assert format_expr(Mul(Const(Fraction(-1)), PointRef(0)), NAMES) == "(-1)*A"
    assert format_expr(Sub(PointRef(0), Const(Fraction(-2))), NAMES) == "A-(-2)"


# ---------------------------------------------------------------------------
# Polynomial printing.


def _slack_ring():
    table = VarTable()
    r1 = table.add("r1")
    r2 = table.add("r2")
    r = table.add("r")
    return table, (r1, r2, r)


def test_format_polynomial_goldens():
    table, (r1, r2, r) = _slack_ring()

    def P(terms):
        return poly(table, terms)

    assert format_polynomial(P([])) == "0"
    assert format_polynomial(P([({r: 1}, -1), ({}, -1)])) == "-r-1"
    assert (
        format_polynomial(
            P([({r1: 1, r2: 1, r: 1}, 1), ({r1: 1, r2: 1}, -1), ({r1: 1, r: 1}, -1), ({r2: 1, r: 1}, -1)])
        )
        == "r1*r2*r-r1*r2-r1*r-r2*r"
    )
    assert format_polynomial(P([({r1: 3}, 1), ({r: 1}, 1), ({}, 5)])) == "r1^3+r+5"
    assert format_polynomial(P([({r1: 1}, Fraction(1, 2)), ({}, -2)])) == "1/2*r1-2"
    assert format_polynomial(P([({}, 7)])) == "7"


# ---------------------------------------------------------------------------
# Whole documents.


VARIGNON_TEXT = (
    "Let A, B, C, D be arbitrary points.",
    "The statement is true under some non-degeneracy conditions (see below).",
    "The hypotheses:",
    "E:=(A+B)/2",
    "F:=(B+C)/2",
    "G:=(C+D)/2",
    "H:=(D+A)/2",
    "Without loss of generality, some coordinates can be fixed:",
    "A:=0",
    "B:=1",
    "The thesis:",
    "(E-F)/(G-H)=r",
    "We eliminate all variables that correspond to complex points.",
    "The thesis (r) can be expressed as a rational expression of the hypotheses, "
    "because r is linear in an obtained polynomial equation:",
    "-r-1=0",
    "The thesis can be expressed as a polynomial expression of the hypotheses.",
    "Since all hypotheses are real expressions, the thesis must also be real.",
    "The proof can be summarized as the complex number identity:",
    "(E-F)/(G-H)=-1",
)


def test_varignon_text_document_exact():
    doc = emit_trace(_verdict("varignon"), "text")
    assert doc.lines == VARIGNON_TEXT
    assert doc.banner == BANNER_PROVED
    assert doc.text() == "\n".join(VARIGNON_TEXT)
    assert doc.format == "text"


def test_angle_bisectors_division_narration():
    doc = emit_trace(_verdict("angle_bisectors"), "text")
    expected_order = [
        "(B-A)/(B-D)/((B-D)/(B-C))=r1",
        "(A-B)/(A-D)/((A-D)/(A-C))=r2",
        "(C-A)/(C-D)/((C-D)/(C-B))=r",
        "r1*r2*r-r1*r2-r1*r-r2*r=0",
        "Expressing the thesis requires a division by r1*r2-r1-r2.",
        "Let us assume that that divisor is 0 and restart the elimination.",
        "The elimination verifies that that divisor cannot be zero.",
        "Since all hypotheses are real expressions, the thesis must also be real.",
    ]
    idx = [doc.lines.index(s) for s in expected_order]
    assert idx == sorted(idx)


def test_medians_second_polynomial_form_narration():
    doc = emit_trace(_verdict("medians"), "text")
    assert "r1*r2*r-r1*r2-r1*r-r2*r+4=0" in doc.lines
    assert "Expressing the thesis requires a division by r1*r2-r1-r2." in doc.lines
    assert (
        "Even if that divisor is 0, the thesis can be expressed as a polynomial "
        "expression of the hypotheses (except for a couple of counterexamples):"
        in doc.lines
    )
    assert "-r+2=0" in doc.lines
    assert doc.lines[-1].startswith("Note: ")
    assert "except for a couple of counterexamples" in doc.lines[-1]


def _strip_latex(lines):
    assert lines[0] == "\\begin{enumerate}" and lines[-1] == "\\end{enumerate}"
    out = []
    for s in lines[1:-1]:
        assert s.startswith("\\item ")
        s = s[len("\\item "):]
        if s.endswith(" \\in \\mathbb{R}$"):
            s = s[: -len(" \\in \\mathbb{R}$")] + "$"
        if s.startswith("$") and s.endswith("$"):
            s = s[1:-1]
        out.append(s)
    return tuple(out)


@pytest.mark.parametrize(
    "name", ["varignon", "midpoint_circle", "medians", "angle_bisectors", "thales_converse"]
)
def test_latex_mirrors_text(name):
    v = _verdict(name)
    text = emit_trace(v, "text").lines
    latex = emit_trace(v, "latex").lines
    assert _strip_latex(latex) == text


def test_latex_marks_hypothesis_relations_real():
    doc = emit_trace(_verdict("angle_bisectors"), "latex")
    reals = [s for s in doc.lines if "\\in \\mathbb{R}" in s]
    assert len(reals) == 2
    assert "\\item $(B-A)/(B-D)/((B-D)/(B-C))=r1 \\in \\mathbb{R}$" in reals


# ---------------------------------------------------------------------------
# JSON payload.


JSON_KEYS = [
    "verdict", "reason", "hypotheses", "fixed", "thesis", "pivot",
    "rational_form", "denominator", "second_elimination", "identity",
    "declaratives", "notes", "note",
]


def test_json_midpoint_circle_fields():
    payload = json.loads(emit_trace(_verdict("midpoint_circle"), "json").text())
    assert list(payload) == JSON_KEYS
    assert payload["verdict"] == "Proved"
    assert payload["reason"] is None
    assert payload["pivot"] == "r1*r-r1-4*r"
    assert payload["rational_form"] == "r1/(r1-4)"
    assert payload["denominator"] == "r1-4"
    assert payload["second_elimination"] == "trivial"
    assert payload["identity"] is None
    assert payload["hypotheses"] == [
        {"relation": "(A-C)/(A-O)/((C-O)/(C-A))", "slack": "r1"}
    ]
    assert payload["thesis"] == {"relation": "((A-C)/(C-B))^2", "slack": "r"}
    assert payload["fixed"] == [
        {"point": "A", "value": "0"},
        {"point": "B", "value": "1"},
    ]
    assert payload["declaratives"] == [{"point": "O", "definition": "(A+B)/2"}]
    assert len(payload["notes"]) == 2


def test_json_medians_second_form():
    payload = json.loads(emit_trace(_verdict("medians"), "json").text())
    assert payload["second_elimination"] == "polynomial"
    assert payload["rational_form"] == "(r1*r2-4)/(r1*r2-r1-r2)"
    assert "counterexamples" in payload["note"]


def test_json_emission_is_deterministic():
    a = emit_trace(_verdict("varignon"), "json").text()
    b = emit_trace(_verdict("varignon"), "json").text()
    assert a == b
    assert a.encode() == b.encode()


def test_json_show_ideal_adds_generator_lists():
    payload = json.loads(emit_trace(_verdict("midpoint_circle"), "json", show_ideal=True).text())
    assert "ideal" in payload and "second_ideal" in payload
    assert "r1*r-r1-4*r" in payload["ideal"]
    assert payload["second_ideal"] == ["1"]


# ---------------------------------------------------------------------------
# The summarizing identity.


def test_identity_varignon():
    assert emit_identity(_verdict("varignon").trace) == "(E-F)/(G-H)=-1"


def test_identity_thales_product_of_hypotheses():
    assert emit_identity(_verdict("thales_converse").trace) == (
        "((A-O)/(O-B))*((A-C)/(A-O)/((C-O)/(C-A)))"
        "*((B-O)/(B-C)/((C-B)/(C-O)))*(((C-B)/(C-A))^2)=-1"
    )


def test_identity_absent_for_three_term_pivot():
    assert emit_identity(_verdict("midpoint_circle").trace) is None
    doc = emit_trace(_verdict("midpoint_circle"), "text")
    assert all("complex number identity" not in s for s in doc.lines)


# ---------------------------------------------------------------------------
# Inconclusive rendering.


def _skeleton_trace(**kw):
    base = dict(
        point_names=("A", "B"),
        free_point_names=("A", "B"),
        declaratives=(),
        hypotheses=(),
        fixed=(),
        notes=(),
    )
    base.update(kw)
    return ProofTrace(**base)


@pytest.mark.parametrize("code", sorted(REASON_MEANINGS))
def test_every_reason_code_renders(code):
    v = ProverVerdict(INCONCLUSIVE, code, _skeleton_trace())
    doc = emit_trace(v, "text")
    assert doc.banner == BANNER_INCONCLUSIVE
    assert BANNER_INCONCLUSIVE in doc.lines
    assert f"Reason code: {code}." in doc.lines
    assert f"This code means: {REASON_MEANINGS[code]}." in doc.lines
    payload = json.loads(emit_trace(v, "json").text())
    assert payload["verdict"] == "Inconclusive"
    assert payload["reason"] == code


def test_reason_note_rendered_for_inconclusive():
    v = ProverVerdict(
        INCONCLUSIVE, "nlu", _skeleton_trace(reason_note="the minimal degree of r in the ideal is 2")
    )
    doc = emit_trace(v, "text")
    assert "Note: the minimal degree of r in the ideal is 2." in doc.lines


def test_emit_trace_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit_trace(_verdict("varignon"), "html")
