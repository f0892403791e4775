"""Rendering of prover verdicts as proof documents.

A verdict is turned into an ordered list of narration lines in the
style of a hand-written complex-number proof: the construction, the slack
relations, the pivot equation, and the reality argument. Three formats share
one line sequence: plain text, a LaTeX enumerated list, and a JSON object for
machine consumption.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .algebra_core import (
    Add,
    AlgebraError,
    Const,
    Div,
    Mul,
    PointRef,
    Polynomial,
    Pow,
    RationalExpr,
    Record,
    Sub,
    expr_postorder,
)
from .prover import PROVED, REASON_MEANINGS, ProverVerdict

FORMATS = ("text", "latex", "json")


class ProofDocument(Record):
    """Rendered proof: ordered lines plus the one-line verdict banner."""

    __slots__ = ("format", "lines", "banner")

    def text(self) -> str:
        return "\n".join(self.lines)


# ---------------------------------------------------------------------------
# Expression printing.

_OPS = {Add: ("+", 1), Sub: ("-", 1), Mul: ("*", 2), Div: ("/", 2)}


def format_expr(e: RationalExpr, names: Sequence[str]) -> str:
    """Print an expression with the usual precedence rules. Left-nested
    quotients stay flat (a/b/c) while compound right operands are wrapped.
    Each subexpression prints as (text, precedence), children first."""
    vals: list[tuple[str, int]] = []
    for x in expr_postorder(e):
        t = type(x)
        if t is Const:
            vals.append((str(x.value), 4 if x.value >= 0 else 1))
        elif t is PointRef:
            vals.append((names[x.index], 4))
        elif t is Pow:
            text, p = vals[-1]
            vals[-1] = (f"({text})^{x.exponent}" if p < 4 else f"{text}^{x.exponent}", 3)
        else:
            sym, prec = _OPS[t]
            right, rp = vals.pop()
            left, lp = vals[-1]
            if lp < prec:
                left = f"({left})"
            # Division and subtraction chains associate to the left, so a
            # right operand at equal precedence keeps its parentheses.
            if rp < prec or (rp == prec and t in (Sub, Div)) or right.startswith("-"):
                right = f"({right})"
            vals[-1] = (f"{left}{sym}{right}", prec)
    return vals[0][0]


def _term_string(m: tuple[int, ...], c: int | Fraction, p: Polynomial) -> str:
    if not any(m):
        return str(c)
    mono = "*".join(
        p.table.name(v) + (f"^{e}" if e > 1 else "") for v, e in enumerate(m) if e
    )
    if c == 1:
        return mono
    if c == -1:
        return "-" + mono
    return f"{c}*{mono}"


def format_polynomial(p: Polynomial) -> str:
    """Print terms descending under the print order with explicit * and ^."""
    if p.is_zero:
        return "0"
    out = []
    for m, c in p.sorted_terms():
        s = _term_string(m, c, p)
        if out and not s.startswith("-"):
            out.append("+")
        out.append(s)
    return "".join(out)


# ---------------------------------------------------------------------------
# The summarizing identity.


def _relation_texts(verdict: ProverVerdict) -> dict[int, str]:
    """Each relation as printed, by its slack: the hypotheses, then the
    thesis when the statement has one. A document formats each once."""
    origins = verdict.hypotheses + (() if verdict.thesis is None else (verdict.thesis,))
    return {h.slack: format_expr(h.stated, verdict.point_names) for h in origins}


def emit_identity(verdict: ProverVerdict, texts: dict[int, str] | None = None) -> str | None:
    """When the pivot has exactly two terms c*M*r + k with k constant, the
    proof amounts to one identity: the product of the slack expressions in M
    and the thesis expression equals -k/c. Returns None otherwise. `texts`
    holds the relations as `_relation_texts` prints them, when the caller
    has them already."""
    if verdict.linear is None:
        return None
    pivot = verdict.linear.pivot
    if len(pivot.terms) != 2:
        return None
    r = verdict.thesis.slack
    mono = coeff = const = None
    for m, c in pivot.terms.items():
        if m[r] == 1:
            mono, coeff = m, c
        elif not any(m):
            const = c
    if mono is None or const is None:
        return None
    if texts is None:
        texts = _relation_texts(verdict)
    factors = []
    for v, e in enumerate(mono):
        if v == r or not e:
            continue
        s = texts.get(v)
        if s is None:
            return None
        factors.append(f"({s})" + (f"^{e}" if e > 1 else ""))
    thesis_s = texts[r]
    value = Fraction(-const, coeff)
    if not factors:
        return f"{thesis_s}={value}"
    factors.append(f"({thesis_s})")
    return "*".join(factors) + f"={value}"


def _rational_form(verdict: ProverVerdict) -> str | None:
    """r = -w/v as a display string, collapsed to a polynomial when v is
    constant."""
    if verdict.linear is None:
        return None
    v, w = verdict.linear.v, verdict.linear.w
    if v.is_constant:
        return format_polynomial(w.scale(Fraction(-1) / v.constant_value()))
    num = -w
    ns = format_polynomial(num)
    if len(num.terms) > 1:
        ns = f"({ns})"
    return f"{ns}/({format_polynomial(v)})"


# ---------------------------------------------------------------------------
# Narration assembly. Items are (kind, text) with kind "s" for a sentence,
# "f" for a formula line, and "fr" for a hypothesis relation (LaTeX marks
# those as real).

BANNER_PROVED = "The statement is true under some non-degeneracy conditions (see below)."
BANNER_INCONCLUSIVE = "The statement could not be proved."


def _note_line(note: str) -> str:
    return "Note: " + note + ("" if note.endswith(".") else ".")


def _narration(
    verdict: ProverVerdict, show_ideal: bool, texts: dict[int, str]
) -> list[tuple[str, str]]:
    names = verdict.point_names
    items: list[tuple[str, str]] = []

    free = verdict.free_point_names
    if len(free) == 1:
        items.append(("s", f"Let {free[0]} be an arbitrary point."))
    elif free:
        items.append(("s", f"Let {', '.join(free)} be arbitrary points."))

    items.append(("s", _banner(verdict)))

    if verdict.declaratives or verdict.hypotheses:
        items.append(("s", "The hypotheses:"))
    for name, defn in verdict.declaratives:
        items.append(("f", f"{name}:={format_expr(defn, names)}"))
    for h in verdict.hypotheses:
        items.append(("fr", f"{texts[h.slack]}={h.name}"))

    if verdict.fixed:
        items.append(("s", "Without loss of generality, some coordinates can be fixed:"))
        for point, value in verdict.fixed:
            items.append(("f", f"{point}:={value}"))

    if verdict.thesis is not None:
        items.append(("s", "The thesis:"))
        items.append(("f", f"{texts[verdict.thesis.slack]}={verdict.thesis.name}"))
        items.append(("s", "We eliminate all variables that correspond to complex points."))

    if show_ideal and verdict.generators is not None:
        if verdict.generators:
            items.append(("s", "The elimination ideal is generated by:"))
            for g in verdict.generators:
                items.append(("f", format_polynomial(g)))
        else:
            items.append(("s", "The elimination ideal is <0>."))

    if verdict.linear is not None:
        rname = verdict.thesis.name
        items.append(
            (
                "s",
                f"The thesis ({rname}) can be expressed as a rational expression "
                f"of the hypotheses, because {rname} is linear in an obtained "
                "polynomial equation:",
            )
        )
        items.append(("f", f"{format_polynomial(verdict.linear.pivot)}=0"))

        if verdict.denominator is None:
            items.append(
                ("s", "The thesis can be expressed as a polynomial expression of the hypotheses.")
            )
        else:
            items.append(
                ("s", f"Expressing the thesis requires a division by {format_polynomial(verdict.denominator)}.")
            )
            items.append(("s", "Let us assume that that divisor is 0 and restart the elimination."))
            if show_ideal and verdict.second_generators:
                items.append(("s", "The second elimination ideal is generated by:"))
                for g in verdict.second_generators:
                    items.append(("f", format_polynomial(g)))
            status = verdict.second_elimination
            if status == "trivial":
                items.append(("s", "The elimination verifies that that divisor cannot be zero."))
            elif status == "polynomial":
                items.append(
                    (
                        "s",
                        "Even if that divisor is 0, the thesis can be expressed as a "
                        "polynomial expression of the hypotheses (except for a couple "
                        "of counterexamples):",
                    )
                )
                items.append(("f", f"{format_polynomial(verdict.second_linear.pivot)}=0"))

    if verdict.outcome == PROVED:
        items.append(("s", "Since all hypotheses are real expressions, the thesis must also be real."))
        identity = emit_identity(verdict, texts)
        if identity is not None:
            items.append(("s", "The proof can be summarized as the complex number identity:"))
            items.append(("f", identity))
    else:
        code = verdict.reason
        items.append(("s", f"Reason code: {code}."))
        items.append(("s", f"This code means: {REASON_MEANINGS[code]}."))
    if verdict.note:
        items.append(("s", _note_line(verdict.note)))

    for note in verdict.notes:
        items.append(("s", _note_line(note)))
    return items


def _banner(verdict: ProverVerdict) -> str:
    return BANNER_PROVED if verdict.outcome == PROVED else BANNER_INCONCLUSIVE


def _json_payload(verdict: ProverVerdict, show_ideal: bool, texts: dict[int, str]) -> dict:
    names = verdict.point_names
    linear, divisor = verdict.linear, verdict.denominator

    def fmt(ps: tuple[Polynomial, ...] | None) -> list[str] | None:
        return None if ps is None else [format_polynomial(p) for p in ps]

    obj = {
        "verdict": verdict.outcome,
        "reason": verdict.reason,
        "hypotheses": [
            {"relation": texts[h.slack], "slack": h.name}
            for h in verdict.hypotheses
        ],
        "fixed": [{"point": p, "value": str(v)} for p, v in verdict.fixed],
        "thesis": (
            {"relation": texts[verdict.thesis.slack], "slack": verdict.thesis.name}
            if verdict.thesis is not None
            else None
        ),
        "pivot": None if linear is None else format_polynomial(linear.pivot),
        "rational_form": _rational_form(verdict),
        "denominator": None if divisor is None else format_polynomial(divisor),
        "second_elimination": verdict.second_elimination,
        "identity": emit_identity(verdict, texts),
        "declaratives": [
            {"point": nm, "definition": format_expr(d, names)}
            for nm, d in verdict.declaratives
        ],
        "notes": list(verdict.notes),
        "note": verdict.note,
    }
    if show_ideal and verdict.thesis is not None:
        obj["ideal"] = fmt(verdict.generators)
        obj["second_ideal"] = fmt(verdict.second_generators)
    return obj


def _scalar(v: str | None) -> str:
    return "null" if v is None else _quote(v)


def _members(d: dict, pad: str) -> list[str]:
    """The member lines of a nonempty flat dict at indent `pad`, commas
    between them."""
    lines = [f"{pad}{_quote(k)}: {_scalar(v)}," for k, v in d.items()]
    lines[-1] = lines[-1][:-1]
    return lines


def _json_lines(payload: dict) -> list[str]:
    """json.dumps(payload, indent=2).splitlines() for the payload's shape, a
    flat dict of strings, None, lists of strings, lists of flat dicts and
    flat dicts, without the pure-Python encoder that an indent selects.
    Keys and strings print as json does by default, ASCII with escapes."""
    out = ["{"]
    for key, value in payload.items():
        head = f"  {_quote(key)}: "
        if type(value) is dict:
            out.append(head + "{")
            out.extend(_members(value, "    "))
            out.append("  },")
        elif type(value) is list and value:
            out.append(head + "[")
            for item in value:
                if type(item) is dict:
                    out.append("    {")
                    out.extend(_members(item, "      "))
                    out.append("    },")
                else:
                    out.append(f"    {_quote(item)},")
            out[-1] = out[-1][:-1]
            out.append("  ],")
        else:
            out.append(head + ("[]" if type(value) is list else _scalar(value)) + ",")
    out[-1] = out[-1][:-1]
    out.append("}")
    return out


# TeX's special characters, escaped for text mode: a sentence may quote a
# slack name (r_0) or a divisor with a power.
_TEX_TEXT = str.maketrans(
    {c: "\\" + c for c in "{}$&#%_"} | {"\\": r"\textbackslash{}", "^": r"\^{}", "~": r"\~{}"}
)


def emit_trace(
    verdict: ProverVerdict, format: str = "text", show_ideal: bool = False
) -> ProofDocument:
    """Render a verdict in one of the supported formats."""
    if format not in FORMATS:
        raise AlgebraError(f"unknown proof format {format!r}")
    banner = _banner(verdict)
    texts = _relation_texts(verdict)

    if format == "json":
        payload = _json_payload(verdict, show_ideal, texts)
        lines = tuple(_json_lines(payload))
        return ProofDocument("json", lines, banner)

    items = _narration(verdict, show_ideal, texts)
    if format == "text":
        return ProofDocument("text", tuple(text for _, text in items), banner)

    lines = ["\\begin{enumerate}"]
    for kind, text in items:
        if kind == "s":
            lines.append(f"\\item {text.translate(_TEX_TEXT)}")
        elif kind == "fr":
            lines.append(f"\\item ${text} \\in \\mathbb{{R}}$")
        else:
            lines.append(f"\\item ${text}$")
    lines.append("\\end{enumerate}")
    return ProofDocument("latex", tuple(lines), banner)
