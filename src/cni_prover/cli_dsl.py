"""Line-oriented construction language and the command line driver.

Grammar (one statement per line, `#` starts a comment):

    point A, B, C
    X := (A+B)/2
    X := midpoint(A, B)
    assume collinear(A, O, B)
    prove perpendicular(A, C, C, B)

Expressions use +, -, *, /, integer literals, parentheses, previously
declared points, and the point shorthands (midpoint, barycenter,
parallelogram4) called on declared points. Exactly one `prove` statement
is required. Identifiers are an ASCII letter followed by letters or
digits, case-sensitive.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

from .algebra_core import AlgebraError, Const, PointRef, RationalExpr, Record, VarTable
from .geometry_model import (
    DEFINITIONS,
    FIX_MODES,
    PREDICATES,
    Construction,
    Declarative,
    GeometryError,
    Predicate,
    RealRelational,
    build_system,
    fix_coordinates,
    predicate_step,
    substitute_declaratives,
)
from .groebner import DEFAULT_TIMEOUT, check_timeout
from .proof_emitter import FORMATS, emit_trace, format_expr
from .prover import PROVED, ProverVerdict, prove


class DslSyntaxError(ValueError):
    """Malformed source; carries the line and column of the offence."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UnknownPredicateError(Exception):
    """A predicate name outside the supported catalog (reason code niu)."""

    def __init__(self, name: str, line: int):
        super().__init__(f"line {line}: the predicate '{name}' is not supported")
        self.name = name
        self.line = line


class PredicateArityError(Exception):
    """A known predicate applied to the wrong number of points (nfiu)."""

    def __init__(self, name: str, line: int, expected: int, got: int):
        super().__init__(
            f"line {line}: {name} takes {expected} points, got {got}"
        )
        self.line = line


_PREDICATE_BY_NAME = {cls.name: cls for cls in PREDICATES}

KEYWORDS = ("point", "assume", "prove")


_LINE_END = re.compile(r"\r\n?|\n")


_set = object.__setattr__


class SourceProgram(Record):
    """Raw program text plus a name used in diagnostics."""

    __slots__ = ("text", "name")

    def __init__(self, text: str, name: str = "<input>") -> None:
        _set(self, "text", text)
        _set(self, "name", name)

    def statements(self) -> list[tuple[int, str]]:
        """Non-empty statements with their 1-based line numbers, comments
        stripped. Lines end at \\n, \\r\\n or \\r only: str.splitlines would
        also end them at a form feed or another separator inside a comment."""
        out = []
        for i, raw in enumerate(_LINE_END.split(self.text), start=1):
            stripped = raw.split("#", 1)[0].strip()
            if stripped:
                out.append((i, stripped))
        return out


# ---------------------------------------------------------------------------
# Tokenizer and statement parsing.

# Underscores are tolerated by the tokenizer because predicate names use
# them (angle_eq); point identifiers themselves stay letters-and-digits.
_TOKEN_RE = re.compile(
    r"[ \t]*(?:(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<int>[0-9]+)|(?P<assign>:=)|(?P<sym>[+\-*/(),]))"
)
# What _TOKEN_RE skips before a token, and no other whitespace.
_BLANKS_RE = re.compile(r"[ \t]*")

def _check_point_name(name: str, line: int, col: int) -> None:
    if "_" in name:
        raise DslSyntaxError(
            "point names are a letter followed by letters or digits", line, col
        )


def _tokenize(text: str, line: int) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            pos = _BLANKS_RE.match(text, pos).end()
            if pos == len(text):
                break
            raise DslSyntaxError(
                f"unexpected character {text[pos]!r}", line, pos + 1
            )
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind) + 1))
        pos = m.end()
    return tokens


class _Tokens:
    def __init__(self, tokens, line):
        self.tokens = tokens
        self.line = line
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, expected: str | None = None):
        tok = self.peek()
        if tok is None:
            _, last, col = self.tokens[-1]
            raise DslSyntaxError(
                f"unexpected end of line (expected {expected or 'more input'})",
                self.line,
                col + len(last),
            )
        self.pos += 1
        return tok

    def expect_sym(self, sym: str):
        kind, value, col = self.next(repr(sym))
        if value != sym:
            raise DslSyntaxError(f"expected {sym!r}, got {value!r}", self.line, col)

    def expect_name(self, what: str) -> tuple[str, int]:
        kind, value, col = self.next(what)
        if kind != "name":
            raise DslSyntaxError(f"expected {what}, got {value!r}", self.line, col)
        return value, col

    def expect_end(self):
        tok = self.peek()
        if tok is not None:
            raise DslSyntaxError(
                f"unexpected trailing input {tok[1]!r}", self.line, tok[2]
            )


class _ExprParser:
    """Recursive descent over +, -, *, /, integers, parentheses, points and
    shorthand calls."""

    def __init__(self, ts: _Tokens, points: dict[str, int]):
        self.ts = ts
        self.points = points

    def _sum(self) -> RationalExpr:
        e = self._product()
        while True:
            tok = self.ts.peek()
            if tok is None or tok[1] not in ("+", "-"):
                return e
            self.ts.next()
            rhs = self._product()
            e = e + rhs if tok[1] == "+" else e - rhs

    def _product(self) -> RationalExpr:
        e = self._factor()
        while True:
            tok = self.ts.peek()
            if tok is None or tok[1] not in ("*", "/"):
                return e
            self.ts.next()
            rhs = self._factor()
            e = e * rhs if tok[1] == "*" else e / rhs

    def _factor(self) -> RationalExpr:
        """A run of unary minuses, read in a loop, then a primary. Each minus
        negates a constant in place and makes anything else 0 - e."""
        minuses = 0
        while (tok := self.ts.peek()) is not None and tok[1] == "-":
            self.ts.next()
            minuses += 1
        e = self._primary()
        if isinstance(e, Const):
            return Const(-e.value) if minuses % 2 else e
        for _ in range(minuses):
            e = Const(Fraction(0)) - e
        return e

    def _primary(self) -> RationalExpr:
        kind, value, col = self.ts.next("an expression")
        if kind == "int":
            try:
                return Const(Fraction(int(value)))
            except ValueError:  # more digits than int() converts
                raise DslSyntaxError(
                    f"integer literal of {len(value)} digits is too long", self.ts.line, col
                ) from None
        if kind == "name":
            nxt = self.ts.peek()
            if value in DEFINITIONS and nxt is not None and nxt[1] == "(":
                args = _call_args(self.ts, self.points)
                shorthand = DEFINITIONS[value]
                arity = shorthand.__code__.co_argcount
                if len(args) != arity:
                    raise DslSyntaxError(
                        f"{value} takes {arity} points, got {len(args)}", self.ts.line, col
                    )
                return shorthand(*(PointRef(i) for i in args))
            idx = self.points.get(value)
            if idx is None:
                raise DslSyntaxError(
                    f"unknown point {value!r} (points must be declared first)",
                    self.ts.line,
                    col,
                )
            return PointRef(idx)
        if value == "(":
            e = self._sum()
            self.ts.expect_sym(")")
            return e
        raise DslSyntaxError(f"unexpected token {value!r}", self.ts.line, col)


def _call_args(ts: _Tokens, points: dict[str, int]) -> list[int]:
    """Parse (P1, ..., Pk), where the Pi are declared points. Returns the
    point indices."""
    ts.expect_sym("(")
    args: list[int] = []
    while True:
        pname, pcol = ts.expect_name("a point name")
        idx = points.get(pname)
        if idx is None:
            raise DslSyntaxError(
                f"unknown point {pname!r} (points must be declared first)", ts.line, pcol
            )
        args.append(idx)
        kind, value, vcol = ts.next("',' or ')'")
        if value == ")":
            return args
        if value != ",":
            raise DslSyntaxError(f"expected ',' or ')', got {value!r}", ts.line, vcol)


def _parse_call(ts: _Tokens, points: dict[str, int]) -> tuple[str, list[int], int]:
    """Parse NAME(P1, ..., Pk), the rest of the statement. Returns the call
    name, the point indices, and the name's column."""
    name, col = ts.expect_name("a predicate name")
    args = _call_args(ts, points)
    ts.expect_end()
    return name, args, col


def _build_predicate(name: str, args: list[int], line: int, col: int) -> Predicate:
    cls = _PREDICATE_BY_NAME.get(name)
    if cls is None:
        raise UnknownPredicateError(name, line)
    if len(args) != cls.arity:
        raise PredicateArityError(name, line, cls.arity, len(args))
    try:
        return cls(*args)
    except GeometryError as exc:
        raise DslSyntaxError(str(exc), line, col) from exc


def parse(src: SourceProgram) -> Construction:
    """Parse a program into a Construction with a single thesis."""
    table = VarTable()
    points: dict[str, int] = {}
    free: list[int] = []
    steps = []
    thesis: RealRelational | None = None
    last_line = 1

    for line, text in src.statements():
        last_line = line
        ts = _Tokens(_tokenize(text, line), line)
        kind, first, col = ts.next("a statement")
        if kind != "name":
            raise DslSyntaxError(f"unexpected token {first!r}", line, col)

        if first == "point":
            while True:
                name, ncol = ts.expect_name("a point name")
                if name in KEYWORDS:
                    raise DslSyntaxError(
                        f"{name!r} is a keyword and cannot name a point", line, ncol
                    )
                _check_point_name(name, line, ncol)
                if name in points:
                    raise DslSyntaxError(f"duplicate point {name!r}", line, ncol)
                idx = table.add(name)
                points[name] = idx
                free.append(idx)
                tok = ts.peek()
                if tok is None:
                    break
                ts.expect_sym(",")
            continue

        if first in ("assume", "prove"):
            pname, pargs, pcol = _parse_call(ts, points)
            step = predicate_step(_build_predicate(pname, pargs, line, pcol))
            if first == "assume":
                steps.append(step)
            else:
                if thesis is not None:
                    raise DslSyntaxError("multiple prove statements", line, col)
                thesis = step
            continue

        # definition: NAME := expr
        name = first
        _check_point_name(name, line, col)
        if name in points:
            raise DslSyntaxError(f"duplicate point {name!r}", line, col)
        tok = ts.peek()
        if tok is None or tok[0] != "assign":
            raise DslSyntaxError(
                "expected 'point', 'assume', 'prove', or 'name := expression'",
                line,
                col,
            )
        ts.next()
        definition = _ExprParser(ts, points)._sum()
        ts.expect_end()
        idx = table.add(name)
        points[name] = idx
        steps.append(Declarative(idx, definition))

    if thesis is None:
        raise DslSyntaxError("missing prove statement", last_line)
    return Construction(
        table=table, free_points=tuple(free), steps=tuple(steps), thesis=thesis
    )


# ---------------------------------------------------------------------------
# Printing a construction back to source form.


def _predicate_source(p: Predicate, names) -> str:
    return f"{type(p).name}({', '.join(names[i] for i in p.points())})"


def format_construction(c: Construction) -> str:
    """Print a construction as DSL source. Parsing the result gives back a
    structurally equal construction (shorthand definitions print expanded)."""
    names = tuple(c.table.name(i) for i in range(len(c.table)))
    lines = []
    if c.free_points:
        lines.append("point " + ", ".join(names[i] for i in c.free_points))
    for step in c.steps:
        if isinstance(step, Declarative):
            lines.append(f"{names[step.point]} := {format_expr(step.definition, names)}")
        else:
            lines.append(f"assume {_predicate_source(step.source, names)}")
    lines.append(f"prove {_predicate_source(c.thesis.source, names)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# CLI driver.


class CliConfig(Record):
    __slots__ = ("input", "fix_mode", "timeout", "format", "show_ideal")

    def __init__(
        self,
        input: str,
        fix_mode: str = "zero_one",
        timeout: float = DEFAULT_TIMEOUT,
        format: str = "text",
        show_ideal: bool = False,
    ) -> None:
        check_timeout(timeout)
        if fix_mode not in FIX_MODES:
            raise ValueError(f"unknown fix mode {fix_mode!r}")
        if format not in FORMATS:
            raise ValueError(f"unknown format {format!r}")
        _set(self, "input", input)
        _set(self, "fix_mode", fix_mode)
        _set(self, "timeout", timeout)
        _set(self, "format", format)
        _set(self, "show_ideal", show_ideal)


def _unsupported_verdict(code: str, note: str) -> ProverVerdict:
    return ProverVerdict(code, (), (), (), (), (), (), note=note)


def _prove_text(text: str, source_name: str, cfg: CliConfig) -> tuple[str, int]:
    """The document for a program text and the exit status it earns."""
    try:
        construction = parse(SourceProgram(text, source_name))
    except UnknownPredicateError as exc:
        return emit_trace(_unsupported_verdict("niu", str(exc)), cfg.format).text(), 2
    except PredicateArityError as exc:
        return emit_trace(_unsupported_verdict("nfiu", str(exc)), cfg.format).text(), 2
    substituted = substitute_declaratives(construction)
    system = build_system(substituted)
    system = fix_coordinates(system, substituted, cfg.fix_mode)
    verdict = prove(system, timeout=cfg.timeout)
    doc = emit_trace(verdict, cfg.format, cfg.show_ideal)
    return doc.text(), 0 if verdict.outcome == PROVED else 2


def run_cli(cfg: CliConfig, out=None, err=None) -> int:
    """Prove the program in cfg.input and print the proof document. Exit
    status 0 for Proved, 2 for Inconclusive, 1 for parse, construction,
    engine or IO errors, input that is not UTF-8, and input nested too
    deeply to walk without exhausting the interpreter stack. One leading
    byte-order mark is dropped."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    source_name = "<stdin>" if cfg.input == "-" else cfg.input
    try:
        if cfg.input == "-":
            # UTF-8 whatever the locale, as for files; a stream with no bytes
            # underneath (io.StringIO) is read as text
            buffer = getattr(sys.stdin, "buffer", None)
            text = sys.stdin.read() if buffer is None else buffer.read().decode("utf-8")
        else:
            with open(cfg.input, encoding="utf-8") as f:
                text = f.read()
    except OSError as exc:
        print(f"error: {exc}", file=err)
        return 1
    except UnicodeDecodeError as exc:
        print(f"error: {source_name}: not valid UTF-8 ({exc.reason} at byte {exc.start})", file=err)
        return 1
    text = text.removeprefix("\ufeff")  # a UTF-8 byte-order mark, as editors save one
    try:
        document, status = _prove_text(text, source_name, cfg)
    except (DslSyntaxError, GeometryError, AlgebraError) as exc:
        print(f"error: {source_name}: {exc}", file=err)
        return 1
    except RecursionError:
        print(f"error: {source_name}: input nested too deeply", file=err)
        return 1
    print(document, file=out)
    return status


def main(argv=None) -> int:
    """The `cni-prover` command. Exit status as run_cli; also 1, with no
    message, when standard output is closed before the document is out."""
    parser = argparse.ArgumentParser(
        prog="cni-prover",
        description="Prove planar geometry statements through complex number identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("prove", help="prove a construction program")
    p.add_argument("file", help="program file, or - for standard input")
    p.add_argument("--fix", choices=FIX_MODES, default="zero_one",
                   help="coordinate fixing mode (default zero_one)")
    p.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT,
                   help="budget in seconds for each elimination and each r-first "
                   f"pivot basis, up to four per statement (default {DEFAULT_TIMEOUT:g})")
    p.add_argument("--format", choices=FORMATS, default="text",
                   help="proof document format (default text)")
    p.add_argument("--show-ideal", action="store_true",
                   help="include the elimination ideal generators")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    try:
        cfg = CliConfig(
            input=args.file,
            fix_mode=args.fix,
            timeout=args.timeout,
            format=args.format,
            show_ideal=args.show_ideal,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        status = run_cli(cfg)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early, as `| head` does. Point stdout at devnull:
        # the unwritten rest stays buffered, and the flush at interpreter
        # exit would fail again.
        try:
            fd = sys.stdout.fileno()
        except (OSError, ValueError):  # no descriptor behind sys.stdout
            return 1
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
