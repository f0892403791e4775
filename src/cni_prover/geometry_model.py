"""Constructions over complex points: predicates encoded as rational
expressions that are real exactly when the property holds, declarative
point definitions, and the translation of a construction plus thesis into
the polynomial system whose elimination ideal decides the statement.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Union

from .algebra_core import (
    Add,
    Const,
    Div,
    Mul,
    PointRef,
    Polynomial,
    Pow,
    RationalExpr,
    Sub,
    VarKind,
    VarTable,
    expr_normalize,
    expr_points,
    expr_substitute,
)


class GeometryError(ValueError):
    """Structurally invalid construction input."""


class PredicateArgumentError(GeometryError):
    """Predicate arguments violate the syntactic distinctness rules."""


# ---------------------------------------------------------------------------
# Predicates. Arguments are point variable indices, one per dataclass field.
# Each predicate knows the point pairs that appear as directed segments in its
# expression; those must be symbolically distinct or a denominator is
# identically zero.


class Predicate:
    __slots__ = ()

    def __post_init__(self):
        for a, b in self._segments():
            if a == b:
                raise PredicateArgumentError(
                    f"{type(self).__name__} needs distinct points in each "
                    f"directed segment (argument {a} repeated)"
                )

    def points(self) -> tuple[int, ...]:
        return tuple(getattr(self, f.name) for f in fields(self))

    def _segments(self) -> tuple[tuple[int, int], ...]:
        raise NotImplementedError


@dataclass(frozen=True)
class Collinear(Predicate):
    a: int
    o: int
    b: int

    def _segments(self):
        return ((self.a, self.o), (self.o, self.b))


@dataclass(frozen=True)
class Parallel(Predicate):
    e: int
    f: int
    g: int
    h: int

    def _segments(self):
        return ((self.e, self.f), (self.g, self.h))


@dataclass(frozen=True)
class Perpendicular(Predicate):
    p: int
    q: int
    r: int
    s: int

    def _segments(self):
        return ((self.p, self.q), (self.r, self.s))


@dataclass(frozen=True)
class Equidistant(Predicate):
    """OA = OC, encoded through the angle equality of the isosceles
    triangle OAC."""

    o: int
    a: int
    c: int

    def _segments(self):
        return ((self.a, self.c), (self.a, self.o), (self.c, self.o))


@dataclass(frozen=True)
class AngleEqual(Predicate):
    """Angle P1-Q1-R1 equals angle P2-Q2-R2 (vertex in the middle)."""

    p1: int
    q1: int
    r1: int
    p2: int
    q2: int
    r2: int

    def _segments(self):
        return (
            (self.q1, self.p1),
            (self.q1, self.r1),
            (self.q2, self.p2),
            (self.q2, self.r2),
        )


@dataclass(frozen=True)
class Concyclic(Predicate):
    a: int
    b: int
    c: int
    d: int

    def _segments(self):
        return ((self.a, self.c), (self.b, self.d), (self.a, self.d), (self.b, self.c))


def predicate_expr(p: Predicate) -> RationalExpr:
    """The rational expression that is real iff the predicate holds."""

    def pt(i: int) -> PointRef:
        return PointRef(i)

    if isinstance(p, Collinear):
        return Div(Sub(pt(p.a), pt(p.o)), Sub(pt(p.o), pt(p.b)))
    if isinstance(p, Parallel):
        return Div(Sub(pt(p.e), pt(p.f)), Sub(pt(p.g), pt(p.h)))
    if isinstance(p, Perpendicular):
        return Pow(Div(Sub(pt(p.p), pt(p.q)), Sub(pt(p.r), pt(p.s))), 2)
    if isinstance(p, Equidistant):
        return Div(
            Div(Sub(pt(p.a), pt(p.c)), Sub(pt(p.a), pt(p.o))),
            Div(Sub(pt(p.c), pt(p.o)), Sub(pt(p.c), pt(p.a))),
        )
    if isinstance(p, AngleEqual):
        return Div(
            Div(Sub(pt(p.q1), pt(p.p1)), Sub(pt(p.q1), pt(p.r1))),
            Div(Sub(pt(p.q2), pt(p.p2)), Sub(pt(p.q2), pt(p.r2))),
        )
    if isinstance(p, Concyclic):
        # real cross-ratio; also real for collinear quadruples, see note
        return Div(
            Mul(Sub(pt(p.a), pt(p.c)), Sub(pt(p.b), pt(p.d))),
            Mul(Sub(pt(p.a), pt(p.d)), Sub(pt(p.b), pt(p.c))),
        )
    raise GeometryError(f"unknown predicate {p!r}")


def declarative_expr(kind: str, args: tuple[int, ...]) -> RationalExpr:
    """Built-in declarative point definitions."""
    pts = [PointRef(i) for i in args]
    if kind == "midpoint":
        if len(args) != 2:
            raise GeometryError("midpoint takes 2 points")
        return Div(Add(pts[0], pts[1]), Const(Fraction(2)))
    if kind == "parallelogram_fourth":
        # completes P, Q, R to the parallelogram P Q R X
        if len(args) != 3:
            raise GeometryError("parallelogram_fourth takes 3 points")
        return Sub(Add(pts[0], pts[2]), pts[1])
    if kind == "barycenter":
        if len(args) != 3:
            raise GeometryError("barycenter takes 3 points")
        return Div(Add(Add(pts[0], pts[1]), pts[2]), Const(Fraction(3)))
    raise GeometryError(f"unknown declarative kind {kind!r}")


# ---------------------------------------------------------------------------
# Construction steps.


@dataclass(frozen=True)
class Declarative:
    point: int
    definition: RationalExpr


@dataclass(frozen=True)
class RealRelational:
    """The rational expression of a predicate, required to be real. `expr`
    is what the algebra consumes (declaratives substituted); the expression
    as written is `predicate_expr(source)`."""

    expr: RationalExpr
    source: Predicate


def predicate_step(p: Predicate) -> RealRelational:
    """The relation asserting a predicate, as a hypothesis or the thesis."""
    return RealRelational(predicate_expr(p), p)


ConstructionStep = Union[Declarative, RealRelational]


@dataclass(frozen=True)
class Construction:
    """A construction: free points, steps, and exactly one thesis, the
    relation that comes last."""

    table: VarTable
    free_points: tuple[int, ...]
    steps: tuple[ConstructionStep, ...]
    thesis: RealRelational | None = None
    inlined: tuple[Declarative, ...] = ()

    def __post_init__(self):
        if self.thesis is None:
            raise GeometryError("a construction needs a thesis")
        n = len(self.table)
        for i in self.free_points:
            if not 0 <= i < n:
                raise GeometryError(f"free point index {i} out of range")
        for step in self.steps + (self.thesis,):
            if isinstance(step, Declarative):
                for ref in expr_points(step.definition):
                    if ref >= step.point:
                        raise GeometryError(
                            f"declarative point {self.table.name(step.point)} may "
                            f"only reference earlier points"
                        )
            else:
                for ref in expr_points(step.expr):
                    if not 0 <= ref < n:
                        raise GeometryError(f"point index {ref} out of range")

    def point_name(self, i: int) -> str:
        return self.table.name(i)


def substitute_declaratives(c: Construction) -> Construction:
    """Inline every declarative definition into later relations and the
    thesis. The result carries only real-relational steps; the inlined
    definitions are archived for trace narration."""
    env: dict[int, RationalExpr] = {}
    inlined: list[Declarative] = []
    relations: list[RealRelational] = []
    for step in c.steps + (c.thesis,):
        if isinstance(step, Declarative):
            env[step.point] = expr_substitute(step.definition, env)
            inlined.append(step)
        else:
            relations.append(RealRelational(expr_substitute(step.expr, env), step.source))
    return Construction(
        table=c.table,
        free_points=c.free_points,
        steps=tuple(relations[:-1]),
        thesis=relations[-1],
        inlined=c.inlined + tuple(inlined),
    )


# ---------------------------------------------------------------------------
# Polynomial system assembly.


@dataclass(frozen=True)
class SlackOrigin:
    """Ties a slack variable to the relation it measures, as written."""

    slack: int
    name: str
    stated: RationalExpr


@dataclass(frozen=True)
class PolynomialSystem:
    """Cleared polynomials p1..ps (thesis last) plus the denominator
    product polynomial, with the variables to eliminate."""

    table: VarTable
    hypothesis_polys: tuple[Polynomial, ...]
    rabinowitsch_poly: Polynomial | None
    eliminate_vars: tuple[int, ...]
    slack_map: tuple[SlackOrigin, ...]
    denominator_factors: tuple[Polynomial, ...]
    free_points: tuple[int, ...]
    point_names: tuple[str, ...]
    declaratives: tuple[tuple[str, RationalExpr], ...]
    fixed: tuple[tuple[str, Fraction], ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def thesis_slack(self) -> int:
        return self.slack_map[-1].slack

    @property
    def elimination_input(self) -> tuple[Polynomial, ...]:
        """The generators of the first elimination: the hypothesis
        polynomials, then the Rabinowitsch polynomial when there is one."""
        if self.rabinowitsch_poly is None:
            return self.hypothesis_polys
        return self.hypothesis_polys + (self.rabinowitsch_poly,)


def _fresh_name(base: str, table: VarTable) -> str:
    if base not in table:
        return base
    k = 0
    while f"{base}_{k}" in table:
        k += 1
    return f"{base}_{k}"


def _segment_text(c: Construction, a: int, b: int) -> str:
    return f"{c.point_name(a)}{c.point_name(b)}"


def _collect_notes(c: Construction) -> tuple[str, ...]:
    notes: list[str] = []
    preds = [s.source for s in c.steps + (c.thesis,)]
    t = c.thesis.source
    if isinstance(t, Perpendicular):
        notes.append(
            "The squared-ratio encoding of perpendicularity proves a weaker "
            f"conclusion: either {_segment_text(c, t.p, t.q)} is perpendicular "
            f"to {_segment_text(c, t.r, t.s)} or the two lines are parallel."
        )
    if any(isinstance(p, Equidistant) for p in preds):
        notes.append(
            "Distance equality is encoded through the isosceles angle "
            "equality; the encoding also admits some degenerate collinear "
            "configurations."
        )
    if any(isinstance(p, Concyclic) for p in preds):
        notes.append(
            "Concyclicity is encoded through the real cross-ratio, which is "
            "also real when the four points are collinear."
        )
    return tuple(notes)


def build_system(c: Construction) -> PolynomialSystem:
    """Translate a construction (declaratives already substituted) into the
    cleared polynomial system: one polynomial e_i - r_i per relation, the
    thesis last with slack r, and the product polynomial (b1...bm)u - 1 over
    the deduplicated denominator factors."""
    relations = c.steps + (c.thesis,)
    if any(isinstance(step, Declarative) for step in relations):
        raise GeometryError("substitute declaratives before building the system")

    n_points = len(c.table)
    table = VarTable()
    for i in range(n_points):
        table.add(c.table.name(i), VarKind.POINT)
    u = table.add(_fresh_name("u", table), VarKind.RABINOWITSCH)
    slack_entries: list[SlackOrigin] = []
    for k, step in enumerate(relations, start=1):
        base = "r" if k == len(relations) else f"r{k}"
        idx = table.add(_fresh_name(base, table), VarKind.SLACK)
        slack_entries.append(SlackOrigin(idx, table.name(idx), predicate_expr(step.source)))

    polys: list[Polynomial] = []
    factors: list[Polynomial] = []
    seen: set[frozenset] = set()
    for step, origin in zip(relations, slack_entries):
        num, _den, fs = expr_normalize(Sub(step.expr, PointRef(origin.slack)), table)
        polys.append(num)
        for f in fs:
            key = frozenset(f.terms.items())
            if key not in seen:
                seen.add(key)
                factors.append(f)

    rab = None
    if factors:
        prod = Polynomial.constant(table, 1)
        for f in factors:
            prod = prod * f
        rab = prod * Polynomial.variable(table, u) - Polynomial.constant(table, 1)

    return PolynomialSystem(
        table=table,
        hypothesis_polys=tuple(polys),
        rabinowitsch_poly=rab,
        eliminate_vars=tuple(range(n_points)) + (u,),
        slack_map=tuple(slack_entries),
        denominator_factors=tuple(factors),
        free_points=c.free_points,
        point_names=tuple(c.table.name(i) for i in range(n_points)),
        declaratives=tuple((c.table.name(d.point), d.definition) for d in c.inlined),
        fixed=(),
        notes=_collect_notes(c),
    )


FIX_MODES = ("zero_one", "minus_one_one", "off")


def _unpinnable_point(c: Construction, table: VarTable, pinned: int) -> str | None:
    """The first defined point whose definition does not commute with the
    maps that pinning relies on, or None. Pinning two points needs every
    map z -> az + b (a nonzero), so each definition must clear to an affine
    combination of points: a constant denominator, a numerator of degree-1
    point terms only, and coefficients summing to the denominator. Pinning
    one point needs only the translations z -> z + b, which also allow a
    constant term."""
    degrees = (1,) if pinned == 2 else (0, 1)
    for d in c.inlined:
        num, den, _ = expr_normalize(d.definition, table)
        if not (
            den.is_constant
            and all(sum(m) in degrees for m in num.terms)
            and sum(a for m, a in num.terms.items() if any(m)) == den.constant_value()
        ):
            return c.point_name(d.point)
    return None


def fix_coordinates(sys: PolynomialSystem, c: Construction, mode: str) -> PolynomialSystem:
    """Pin the first two free points to constants (0 and 1, or -1 and 1).
    Predicates are invariant under every map z -> az + b with a nonzero, so
    when the definitions commute with those maps too, pinning only shrinks
    the elimination problem. When one does not, nothing is pinned and a
    note says why. With fewer than two free points, fixes as many as
    available."""
    if mode not in FIX_MODES:
        raise GeometryError(f"unknown coordinate fixing mode {mode!r}")
    if mode == "off" or not c.free_points:
        return sys
    pinned = min(2, len(c.free_points))
    culprit = _unpinnable_point(c, sys.table, pinned)
    if culprit is not None:
        maps = (
            "the similarities of the plane (rotations, scalings and translations)"
            if pinned == 2
            else "translations"
        )
        note = (
            f"No coordinates were pinned: the definition of {culprit} does not "
            f"commute with {maps}, so pinning could change the statement."
        )
        return replace(sys, notes=sys.notes + (note,))
    values = (Fraction(0), Fraction(1)) if mode == "zero_one" else (Fraction(-1), Fraction(1))
    targets = list(zip(c.free_points[:2], values))
    assignment = {p: v for p, v in targets}
    polys = tuple(p.substitute(assignment) for p in sys.hypothesis_polys)
    rab = None if sys.rabinowitsch_poly is None else sys.rabinowitsch_poly.substitute(assignment)
    fixed_set = set(assignment)
    return replace(
        sys,
        hypothesis_polys=polys,
        rabinowitsch_poly=rab,
        eliminate_vars=tuple(v for v in sys.eliminate_vars if v not in fixed_set),
        denominator_factors=tuple(f.substitute(assignment) for f in sys.denominator_factors),
        fixed=sys.fixed + tuple((sys.table.name(p), v) for p, v in targets),
    )
