"""Constructions over complex points: predicates encoded as rational
expressions that are real exactly when the property holds, declarative
point definitions, and the translation of a construction plus thesis into
the polynomial system whose elimination ideal decides the statement.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property
from fractions import Fraction
from typing import Callable, ClassVar, Union

from .algebra_core import (
    Add,
    Div,
    Mul,
    PointRef,
    Polynomial,
    Pow,
    RationalExpr,
    Sub,
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
# The catalog. Each predicate class is one entry: its DSL name, the caveat of
# its encoding if any, and the rational expression that is real exactly when
# it holds. Arguments are point variable indices, one per dataclass field.


def _differences(e: RationalExpr):
    """(a, b) for each difference of two points a - b in e, left to right."""
    if isinstance(e, Sub) and isinstance(e.left, PointRef) and isinstance(e.right, PointRef):
        yield e.left.index, e.right.index
    elif isinstance(e, Pow):
        yield from _differences(e.base)
    elif isinstance(e, (Add, Sub, Mul, Div)):
        yield from _differences(e.left)
        yield from _differences(e.right)


class Predicate:
    """A catalog entry. `name` is the DSL name; `caveat`, when set, is the
    note a proof document carries whenever the predicate is used; `expr`
    is the expression that is real iff the predicate holds, built once per
    predicate. Every directed segment in it must join symbolically distinct
    points, or a denominator is identically zero."""

    __slots__ = ()
    name: ClassVar[str]
    caveat: ClassVar[str | None] = None

    def __post_init__(self):
        for a, b in _differences(self.expr):
            if a == b:
                raise PredicateArgumentError(
                    f"{type(self).__name__} needs distinct points in each "
                    f"directed segment (argument {a} repeated)"
                )

    def points(self) -> tuple[int, ...]:
        return tuple(getattr(self, f.name) for f in fields(self))

    def _refs(self) -> tuple[PointRef, ...]:
        return tuple(PointRef(i) for i in self.points())

    @cached_property
    def expr(self) -> RationalExpr:
        raise NotImplementedError


@dataclass(frozen=True)
class Collinear(Predicate):
    a: int
    o: int
    b: int

    name = "collinear"

    @cached_property
    def expr(self):
        a, o, b = self._refs()
        return (a - o) / (o - b)


@dataclass(frozen=True)
class Parallel(Predicate):
    e: int
    f: int
    g: int
    h: int

    name = "parallel"

    @cached_property
    def expr(self):
        e, f, g, h = self._refs()
        return (e - f) / (g - h)


@dataclass(frozen=True)
class Perpendicular(Predicate):
    p: int
    q: int
    r: int
    s: int

    name = "perpendicular"

    @cached_property
    def expr(self):
        p, q, r, s = self._refs()
        return ((p - q) / (r - s)) ** 2


@dataclass(frozen=True)
class Equidistant(Predicate):
    """OA = OC, encoded through the angle equality of the isosceles
    triangle OAC."""

    o: int
    a: int
    c: int

    name = "equidist"
    caveat = (
        "Distance equality is encoded through the isosceles angle "
        "equality; the encoding also admits some degenerate collinear "
        "configurations."
    )

    @cached_property
    def expr(self):
        o, a, c = self._refs()
        return ((a - c) / (a - o)) / ((c - o) / (c - a))


@dataclass(frozen=True)
class AngleEqual(Predicate):
    """Angle P1-Q1-R1 equals angle P2-Q2-R2 (vertex in the middle)."""

    p1: int
    q1: int
    r1: int
    p2: int
    q2: int
    r2: int

    name = "angle_eq"

    @cached_property
    def expr(self):
        p1, q1, r1, p2, q2, r2 = self._refs()
        return ((q1 - p1) / (q1 - r1)) / ((q2 - p2) / (q2 - r2))


@dataclass(frozen=True)
class Concyclic(Predicate):
    a: int
    b: int
    c: int
    d: int

    name = "concyclic"
    caveat = (
        "Concyclicity is encoded through the real cross-ratio, which is "
        "also real when the four points are collinear."
    )

    @cached_property
    def expr(self):
        a, b, c, d = self._refs()
        return (a - c) * (b - d) / ((a - d) * (b - c))


# In this order the caveats appear in a proof document.
PREDICATES: tuple[type[Predicate], ...] = (
    Collinear,
    Parallel,
    Perpendicular,
    Equidistant,
    AngleEqual,
    Concyclic,
)

# Point shorthands, `X := name(P1, ..., Pk)`: each maps the arguments, as
# point expressions, to the definition; its arity is its parameter count.
DEFINITIONS: dict[str, Callable[..., RationalExpr]] = {
    "midpoint": lambda a, b: (a + b) / 2,
    "barycenter": lambda a, b, c: (a + b + c) / 3,
    # completes P, Q, R to the parallelogram P Q R X
    "parallelogram4": lambda p, q, r: p + r - q,
}


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
    as written is `source.expr`."""

    expr: RationalExpr
    source: Predicate


def predicate_step(p: Predicate) -> RealRelational:
    """The relation asserting a predicate, as a hypothesis or the thesis."""
    return RealRelational(p.expr, p)


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
    """Cleared polynomials p1..ps (thesis last), the distinct denominator
    factors d_1..d_m, which must not vanish, and the variables to
    eliminate. The elimination saturates the ideal by the factors."""

    table: VarTable
    hypothesis_polys: tuple[Polynomial, ...]
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
    def rabinowitsch_poly(self) -> None:
        """Always None: the elimination builds the Rabinowitsch generators
        from `denominator_factors`. Only the benchmark's traced path
        (perfbench/run.py --trace 1) reads this name."""
        return None


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
    t = c.thesis.source
    if isinstance(t, Perpendicular):
        notes.append(
            "The squared-ratio encoding of perpendicularity proves a weaker "
            f"conclusion: either {_segment_text(c, t.p, t.q)} is perpendicular "
            f"to {_segment_text(c, t.r, t.s)} or the two lines are parallel."
        )
    used = {type(s.source) for s in c.steps + (c.thesis,)}
    notes.extend(cls.caveat for cls in PREDICATES if cls.caveat and cls in used)
    return tuple(notes)


def build_system(c: Construction) -> PolynomialSystem:
    """Translate a construction (declaratives already substituted) into the
    cleared polynomial system: one polynomial e_i - r_i per relation, the
    thesis last with slack r, and the distinct denominator factors in
    first-seen order. The table holds the points, then the slacks."""
    relations = c.steps + (c.thesis,)
    if any(isinstance(step, Declarative) for step in relations):
        raise GeometryError("substitute declaratives before building the system")

    n_points = len(c.table)
    table = VarTable()
    for i in range(n_points):
        table.add(c.table.name(i))
    slack_names = [
        _fresh_name("r" if k == len(relations) else f"r{k}", table)
        for k in range(1, len(relations) + 1)
    ]
    slack_entries = tuple(
        SlackOrigin(table.add(name), name, step.source.expr)
        for name, step in zip(slack_names, relations)
    )
    polys: list[Polynomial] = []
    factors: dict[Polynomial, None] = {}  # first-seen order
    for k, step in enumerate(relations):
        num, _den, fs = expr_normalize(Sub(step.expr, PointRef(n_points + k)), table)
        polys.append(num)
        factors.update(dict.fromkeys(fs))

    return PolynomialSystem(
        table=table,
        hypothesis_polys=tuple(polys),
        eliminate_vars=tuple(range(n_points)),
        slack_map=slack_entries,
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
    available. A denominator factor in the pinned points alone is a nonzero
    multiple of A - B, so pinning makes it a nonzero constant, which the
    elimination does not saturate by."""
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
    fixed_set = set(assignment)
    return replace(
        sys,
        hypothesis_polys=polys,
        eliminate_vars=tuple(v for v in sys.eliminate_vars if v not in fixed_set),
        denominator_factors=tuple(f.substitute(assignment) for f in sys.denominator_factors),
        fixed=sys.fixed + tuple((sys.table.name(p), v) for p, v in targets),
    )
