"""Constructions over complex points: predicates encoded as rational
expressions that are real exactly when the property holds, declarative
point definitions, and the translation of a construction plus thesis into
the polynomial system whose elimination ideal decides the statement.
"""
from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction

from .algebra_core import (
    Const,
    Div,
    PointRef,
    Polynomial,
    RationalExpr,
    Record,
    Sub,
    VarTable,
    ZeroDenominatorError,
    clear_relations,
    expr_points,
    expr_postorder,
    expr_substitute,
)
from .groebner import invariance


_set = object.__setattr__


class GeometryError(ValueError):
    """Structurally invalid construction input."""


class PredicateArgumentError(GeometryError):
    """Predicate arguments violate the syntactic distinctness rules."""


# ---------------------------------------------------------------------------
# The catalog. Each predicate class is one entry: its DSL name, the caveat of
# its encoding if any, and the rational expression that is real exactly when
# it holds. Arguments are point variable indices, one per field.


def _differences(e: RationalExpr) -> list[tuple[int, int]]:
    """(a, b) for each difference of two points a - b in e, left to right."""
    return [
        (x.left.index, x.right.index)
        for x in expr_postorder(e)
        if type(x) is Sub and type(x.left) is PointRef and type(x.right) is PointRef
    ]


class Predicate(Record):
    """A catalog entry. `name` is the DSL name; `caveat`, when set, is the
    note a proof document carries whenever the predicate is used; `arity`
    is the number of points, one per field. `expr` is the expression that
    is real iff the predicate holds, which `_expr` builds from the points'
    references once per predicate. Every directed segment in it must join
    symbolically distinct points, or a denominator is identically zero."""

    __slots__ = ("expr",)
    name: str
    caveat: str | None = None
    arity: int

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls.arity = len(cls.__slots__)

    def __init__(self, *points: int) -> None:
        if len(points) != self.arity:
            raise TypeError(
                f"{type(self).__name__} takes {self.arity} points, got {len(points)}"
            )
        for f, i in zip(self.__slots__, points):
            _set(self, f, i)
        expr = self._expr(*map(PointRef, points))
        for a, b in _differences(expr):
            if a == b:
                raise PredicateArgumentError(
                    f"{type(self).__name__} needs distinct points in each "
                    f"directed segment (argument {a} repeated)"
                )
        _set(self, "expr", expr)

    def points(self) -> tuple[int, ...]:
        return self._key()

    @staticmethod
    def _expr(*refs: PointRef) -> RationalExpr:
        raise NotImplementedError


class Collinear(Predicate):
    __slots__ = ("a", "o", "b")
    name = "collinear"

    @staticmethod
    def _expr(a, o, b):
        return (a - o) / (o - b)


class Parallel(Predicate):
    __slots__ = ("e", "f", "g", "h")
    name = "parallel"

    @staticmethod
    def _expr(e, f, g, h):
        return (e - f) / (g - h)


class Perpendicular(Predicate):
    __slots__ = ("p", "q", "r", "s")
    name = "perpendicular"

    @staticmethod
    def _expr(p, q, r, s):
        return ((p - q) / (r - s)) ** 2


class Equidistant(Predicate):
    """OA = OC, encoded through the angle equality of the isosceles
    triangle OAC."""

    __slots__ = ("o", "a", "c")
    name = "equidist"
    caveat = (
        "Distance equality is encoded through the isosceles angle "
        "equality; the encoding also admits some degenerate collinear "
        "configurations."
    )

    @staticmethod
    def _expr(o, a, c):
        return ((a - c) / (a - o)) / ((c - o) / (c - a))


class AngleEqual(Predicate):
    """Angle P1-Q1-R1 equals angle P2-Q2-R2 (vertex in the middle)."""

    __slots__ = ("p1", "q1", "r1", "p2", "q2", "r2")
    name = "angle_eq"

    @staticmethod
    def _expr(p1, q1, r1, p2, q2, r2):
        return ((q1 - p1) / (q1 - r1)) / ((q2 - p2) / (q2 - r2))


class Concyclic(Predicate):
    __slots__ = ("a", "b", "c", "d")
    name = "concyclic"
    caveat = (
        "Concyclicity is encoded through the real cross-ratio, which is "
        "also real when the four points are collinear."
    )

    @staticmethod
    def _expr(a, b, c, d):
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


class Declarative(Record):
    __slots__ = ("point", "definition")


class RealRelational(Record):
    """The rational expression of a predicate, required to be real. `expr`
    is what the algebra consumes (declaratives substituted); the expression
    as written is `source.expr`."""

    __slots__ = ("expr", "source")


def predicate_step(p: Predicate) -> RealRelational:
    """The relation asserting a predicate, as a hypothesis or the thesis."""
    return RealRelational(p.expr, p)


ConstructionStep = Declarative | RealRelational


class Construction(Record):
    """A construction: free points, steps, and exactly one thesis, the
    relation that comes last."""

    __slots__ = ("table", "free_points", "steps", "thesis", "inlined")
    _defaults = dict(thesis=None, inlined=())

    def _check(self) -> None:
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
                            f"declarative point {self.point_name(step.point)} may "
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
    definitions are archived for trace narration. A definition that, with
    the earlier ones inlined, divides by an identically zero expression is
    an error, whether or not a relation uses it."""
    env: dict[int, RationalExpr] = {}
    inlined: list[Declarative] = []
    relations: list[RealRelational] = []
    for step in c.steps + (c.thesis,):
        if isinstance(step, Declarative):
            env[step.point] = expr_substitute(step.definition, env)
            # Div refuses a constant 0, and the earlier definitions are checked
            nodes = expr_postorder(step.definition)
            if any(type(x) is Div and type(x.right) is not Const for x in nodes):
                try:
                    clear_relations([env[step.point]], c.table)
                except ZeroDenominatorError:
                    raise GeometryError(
                        f"the definition of {c.point_name(step.point)} divides by zero"
                    ) from None
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


class SlackOrigin(Record):
    """Ties a slack variable to the relation it measures, as written."""

    __slots__ = ("slack", "name", "stated")


class PolynomialSystem(Record):
    """Cleared polynomials p1..ps (thesis last), the distinct denominator
    factors d_1..d_m, which must not vanish, and the variables to
    eliminate. The elimination saturates the ideal by the factors."""

    __slots__ = (
        "table",
        "hypothesis_polys",
        "eliminate_vars",
        "slack_map",
        "denominator_factors",
        "free_points",
        "point_names",
        "declaratives",
        "fixed",
        "notes",
    )
    _defaults = dict(fixed=(), notes=())

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
    # e_k - r_k for the k-th relation, r_k the variable after the points
    # and the earlier slacks
    polys, factors = clear_relations(
        [Sub(step.expr, PointRef(n_points + k)) for k, step in enumerate(relations)], table
    )

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


def fix_coordinates(sys: PolynomialSystem, c: Construction, mode: str) -> PolynomialSystem:
    """Pin the first two free points A and B to constants (0 and 1, or -1
    and 1), or as many as there are, exactly when the elimination
    normalizes the run (groebner.invariance): the system, with A - B among
    its factors, is invariant under moving every point by the same t and,
    with two pinned points, homogeneous in the points. Pinning then only
    records the values in `fixed` and adds A - B to the factors, last,
    unless it is listed already; groebner.eliminate sets one point to 0
    and one linear factor to 1, which keeps the elimination ideal, so it
    is the one with A = 0 and B = 1, and the modes differ only in the
    values. Otherwise nothing is pinned and a note says why."""
    if mode not in FIX_MODES:
        raise GeometryError(f"unknown coordinate fixing mode {mode!r}")
    if mode == "off" or not c.free_points:
        return sys
    pinned = min(2, len(c.free_points))
    factors = sys.denominator_factors
    if pinned == 2:
        # A - B as the clearing lists a factor: a positive leading
        # coefficient under the print order, on the point first in the table
        first, second = sorted(c.free_points[:2])
        a_b = Polynomial.variable(sys.table, first) - Polynomial.variable(sys.table, second)
        if a_b not in factors:
            factors += (a_b,)
    shift, homogeneous, _, _ = invariance(factors, sys.hypothesis_polys, sys.eliminate_vars)
    if not shift or (pinned == 2 and not homogeneous):
        maps = (
            "the similarities of the plane (rotations, scalings and translations)"
            if pinned == 2
            else "translations"
        )
        note = (
            "No coordinates were pinned: the hypotheses and the thesis do not "
            f"commute with {maps}, so pinning could change the statement."
        )
        return sys._replace(notes=sys.notes + (note,))
    values = (Fraction(0), Fraction(1)) if mode == "zero_one" else (Fraction(-1), Fraction(1))
    targets = list(zip(c.free_points[:2], values))
    return sys._replace(
        denominator_factors=factors,
        fixed=sys.fixed + tuple((sys.table.name(p), v) for p, v in targets),
    )
