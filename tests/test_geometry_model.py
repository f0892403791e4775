"""Predicate encodings, declarative substitution, polynomial system
assembly, and coordinate fixing."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cni_prover.algebra_core import (
    Add,
    Const,
    Div,
    Mul,
    PointRef,
    Polynomial,
    Pow,
    Sub,
    VarTable,
)
from cni_prover.cli_dsl import (
    PredicateArityError,
    SourceProgram,
    UnknownPredicateError,
    format_construction,
    parse,
)
from cni_prover.geometry_model import (
    DEFINITIONS,
    PREDICATES,
    AngleEqual,
    Collinear,
    Concyclic,
    Construction,
    Declarative,
    Equidistant,
    GeometryError,
    Parallel,
    Perpendicular,
    PredicateArgumentError,
    RealRelational,
    build_system,
    fix_coordinates,
    predicate_step,
    substitute_declaratives,
)

from cni_prover.groebner import GroebnerConfig, eliminate

from support import (
    Qi,
    I,
    eliminate_by_product,
    evaluate,
    expr_evaluate,
    make_table,
    pinned_clearing,
    reference_primitive,
)


def _define(kind, *points):
    return DEFINITIONS[kind](*(PointRef(i) for i in points))


def _pts(table, *names):
    return tuple(table.add(n) for n in names)


def _midpoint_circle():
    table = VarTable()
    A, B, C = _pts(table, "A", "B", "C")
    O = table.add("O")
    steps = (
        Declarative(O, _define("midpoint", A, B)),
        predicate_step(Equidistant(O, A, C)),
    )
    return Construction(
        table=table,
        free_points=(A, B, C),
        steps=steps,
        thesis=predicate_step(Perpendicular(A, C, C, B)),
    )


# ---------------------------------------------------------------------------
# Predicates.


def test_collinear_expression_structure():
    e = Collinear(0, 1, 2).expr
    assert e == Div(Sub(PointRef(0), PointRef(1)), Sub(PointRef(1), PointRef(2)))


def test_perpendicular_is_a_squared_ratio():
    e = Perpendicular(0, 1, 2, 3).expr
    assert isinstance(e, Pow) and e.exponent == 2


def test_predicates_reject_degenerate_segments():
    with pytest.raises(PredicateArgumentError):
        Collinear(0, 0, 1)
    with pytest.raises(PredicateArgumentError):
        Parallel(0, 1, 2, 2)
    with pytest.raises(PredicateArgumentError):
        AngleEqual(0, 0, 1, 2, 3, 4)
    # shared endpoints across segments are fine
    Perpendicular(0, 1, 1, 2)


# The directed segments of each encoding, as pairs of argument positions.
SEGMENTS = {
    Collinear: ((0, 1), (1, 2)),
    Parallel: ((0, 1), (2, 3)),
    Perpendicular: ((0, 1), (2, 3)),
    Equidistant: ((1, 2), (1, 0), (2, 0)),
    AngleEqual: ((1, 0), (1, 2), (4, 3), (4, 5)),
    Concyclic: ((0, 2), (1, 3), (0, 3), (1, 2)),
}


@pytest.mark.parametrize("cls", PREDICATES, ids=lambda cls: cls.__name__)
def test_repeated_argument_is_rejected_exactly_inside_a_segment(cls):
    segments = {frozenset(pair) for pair in SEGMENTS[cls]}
    n = cls.arity
    for i in range(n):
        for j in range(i + 1, n):
            args = list(range(n))
            args[j] = i
            if frozenset((i, j)) in segments:
                with pytest.raises(PredicateArgumentError) as exc:
                    cls(*args)
                assert str(exc.value) == (
                    f"{cls.__name__} needs distinct points in each directed "
                    f"segment (argument {i} repeated)"
                )
            else:
                cls(*args)


@pytest.mark.parametrize("cls", PREDICATES, ids=lambda cls: cls.__name__)
def test_every_predicate_round_trips_through_source_form(cls):
    table = make_table(*"ABCDEF")
    n = cls.arity
    hypothesis = predicate_step(cls(*range(n)))
    thesis = predicate_step(cls(*reversed(range(n))))
    c = Construction(table=table, free_points=tuple(range(6)), steps=(hypothesis,), thesis=thesis)
    text = format_construction(c)
    back = parse(SourceProgram(text))
    assert back.steps == c.steps and back.thesis == c.thesis
    assert format_construction(back) == text


def _assert_real(pred, assignment):
    v = expr_evaluate(pred.expr, assignment)
    assert v.is_real, f"{pred} gave {v}"


def _assert_not_real(pred, assignment):
    v = expr_evaluate(pred.expr, assignment)
    assert not v.is_real, f"{pred} gave {v}"


def test_predicate_evaluation_satisfying_and_violating():
    # each predicate: a satisfying instance is real, a generic violation is not
    half = Qi(Fraction(1, 2))
    _assert_real(Collinear(0, 1, 2), {0: Qi(0), 1: half, 2: Qi(1)})
    _assert_not_real(Collinear(0, 1, 2), {0: Qi(0), 1: I, 2: Qi(1)})

    _assert_real(Parallel(0, 1, 2, 3), {0: Qi(0), 1: Qi(1, 1), 2: Qi(0), 3: Qi(2, 2)})
    _assert_not_real(Parallel(0, 1, 2, 3), {0: Qi(0), 1: Qi(1, 1), 2: Qi(0), 3: Qi(2, 3)})

    _assert_real(Perpendicular(0, 1, 2, 3), {0: Qi(0), 1: I, 2: Qi(0), 3: Qi(1)})
    _assert_not_real(Perpendicular(0, 1, 2, 3), {0: Qi(0), 1: Qi(1, 1), 2: Qi(0), 3: Qi(1)})

    _assert_real(Equidistant(0, 1, 2), {0: Qi(0), 1: Qi(1), 2: I})
    _assert_not_real(Equidistant(0, 1, 2), {0: Qi(0), 1: Qi(1), 2: Qi(0, 2)})

    _assert_real(
        AngleEqual(0, 1, 2, 3, 4, 5),
        {0: Qi(1), 1: Qi(0), 2: I, 3: Qi(2), 4: Qi(0), 5: Qi(0, 2)},
    )
    _assert_not_real(
        AngleEqual(0, 1, 2, 3, 4, 5),
        {0: Qi(1), 1: Qi(0), 2: I, 3: Qi(2), 4: Qi(0), 5: Qi(3, 1)},
    )

    circle = {0: Qi(1), 1: I, 2: Qi(-1), 3: Qi(0, -1)}
    _assert_real(Concyclic(0, 1, 2, 3), circle)
    _assert_not_real(Concyclic(0, 1, 2, 3), {**circle, 3: Qi(0, 3)})


@given(st.tuples(*(st.integers(-4, 4) for _ in range(6))))
@settings(max_examples=60, deadline=None)
def test_collinear_real_on_a_rational_line(coords):
    # three points with rational coordinates on the line y = x are collinear
    a, b, c = coords[0], coords[2], coords[4]
    if len({a, b, c}) < 3:
        return
    assignment = {0: Qi(a, a), 1: Qi(b, b), 2: Qi(c, c)}
    _assert_real(Collinear(0, 1, 2), assignment)


# ---------------------------------------------------------------------------
# Declaratives.


def test_declarative_expr_catalog():
    assert _define("midpoint", 0, 1) == Div(
        Add(PointRef(0), PointRef(1)), Const(Fraction(2))
    )
    assert _define("barycenter", 0, 1, 2) == Div(
        Add(Add(PointRef(0), PointRef(1)), PointRef(2)), Const(Fraction(3))
    )
    assert _define("parallelogram4", 0, 1, 2) == Sub(
        Add(PointRef(0), PointRef(2)), PointRef(1)
    )


# Each shorthand as called, and the same definition written out.
WRITTEN_OUT = {
    "midpoint": ("midpoint(A, B)", "(A+B)/2"),
    "barycenter": ("barycenter(A, B, C)", "(A+B+C)/3"),
    "parallelogram4": ("parallelogram4(A, B, C)", "A+C-B"),
}


@pytest.mark.parametrize("shorthand", sorted(DEFINITIONS))
def test_shorthand_parses_to_its_written_out_form(shorthand):
    def definition(rhs):
        program = f"point A, B, C\nM := {rhs}\nprove collinear(A, B, M)\n"
        return parse(SourceProgram(program)).steps[0].definition

    call, written_out = WRITTEN_OUT[shorthand]
    assert definition(call) == definition(written_out)


def test_substitute_declaratives_chains_definitions():
    table = VarTable()
    A, B = _pts(table, "A", "B")
    E = table.add("E")
    F = table.add("F")
    steps = (
        Declarative(E, _define("midpoint", A, B)),
        Declarative(F, _define("midpoint", E, B)),
        predicate_step(Collinear(A, E, F)),
    )
    c = Construction(table=table, free_points=(A, B), steps=steps, thesis=predicate_step(Collinear(A, F, B)))
    out = substitute_declaratives(c)
    assert len(out.inlined) == 2
    assert all(isinstance(s, RealRelational) for s in out.steps)
    # F's definition re-expands E, so only A and B survive in the relation
    assignment = {A: Qi(0), B: Qi(4)}
    e_val = Qi(2)
    f_val = Qi(3)
    rel = out.steps[0].expr
    v = expr_evaluate(rel, assignment)
    ref = expr_evaluate(
        Collinear(A, E, F).expr, {**assignment, E: e_val, F: f_val}
    )
    assert v == ref
    # stated expressions keep the original point names
    assert out.steps[0].source == Collinear(A, E, F)
    assert build_system(out).slack_map[0].stated == Collinear(A, E, F).expr


def test_build_system_requires_substitution():
    c = _midpoint_circle()
    with pytest.raises(GeometryError):
        build_system(c)


# ---------------------------------------------------------------------------
# System assembly.


def test_build_system_shape():
    c = substitute_declaratives(_midpoint_circle())
    sys = build_system(c)
    table = sys.table
    # one hypothesis slack, the thesis slack last
    assert len(sys.slack_map) == 2
    assert sys.slack_map[-1].stated == Perpendicular(0, 2, 2, 1).expr
    assert sys.slack_map[-1].name == "r"
    assert sys.slack_map[0].name == "r1"
    assert sys.thesis_slack == sys.slack_map[-1].slack
    # polynomials: one per relation plus the thesis; the elimination builds
    # the Rabinowitsch generators from the factors
    assert len(sys.hypothesis_polys) == 2
    assert sys.rabinowitsch_poly is None
    # the table is exactly the points, then the slacks; only points go
    assert table.names() == ("A", "B", "C", "O", "r1", "r")
    assert tuple(o.slack for o in sys.slack_map) == (4, 5)
    assert sys.eliminate_vars == (0, 1, 2, 3)
    # the distinct factors in first-seen order, in the points alone: the
    # hypothesis' (O substituted), then the one the thesis adds
    A, B, C = (Polynomial.variable(table, i) for i in range(3))
    assert sys.denominator_factors == (A - B, A - C, A + B - C - C, B - C)
    assert sys.declaratives and sys.declaratives[0][0] == "O"
    assert sys.point_names == ("A", "B", "C", "O")


def test_denominator_factors_are_distinct():
    c = substitute_declaratives(_midpoint_circle())
    sys = build_system(c)
    keys = {frozenset(f.terms.items()) for f in sys.denominator_factors}
    assert len(keys) == len(sys.denominator_factors)


def _consistent_assignment(sys, c, point_values):
    """Assign every variable consistently: points as given, slacks to the
    value of their expression."""
    assignment = dict(point_values)
    for step in c.steps:
        if isinstance(step, Declarative):
            assignment[step.point] = expr_evaluate(step.definition, assignment)
    values = {}
    for idx, v in assignment.items():
        values[idx] = v
    relations = [step.expr for step in c.steps + (c.thesis,)]
    for origin, rel in zip(sys.slack_map, relations):
        values[origin.slack] = expr_evaluate(rel, values)
    return values


def test_cleared_polynomials_vanish_on_consistent_values():
    base = _midpoint_circle()
    c = substitute_declaratives(base)
    sys = build_system(c)
    rng = random.Random(17)
    checked = 0
    while checked < 25:
        pts = {i: Qi(rng.randint(-6, 6), rng.randint(-6, 6)) for i in (0, 1, 2)}
        try:
            values = _consistent_assignment(sys, c, pts)
        except ZeroDivisionError:
            continue
        # the relations' values exist, so no factor vanishes there
        for d in sys.denominator_factors:
            assert evaluate(d, values) != Qi(0)
        for p in sys.hypothesis_polys:
            assert evaluate(p, values) == Qi(0)
        checked += 1


def _random_construction(rng):
    """Three or four free points, sometimes the midpoint of two of them,
    one or two hypotheses and a thesis, each a predicate on random points."""
    while True:
        table = VarTable()
        points = list(_pts(table, *"ABCD"[: rng.randint(3, 4)]))
        free = tuple(points)
        steps = []
        if rng.random() < 0.5:
            m = table.add("M")
            steps.append(Declarative(m, _define("midpoint", *rng.sample(free, 2))))
            points.append(m)
        try:
            relations = [
                predicate_step(cls(*(rng.choice(points) for _ in range(cls.arity))))
                for cls in rng.choices(PREDICATES, k=rng.randint(2, 3))
            ]
        except PredicateArgumentError:
            continue
        steps.extend(relations[:-1])
        return Construction(table=table, free_points=free, steps=tuple(steps), thesis=relations[-1])


def test_a_generator_per_factor_saturates_as_the_product_does():
    """Saturating by each denominator factor d_k through its own d_k*u_k - 1,
    all eliminated in one block with the points, gives the ideal that one
    generator d_1*...*d_m*u - 1 gives. Pinned and unpinned, so the pinned
    systems saturate by A - B too. In most systems saturation changes the
    ideal, so a lost generator would show."""
    rng = random.Random(1729)
    cfg = GroebnerConfig(timeout=600.0)
    checked = saturation_matters = 0
    for _ in range(30):
        written = _random_construction(rng)
        c = substitute_declaratives(written)
        for mode in ("zero_one", "off"):
            sys = fix_coordinates(build_system(c), c, mode)
            ref = eliminate_by_product(
                sys.hypothesis_polys, sys.denominator_factors, sys.eliminate_vars
            )
            got = eliminate(
                sys.hypothesis_polys, sys.eliminate_vars, cfg, saturate=sys.denominator_factors
            )
            assert got.generators == ref, format_construction(written)
            plain = eliminate(sys.hypothesis_polys, sys.eliminate_vars, cfg)
            saturation_matters += plain.generators != ref
            checked += 1
    assert checked == 60 and saturation_matters >= 30


def test_notes_flag_encoding_weaknesses():
    c = substitute_declaratives(_midpoint_circle())
    sys = build_system(c)
    assert any("weaker" in n for n in sys.notes)
    assert any("isosceles" in n for n in sys.notes)

    table = VarTable()
    A, B, C, D = _pts(table, "A", "B", "C", "D")
    c2 = Construction(
        table=table,
        free_points=(A, B, C, D),
        steps=(predicate_step(Concyclic(A, B, C, D)),),
        thesis=predicate_step(Parallel(A, B, C, D)),
    )
    sys2 = build_system(substitute_declaratives(c2))
    assert any("cross-ratio" in n for n in sys2.notes)


# ---------------------------------------------------------------------------
# Coordinate fixing.


def test_fix_coordinates_zero_one():
    c = substitute_declaratives(_midpoint_circle())
    sys = build_system(c)
    fixed = fix_coordinates(sys, c, "zero_one")
    assert fixed.fixed == (("A", Fraction(0)), ("B", Fraction(1)))
    # the pinning is left to the elimination: the relations and the
    # variables to eliminate are build_system's, pinned points included
    assert fixed.hypothesis_polys == sys.hypothesis_polys
    assert fixed.eliminate_vars == sys.eliminate_vars
    # A - B (from the segment OA, O the midpoint of AB) is listed already,
    # so the four factors stay as they are
    assert len(sys.denominator_factors) == 4
    assert fixed.denominator_factors == sys.denominator_factors
    a_b = Polynomial.variable(sys.table, 0) - Polynomial.variable(sys.table, 1)
    assert a_b in fixed.denominator_factors
    cfg = GroebnerConfig(timeout=600.0)
    res = eliminate(
        fixed.hypothesis_polys, fixed.eliminate_vars, cfg, saturate=fixed.denominator_factors
    )
    assert res.generators == eliminate_by_product(
        fixed.hypothesis_polys, fixed.denominator_factors, fixed.eliminate_vars
    )
    # the elimination sets one point to 0 and one linear factor to 1, and
    # its ideal is the one of the system with A = 0 and B = 1
    assert res.origin is not None and res.scale is not None
    polys, elim, factors = pinned_clearing(sys, c, "zero_one")
    assert res.generators == eliminate(polys, elim, cfg, saturate=factors).generators


def test_fix_coordinates_appends_a_minus_b_unless_listed_up_to_sign():
    # the first two free points are B and A: their difference is listed as
    # the clearing lists a factor, A - B, positive on the point first in the
    # table, and last
    table = VarTable()
    A, B, C, D = _pts(table, "A", "B", "C", "D")
    c = Construction(
        table=table,
        free_points=(B, A, C, D),
        steps=(predicate_step(Collinear(A, C, D)),),
        thesis=predicate_step(Parallel(B, C, A, D)),
    )
    sys = build_system(c)
    a_b = Polynomial.variable(sys.table, A) - Polynomial.variable(sys.table, B)
    assert a_b not in sys.denominator_factors and -a_b not in sys.denominator_factors
    for mode, values in (("zero_one", (0, 1)), ("minus_one_one", (-1, 1))):
        fixed = fix_coordinates(sys, c, mode)
        assert fixed.denominator_factors == sys.denominator_factors + (a_b,)
        assert fixed.fixed == (("B", Fraction(values[0])), ("A", Fraction(values[1])))
        # listed already, it is not listed twice
        again = fix_coordinates(fixed._replace(fixed=()), c, mode)
        assert again.denominator_factors == fixed.denominator_factors


def test_pinned_systems_eliminate_as_the_pinned_clearing():
    """Random constructions, in both pinned modes: the elimination of the
    system fix_coordinates returns gives the generators that the system
    with the two pinned points replaced by their values and cleared again
    gives. The elimination translates and scales every such system."""
    rng = random.Random(2025)
    cfg = GroebnerConfig(timeout=600.0)
    checked = 0
    for _ in range(20):
        written = _random_construction(rng)
        c = substitute_declaratives(written)
        sys = build_system(c)
        for mode in ("zero_one", "minus_one_one"):
            fixed = fix_coordinates(sys, c, mode)
            assert len(fixed.fixed) == 2, format_construction(written)
            got = eliminate(
                fixed.hypothesis_polys, fixed.eliminate_vars, cfg, saturate=fixed.denominator_factors
            )
            assert got.origin is not None and got.scale is not None
            polys, elim, factors = pinned_clearing(sys, c, mode)
            ref = eliminate(polys, elim, cfg, saturate=factors)
            assert got.generators == ref.generators, format_construction(written)
            checked += 1
    assert checked == 40


CORPUS = sorted(
    path
    for path in (Path(__file__).resolve().parent.parent / "perfbench" / "corpus").glob("*.cni")
    if path.stem != "bad_zero_denominator"
)


def _corpus_constructions():
    for path in CORPUS:
        try:
            c = substitute_declaratives(parse(SourceProgram(path.read_text(), path.stem)))
        except (UnknownPredicateError, PredicateArityError):
            continue  # the rejects have no system
        yield path.stem, c


@pytest.mark.parametrize("mode", ["zero_one", "minus_one_one"])
def test_pinned_factors_are_canonical_and_distinct(mode):
    # every factor left by pinning is non-constant and primitive with a
    # positive leading coefficient under the print order, as build_system
    # makes them, and no factor is listed twice
    pinned = 0
    for name, c in _corpus_constructions():
        fixed = fix_coordinates(build_system(c), c, mode)
        if not fixed.fixed:
            continue
        pinned += 1
        factors = fixed.denominator_factors
        assert len(set(factors)) == len(factors), name
        for f in factors:
            assert not f.is_constant, (name, f)
            assert f == reference_primitive(f)[1], (name, f)
    assert pinned >= 19


@pytest.mark.parametrize("mode", ["zero_one", "minus_one_one"])
def test_pinned_corpus_systems_are_the_unpinned_ones_with_a_minus_b(mode):
    # pinning keeps build_system's polynomials and variables to eliminate
    # and lists A - B among the factors, last when it is new; the
    # elimination of that system gives the generators that replacing A and B
    # by their values and clearing again gives (pappus, the slowest, is
    # left to the slow documents)
    cfg = GroebnerConfig(timeout=60.0)
    pinned = 0
    for name, c in _corpus_constructions():
        sys = build_system(c)
        fixed = fix_coordinates(sys, c, mode)
        if not fixed.fixed or name == "pappus":
            continue
        pinned += 1
        assert fixed.hypothesis_polys == sys.hypothesis_polys, name
        assert fixed.eliminate_vars == sys.eliminate_vars, name
        a, b = c.free_points[:2]
        a_b = Polynomial.variable(sys.table, a) - Polynomial.variable(sys.table, b)
        factors = sys.denominator_factors
        if a_b not in factors and -a_b not in factors:
            factors += (reference_primitive(a_b)[1],)
        assert fixed.denominator_factors == factors, name
        got = eliminate(sys.hypothesis_polys, sys.eliminate_vars, cfg, saturate=factors)
        polys, elim, ref_factors = pinned_clearing(sys, c, mode)
        ref = eliminate(polys, elim, cfg, saturate=ref_factors)
        assert got.generators == ref.generators, name
    assert pinned == 19


def test_fix_coordinates_minus_one_one():
    c = substitute_declaratives(_midpoint_circle())
    sys = build_system(c)
    fixed = fix_coordinates(sys, c, "minus_one_one")
    assert fixed.fixed == (("A", Fraction(-1)), ("B", Fraction(1)))


def test_fix_coordinates_off_is_identity():
    c = substitute_declaratives(_midpoint_circle())
    sys = build_system(c)
    assert fix_coordinates(sys, c, "off") is sys


def test_fix_coordinates_unknown_mode():
    c = substitute_declaratives(_midpoint_circle())
    sys = build_system(c)
    with pytest.raises(GeometryError):
        fix_coordinates(sys, c, "one_two")


def test_fix_coordinates_single_free_point():
    table = VarTable()
    (A,) = _pts(table, "A")
    B = table.add("B")
    C = table.add("C")
    steps = (
        Declarative(B, Add(PointRef(A), Const(Fraction(1)))),
        Declarative(C, Add(PointRef(A), Const(Fraction(2)))),
    )
    c = substitute_declaratives(
        Construction(table=table, free_points=(A,), steps=steps, thesis=predicate_step(Collinear(A, B, C)))
    )
    sys = build_system(c)
    fixed = fix_coordinates(sys, c, "zero_one")
    assert fixed.fixed == (("A", Fraction(0)),)


def test_fix_coordinates_single_free_point_refuses_a_definition_that_is_not_a_translate():
    # pinning one point needs only translations, which A + 1 commutes with
    # and A*A does not
    table = VarTable()
    (A,) = _pts(table, "A")
    B = table.add("B")
    C = table.add("C")
    steps = (
        Declarative(B, Add(PointRef(A), Const(Fraction(1)))),
        Declarative(C, Mul(PointRef(A), PointRef(A))),
    )
    c = substitute_declaratives(
        Construction(table=table, free_points=(A,), steps=steps, thesis=predicate_step(Collinear(A, B, C)))
    )
    sys = build_system(c)
    fixed = fix_coordinates(sys, c, "zero_one")
    assert fixed.fixed == () and fixed.hypothesis_polys == sys.hypothesis_polys
    assert fixed.notes == sys.notes + (
        "No coordinates were pinned: the definition of C does not commute with "
        "translations, so pinning could change the statement.",
    )


def test_construction_requires_a_thesis():
    table = make_table("A", "B", "C")
    with pytest.raises(GeometryError):
        Construction(table=table, free_points=(0, 1, 2), steps=())
