"""Value semantics of the immutable records: every field is read-only,
records with equal fields are equal and hash alike, records of different
classes are never equal, the repr lists the fields by name, and each
record still checks what it checked when it was built. Every record but
Const and the predicates takes the `__init__` that Record generates from
its `__slots__` and `_defaults`, and `_replace` runs its `_check` again."""

import sys
from fractions import Fraction

import pytest

from cni_prover.algebra_core import (
    Add,
    AlgebraError,
    Block,
    Const,
    Div,
    GrevLex,
    Mul,
    PointRef,
    Polynomial,
    Pow,
    Record,
    Sub,
    ZeroDenominatorError,
)
from cni_prover.cli_dsl import CliConfig, SourceProgram
from cni_prover.geometry_model import (
    AngleEqual,
    Collinear,
    Concyclic,
    Construction,
    Declarative,
    Equidistant,
    GeometryError,
    Parallel,
    Perpendicular,
    PolynomialSystem,
    Predicate,
    PredicateArgumentError,
    PREDICATES,
    RealRelational,
    SlackOrigin,
)
from cni_prover.groebner import EliminationResult, GroebnerBasis, GroebnerConfig
from cni_prover.proof_emitter import ProofDocument
from cni_prover.prover import LinearForm, ProverVerdict

from support import make_table

TABLE = make_table("A", "B", "r")
A, B, R = (Polynomial.variable(TABLE, i) for i in range(3))
P, Q = PointRef(0), PointRef(1)
SLACK = SlackOrigin(2, "r", P - Q)
LINEAR = LinearForm(A, B, A * R + B)

VERDICT_FIELDS = (
    "reason", "point_names", "free_point_names", "declaratives", "hypotheses", "fixed",
    "notes", "thesis", "generators", "linear", "second_generators", "second_linear", "note",
)

# (record class, positional arguments, field names in argument order): the
# repr shows each named field; None marks an argument whose field it hides
CASES = [
    (GrevLex, ((0, 1),), ("perm",)),
    (Block, (GrevLex((0,)), GrevLex((1,))), ("first", "second")),
    (Const, (Fraction(1, 2),), ("value",)),
    (PointRef, (3,), ("index",)),
    (Add, (P, Q), ("left", "right")),
    (Sub, (P, Q), ("left", "right")),
    (Mul, (P, Q), ("left", "right")),
    (Div, (P, Q), ("left", "right")),
    (Pow, (P, 2), ("base", "exponent")),
    (Collinear, (0, 1, 2), ("a", "o", "b")),
    (Parallel, (0, 1, 2, 3), ("e", "f", "g", "h")),
    (Perpendicular, (0, 1, 2, 3), ("p", "q", "r", "s")),
    (Equidistant, (0, 1, 2), ("o", "a", "c")),
    (AngleEqual, (0, 1, 2, 3, 4, 5), ("p1", "q1", "r1", "p2", "q2", "r2")),
    (Concyclic, (0, 1, 2, 3), ("a", "b", "c", "d")),
    (Declarative, (1, P + 1), ("point", "definition")),
    (RealRelational, (P - Q, Collinear(0, 1, 2)), ("expr", "source")),
    (
        Construction,
        (TABLE, (0, 1), (), RealRelational(P - Q, Collinear(0, 1, 2)), ()),
        ("table", "free_points", "steps", "thesis", "inlined"),
    ),
    (SlackOrigin, (2, "r", P - Q), ("slack", "name", "stated")),
    (
        PolynomialSystem,
        (
            TABLE, (A - R,), (0, 1), (SLACK,), (B,), (0,), ("A", "B"), (),
            (("A", Fraction(0)),), ("n",),
        ),
        (
            "table", "hypothesis_polys", "eliminate_vars", "slack_map", "denominator_factors",
            "free_points", "point_names", "declaratives", "fixed", "notes",
        ),
    ),
    (GroebnerConfig, (5.0,), ("timeout",)),
    (GroebnerBasis, ((A, B), GrevLex((0, 1, 2))), ("generators", "order")),
    (
        EliminationResult,
        ((R,), (0, 1), (), None, 7, 3),
        ("generators", "eliminated", None, None, "reductions", "zero_reductions"),
    ),
    (LinearForm, (A, B, A * R + B), ("v", "w", "pivot")),
    (
        ProverVerdict,
        ("nlu", ("A", "B"), ("A",), (), (), (), ("n",), SLACK, (R,), LINEAR, (B,), LINEAR, "why"),
        VERDICT_FIELDS,
    ),
    (ProofDocument, ("text", ("a", "b"), "banner"), ("format", "lines", "banner")),
    (SourceProgram, ("point A", "x.cni"), ("text", "name")),
    (
        CliConfig,
        ("x.cni", "off", 5.0, "json", True),
        ("input", "fix_mode", "timeout", "format", "show_ideal"),
    ),
]

IDS = [cls.__name__ for cls, _, _ in CASES]

# a proved verdict is the bare proof trace: names, hypotheses, thesis and
# first ideal, with no reason, second ideal or note
CASES.append(
    (
        ProverVerdict,
        (None, ("A", "B"), ("A",), (), (SLACK,), (), ("n",), SLACK, (R,), LINEAR, None, None, None),
        VERDICT_FIELDS,
    )
)
IDS.append("ProofTrace")


@pytest.mark.parametrize("cls,args,shown", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, args, shown):
    record = cls(*args)
    for name in [f for f in shown if f] + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for name in [f for f in shown if f]:
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(*args)


@pytest.mark.parametrize("cls,args,shown", CASES, ids=IDS)
def test_equal_fields_make_equal_records_that_hash_alike(cls, args, shown):
    a, b = cls(*args), cls(*args)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls,args,shown", CASES, ids=IDS)
def test_repr_names_each_shown_field(cls, args, shown):
    body = ", ".join(f"{f}={v!r}" for f, v in zip(shown, args) if f)
    assert repr(cls(*args)) == f"{cls.__name__}({body})"


def test_records_of_different_classes_are_never_equal():
    assert Const(Fraction(1)) != PointRef(1)
    assert Const(Fraction(1)).__eq__(PointRef(1)) is NotImplemented
    assert Sub(P, Q) != Add(P, Q)
    assert Sub(P, Q).__eq__(Add(P, Q)) is NotImplemented
    assert GroebnerConfig(5.0) != CliConfig("x.cni", timeout=5.0)
    assert Collinear(0, 1, 2) != Equidistant(0, 1, 2)
    assert Sub(P, Q) != Sub(Q, P)


def test_an_elimination_result_compares_its_generators_and_eliminated_only():
    base = EliminationResult((R,), (0, 1))
    for other in (
        EliminationResult((R,), (0, 1), block_basis=(object(),)),
        EliminationResult((R,), (0, 1), packing=object()),
        EliminationResult((R,), (0, 1), reductions=5, zero_reductions=2),
    ):
        assert other == base and hash(other) == hash(base)
    assert EliminationResult((R,), (0,)) != base
    assert EliminationResult((R, A), (0, 1)) != base


def test_defaults_and_conversions():
    assert Const(1).value == Fraction(1) and type(Const(1).value) is Fraction
    assert Construction(TABLE, (0,), (), RealRelational(P - Q, Collinear(0, 1, 2))).inlined == ()
    assert GroebnerConfig().timeout == CliConfig("x.cni").timeout == 20.0
    assert SourceProgram("x").name == "<input>"
    assert CliConfig("x.cni") == CliConfig("x.cni", "zero_one", 20.0, "text", False)
    assert ProverVerdict("e0u", (), (), (), (), (), ()) == ProverVerdict(
        "e0u", (), (), (), (), (), (), None, None, None, None, None, None
    )
    assert Collinear(0, 1, 2).points() == (0, 1, 2)
    assert Collinear(0, 1, 2).expr == (P - Q) / (Q - PointRef(2))


def test_each_record_still_checks_its_fields():
    with pytest.raises(ZeroDenominatorError):
        Div(P, Const(Fraction(0)))
    with pytest.raises(AlgebraError):
        Pow(P, -1)
    with pytest.raises(PredicateArgumentError):
        Collinear(0, 0, 1)
    with pytest.raises(TypeError):
        Collinear(0, 1)
    with pytest.raises(TypeError):
        Collinear(0, 1, 2, 3)
    thesis = RealRelational(P - Q, Collinear(0, 1, 2))
    with pytest.raises(GeometryError, match="needs a thesis"):
        Construction(TABLE, (0,), ())
    with pytest.raises(GeometryError, match="free point index 5"):
        Construction(TABLE, (5,), (), thesis)
    with pytest.raises(GeometryError, match="only reference earlier points"):
        Construction(TABLE, (0,), (Declarative(1, PointRef(2)),), thesis)
    with pytest.raises(GeometryError, match="point index 7"):
        Construction(TABLE, (0,), (), RealRelational(PointRef(7), thesis.source))
    with pytest.raises(AlgebraError, match="unknown reason code"):
        ProverVerdict("zzz", ("A", "B"), ("A",), (), (), (), ())
    with pytest.raises(ValueError, match="timeout must be positive"):
        CliConfig("x.cni", timeout=0)
    with pytest.raises(ValueError, match="unknown fix mode"):
        CliConfig("x.cni", fix_mode="pin_three")
    with pytest.raises(ValueError, match="unknown format"):
        CliConfig("x.cni", format="xml")


@pytest.mark.parametrize("cls,args,shown", CASES, ids=IDS)
def test_every_field_can_be_given_by_keyword(cls, args, shown):
    if issubclass(cls, Predicate):
        return  # a predicate takes its points by position alone
    record = cls(**dict(zip(cls.__slots__, args)))
    assert record == cls(*args)
    assert all(getattr(record, f) is a for f, a in zip(cls.__slots__, args) if cls is not Const)


VERDICT = ProverVerdict("nlu", ("A", "B"), ("A",), (), (), (), ())
CONSTRUCTION = Construction(TABLE, (0,), (), RealRelational(P - Q, Collinear(0, 1, 2)))

# (record class, its required fields, the defaults of the others)
DEFAULTS = [
    (SourceProgram, ("x",), {"name": "<input>"}),
    (
        CliConfig,
        ("x.cni",),
        {"fix_mode": "zero_one", "timeout": 20.0, "format": "text", "show_ideal": False},
    ),
    (Construction, (TABLE, (0,), ()), {"thesis": None, "inlined": ()}),
    (
        PolynomialSystem,
        (TABLE, (A - R,), (0, 1), (SLACK,), (B,), (0,), ("A", "B"), ()),
        {"fixed": (), "notes": ()},
    ),
    (GroebnerConfig, (), {"timeout": 20.0}),
    (
        EliminationResult,
        ((R,), (0, 1)),
        {
            "block_basis": (), "packing": None, "reductions": 0, "zero_reductions": 0,
            "origin": None, "scale": None,
        },
    ),
    (
        ProverVerdict,
        ("nlu",),
        dict.fromkeys(VERDICT_FIELDS[1:7], ()) | dict.fromkeys(VERDICT_FIELDS[7:]),
    ),
]


@pytest.mark.parametrize("cls,required,defaults", DEFAULTS, ids=[c.__name__ for c, _, _ in DEFAULTS])
def test_the_defaults_hold(cls, required, defaults):
    assert cls._defaults == defaults
    if cls is Construction:
        return  # it refuses its default thesis (test_each_record_still_checks_its_fields)
    record = cls(*required)
    assert {f: getattr(record, f) for f in defaults} == defaults
    assert record == cls(*required, *defaults.values())


@pytest.mark.parametrize("cls,args,shown", CASES, ids=IDS)
def test_a_field_without_a_default_is_required(cls, args, shown):
    given = next((required for c, required, _ in DEFAULTS if c is cls), args)
    if given:
        with pytest.raises(TypeError):
            cls(*given[:-1])


# (record, changes, the error its check raises, its message)
REPLACED = [
    (VERDICT, {"reason": "zzz"}, AlgebraError, "unknown reason code"),
    (CliConfig("x.cni"), {"timeout": 0}, ValueError, "timeout must be positive"),
    (CliConfig("x.cni"), {"fix_mode": "pin_three"}, ValueError, "unknown fix mode"),
    (CliConfig("x.cni"), {"format": "xml"}, ValueError, "unknown format"),
    (GroebnerConfig(), {"timeout": 0}, ValueError, "timeout must be positive"),
    (CONSTRUCTION, {"thesis": None}, GeometryError, "needs a thesis"),
    (CONSTRUCTION, {"free_points": (5,)}, GeometryError, "free point index 5"),
    (Div(P, Q), {"right": Const(0)}, ZeroDenominatorError, "division by the constant zero"),
    (Pow(P, 2), {"exponent": -1}, AlgebraError, "exponent must be nonnegative"),
]


@pytest.mark.parametrize("record,changes,error,message", REPLACED)
def test_replace_runs_the_checks_again(record, changes, error, message):
    with pytest.raises(error, match=message):
        record._replace(**changes)
    assert record._replace() == record


def test_a_predicate_subclass_keeps_the_predicate_init():
    class Coincident(Predicate):
        __slots__ = ("a", "b")
        name = "coincident"

        @staticmethod
        def _expr(a, b):
            return a - b

    assert Coincident.arity == 2
    assert Coincident(0, 1).expr == PointRef(0) - PointRef(1)
    for cls in PREDICATES + (Coincident,):
        assert "__init__" not in cls.__dict__ and cls.__init__ is Predicate.__init__
    with pytest.raises(TypeError, match="Coincident takes 2 points, got 3"):
        Coincident(0, 1, 2)


def _package_records():
    todo, out = [Record], []
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls.__module__.startswith("cni_prover."):
            out.append(cls)
    return out


def test_only_const_and_predicate_write_an_init():
    records = _package_records()
    written = {
        cls for cls in records
        if "__init__" in cls.__dict__
        and cls.__init__.__code__.co_filename == sys.modules[cls.__module__].__file__
    }
    assert written == {Const, Predicate}
    generated = [
        cls for cls in records
        if cls.__dict__.get("__slots__") and not issubclass(cls, (Const, Predicate))
    ]
    assert {GrevLex, Sub, PolynomialSystem, ProverVerdict} <= set(generated)
    for cls in generated:
        # the generated __init__ takes the fields in slot order
        code = cls.__init__.__code__
        assert code.co_varnames[1 : code.co_argcount] == cls.__slots__, cls
        assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
