"""Decision procedure: pivot selection, the rational form of the thesis
slack, the divisor re-elimination, and the verdicts on the worked examples."""

import json

import pytest

from cni_prover import groebner, prover
from cni_prover.algebra_core import AlgebraError, Const, VarTable
from cni_prover.groebner import EliminationResult, GroebnerConfig, GroebnerTimeout, eliminate
from cni_prover.geometry_model import (
    PolynomialSystem,
    SlackOrigin,
    build_system,
    fix_coordinates,
    substitute_declaratives,
)
from cni_prover.prover import (
    INCONCLUSIVE,
    PROVED,
    REASON_MEANINGS,
    ProverConfig,
    ProverVerdict,
    check_denominator,
    express_linear,
    prove,
    select_pivot,
)
from cni_prover.proof_emitter import emit_trace, format_polynomial
from cni_prover.cli_dsl import SourceProgram, parse

from pathlib import Path

from support import poly as _poly

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _prove_file(name: str, mode: str = "zero_one", timeout: float = 20.0):
    src = (PROBLEMS / f"{name}.cni").read_text()
    c = substitute_declaratives(parse(SourceProgram(src, name)))
    sys = fix_coordinates(build_system(c), c, mode)
    return prove(sys, ProverConfig(timeout=timeout))


# ---------------------------------------------------------------------------
# Worked examples, end to end.


def test_varignon_proved_polynomial_form():
    v = _prove_file("varignon")
    assert v.outcome == PROVED and v.reason is None
    assert v.trace.linear.v.is_constant
    assert format_polynomial(v.trace.linear.pivot) == "-r-1"
    assert v.trace.denominator is None


def test_midpoint_circle_proved_by_contradiction():
    v = _prove_file("midpoint_circle")
    assert v.outcome == PROVED
    assert format_polynomial(v.trace.linear.pivot) == "r1*r-r1-4*r"
    assert format_polynomial(v.trace.denominator) == "r1-4"
    assert v.trace.second.status == "trivial"


def test_medians_proved_by_second_polynomial_form():
    v = _prove_file("medians")
    assert v.outcome == PROVED
    assert format_polynomial(v.trace.denominator) == "r1*r2-r1-r2"
    assert v.trace.second.status == "polynomial"
    assert format_polynomial(v.trace.second.linear.pivot) == "-r+2"
    assert "except for a couple of counterexamples" in v.trace.reason_note


def test_angle_bisectors_proved():
    v = _prove_file("angle_bisectors")
    assert v.outcome == PROVED
    assert format_polynomial(v.trace.linear.pivot) == "r1*r2*r-r1*r2-r1*r-r2*r"
    assert format_polynomial(v.trace.denominator) == "r1*r2-r1-r2"
    assert v.trace.second.status == "trivial"


def test_thales_converse_proved():
    v = _prove_file("thales_converse")
    assert v.outcome == PROVED
    assert format_polynomial(v.trace.linear.pivot) == "r1*r2*r3*r+1"
    assert format_polynomial(v.trace.denominator) == "r1*r2*r3"
    assert v.trace.second.status == "trivial"


def test_thales_converse_proved_without_fixing():
    v = _prove_file("thales_converse", mode="off")
    assert v.outcome == PROVED
    assert v.trace.fixed == ()


def test_angle_bisectors_unfixed_is_inconclusive():
    # without coordinate fixing the variety keeps degenerate components and
    # the divisor re-elimination loses r entirely
    v = _prove_file("angle_bisectors", mode="off")
    assert v.outcome == INCONCLUSIVE
    assert v.reason == "e2nru"


@pytest.mark.parametrize(
    "name", ["varignon", "midpoint_circle", "medians", "thales_converse"]
)
def test_verdict_stable_across_fix_modes(name):
    outcomes = {m: _prove_file(name, mode=m).outcome for m in ("zero_one", "minus_one_one", "off")}
    assert set(outcomes.values()) == {PROVED}, outcomes


# ---------------------------------------------------------------------------
# Pivot selection and the linear split.


def _ring(*names):
    table = VarTable()
    idx = [table.add(n) for n in names]
    return table, idx


def _result(polys):
    return EliminationResult(tuple(polys), ())


def test_select_pivot_minimal_r_degree():
    table, (x, r) = _ring("x", "r")
    quad = _poly(table, [({r: 2}, 1), ({}, -1)])
    lin = _poly(table, [({x: 1, r: 1}, 1), ({x: 1}, 2)])
    no_r = _poly(table, [({x: 3}, 1)])
    I = _result([quad, no_r, lin])
    assert select_pivot(I, r) is lin


def test_select_pivot_tie_breaks_on_size():
    table, (x, r) = _ring("x", "r")
    big = _poly(table, [({x: 2, r: 1}, 1), ({x: 1}, 1), ({}, 1)])
    small = _poly(table, [({r: 1}, 1), ({}, 1)])
    I = _result([big, small])
    assert select_pivot(I, r) is small


def test_select_pivot_requires_r():
    table, (x, r) = _ring("x", "r")
    I = _result([_poly(table, [({x: 1}, 1)])])
    with pytest.raises(AlgebraError):
        select_pivot(I, r)


def test_express_linear_splits_pivot():
    table, (a, r) = _ring("a", "r")
    p = _poly(table, [({a: 1, r: 1}, 1), ({r: 1}, -4), ({a: 1}, -1)])
    lf = express_linear(p, r)
    assert lf.v == _poly(table, [({a: 1}, 1), ({}, -4)])
    assert lf.w == _poly(table, [({a: 1}, -1)])
    assert lf.pivot is p


def test_express_linear_rejects_higher_degree():
    table, (a, r) = _ring("a", "r")
    with pytest.raises(AlgebraError):
        express_linear(_poly(table, [({r: 2}, 1)]), r)


# ---------------------------------------------------------------------------
# Synthetic systems exercising each branch of the procedure.


def _synthetic(table, polys, eliminate_vars, slacks, points=()):
    origins = [
        SlackOrigin(slack=s, name=table.name(s), stated=Const(i + 1))
        for i, s in enumerate(slacks)
    ]
    return PolynomialSystem(
        table=table,
        hypothesis_polys=tuple(polys),
        eliminate_vars=tuple(eliminate_vars),
        slack_map=tuple(origins),
        denominator_factors=(),
        free_points=tuple(points),
        point_names=tuple(table.name(p) for p in points),
        declaratives=(),
    )


def test_prove_nlu_when_r_only_appears_squared():
    v = prove(_squared_thesis_system())
    assert v.outcome == INCONCLUSIVE and v.reason == "nlu"
    assert "minimal degree" in v.trace.reason_note


def test_prove_e0u_when_ideal_misses_r():
    # r is tied only to the eliminated variable, so nothing about it survives
    v = prove(_unrelated_thesis_system())
    assert v.outcome == INCONCLUSIVE and v.reason == "e0u"


def test_prove_contradictory_hypotheses_note():
    table = VarTable()
    x = table.add("x")
    r = table.add("r")
    polys = [
        _poly(table, [({x: 1}, 1)]),
        _poly(table, [({x: 1}, 1), ({}, -1)]),
        _poly(table, [({x: 1}, 1), ({r: 1}, -1)]),
    ]
    v = prove(_synthetic(table, polys, [x], [r], points=(x,)))
    assert v.outcome == INCONCLUSIVE and v.reason == "e0u"
    assert "contradictory" in v.trace.reason_note


def test_prove_zero_thesis_is_still_polynomial_form():
    # r = x with x forced to 0: the pivot is r itself, w == 0, and the
    # verdict is a plain polynomial form r = 0
    v = prove(_zero_thesis_system())
    assert v.outcome == PROVED
    assert v.trace.linear.v.is_constant
    assert v.trace.linear.w.is_zero


def test_prove_timeout_reports_to():
    v = _prove_file("angle_bisectors", timeout=0.001)
    assert v.outcome == INCONCLUSIVE and v.reason == "t/o"
    assert "timed out" in v.trace.reason_note


# ---------------------------------------------------------------------------
# Divisor analysis.


def _division_system():
    """r1*r - r1 - 4r = 0 after elimination, i.e. r = r1/(r1-4)."""
    table = VarTable()
    x = table.add("x")
    r1 = table.add("r1")
    r = table.add("r")
    polys = [
        _poly(table, [({x: 1}, 1), ({r1: 1}, -1)]),
        _poly(table, [({x: 1, r: 1}, 1), ({x: 1}, -1), ({r: 1}, -4)]),
    ]
    return table, x, r1, r, _synthetic(table, polys, [x], [r1, r], points=(x,))


def _cylinder_system():
    """(r1 - 4)(r - 2) = 0 after elimination: generically r = 2, but on the
    slice r1 = 4 nothing constrains r."""
    table = VarTable()
    x = table.add("x")
    r1 = table.add("r1")
    r = table.add("r")
    polys = [
        _poly(table, [({x: 1}, 1), ({r1: 1}, -1)]),
        _poly(table, [({x: 1, r: 1}, 1), ({x: 1}, -2), ({r: 1}, -4), ({}, 8)]),
    ]
    return table, x, r1, r, _synthetic(table, polys, [x], [r1, r], points=(x,))


def _check(sys, D):
    """check_denominator after the first elimination it continues from."""
    cfg = GroebnerConfig()
    first = eliminate(
        sys.hypothesis_polys, sys.eliminate_vars, cfg, saturate=sys.denominator_factors
    )
    return check_denominator(sys, first, D, cfg)


def test_check_denominator_contradiction():
    # on the slice r1 = 4 the relation reads 0*r = 4, impossible
    table, x, r1, r, sys = _division_system()
    D = _poly(table, [({r1: 1}, 1), ({}, -4)])
    out = _check(sys, D)
    assert out.status == "trivial" and out.reason is None


def test_check_denominator_no_r():
    table, x, r1, r, sys = _cylinder_system()
    D = _poly(table, [({r1: 1}, 1), ({}, -4)])
    out = _check(sys, D)
    assert out.status == "no_r" and out.reason == "e2nru"


def test_check_denominator_second_polynomial_form():
    table = VarTable()
    x = table.add("x")
    r1 = table.add("r1")
    r = table.add("r")
    polys = [
        _poly(table, [({x: 1}, 1), ({r1: 1}, -1)]),
        # r1*r - 2*r1 - 4r + 8 = (r1-4)(r-2): dividing needs r1-4, but even
        # on r1 = 4 the ideal pins r = 2
        _poly(table, [({x: 1, r: 1}, 1), ({x: 1}, -2), ({r: 1}, -4), ({}, 8)]),
        _poly(table, [({r: 1}, 1), ({}, -2)]),
    ]
    sys = _synthetic(table, polys, [x], [r1, r], points=(x,))
    D = _poly(table, [({r1: 1}, 1), ({}, -4)])
    out = _check(sys, D)
    assert out.status == "polynomial" and out.reason is None
    assert out.linear.v.is_constant


def test_check_denominator_second_nonlinear():
    table = VarTable()
    x = table.add("x")
    r1 = table.add("r1")
    r = table.add("r")
    polys = [
        _poly(table, [({x: 1}, 1), ({r1: 1}, -1)]),
        _poly(table, [({r: 2}, 1), ({r1: 1}, -1)]),
    ]
    sys = _synthetic(table, polys, [x], [r1, r], points=(x,))
    D = _poly(table, [({r1: 1}, 1), ({}, -4)])
    out = _check(sys, D)
    assert out.status == "inconclusive"
    assert out.reason == "nlu"
    assert "minimal degree 2" in out.note


def test_check_denominator_second_nonconstant_coefficient():
    table = VarTable()
    x = table.add("x")
    r1 = table.add("r1")
    r2 = table.add("r2")
    r = table.add("r")
    polys = [
        _poly(table, [({x: 1}, 1), ({r1: 1}, -1)]),
        _poly(table, [({r2: 1, r: 1}, 1), ({}, -1)]),
    ]
    sys = _synthetic(table, polys, [x], [r1, r2, r], points=(x,))
    D = _poly(table, [({r1: 1}, 1), ({}, -4)])
    out = _check(sys, D)
    assert out.status == "inconclusive"
    assert out.reason == "d3u"
    assert "again non-constant" in out.note


def _divided_corpus_runs():
    """(name, fix) of each corpus run whose expected document records a
    non-constant divisor, i.e. a second elimination."""
    runs = []
    for path in sorted((PERFBENCH / "expected").glob("*/*.json")):
        if json.loads(path.read_text()).get("denominator") is not None:
            runs.append((path.stem, path.parent.name))
    return runs


@pytest.mark.parametrize("name,fix", _divided_corpus_runs())
def test_second_elimination_continues_from_the_first(name, fix, monkeypatch):
    """The second ideal, computed from the first run's basis plus the divisor
    v, is the one a fresh elimination of the input plus v gives; and the
    continued run forms no S-polynomial of two elements of that basis."""
    src = (PERFBENCH / "corpus" / f"{name}.cni").read_text()
    c = substitute_declaratives(parse(SourceProgram(src, name)))
    sys = fix_coordinates(build_system(c), c, fix)
    cfg = GroebnerConfig(timeout=60.0)
    verdict = prove(sys, ProverConfig(timeout=60.0))
    v = verdict.trace.denominator
    factors = sys.denominator_factors
    fresh = eliminate(sys.hypothesis_polys + (v,), sys.eliminate_vars, cfg, saturate=factors)
    assert verdict.trace.second.generators == fresh.generators

    first = eliminate(sys.hypothesis_polys, sys.eliminate_vars, cfg, saturate=factors)
    pairs = []
    spoly = groebner._spoly_terms
    monkeypatch.setattr(
        groebner, "_spoly_terms", lambda f, g, L: pairs.append((f, g)) or spoly(f, g, L)
    )
    assert check_denominator(sys, first, v, cfg).generators == fresh.generators
    seed = {id(f) for f in first.block_basis}
    assert not [p for p in pairs if id(p[0]) in seed and id(p[1]) in seed]


def test_prove_e2nru_end_to_end():
    table, x, r1, r, sys = _cylinder_system()
    v = prove(sys)
    assert v.outcome == INCONCLUSIVE and v.reason == "e2nru"
    assert v.trace.second.generators is not None
    assert v.trace.denominator is not None


def test_prove_division_contradiction_end_to_end():
    table, x, r1, r, sys = _division_system()
    v = prove(sys)
    assert v.outcome == PROVED
    assert v.trace.second.status == "trivial"
    assert format_polynomial(v.trace.denominator) == "r1-4"


# ---------------------------------------------------------------------------
# The route table: every way out of `prove`, as the JSON document reports it.


def _zero_thesis_system():
    table = VarTable()
    x = table.add("x")
    r = table.add("r")
    polys = [
        _poly(table, [({x: 1}, 1)]),
        _poly(table, [({x: 1}, 1), ({r: 1}, -1)]),
    ]
    return _synthetic(table, polys, [x], [r], points=(x,))


def _squared_thesis_system():
    table = VarTable()
    x = table.add("x")
    r1 = table.add("r1")
    r = table.add("r")
    polys = [
        _poly(table, [({x: 4}, 1), ({r1: 1}, -1)]),
        _poly(table, [({x: 2}, 1), ({r: 2}, -1)]),
    ]
    return _synthetic(table, polys, [x], [r1, r], points=(x,))


def _unrelated_thesis_system():
    table = VarTable()
    x = table.add("x")
    r1 = table.add("r1")
    r = table.add("r")
    polys = [
        _poly(table, [({r1: 1}, 1), ({}, -1)]),
        _poly(table, [({x: 1}, 1), ({r: 1}, -1)]),
    ]
    return _synthetic(table, polys, [x], [r1, r], points=(x,))


def _third_elimination_system():
    """The pivot is 3*r1*r - r1*r2, so dividing needs r1; on r1 = 0 the
    second ideal keeps 3*r2*r + 3*r - r2, whose coefficient of r is again
    non-constant."""
    table = VarTable()
    x = table.add("x")
    r1 = table.add("r1")
    r2 = table.add("r2")
    r = table.add("r")
    polys = [
        _poly(table, [({x: 1}, 1), ({r1: 1}, -1)]),
        _poly(table, [({r1: 1, r2: 1, r: 1}, -2)]),
        _poly(table, [({r: 1}, 3), ({r2: 1}, -1), ({r2: 1, r: 1}, 3)]),
    ]
    return _synthetic(table, polys, [x], [r1, r2, r], points=(x,))


def _raise_timeout(*args, **kwargs):
    raise GroebnerTimeout("budget exhausted")


_SECOND_POLYNOMIAL_NOTE = (
    "if the divisor is 0, the second elimination still gives a polynomial "
    "expression for r, so the rational form holds in general, except for a "
    "couple of counterexamples"
)

# route: (system, entry point made to time out, verdict, reason,
#         second_elimination, note)
_ROUTES = {
    "polynomial_form": (
        _zero_thesis_system, None, PROVED, None, None, None,
    ),
    "trivial": (
        lambda: _division_system()[-1], None, PROVED, None, "trivial", None,
    ),
    "polynomial": (
        lambda: _prove_file("medians"), None, PROVED, None, "polynomial",
        _SECOND_POLYNOMIAL_NOTE,
    ),
    "no_r": (
        lambda: _cylinder_system()[-1], None, INCONCLUSIVE, "e2nru", "no_r", None,
    ),
    "inconclusive": (
        _third_elimination_system, None, INCONCLUSIVE, "d3u", "inconclusive",
        "in the second elimination ideal the coefficient of r is again "
        "non-constant; a third elimination is not attempted",
    ),
    "timeout": (
        lambda: _division_system()[-1], "check_denominator", INCONCLUSIVE, "t/o",
        "timeout", "the second elimination timed out",
    ),
    "first_timeout": (
        _zero_thesis_system, "eliminate", INCONCLUSIVE, "t/o", None,
        "the first elimination timed out",
    ),
    "first_no_r": (
        _unrelated_thesis_system, None, INCONCLUSIVE, "e0u", None, None,
    ),
    "first_nonlinear": (
        _squared_thesis_system, None, INCONCLUSIVE, "nlu", None,
        "the minimal degree of r in the ideal is 4",
    ),
}


@pytest.mark.parametrize("route", sorted(_ROUTES))
def test_route_table(route, monkeypatch):
    system, stalled, outcome, reason, second, note = _ROUTES[route]
    if stalled is not None:
        monkeypatch.setattr(prover, stalled, _raise_timeout)
    built = system()
    v = built if isinstance(built, ProverVerdict) else prove(built)
    assert (v.outcome, v.reason) == (outcome, reason)
    doc = json.loads(emit_trace(v, "json", True).text())
    assert doc["verdict"] == outcome and doc["reason"] == reason
    assert doc["second_elimination"] == second
    assert doc["note"] == note
    # with --show-ideal the key is always there; null unless a second
    # elimination finished
    assert "ideal" in doc
    assert (doc["second_ideal"] is None) == (second in (None, "timeout"))


# ---------------------------------------------------------------------------
# Verdict plumbing.


def test_reason_meanings_cover_all_codes():
    assert set(REASON_MEANINGS) == {
        "t/o", "niu", "nfiu", "nlu", "d3u", "e0u", "e2nru",
    }
    assert all(isinstance(v, str) and v for v in REASON_MEANINGS.values())


def _dummy_trace():
    return __import__("cni_prover.prover", fromlist=["ProofTrace"]).ProofTrace(
        point_names=(),
        free_point_names=(),
        declaratives=(),
        hypotheses=(),
        fixed=(),
        notes=(),
    )


def test_verdict_rejects_unknown_reason():
    with pytest.raises(AlgebraError):
        ProverVerdict(INCONCLUSIVE, "xyz", _dummy_trace())


def test_verdict_rejects_proved_with_reason():
    with pytest.raises(AlgebraError):
        ProverVerdict(PROVED, "nlu", _dummy_trace())
