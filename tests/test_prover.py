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
    ProverVerdict,
    _presentation_pivot,
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
    return prove(sys, timeout=timeout)


# ---------------------------------------------------------------------------
# Worked examples, end to end.


def test_varignon_proved_polynomial_form():
    v = _prove_file("varignon")
    assert v.outcome == PROVED and v.reason is None
    assert v.linear.v.is_constant
    assert format_polynomial(v.linear.pivot) == "-r-1"
    assert v.denominator is None


def test_midpoint_circle_proved_by_contradiction():
    v = _prove_file("midpoint_circle")
    assert v.outcome == PROVED
    assert format_polynomial(v.linear.pivot) == "r1*r-r1-4*r"
    assert format_polynomial(v.denominator) == "r1-4"
    assert v.second_elimination == "trivial"


def test_medians_proved_by_second_polynomial_form():
    v = _prove_file("medians")
    assert v.outcome == PROVED
    assert format_polynomial(v.denominator) == "r1*r2-r1-r2"
    assert v.second_elimination == "polynomial"
    assert format_polynomial(v.second_linear.pivot) == "-r+2"
    assert "except for a couple of counterexamples" in v.note


def test_angle_bisectors_proved():
    v = _prove_file("angle_bisectors")
    assert v.outcome == PROVED
    assert format_polynomial(v.linear.pivot) == "r1*r2*r-r1*r2-r1*r-r2*r"
    assert format_polynomial(v.denominator) == "r1*r2-r1-r2"
    assert v.second_elimination == "trivial"


def test_thales_converse_proved():
    v = _prove_file("thales_converse")
    assert v.outcome == PROVED
    assert format_polynomial(v.linear.pivot) == "r1*r2*r3*r+1"
    assert format_polynomial(v.denominator) == "r1*r2*r3"
    assert v.second_elimination == "trivial"


def test_thales_converse_proved_without_fixing():
    v = _prove_file("thales_converse", mode="off")
    assert v.outcome == PROVED
    assert v.fixed == ()


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


def test_select_pivot_prefers_a_constant_coefficient_of_r():
    # two of Newton-Gauss's pinned second-ideal generators: the smaller one
    # divides by r4, the larger one gives r as a polynomial
    table, (r2, r3, r4, r) = _ring("r2", "r3", "r4", "r")
    divides = _poly(table, [({r4: 1, r: 1}, 1), ({r3: 1}, -1), ({r4: 1}, 1)])
    polynomial = _poly(
        table, [({r: 1}, 1), ({r2: 1, r3: 1}, 1), ({r2: 1}, 1), ({r3: 1}, 1), ({}, 1)]
    )
    I = _result([divides, polynomial])
    assert select_pivot(I, r) is polynomial


def test_select_pivot_requires_r():
    table, (x, r) = _ring("x", "r")
    I = _result([_poly(table, [({x: 1}, 1)])])
    assert select_pivot(I, r) is None


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


def test_presentation_pivot_signs_the_pivot_for_print():
    # an r-first basis leaves s*r - 2*s^3 integer-primitive with a positive
    # lead, s*r, while its print-order lead, -2*s^3, is negative: the
    # document shows it with a positive print-order lead
    table, (s, r) = _ring("s", "r")
    lf = _presentation_pivot(_poly(table, [({s: 1, r: 1}, 1), ({s: 3}, -2)]), r)
    assert format_polynomial(lf.pivot) == "2*s^3-s*r"
    assert lf.v == _poly(table, [({s: 1}, -1)])
    assert lf.w == _poly(table, [({s: 3}, 2)])
    # a constant coefficient of r is made negative, whatever the lead
    for sign in (1, -1):
        lf = _presentation_pivot(_poly(table, [({r: 1}, sign), ({s: 2}, 3 * sign)]), r)
        assert format_polynomial(lf.pivot) == "-3*s^2-r"


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
    assert "minimal degree" in v.note


def test_prove_e0u_when_ideal_misses_r():
    # r is tied only to the eliminated variable, so nothing about it survives
    v = prove(_unrelated_thesis_system())
    assert v.outcome == INCONCLUSIVE and v.reason == "e0u"


def _contradictory_system():
    """x = 0 and x = 1: the elimination ideal is the whole ring."""
    table = VarTable()
    x = table.add("x")
    r = table.add("r")
    polys = [
        _poly(table, [({x: 1}, 1)]),
        _poly(table, [({x: 1}, 1), ({}, -1)]),
        _poly(table, [({x: 1}, 1), ({r: 1}, -1)]),
    ]
    return _synthetic(table, polys, [x], [r], points=(x,))


def test_prove_contradictory_hypotheses_note():
    v = prove(_contradictory_system())
    assert v.outcome == INCONCLUSIVE and v.reason == "e0u"
    assert "contradictory" in v.note


def test_prove_zero_thesis_is_still_polynomial_form():
    # r = x with x forced to 0: the pivot is r itself, w == 0, and the
    # verdict is a plain polynomial form r = 0
    v = prove(_zero_thesis_system())
    assert v.outcome == PROVED
    assert v.linear.v.is_constant
    assert v.linear.w.is_zero


def test_prove_timeout_reports_to():
    v = _prove_file("angle_bisectors", timeout=0.001)
    assert v.outcome == INCONCLUSIVE and v.reason == "t/o"
    assert "timed out" in v.note


@pytest.mark.parametrize("timeout", [0, -1.0, float("nan"), None])
def test_a_budget_that_is_not_positive_is_rejected(timeout):
    # a NaN deadline would never fire: monotonic() > nan is always False
    with pytest.raises(ValueError, match="timeout must be positive"):
        prove(_zero_thesis_system(), timeout=timeout)


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


def _second_polynomial_system():
    """The pivot is r1*r - r2, so dividing needs r1; but r1*r^2 + r - 2 is
    in the ideal too, and on r1 = 0 it pins r = 2."""
    table = VarTable()
    x = table.add("x")
    r1 = table.add("r1")
    r2 = table.add("r2")
    r = table.add("r")
    polys = [
        _poly(table, [({x: 1}, 1), ({r1: 1}, -1)]),
        _poly(table, [({r1: 1, r: 1}, 1), ({r2: 1}, -1)]),
        _poly(table, [({r1: 1, r: 2}, 1), ({r: 1}, 1), ({}, -2)]),
    ]
    return _synthetic(table, polys, [x], [r1, r2, r], points=(x,))


def _second_nonlinear_system():
    """The pivot is r1*r - r2, so dividing needs r1; on r1 = 0 the relation
    r^2 - r2 - 1 leaves r^2 = 1."""
    table = VarTable()
    x = table.add("x")
    r1 = table.add("r1")
    r2 = table.add("r2")
    r = table.add("r")
    polys = [
        _poly(table, [({x: 1}, 1), ({r1: 1}, -1)]),
        _poly(table, [({r1: 1, r: 1}, 1), ({r2: 1}, -1)]),
        _poly(table, [({r: 2}, 1), ({r2: 1}, -1), ({}, -1)]),
    ]
    return _synthetic(table, polys, [x], [r1, r2, r], points=(x,))


def test_check_denominator_contradiction():
    # on the slice r1 = 4 the relation reads 0*r = 4, impossible
    v = prove(_division_system()[-1])
    assert v.second_elimination == "trivial" and v.reason is None
    assert v.second_generators == (_poly(v.linear.v.table, [({}, 1)]),)


def test_check_denominator_no_r():
    v = prove(_cylinder_system()[-1])
    assert v.second_elimination == "no_r" and v.reason == "e2nru"


def test_check_denominator_second_polynomial_form():
    v = prove(_second_polynomial_system())
    assert format_polynomial(v.denominator) == "r1"
    assert v.second_elimination == "polynomial" and v.reason is None
    assert v.second_linear.v.is_constant
    assert format_polynomial(v.second_linear.pivot) == "-r+2"


def test_check_denominator_second_nonlinear():
    v = prove(_second_nonlinear_system())
    assert v.second_elimination == "inconclusive"
    assert v.reason == "nlu"
    assert "minimal degree 2" in v.note


def test_check_denominator_second_nonconstant_coefficient():
    v = prove(_third_elimination_system())
    assert v.second_elimination == "inconclusive"
    assert v.reason == "d3u"
    assert "again non-constant" in v.note
    # second_linear splits the second pivot whenever it is linear in r, so a
    # d3u verdict holds the split whose divisor a third elimination would need
    assert format_polynomial(v.second_linear.pivot) == "3*r2*r-r2+3*r"
    assert format_polynomial(v.second_linear.v) == "3*r2+3"



def _hidden_linear_system(divided):
    """The ideal <r^2 + s*q^2, s^3 - 2*s^3*q^2 - s^2*q^2*r> over the slacks
    (s, q, r), with x = s eliminated. Its second generator is linear in r,
    but its grevlex reduced basis has r-degrees 2, 3, 5 and 6; the reduced
    basis under an order comparing the degree in r first has a linear
    element. When `divided`, a slack t comes first: the system holds
    t*r - t*s and the second generator plus t*r^2, so the pivot t*s - t*r
    divides by t, and on t = 0 that ideal is the second one."""
    table = VarTable()
    t = table.add("t") if divided else None
    x, s, q, r = (table.add(n) for n in ("x", "s", "q", "r"))
    polys = [
        _poly(table, [({x: 1}, 1), ({s: 1}, -1)]),
        _poly(table, [({r: 2}, 1), ({s: 1, q: 2}, 1)]),
    ]
    hidden = [({s: 3}, 1), ({s: 3, q: 2}, -2), ({s: 2, q: 2, r: 1}, -1)]
    if divided:
        polys.append(_poly(table, hidden + [({t: 1, r: 2}, 1)]))
        polys.append(_poly(table, [({t: 1, r: 1}, 1), ({t: 1, s: 1}, -1)]))
        return _synthetic(table, polys, [x], [t, s, q, r], points=(x,)), r
    polys.append(_poly(table, hidden))
    return _synthetic(table, polys, [x], [s, q, r], points=(x,)), r


def test_linear_pivot_hidden_from_the_grevlex_basis_is_found():
    sys, r = _hidden_linear_system(False)
    v = prove(sys)
    assert sorted(g.degree_in(r) for g in v.generators) == [2, 3, 5, 6]
    assert v.linear is not None
    assert v.linear.pivot.degree_in(r) == 1


def test_second_elimination_finds_a_hidden_linear_pivot():
    # the second ideal is the hidden-linear one plus t: its linear element
    # has the coefficient -s^2*q^2, so the route ends d3u, not nlu
    sys, r = _hidden_linear_system(True)
    v = prove(sys)
    assert format_polynomial(v.denominator) == "-t"
    assert sorted(g.degree_in(r) for g in v.second_generators) == [0, 2, 3, 5, 6]
    assert v.reason == "d3u"


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
    verdict = prove(sys, timeout=60.0)
    v = verdict.denominator
    factors = sys.denominator_factors
    fresh = eliminate(sys.hypothesis_polys + (v,), sys.eliminate_vars, cfg, saturate=factors)
    assert verdict.second_generators == fresh.generators

    first = eliminate(sys.hypothesis_polys, sys.eliminate_vars, cfg, saturate=factors)
    pairs = []
    spoly = groebner._spoly_terms
    monkeypatch.setattr(
        groebner, "_spoly_terms", lambda f, g, L: pairs.append((f, g)) or spoly(f, g, L)
    )
    assert check_denominator(sys, first, v, cfg).generators == fresh.generators
    seed = {id(f) for f in first.block_basis}
    assert not [p for p in pairs if id(p[0]) in seed and id(p[1]) in seed]


@pytest.mark.parametrize(
    "fix,reductions,zeros", [("zero_one", 763, 504), ("off", 635, 414)], ids=["zero_one", "off"]
)
def test_corpus_reduction_counts(fix, reductions, zeros, monkeypatch):
    """The S-pairs reduced, and those that reduced to zero, summed over the
    first and second eliminations of every corpus statement but `pappus`.
    The engine's pair sequence fixes these sums, so an engine change that
    keeps them keeps the pairs it forms. A scaled run (groebner.eliminate)
    is one whose linear factor l is set to 1: every run. Entering l - 1 in
    place of l*u - 1 took the sums from 960/660 and 1953/1408 to 959/659
    and 713/440. Solving l = 1 for a point instead, which takes that point
    and l - 1 out of the run, changed the pairs formed in varignon's pinned
    run, in the first elimination of every unpinned statement but
    trapezoid_midline and orthocenter, and in unpinned angle_bisectors'
    second elimination (60/46 -> 62/49), which gave 958/659 and 635/414.
    Pinning through the elimination's own translation and scale, in place
    of replacing A and B by 0 and 1 and clearing again, runs the pinned
    statements on the unpinned system with A - B among the factors: the
    runs choose their own origin and scale, and the zero_one sums fell to
    these (thales_converse 237/167 -> 123/77, angle_bisectors 247/188 ->
    199/151, circumcenter 115/79 -> 97/70; medians rose, 61/41 -> 69/45)."""
    manifest = json.loads((PERFBENCH / "manifest.json").read_text())
    names = [
        e["name"] for e in manifest["statements"]
        if not e["name"].startswith("bad_") and e["name"] != "pappus"
    ]
    assert len(names) == 19
    runs = []
    monkeypatch.setattr(prover, "eliminate", lambda *a, **k: runs.append(eliminate(*a, **k)) or runs[-1])
    for name in names:
        src = (PERFBENCH / "corpus" / f"{name}.cni").read_text()
        c = substitute_declaratives(parse(SourceProgram(src, name)))
        prove(fix_coordinates(build_system(c), c, fix), timeout=60.0)
    assert sum(r.reductions for r in runs) == reductions
    assert sum(r.zero_reductions for r in runs) == zeros


def _integer_runs():
    """(path, fix) for every corpus statement that reaches the prover but
    `pappus`, and every problem, in every fix mode."""
    paths = [
        p for p in sorted((PERFBENCH / "corpus").glob("*.cni"))
        if not p.stem.startswith("bad_") and p.stem != "pappus"
    ]
    paths += sorted(PROBLEMS.glob("*.cni"))
    return [(p, fix) for p in paths for fix in ("zero_one", "minus_one_one", "off")]


@pytest.mark.parametrize(
    "path,fix",
    _integer_runs(),
    ids=lambda x: x if isinstance(x, str) else f"{x.parent.name}/{x.stem}",
)
def test_the_proving_path_holds_integer_coefficients(path, fix):
    # the clearing leaves integer numerators, and the engine takes and
    # leaves integers, so no Fraction reaches a polynomial of the proof
    c = substitute_declaratives(parse(SourceProgram(path.read_text(), path.stem)))
    sys = fix_coordinates(build_system(c), c, fix)
    v = prove(sys, timeout=60.0)
    polys = [*sys.hypothesis_polys, *sys.denominator_factors, *v.generators]
    for lf in (v.linear, v.second_linear):
        if lf:
            polys += [lf.pivot, lf.v, lf.w]
    polys += v.second_generators or ()
    assert v.generators
    bad = [c for p in polys for c in p.terms.values() if type(c) is not int]
    assert not bad, bad[:3]


def test_prove_e2nru_end_to_end():
    table, x, r1, r, sys = _cylinder_system()
    v = prove(sys)
    assert v.outcome == INCONCLUSIVE and v.reason == "e2nru"
    assert v.second_generators is not None
    assert v.denominator is not None


def test_prove_division_contradiction_end_to_end():
    table, x, r1, r, sys = _division_system()
    v = prove(sys)
    assert v.outcome == PROVED
    assert v.second_elimination == "trivial"
    assert format_polynomial(v.denominator) == "r1-4"


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
    "second_nonlinear": (
        _second_nonlinear_system, None, INCONCLUSIVE, "nlu", "inconclusive",
        "r has minimal degree 2 in the second elimination ideal; a third "
        "elimination is not attempted",
    ),
    "second_pivot_timeout": (
        _second_nonlinear_system, "groebner_basis", INCONCLUSIVE, "t/o", "timeout",
        "the r-first basis after the second elimination timed out",
    ),
    "first_timeout": (
        _zero_thesis_system, "eliminate", INCONCLUSIVE, "t/o", None,
        "the first elimination timed out",
    ),
    "first_pivot_timeout": (
        _squared_thesis_system, "groebner_basis", INCONCLUSIVE, "t/o", None,
        "the r-first basis after the first elimination timed out",
    ),
    "first_no_r": (
        _unrelated_thesis_system, None, INCONCLUSIVE, "e0u", None, None,
    ),
    "first_contradictory": (
        _contradictory_system, None, INCONCLUSIVE, "e0u", None,
        "the elimination ideal is the whole ring: the hypotheses are contradictory",
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
    # with --show-ideal both keys are always there, each null unless its
    # elimination finished; a timeout in the pivot search after it keeps it
    assert (doc["ideal"] is None) == (note == "the first elimination timed out")
    assert (doc["second_ideal"] is None) == (
        second is None or note == "the second elimination timed out"
    )


# ---------------------------------------------------------------------------
# Verdict plumbing.


def test_reason_meanings_cover_all_codes():
    assert set(REASON_MEANINGS) == {
        "t/o", "niu", "nfiu", "nlu", "d3u", "e0u", "e2nru",
    }
    assert all(isinstance(v, str) and v for v in REASON_MEANINGS.values())


def test_verdict_rejects_unknown_reason():
    with pytest.raises(AlgebraError):
        ProverVerdict("xyz", (), (), (), (), (), ())


def test_the_outcome_is_proved_exactly_when_there_is_no_reason():
    assert ProverVerdict(None, (), (), (), (), (), ()).outcome == PROVED
    for code in REASON_MEANINGS:
        assert ProverVerdict(code, (), (), (), (), (), ()).outcome == INCONCLUSIVE
