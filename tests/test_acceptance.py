"""End-to-end acceptance checks for the whole decision pipeline.

Each test covers one numbered criterion and prints a single PASS line;
budgets are wall-clock seconds on the machine running the suite.
"""

import json
import time
from pathlib import Path

from cni_prover.algebra_core import GrevLex, VarTable
from cni_prover.cli_dsl import SourceProgram, parse
from cni_prover.geometry_model import (
    PolynomialSystem,
    SlackOrigin,
    build_system,
    fix_coordinates,
    substitute_declaratives,
)
from cni_prover.groebner import (
    GroebnerConfig,
    eliminate,
    ideal_is_trivial,
)
from cni_prover.proof_emitter import emit_trace, format_polynomial
from cni_prover.prover import PROVED, ProverConfig, express_linear, prove

import test_geometry_model
import test_groebner
from support import in_ideal, poly as _P

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def _load(name, mode="zero_one"):
    src = (PROBLEMS / f"{name}.cni").read_text()
    c = substitute_declaratives(parse(SourceProgram(src, name)))
    return fix_coordinates(build_system(c), c, mode)


def _first_elimination(sys, cfg):
    """The first elimination, and the order its generators are reduced
    under: grevlex on the variables it keeps."""
    I = eliminate(sys.hypothesis_polys, sys.eliminate_vars, cfg, saturate=sys.denominator_factors)
    kept = tuple(v for v in range(len(sys.table)) if v not in sys.eliminate_vars)
    return I, GrevLex(kept)


def _slack(sys, name):
    for o in sys.slack_map:
        if o.name == name:
            return o.slack
    raise KeyError(name)


def test_criterion_1_thales_converse_raw_operations():
    t0 = time.perf_counter()
    sys = _load("thales_converse", mode="off")
    assert len(sys.hypothesis_polys) == 4  # three hypotheses plus the thesis
    assert sys.fixed == ()
    cfg = GroebnerConfig(timeout=20.0)
    I, order = _first_elimination(sys, cfg)

    r1, r2, r3, r = (_slack(sys, n) for n in ("r1", "r2", "r3", "r"))
    pivot = _P(sys.table, [({r1: 1, r2: 1, r3: 1, r: 1}, 1), ({}, 1)])
    assert in_ideal(pivot, I, order)

    lf = express_linear(pivot, r)
    assert lf.v == _P(sys.table, [({r1: 1, r2: 1, r3: 1}, 1)])
    assert lf.w == _P(sys.table, [({}, 1)])
    # r = -w/v = -1/(r1*r2*r3)

    second = eliminate([lf.v], sys.eliminate_vars, cfg, after=I)
    assert ideal_is_trivial(second)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"{elapsed:.2f}s"
    print(f"criterion 1: PASS ({elapsed:.2f}s)")


def test_criterion_2_midpoint_circle_rational_form():
    t0 = time.perf_counter()
    sys = _load("midpoint_circle")
    verdict = prove(sys, ProverConfig())
    assert verdict.outcome == PROVED

    r1, r = _slack(sys, "r1"), _slack(sys, "r")
    member = _P(sys.table, [({r1: 1, r: 1}, 1), ({r1: 1}, -1), ({r: 1}, -4)])
    I, order = _first_elimination(sys, GroebnerConfig())
    assert in_ideal(member, I, order)

    payload = json.loads(emit_trace(verdict, "json").text())
    assert payload["rational_form"] == "r1/(r1-4)"
    assert payload["denominator"] == "r1-4"
    assert payload["second_elimination"] == "trivial"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"{elapsed:.2f}s"
    print(f"criterion 2: PASS ({elapsed:.2f}s)")


def _medians_raw_system():
    """The median concurrency hypotheses entered directly as cleared
    polynomials over the midpoints, bypassing the construction layer."""
    table = VarTable()
    A, B, C, G, r1, r2, r = (table.add(n) for n in ("A", "B", "C", "G", "r1", "r2", "r"))

    # (B - G)/(G - E) = r1 with E = (A+C)/2, cleared by 2(G - E):
    # (2B - A - C)*r1 + 2G - 2B = 0, and similarly for the other two medians
    p1 = _P(table, [({B: 1, r1: 1}, 2), ({A: 1, r1: 1}, -1), ({C: 1, r1: 1}, -1),
                    ({G: 1}, 2), ({B: 1}, -2)])
    p2 = _P(table, [({B: 1, r2: 1}, 1), ({C: 1, r2: 1}, 1), ({A: 1, r2: 1}, -2),
                    ({G: 1}, 2), ({B: 1}, -1), ({C: 1}, -1)])
    p3 = _P(table, [({C: 1, r: 1}, 2), ({A: 1, r: 1}, -1), ({B: 1, r: 1}, -1),
                    ({G: 1}, 2), ({C: 1}, -2)])
    d1 = _P(table, [({B: 1}, 2), ({A: 1}, -1), ({C: 1}, -1)])
    d2 = _P(table, [({B: 1}, 1), ({C: 1}, 1), ({A: 1}, -2)])
    d3 = _P(table, [({C: 1}, 2), ({A: 1}, -1), ({B: 1}, -1)])

    def origin(s):
        return SlackOrigin(slack=s, name=table.name(s), stated=None)

    return PolynomialSystem(
        table=table,
        hypothesis_polys=(p1, p2, p3),
        eliminate_vars=(A, B, C, G),
        slack_map=(origin(r1), origin(r2), origin(r)),
        denominator_factors=(d1, d2, d3),
        free_points=(A, B, C, G),
        point_names=("A", "B", "C", "G"),
        declaratives=(),
    ), (r1, r2, r)


def test_criterion_3_raw_ideal_input():
    t0 = time.perf_counter()
    sys, (r1, r2, r) = _medians_raw_system()
    I, order = _first_elimination(sys, GroebnerConfig())
    member = _P(sys.table, [({r: 1, r1: 1}, -3), ({r: 1, r2: 1}, 3),
                            ({r1: 1, r2: 1}, 3), ({r: 1}, 1), ({r1: 1}, 1),
                            ({r2: 1}, -4)])
    assert in_ideal(member, I, order)

    verdict = prove(sys, ProverConfig())
    assert verdict.outcome == PROVED
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"{elapsed:.2f}s"
    print(f"criterion 3: PASS ({elapsed:.2f}s)")


def test_criterion_4_varignon_full_pipeline():
    t0 = time.perf_counter()
    verdict = prove(_load("varignon"), ProverConfig())
    assert verdict.outcome == PROVED
    assert verdict.trace.linear.v.is_constant
    assert format_polynomial(verdict.trace.linear.pivot) == "-r-1"
    elapsed = time.perf_counter() - t0
    assert elapsed <= 2.0, f"{elapsed:.2f}s"
    print(f"criterion 4: PASS ({elapsed:.2f}s)")


def test_criterion_5_angle_bisectors_divisor_analysis():
    t0 = time.perf_counter()
    verdict = prove(_load("angle_bisectors"), ProverConfig())
    assert verdict.outcome == PROVED
    assert format_polynomial(verdict.trace.linear.pivot) == "r1*r2*r-r1*r2-r1*r-r2*r"
    assert format_polynomial(verdict.trace.denominator) == "r1*r2-r1-r2"
    assert verdict.trace.second.status == "trivial"
    elapsed = time.perf_counter() - t0
    assert elapsed <= 5.0, f"{elapsed:.2f}s"
    print(f"criterion 5: PASS ({elapsed:.2f}s)")


def test_criterion_6_random_systems_reduce_to_zero():
    test_groebner.test_random_systems_reduce_and_spolys_vanish()
    print("criterion 6: PASS (100 systems)")


def test_criterion_7_resultant_in_elimination_ideal():
    test_groebner.test_sylvester_resultant_in_elimination_ideal()
    print("criterion 7: PASS (50 pairs)")


def test_criterion_8_predicate_instances():
    test_geometry_model.test_predicate_evaluation_satisfying_and_violating()
    print("criterion 8: PASS")


def test_criterion_9_json_output_is_reproducible():
    for name in ("varignon", "midpoint_circle", "medians",
                 "angle_bisectors", "thales_converse"):
        runs = []
        for _ in range(2):
            verdict = prove(_load(name), ProverConfig())
            runs.append(emit_trace(verdict, "json").text().encode())
        assert runs[0] == runs[1], name
    print("criterion 9: PASS")
