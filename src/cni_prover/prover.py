"""The decision procedure: eliminate point variables, pick the pivot
generator, express the thesis slack r linearly, and analyse the divisor
through a second elimination when the expression requires a division.

A statement is never declared false here. Every non-proved outcome is
Inconclusive with a reason code.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Union

from .algebra_core import (
    AlgebraError,
    MonomialOrder,
    Polynomial,
    RationalExpr,
    content_and_primitive,
)
from .geometry_model import PolynomialSystem, SlackOrigin
from .groebner import (
    EliminationResult,
    GroebnerConfig,
    GroebnerTimeout,
    eliminate,
    ideal_is_trivial,
)

PROVED = "Proved"
INCONCLUSIVE = "Inconclusive"

REASON_MEANINGS = {
    "t/o": "an elimination exceeded the time budget",
    "niu": "the construction uses a step with no implementation",
    "nfiu": "a construction step is only incompletely implemented",
    "nlu": "r cannot be expressed in a linear way",
    "d3u": "a third elimination would be needed to study the situation further, which is not built",
    "e0u": "the elimination ideal gives no polynomial in r, so no conclusion could be found",
    "e2nru": "r is not present in the second elimination ideal",
}


@dataclass(frozen=True)
class ProverConfig:
    timeout: float = 20.0  # seconds per elimination


@dataclass(frozen=True)
class LinearForm:
    """pivot = v*r + w with v and w free of r; the rational form of the
    thesis slack is r = -w/v."""

    v: Polynomial
    w: Polynomial
    pivot: Polynomial


@dataclass(frozen=True)
class ProofTrace:
    """Everything a renderer needs, in the order the proof narrates it."""

    point_names: tuple[str, ...]
    free_point_names: tuple[str, ...]
    declaratives: tuple[tuple[str, RationalExpr], ...]
    hypotheses: tuple[SlackOrigin, ...]
    fixed: tuple[tuple[str, Fraction], ...]
    notes: tuple[str, ...]
    thesis: SlackOrigin | None = None
    display_order: MonomialOrder | None = None
    generators: tuple[Polynomial, ...] = ()
    pivot: Polynomial | None = None
    linear: LinearForm | None = None
    polynomial_form: bool = False
    denominator: Polynomial | None = None
    second_generators: tuple[Polynomial, ...] | None = None
    second_trivial: bool = False
    second_linear: LinearForm | None = None
    reason_note: str | None = None


@dataclass(frozen=True)
class ProverVerdict:
    outcome: str
    reason: str | None
    trace: ProofTrace

    def __post_init__(self):
        if self.outcome == INCONCLUSIVE and self.reason not in REASON_MEANINGS:
            raise AlgebraError(f"unknown reason code {self.reason!r}")
        if self.outcome == PROVED and self.reason is not None:
            raise AlgebraError("a proved verdict carries no reason code")


# Outcomes of the denominator analysis.


@dataclass(frozen=True)
class Contradiction:
    """The second elimination ideal is <1>: the divisor cannot vanish."""

    generators: tuple[Polynomial, ...]


@dataclass(frozen=True)
class NoR:
    generators: tuple[Polynomial, ...]


@dataclass(frozen=True)
class SecondLinearPolynomialForm:
    linear: LinearForm
    generators: tuple[Polynomial, ...]


@dataclass(frozen=True)
class DenominatorInconclusive:
    code: str
    note: str
    generators: tuple[Polynomial, ...]


DenominatorOutcome = Union[
    Contradiction, NoR, SecondLinearPolynomialForm, DenominatorInconclusive
]


def select_pivot(I: EliminationResult, r: int) -> Polynomial:
    """The generator of minimal positive degree in r; ties broken by total
    degree, then term count, then position in the generator list."""
    best = None
    for i, g in enumerate(I.generators):
        d = g.degree_in(r)
        if d == 0:
            continue
        key = (d, g.total_degree, len(g.terms), i)
        if best is None or key < best[0]:
            best = (key, g)
    if best is None:
        raise AlgebraError("no generator contains r")
    return best[1]


def express_linear(p: Polynomial, r: int) -> LinearForm:
    """Split p = v*r + w. Requires p of degree exactly 1 in r."""
    if p.degree_in(r) != 1:
        raise AlgebraError("pivot is not linear in r")
    v_terms: dict[tuple[int, ...], Fraction] = {}
    w_terms: dict[tuple[int, ...], Fraction] = {}
    for m, c in p.terms.items():
        if m[r]:
            v_terms[m[:r] + (0,) + m[r + 1:]] = c
        else:
            w_terms[m] = c
    return LinearForm(
        Polynomial(p.table, v_terms), Polynomial(p.table, w_terms), p
    )


def _presentation_pivot(pivot: Polynomial, r: int, order: MonomialOrder) -> Polynomial:
    """Deterministic display scaling of the monic pivot. With a constant
    coefficient of r the pivot is rescaled so that coefficient is a negative
    integer (giving lines in the -r-1=0 style); otherwise the primitive
    integer form with positive leading coefficient is used."""
    lf = express_linear(pivot, r)
    if lf.v.is_constant:
        scaled = pivot.scale(Fraction(-1) / lf.v.constant_value())
        den = 1
        for c in scaled.terms.values():
            den = den * c.denominator // gcd(den, c.denominator)
        return scaled.scale(den)
    _, prim = content_and_primitive(pivot, order)
    return prim


def check_denominator(
    sys: PolynomialSystem, D: Polynomial, config: GroebnerConfig
) -> DenominatorOutcome:
    """Append the divisor D to the system and eliminate again. A trivial
    ideal proves D cannot vanish under the hypotheses; otherwise classify
    what the second ideal says about r."""
    base = list(sys.hypothesis_polys)
    if sys.rabinowitsch_poly is not None:
        base.append(sys.rabinowitsch_poly)
    base.append(D)
    second = eliminate(base, sys.eliminate_vars, config)
    if ideal_is_trivial(second):
        return Contradiction(second.generators)
    r = sys.thesis_slack
    if not any(g.contains_var(r) for g in second.generators):
        return NoR(second.generators)
    pivot2 = select_pivot(second, r)
    order = second.order
    if pivot2.degree_in(r) == 1:
        lf0 = express_linear(pivot2, r)
        if lf0.v.is_constant:
            shown = _presentation_pivot(pivot2, r, order)
            return SecondLinearPolynomialForm(express_linear(shown, r), second.generators)
        return DenominatorInconclusive(
            "d3u",
            "in the second elimination ideal the coefficient of r is again "
            "non-constant; a third elimination is not attempted",
            second.generators,
        )
    return DenominatorInconclusive(
        "nlu",
        f"r has minimal degree {pivot2.degree_in(r)} in the second "
        "elimination ideal; a third elimination is not attempted",
        second.generators,
    )


def _base_trace(sys: PolynomialSystem, **stage) -> ProofTrace:
    return ProofTrace(
        point_names=sys.point_names,
        free_point_names=tuple(sys.table.name(i) for i in sys.free_points),
        declaratives=sys.declaratives,
        hypotheses=sys.slack_map[:-1],
        thesis=sys.slack_map[-1],
        fixed=sys.fixed,
        notes=sys.notes,
        display_order=sys.order(),
        **stage,
    )


def prove(sys: PolynomialSystem, config: ProverConfig | None = None) -> ProverVerdict:
    """Run the full decision procedure on a built polynomial system."""
    cfg = config or ProverConfig()
    gcfg = GroebnerConfig(timeout=cfg.timeout)
    base = list(sys.hypothesis_polys)
    if sys.rabinowitsch_poly is not None:
        base.append(sys.rabinowitsch_poly)

    try:
        first = eliminate(base, sys.eliminate_vars, gcfg)
    except GroebnerTimeout:
        return ProverVerdict(
            INCONCLUSIVE,
            "t/o",
            _base_trace(sys, reason_note="the first elimination timed out"),
        )
    gens = first.generators
    r = sys.thesis_slack
    order = first.order

    if not any(g.contains_var(r) for g in gens):
        note = None
        if ideal_is_trivial(first):
            note = (
                "the elimination ideal is the whole ring: the hypotheses "
                "are contradictory"
            )
        return ProverVerdict(
            INCONCLUSIVE, "e0u", _base_trace(sys, generators=gens, reason_note=note)
        )

    pivot = select_pivot(first, r)
    if pivot.degree_in(r) > 1:
        return ProverVerdict(
            INCONCLUSIVE,
            "nlu",
            _base_trace(
                sys,
                generators=gens,
                reason_note=f"the minimal degree of r in the ideal is {pivot.degree_in(r)}",
            ),
        )

    shown = _presentation_pivot(pivot, r, order)
    lf = express_linear(shown, r)

    if lf.v.is_constant:
        return ProverVerdict(
            PROVED,
            None,
            _base_trace(
                sys, generators=gens, pivot=shown, linear=lf, polynomial_form=True
            ),
        )

    D = lf.v
    try:
        outcome = check_denominator(sys, D, gcfg)
    except GroebnerTimeout:
        return ProverVerdict(
            INCONCLUSIVE,
            "t/o",
            _base_trace(
                sys,
                generators=gens,
                pivot=shown,
                linear=lf,
                denominator=D,
                reason_note="the second elimination timed out",
            ),
        )

    stage = dict(generators=gens, pivot=shown, linear=lf, denominator=D)
    if isinstance(outcome, Contradiction):
        return ProverVerdict(
            PROVED,
            None,
            _base_trace(
                sys,
                second_generators=outcome.generators,
                second_trivial=True,
                **stage,
            ),
        )
    if isinstance(outcome, NoR):
        return ProverVerdict(
            INCONCLUSIVE,
            "e2nru",
            _base_trace(sys, second_generators=outcome.generators, **stage),
        )
    if isinstance(outcome, SecondLinearPolynomialForm):
        return ProverVerdict(
            PROVED,
            None,
            _base_trace(
                sys,
                second_generators=outcome.generators,
                second_linear=outcome.linear,
                reason_note=(
                    "if the divisor is 0, the second elimination still gives "
                    "a polynomial expression for r, so the rational form holds "
                    "in general, except for a couple of counterexamples"
                ),
                **stage,
            ),
        )
    return ProverVerdict(
        INCONCLUSIVE,
        outcome.code,
        _base_trace(
            sys,
            second_generators=outcome.generators,
            reason_note=outcome.note,
            **stage,
        ),
    )
