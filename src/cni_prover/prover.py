"""The decision procedure: eliminate point variables, pick the pivot
generator, express the thesis slack r linearly, and analyse the divisor
through a second elimination when the expression requires a division.

A statement is never declared false here. Every non-proved outcome is
Inconclusive with a reason code.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra_core import (
    AlgebraError,
    Polynomial,
    RationalExpr,
    _integer_form,
    content_and_primitive,
)
from .geometry_model import PolynomialSystem, SlackOrigin
from .groebner import (
    DEFAULT_TIMEOUT,
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
    timeout: float = DEFAULT_TIMEOUT  # seconds per elimination


@dataclass(frozen=True)
class LinearForm:
    """pivot = v*r + w with v and w free of r; the rational form of the
    thesis slack is r = -w/v."""

    v: Polynomial
    w: Polynomial
    pivot: Polynomial


@dataclass(frozen=True)
class SecondElimination:
    """What the second elimination, run with the divisor appended, says.

    `status` is the JSON `second_elimination` value: "trivial" (the divisor
    cannot vanish), "polynomial" (even where it vanishes, r is a polynomial
    in the hypotheses: `linear` holds that pivot), "no_r", "inconclusive"
    or "timeout". `reason` is the verdict's reason code, None when the
    route proves the statement; `generators` is None when the elimination
    did not finish."""

    status: str
    generators: tuple[Polynomial, ...] | None
    reason: str | None = None
    note: str | None = None
    linear: LinearForm | None = None


@dataclass(frozen=True)
class ProofTrace:
    """Everything a renderer needs, in the order the proof narrates it.
    `thesis` is set exactly when the statement reached elimination, so a
    set `linear` implies a set `thesis`; `second` is set exactly when
    `linear` needs a division."""

    point_names: tuple[str, ...]
    free_point_names: tuple[str, ...]
    declaratives: tuple[tuple[str, RationalExpr], ...]
    hypotheses: tuple[SlackOrigin, ...]
    fixed: tuple[tuple[str, Fraction], ...]
    notes: tuple[str, ...]
    thesis: SlackOrigin | None = None
    generators: tuple[Polynomial, ...] = ()
    linear: LinearForm | None = None
    second: SecondElimination | None = None
    reason_note: str | None = None

    @property
    def denominator(self) -> Polynomial | None:
        """The divisor v of the rational form r = -w/v, when not constant."""
        if self.linear is None or self.linear.v.is_constant:
            return None
        return self.linear.v


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


def _presentation_pivot(pivot: Polynomial, r: int) -> LinearForm:
    """The linear split of the monic pivot under a deterministic display
    scaling. With a constant coefficient of r the pivot is rescaled so that
    coefficient is a negative integer (giving lines in the -r-1=0 style);
    otherwise the primitive integer form with positive leading coefficient
    under the print order is used."""
    lf = express_linear(pivot, r)
    if lf.v.is_constant:
        k = Fraction(-1) / lf.v.constant_value()
        k *= _integer_form(pivot.scale(k).terms)[1]
    else:
        k = 1 / content_and_primitive(pivot)[0]
    return LinearForm(lf.v.scale(k), lf.w.scale(k), pivot.scale(k))


def check_denominator(
    sys: PolynomialSystem,
    first: EliminationResult,
    D: Polynomial,
    config: GroebnerConfig,
) -> SecondElimination:
    """Append the divisor D to the system and eliminate again, continuing
    from the first elimination's basis. A trivial ideal proves D cannot
    vanish under the hypotheses; otherwise classify what the second ideal
    says about r."""
    second = eliminate((D,), sys.eliminate_vars, config, after=first)
    gens = second.generators
    if ideal_is_trivial(second):
        return SecondElimination("trivial", gens)
    r = sys.thesis_slack
    if not any(g.contains_var(r) for g in gens):
        return SecondElimination("no_r", gens, "e2nru")
    pivot2 = select_pivot(second, r)
    if pivot2.degree_in(r) > 1:
        return SecondElimination(
            "inconclusive",
            gens,
            "nlu",
            f"r has minimal degree {pivot2.degree_in(r)} in the second "
            "elimination ideal; a third elimination is not attempted",
        )
    lf = _presentation_pivot(pivot2, r)
    if not lf.v.is_constant:
        return SecondElimination(
            "inconclusive",
            gens,
            "d3u",
            "in the second elimination ideal the coefficient of r is again "
            "non-constant; a third elimination is not attempted",
        )
    return SecondElimination(
        "polynomial",
        gens,
        note=(
            "if the divisor is 0, the second elimination still gives "
            "a polynomial expression for r, so the rational form holds "
            "in general, except for a couple of counterexamples"
        ),
        linear=lf,
    )


def _decide(
    sys: PolynomialSystem, config: GroebnerConfig
) -> tuple[str | None, str | None, dict]:
    """Run the eliminations. Returns the reason code (None when proved),
    the note on the verdict, and the trace fields of the stages reached."""
    try:
        first = eliminate(
            sys.hypothesis_polys, sys.eliminate_vars, config, saturate=sys.denominator_factors
        )
    except GroebnerTimeout:
        return "t/o", "the first elimination timed out", {}
    stage: dict = {"generators": first.generators}
    r = sys.thesis_slack

    if not any(g.contains_var(r) for g in first.generators):
        note = None
        if ideal_is_trivial(first):
            note = (
                "the elimination ideal is the whole ring: the hypotheses "
                "are contradictory"
            )
        return "e0u", note, stage

    pivot = select_pivot(first, r)
    if pivot.degree_in(r) > 1:
        return "nlu", f"the minimal degree of r in the ideal is {pivot.degree_in(r)}", stage

    lf = _presentation_pivot(pivot, r)
    stage["linear"] = lf
    if lf.v.is_constant:
        return None, None, stage

    try:
        second = check_denominator(sys, first, lf.v, config)
    except GroebnerTimeout:
        second = SecondElimination(
            "timeout", None, "t/o", "the second elimination timed out"
        )
    stage["second"] = second
    return second.reason, second.note, stage


def prove(sys: PolynomialSystem, config: ProverConfig | None = None) -> ProverVerdict:
    """Run the full decision procedure on a built polynomial system."""
    cfg = config or ProverConfig()
    reason, note, stage = _decide(sys, GroebnerConfig(timeout=cfg.timeout))
    trace = ProofTrace(
        point_names=sys.point_names,
        free_point_names=tuple(sys.table.name(i) for i in sys.free_points),
        declaratives=sys.declaratives,
        hypotheses=sys.slack_map[:-1],
        thesis=sys.slack_map[-1],
        fixed=sys.fixed,
        notes=sys.notes,
        reason_note=note,
        **stage,
    )
    return ProverVerdict(PROVED if reason is None else INCONCLUSIVE, reason, trace)
