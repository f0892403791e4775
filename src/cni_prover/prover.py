"""The decision procedure: eliminate point variables, pick the pivot
generator, express the thesis slack r linearly, and analyse the divisor
through a second elimination when the expression requires a division.

The generators arrive integer-primitive from groebner, with a positive
leading coefficient under the print order, and the verdict keeps them so.
The pivot only gets its sign chosen for display.

A statement is never declared false here. Every non-proved outcome is
Inconclusive with a reason code.
"""
from __future__ import annotations

from fractions import Fraction

from .algebra_core import (
    AlgebraError,
    Block,
    GrevLex,
    Polynomial,
    RationalExpr,
    Record,
)
from .geometry_model import PolynomialSystem, SlackOrigin
from .groebner import (
    DEFAULT_TIMEOUT,
    EliminationResult,
    GroebnerBasis,
    GroebnerConfig,
    GroebnerTimeout,
    eliminate,
    groebner_basis,
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


_set = object.__setattr__


class LinearForm(Record):
    """pivot = v*r + w with v and w free of r; the rational form of the
    thesis slack is r = -w/v."""

    __slots__ = ("v", "w", "pivot")

    def __init__(self, v: Polynomial, w: Polynomial, pivot: Polynomial) -> None:
        _set(self, "v", v)
        _set(self, "w", w)
        _set(self, "pivot", pivot)


class ProverVerdict(Record):
    """The outcome of `prove` and everything a renderer needs, in the order
    the proof narrates it. `reason` is None for a proved statement, else a
    REASON_MEANINGS code, and `note` is the sentence attached to the
    verdict. `thesis` is set exactly when the statement reached
    elimination. `generators` is the elimination ideal, None when that
    stage did not finish; `linear` splits the pivot when it is linear in r.
    When r = -w/v needs a division, `second_generators` is the ideal with
    the divisor appended, None when that stage did not finish, and
    `second_linear` splits its pivot when it gives r as a polynomial."""

    __slots__ = (
        "reason",
        "point_names",
        "free_point_names",
        "declaratives",
        "hypotheses",
        "fixed",
        "notes",
        "thesis",
        "generators",
        "linear",
        "second_generators",
        "second_linear",
        "note",
    )

    def __init__(
        self,
        reason: str | None,
        point_names: tuple[str, ...],
        free_point_names: tuple[str, ...],
        declaratives: tuple[tuple[str, RationalExpr], ...],
        hypotheses: tuple[SlackOrigin, ...],
        fixed: tuple[tuple[str, Fraction], ...],
        notes: tuple[str, ...],
        thesis: SlackOrigin | None = None,
        generators: tuple[Polynomial, ...] | None = None,
        linear: LinearForm | None = None,
        second_generators: tuple[Polynomial, ...] | None = None,
        second_linear: LinearForm | None = None,
        note: str | None = None,
    ) -> None:
        if reason is not None and reason not in REASON_MEANINGS:
            raise AlgebraError(f"unknown reason code {reason!r}")
        _set(self, "reason", reason)
        _set(self, "point_names", point_names)
        _set(self, "free_point_names", free_point_names)
        _set(self, "declaratives", declaratives)
        _set(self, "hypotheses", hypotheses)
        _set(self, "fixed", fixed)
        _set(self, "notes", notes)
        _set(self, "thesis", thesis)
        _set(self, "generators", generators)
        _set(self, "linear", linear)
        _set(self, "second_generators", second_generators)
        _set(self, "second_linear", second_linear)
        _set(self, "note", note)

    @property
    def outcome(self) -> str:
        return PROVED if self.reason is None else INCONCLUSIVE

    @property
    def denominator(self) -> Polynomial | None:
        """The divisor v of the rational form r = -w/v, when not constant."""
        if self.linear is None or self.linear.v.is_constant:
            return None
        return self.linear.v

    @property
    def second_elimination(self) -> str | None:
        """The JSON `second_elimination` value: None when no divisor was
        asked for; "trivial" (the divisor cannot vanish) or "polynomial"
        (where it vanishes, r is still a polynomial) for a proof; "timeout",
        "no_r" or "inconclusive" for the reasons t/o, e2nru and the rest."""
        if self.denominator is None:
            return None
        if self.reason is None:
            return "trivial" if self.second_linear is None else "polynomial"
        return {"t/o": "timeout", "e2nru": "no_r"}.get(self.reason, "inconclusive")


def select_pivot(I: EliminationResult | GroebnerBasis, r: int) -> Polynomial:
    """The generator of minimal positive degree in r. Ties go first to one
    whose terms with r hold no other variable: for a linear pivot, that is
    a constant coefficient v of r, so r needs no division when some
    generator allows that. Then lower total degree, then fewer terms, then
    position in the generator list."""
    best = None
    for i, g in enumerate(I.generators):
        d = g.degree_in(r)
        if d == 0:
            continue
        varies = any(m[r] and sum(m) > m[r] for m in g.terms)
        key = (d, varies, g.total_degree, len(g.terms), i)
        if best is None or key < best[0]:
            best = (key, g)
    if best is None:
        raise AlgebraError("no generator contains r")
    return best[1]


def find_pivot(I: EliminationResult, r: int, config: GroebnerConfig) -> Polynomial | None:
    """The pivot for r in the elimination ideal I: select_pivot's choice
    from I's generators when it is linear in r, else its choice from I's
    reduced basis under Block(GrevLex((r,)), GrevLex(the other kept
    variables)). Under that order a leading monomial has the r-degree of
    its polynomial, so any element of lower positive r-degree than every
    basis element with r reduces by the elements free of r alone: it lies
    in the ideal they generate, and says nothing about r. None when no
    generator contains r."""
    if not any(g.contains_var(r) for g in I.generators):
        return None
    pivot = select_pivot(I, r)
    if pivot.degree_in(r) > 1:
        rest = tuple(v for v in range(len(pivot.table)) if v != r and v not in I.eliminated)
        r_first = Block(GrevLex((r,)), GrevLex(rest))
        pivot = select_pivot(groebner_basis(I.generators, r_first, config), r)
    return pivot


def express_linear(p: Polynomial, r: int) -> LinearForm:
    """Split p = v*r + w. Requires p of degree exactly 1 in r."""
    if p.degree_in(r) != 1:
        raise AlgebraError("pivot is not linear in r")
    v_terms: dict[tuple[int, ...], int] = {}
    w_terms: dict[tuple[int, ...], int] = {}
    for m, c in p.terms.items():
        if m[r]:
            v_terms[m[:r] + (0,) + m[r + 1:]] = c
        else:
            w_terms[m] = c
    return LinearForm(
        Polynomial._trusted(p.table, v_terms), Polynomial._trusted(p.table, w_terms), p
    )


def _presentation_pivot(pivot: Polynomial, r: int) -> LinearForm:
    """The linear split of the integer-primitive pivot, signed for display:
    a constant coefficient of r is made negative (giving lines in the
    -r-1=0 style); otherwise the leading coefficient under the print order
    is made positive. A pivot from an elimination has that sign already;
    one from find_pivot's r-first basis may not."""
    lf = express_linear(pivot, r)
    if lf.v.is_constant:
        flip = lf.v.constant_value() > 0
    else:
        flip = pivot.sorted_terms()[0][1] < 0
    return LinearForm(-lf.v, -lf.w, -pivot) if flip else lf


def check_denominator(
    sys: PolynomialSystem,
    first: EliminationResult,
    D: Polynomial,
    config: GroebnerConfig,
) -> EliminationResult:
    """The second elimination: the system with the divisor D appended,
    continuing from the first elimination's basis. A trivial ideal proves D
    cannot vanish under the hypotheses."""
    return eliminate((D,), sys.eliminate_vars, config, after=first)


def _decide(
    sys: PolynomialSystem, config: GroebnerConfig
) -> tuple[str | None, str | None, dict]:
    """Run the eliminations. Returns the reason code (None when proved),
    the note on the verdict, and the verdict fields of the stages reached."""
    r = sys.thesis_slack
    try:
        first = eliminate(
            sys.hypothesis_polys, sys.eliminate_vars, config, saturate=sys.denominator_factors
        )
        pivot = find_pivot(first, r, config)
    except GroebnerTimeout:
        return "t/o", "the first elimination timed out", {}
    stage: dict = {"generators": first.generators}

    if pivot is None:
        note = None
        if ideal_is_trivial(first):
            note = (
                "the elimination ideal is the whole ring: the hypotheses "
                "are contradictory"
            )
        return "e0u", note, stage

    if pivot.degree_in(r) > 1:
        return "nlu", f"the minimal degree of r in the ideal is {pivot.degree_in(r)}", stage

    lf = _presentation_pivot(pivot, r)
    stage["linear"] = lf
    if lf.v.is_constant:
        return None, None, stage

    try:
        second = check_denominator(sys, first, lf.v, config)
        pivot = find_pivot(second, r, config)
    except GroebnerTimeout:
        return "t/o", "the second elimination timed out", stage
    stage["second_generators"] = second.generators

    if pivot is None:
        return (None if ideal_is_trivial(second) else "e2nru"), None, stage

    if pivot.degree_in(r) > 1:
        return (
            "nlu",
            f"r has minimal degree {pivot.degree_in(r)} in the second "
            "elimination ideal; a third elimination is not attempted",
            stage,
        )

    lf = _presentation_pivot(pivot, r)
    if not lf.v.is_constant:
        return (
            "d3u",
            "in the second elimination ideal the coefficient of r is again "
            "non-constant; a third elimination is not attempted",
            stage,
        )
    stage["second_linear"] = lf
    return (
        None,
        "if the divisor is 0, the second elimination still gives a "
        "polynomial expression for r, so the rational form holds in "
        "general, except for a couple of counterexamples",
        stage,
    )


def prove(sys: PolynomialSystem, timeout: float = DEFAULT_TIMEOUT) -> ProverVerdict:
    """Run the full decision procedure on a built polynomial system.
    timeout: wall-clock seconds per basis computation, positive. Each
    elimination gets one, and so does each r-first basis find_pivot
    computes, after the first and after the second elimination: a
    statement can use up to four."""
    reason, note, stage = _decide(sys, GroebnerConfig(timeout=timeout))
    return ProverVerdict(
        reason,
        point_names=sys.point_names,
        free_point_names=tuple(sys.table.name(i) for i in sys.free_points),
        declaratives=sys.declaratives,
        hypotheses=sys.slack_map[:-1],
        thesis=sys.slack_map[-1],
        fixed=sys.fixed,
        notes=sys.notes,
        note=note,
        **stage,
    )
