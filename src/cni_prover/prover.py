"""The decision procedure: eliminate point variables, pick the pivot
generator, express the thesis slack r linearly, and analyse the divisor
through a second elimination when the expression requires a division.

The generators arrive integer-primitive from groebner, with a positive
leading coefficient under the print order, and the traces keep them so.
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
    check_timeout,
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


class ProverConfig(Record):
    """timeout: wall-clock seconds per elimination, positive."""

    __slots__ = ("timeout",)

    def __init__(self, timeout: float = DEFAULT_TIMEOUT) -> None:
        check_timeout(timeout)
        _set(self, "timeout", timeout)


class LinearForm(Record):
    """pivot = v*r + w with v and w free of r; the rational form of the
    thesis slack is r = -w/v."""

    __slots__ = ("v", "w", "pivot")

    def __init__(self, v: Polynomial, w: Polynomial, pivot: Polynomial) -> None:
        _set(self, "v", v)
        _set(self, "w", w)
        _set(self, "pivot", pivot)


class SecondElimination(Record):
    """What the second elimination, run with the divisor appended, says.

    `status` is the JSON `second_elimination` value: "trivial" (the divisor
    cannot vanish), "polynomial" (even where it vanishes, r is a polynomial
    in the hypotheses: `linear` holds that pivot), "no_r", "inconclusive"
    or "timeout". `reason` is the verdict's reason code, None when the
    route proves the statement; `generators` is None when the elimination
    did not finish."""

    __slots__ = ("status", "generators", "reason", "note", "linear")

    def __init__(
        self,
        status: str,
        generators: tuple[Polynomial, ...] | None,
        reason: str | None = None,
        note: str | None = None,
        linear: LinearForm | None = None,
    ) -> None:
        _set(self, "status", status)
        _set(self, "generators", generators)
        _set(self, "reason", reason)
        _set(self, "note", note)
        _set(self, "linear", linear)


class ProofTrace(Record):
    """Everything a renderer needs, in the order the proof narrates it.
    `thesis` is set exactly when the statement reached elimination, so a
    set `linear` implies a set `thesis`; `second` is set exactly when
    `linear` needs a division."""

    __slots__ = (
        "point_names",
        "free_point_names",
        "declaratives",
        "hypotheses",
        "fixed",
        "notes",
        "thesis",
        "generators",
        "linear",
        "second",
        "reason_note",
    )

    def __init__(
        self,
        point_names: tuple[str, ...],
        free_point_names: tuple[str, ...],
        declaratives: tuple[tuple[str, RationalExpr], ...],
        hypotheses: tuple[SlackOrigin, ...],
        fixed: tuple[tuple[str, Fraction], ...],
        notes: tuple[str, ...],
        thesis: SlackOrigin | None = None,
        generators: tuple[Polynomial, ...] = (),
        linear: LinearForm | None = None,
        second: SecondElimination | None = None,
        reason_note: str | None = None,
    ) -> None:
        _set(self, "point_names", point_names)
        _set(self, "free_point_names", free_point_names)
        _set(self, "declaratives", declaratives)
        _set(self, "hypotheses", hypotheses)
        _set(self, "fixed", fixed)
        _set(self, "notes", notes)
        _set(self, "thesis", thesis)
        _set(self, "generators", generators)
        _set(self, "linear", linear)
        _set(self, "second", second)
        _set(self, "reason_note", reason_note)

    @property
    def denominator(self) -> Polynomial | None:
        """The divisor v of the rational form r = -w/v, when not constant."""
        if self.linear is None or self.linear.v.is_constant:
            return None
        return self.linear.v


class ProverVerdict(Record):
    __slots__ = ("outcome", "reason", "trace")

    def __init__(self, outcome: str, reason: str | None, trace: ProofTrace) -> None:
        if outcome == INCONCLUSIVE and reason not in REASON_MEANINGS:
            raise AlgebraError(f"unknown reason code {reason!r}")
        if outcome == PROVED and reason is not None:
            raise AlgebraError("a proved verdict carries no reason code")
        _set(self, "outcome", outcome)
        _set(self, "reason", reason)
        _set(self, "trace", trace)


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
    pivot2 = find_pivot(second, r, config)
    if pivot2 is None:
        return SecondElimination("no_r", gens, "e2nru")
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
