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

from .algebra_core import (
    AlgebraError,
    Block,
    GrevLex,
    Polynomial,
    Record,
)
from .geometry_model import PolynomialSystem
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


class LinearForm(Record):
    """pivot = v*r + w with v and w free of r; the rational form of the
    thesis slack is r = -w/v."""

    __slots__ = ("v", "w", "pivot")


class ProverVerdict(Record):
    """The outcome of `prove` and everything a renderer needs, in the order
    the proof narrates it. `reason` is None for a proved statement, else a
    REASON_MEANINGS code, and `note` is the sentence attached to the
    verdict. `thesis` is set exactly when the statement reached
    elimination. `generators` is the elimination ideal, None when that
    stage did not finish; `linear` splits the pivot when it is linear in r.
    When r = -w/v needs a division, `second_generators` is the ideal with
    the divisor appended, None when that stage did not finish, and
    `second_linear` splits its pivot when it is linear in r: for a proof,
    when it gives r as a polynomial; for d3u, when it divides again."""

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
    # the six display fields default to (), the rest to None
    _defaults = dict.fromkeys(__slots__[1:7], ()) | dict.fromkeys(__slots__[7:])

    def _check(self) -> None:
        if self.reason is not None and self.reason not in REASON_MEANINGS:
            raise AlgebraError(f"unknown reason code {self.reason!r}")

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


def select_pivot(I: EliminationResult | GroebnerBasis, r: int) -> Polynomial | None:
    """The generator of minimal positive degree in r, None when no
    generator holds r. Ties go first to one whose terms with r hold no
    other variable: for a linear pivot, that is a constant coefficient v of
    r, so r needs no division when some generator allows that. Then lower
    total degree, then fewer terms, then position in the generator list."""
    best = None
    for i, g in enumerate(I.generators):
        d = g.degree_in(r)
        if d == 0:
            continue
        varies = any(m[r] and sum(m) > m[r] for m in g.terms)
        key = (d, varies, g.total_degree, len(g.terms), i)
        if best is None or key < best[0]:
            best = (key, g)
    return None if best is None else best[1]


def find_pivot(I: EliminationResult, r: int, config: GroebnerConfig) -> Polynomial | None:
    """The pivot for r in the elimination ideal I: select_pivot's choice
    from I's generators when it is linear in r, else its choice from I's
    reduced basis under Block(GrevLex((r,)), GrevLex(the other kept
    variables)). Under that order a leading monomial has the r-degree of
    its polynomial, so any element of lower positive r-degree than every
    basis element with r reduces by the elements free of r alone: it lies
    in the ideal they generate, and says nothing about r. None when no
    generator contains r."""
    pivot = select_pivot(I, r)
    if pivot is not None and pivot.degree_in(r) > 1:
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


_STAGES = ("first", "second")


def _decide(
    sys: PolynomialSystem, config: GroebnerConfig, fields: dict
) -> tuple[str | None, str | None]:
    """The divisor analysis, one pass per stage: eliminate (after the first
    stage, with the previous pivot's divisor v appended), find the pivot,
    and stop unless r = -w/v divides by a non-constant v. Returns the
    reason code (None when proved) and the note on the verdict, and fills
    `fields` with the verdict fields of the stages reached: each finished
    elimination's ideal, and each linear pivot's split."""
    r = sys.thesis_slack
    for k, name in enumerate(_STAGES):
        prefix = f"{name}_" if k else ""
        try:
            if k:
                result = check_denominator(sys, result, lf.v, config)
            else:
                result = eliminate(
                    sys.hypothesis_polys, sys.eliminate_vars, config, saturate=sys.denominator_factors
                )
        except GroebnerTimeout:
            return "t/o", f"the {name} elimination timed out"
        fields[prefix + "generators"] = result.generators
        try:
            pivot = find_pivot(result, r, config)
        except GroebnerTimeout:
            return "t/o", f"the r-first basis after the {name} elimination timed out"

        if pivot is None:
            trivial = ideal_is_trivial(result)
            if not k:
                note = "the elimination ideal is the whole ring: the hypotheses are contradictory"
                return "e0u", (note if trivial else None)
            return (None if trivial else "e2nru"), None
        degree = pivot.degree_in(r)
        if degree > 1:
            if not k:
                return "nlu", f"the minimal degree of r in the ideal is {degree}"
            return "nlu", (
                f"r has minimal degree {degree} in the {name} elimination ideal; "
                "a third elimination is not attempted"
            )
        lf = fields[prefix + "linear"] = _presentation_pivot(pivot, r)
        if lf.v.is_constant:
            if not k:
                return None, None
            return None, (
                "if the divisor is 0, the second elimination still gives a polynomial "
                "expression for r, so the rational form holds in general, except for a "
                "couple of counterexamples"
            )
    return "d3u", (
        "in the second elimination ideal the coefficient of r is again "
        "non-constant; a third elimination is not attempted"
    )


def prove(sys: PolynomialSystem, timeout: float = DEFAULT_TIMEOUT) -> ProverVerdict:
    """Run the full decision procedure on a built polynomial system.
    timeout: wall-clock seconds per basis computation, positive. Each
    elimination gets one, and so does each r-first basis find_pivot
    computes, after the first and after the second elimination: a
    statement can use up to four."""
    fields: dict = {}
    reason, note = _decide(sys, GroebnerConfig(timeout=timeout), fields)
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
        **fields,
    )
