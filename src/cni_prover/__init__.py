"""Prover for planar geometry statements via complex number identities.

A statement is encoded as a construction over complex point variables; each
hypothesis contributes a rational expression that is real exactly when the
property holds, and the thesis contributes one more. Clearing denominators
gives a polynomial system with real slack variables. Eliminating the point
variables and expressing the thesis slack linearly in the hypothesis slacks
proves the statement, with a second elimination certifying that the divisor
cannot vanish.

The package exports the library surface below; everything else is imported
from its module (algebra_core, groebner, geometry_model, prover,
proof_emitter, cli_dsl).
"""

from .algebra_core import AlgebraError
from .geometry_model import (
    GeometryError,
    build_system,
    fix_coordinates,
    substitute_declaratives,
)
from .prover import INCONCLUSIVE, PROVED, REASON_MEANINGS, ProverVerdict, prove
from .proof_emitter import emit_trace
from .cli_dsl import (
    CliConfig,
    DslSyntaxError,
    PredicateArityError,
    SourceProgram,
    UnknownPredicateError,
    parse,
    run_cli,
)

__all__ = [
    "SourceProgram",
    "parse",
    "substitute_declaratives",
    "build_system",
    "fix_coordinates",
    "prove",
    "emit_trace",
    "run_cli",
    "CliConfig",
    "ProverVerdict",
    "PROVED",
    "INCONCLUSIVE",
    "REASON_MEANINGS",
    "AlgebraError",
    "GeometryError",
    "DslSyntaxError",
    "UnknownPredicateError",
    "PredicateArityError",
]
