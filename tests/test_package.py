"""The package's exported names are the documented library surface."""

import cni_prover

LIBRARY = {
    # the README "Library" example
    "SourceProgram", "parse", "substitute_declaratives", "build_system",
    "fix_coordinates", "prove", "ProverConfig", "emit_trace",
    # the command line as a call
    "run_cli", "CliConfig",
    # verdicts
    "ProverVerdict", "PROVED", "INCONCLUSIVE", "REASON_MEANINGS",
    # errors the calls above raise
    "AlgebraError", "GeometryError", "DslSyntaxError", "UnknownPredicateError",
    "PredicateArityError",
}


def test_all_is_the_library_surface():
    assert set(cni_prover.__all__) == LIBRARY
    assert len(cni_prover.__all__) == len(LIBRARY)
    for name in LIBRARY:
        assert getattr(cni_prover, name) is not None
