"""The package's exported names are the documented library surface, and
importing it loads none of the heavy standard modules."""

import os
import re
import subprocess
import sys
from pathlib import Path

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


def test_readme_library_example_runs_from_the_repo_root():
    # the "Library" block of README.md, run as written from the repo root,
    # prints the text document that the command line gives for the same
    # statement pinned (the golden one shows the ideal too, so it is
    # compared up to that section)
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    code = re.search(r"^## Library\n\n```python\n(.*?)^```$", readme, re.S | re.M).group(1)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, timeout=120
    )
    assert (run.returncode, run.stderr) == (0, "")
    golden = (root / "tests" / "golden" / "problems" / "zero_one" / "varignon.txt").read_text(
        encoding="utf-8"
    )
    head = golden.split("The elimination ideal is generated by:\n")[0]
    assert head.startswith("Let A, B, C, D be arbitrary points.\n") and head.count("\n") >= 10
    assert run.stdout.startswith(head)


def test_import_loads_no_code_generation_typing_or_pathlib_modules():
    # dataclasses, and the inspect, ast and dis it imports, cost a fresh
    # interpreter more than the package itself, and typing and pathlib
    # about a third of it; -S keeps site's own imports out of the count
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = (
        "import sys, cni_prover\n"
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'typing', 'pathlib'}"
        " & set(sys.modules)))"
    )
    run = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert (run.returncode, run.stderr, run.stdout) == (0, "", "[]\n")
