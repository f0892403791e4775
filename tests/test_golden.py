"""Byte gate: every proof document under `perfbench/expected` must match
what the prover prints now.

Each expected file `expected/<fix>/<name>.json` is the output of
`perfbench/corpus/<name>.cni` run with `--fix <fix>`. The statement runs
through `run_cli` with `--format json --show-ideal`, and the exit status
must be the one `manifest.json` records for that fix mode. Only files under
`perfbench/` are read.
"""

import io
import json
from pathlib import Path

import pytest

from cni_prover.cli_dsl import CliConfig, run_cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _cases():
    manifest = json.loads((PERFBENCH / "manifest.json").read_text())
    expect = {entry["name"]: entry["expect"] for entry in manifest["statements"]}
    cases = []
    for path in sorted((PERFBENCH / "expected").glob("*/*.json")):
        fix, name = path.parent.name, path.stem
        status = expect[name][fix]["exit"]
        cases.append(pytest.param(name, fix, status, id=f"{fix}/{name}"))
    return cases


@pytest.mark.parametrize("name,fix,exit_status", _cases())
def test_document_matches_expected_bytes(name, fix, exit_status):
    cfg = CliConfig(
        input=str(PERFBENCH / "corpus" / f"{name}.cni"),
        fix_mode=fix,
        timeout=60.0,
        format="json",
        show_ideal=True,
    )
    out, err = io.StringIO(), io.StringIO()
    assert run_cli(cfg, out, err) == exit_status
    assert err.getvalue() == ""
    expected = (PERFBENCH / "expected" / fix / f"{name}.json").read_bytes()
    assert out.getvalue().encode("utf-8") == expected
