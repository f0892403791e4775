"""Byte gate: the proof documents of the fast benchmark statements must
match the expected files the benchmark checks against.

Each `classic-light` statement runs pinned (`zero_one`), and each of them
that is also in `fix-off` runs unpinned (`off`), through `run_cli` with
`--format json --show-ideal`. Only files under `perfbench/` are read.
"""

import io
import json
from pathlib import Path

import pytest

from cni_prover.cli_dsl import CliConfig, run_cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _cases():
    manifest = json.loads((PERFBENCH / "manifest.json").read_text())
    cases = []
    for entry in manifest["statements"]:
        name, workloads = entry["name"], entry["workloads"]
        if "classic-light" not in workloads:
            continue
        fixes = ("zero_one", "off") if "fix-off" in workloads else ("zero_one",)
        for fix in fixes:
            status = entry["expect"][fix]["exit"]
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
