"""Byte gate: every proof document under `perfbench/expected` must match
what the prover prints now.

Each expected file `expected/<fix>/<name>.json` is the output of
`perfbench/corpus/<name>.cni` run with `--fix <fix>`. The statement runs
through `run_cli` with `--format json --show-ideal`, and the exit status
must be the one `manifest.json` records for that fix mode. The text and
LaTeX `--show-ideal` documents of the same run must print the ideal, pivot
and second-ideal formulas that the JSON document records. Only files under
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


def _items(lines, fmt):
    """(is_formula, text) for each narration line of a text or LaTeX
    document. A text formula has no space; a LaTeX one is `$...$`."""
    items = []
    for line in lines:
        if fmt == "text":
            items.append((" " not in line, line))
        elif line.startswith("\\item $"):
            items.append((True, line[len("\\item $"):-1]))
        elif line.startswith("\\item "):
            items.append((False, line[len("\\item "):]))
    return items


def _formulas_after(items, heading):
    """The formula lines that follow the first sentence `heading` accepts,
    or [] when no sentence does."""
    for k, (is_formula, text) in enumerate(items):
        if not is_formula and heading(text):
            out = []
            for is_formula2, text2 in items[k + 1:]:
                if not is_formula2:
                    break
                out.append(text2)
            return out
    return []


@pytest.mark.parametrize("name,fix,exit_status", _cases())
@pytest.mark.parametrize("fmt", ["text", "latex"])
def test_narrated_formulas_match_expected_json(name, fix, exit_status, fmt):
    # The text and LaTeX documents print the ideal, pivot and second ideal
    # that the expected JSON document records.
    cfg = CliConfig(
        input=str(PERFBENCH / "corpus" / f"{name}.cni"),
        fix_mode=fix,
        timeout=60.0,
        format=fmt,
        show_ideal=True,
    )
    out, err = io.StringIO(), io.StringIO()
    assert run_cli(cfg, out, err) == exit_status
    assert err.getvalue() == ""
    expected = json.loads((PERFBENCH / "expected" / fix / f"{name}.json").read_text())
    items = _items(out.getvalue().splitlines(), fmt)

    ideal = _formulas_after(items, lambda s: s == "The elimination ideal is generated by:")
    assert ideal == (expected.get("ideal") or [])
    pivot = _formulas_after(items, lambda s: s.endswith("is linear in an obtained polynomial equation:"))
    assert pivot[:1] == ([] if expected["pivot"] is None else [expected["pivot"] + "=0"])
    second = _formulas_after(items, lambda s: s == "The second elimination ideal is generated by:")
    assert second == (expected.get("second_ideal") or [])
