#!/usr/bin/env python3
"""Write the golden documents that `tests/test_golden_modes.py` compares.

    PYTHONPATH=src python3 tests/golden/make_golden.py

Each case is one `.cni` file proved with `--fix FIX --show-ideal` from
standard input, in each format. Its standard output goes to
`<group>/<fix>/<name>.txt`, `.tex` and `.json` next to this script; an input
the prover refuses (exit status 1) leaves its standard error line in
`<name>.err` instead. The cases are every `perfbench/corpus` statement but
`pappus` under `minus_one_one` and under `off` (group `corpus`), and every
`problems/*.cni` under each fix mode (group `problems`). `perfbench/expected`
holds the corpus under `zero_one` and `off` as JSON only, so the unpinned
text and LaTeX documents, and unpinned `circumcenter` and `angle_bisectors`
in any format, are held here alone. `pappus` takes about 26 s a document
pinned and 9 s unpinned, so it is no case here: its JSON documents under
`off` and `zero_one` are `slow/<fix>/pappus.json`, the output of
`cni-prover prove perfbench/corpus/pappus.cni --fix FIX --timeout 120
--format json --show-ideal`, which CI's `slow-outcomes` job compares byte
for byte. Rewrite these files only in a change that says why the output
of the program changed.
"""
from __future__ import annotations

import io
import sys
from pathlib import Path

from cni_prover.cli_dsl import CliConfig, run_cli
from cni_prover.geometry_model import FIX_MODES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SUFFIXES = {"text": ".txt", "latex": ".tex", "json": ".json"}
TIMEOUT = 60.0


def cases() -> list[tuple[str, str, Path]]:
    """(group, fix, source) for every golden case."""
    corpus = [
        path
        for path in sorted((ROOT / "perfbench" / "corpus").glob("*.cni"))
        if path.stem != "pappus"
    ]
    out = [("corpus", fix, path) for fix in ("minus_one_one", "off") for path in corpus]
    for fix in FIX_MODES:
        out.extend(("problems", fix, path) for path in sorted((ROOT / "problems").glob("*.cni")))
    return out


def prove_stdin(text: str, fix: str, fmt: str) -> tuple[int, str, str]:
    """(exit status, stdout, stderr) of `cni-prover prove - --fix FIX
    --format FMT --show-ideal` with `text` on standard input."""
    cfg = CliConfig(input="-", fix_mode=fix, timeout=TIMEOUT, format=fmt, show_ideal=True)
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        status = run_cli(cfg, out, err)
    finally:
        sys.stdin = saved
    return status, out.getvalue(), err.getvalue()


def main() -> int:
    for group, fix, path in cases():
        stem = HERE / group / fix / path.stem
        stem.parent.mkdir(parents=True, exist_ok=True)
        text = path.read_text(encoding="utf-8")
        for fmt, suffix in SUFFIXES.items():
            status, out, err = prove_stdin(text, fix, fmt)
            if status == 1:
                stem.with_suffix(".err").write_bytes(err.encode("utf-8"))
                break
            stem.with_suffix(suffix).write_bytes(out.encode("utf-8"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
