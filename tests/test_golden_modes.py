"""Byte gate for the fix modes and formats that `perfbench/expected` does
not hold: every document under `tests/golden` must match what the prover
prints now.

`tests/golden/make_golden.py` wrote them: the corpus but `pappus` under
`--fix minus_one_one` and `--fix off`, and `problems/*.cni` under every fix
mode, each as text, LaTeX and JSON `--show-ideal` documents read from
standard input. A
document's exit status is 0 when its JSON verdict is Proved and 2
otherwise; an input the prover refuses has a `.err` file with its one
standard error line, and exit status 1.

The JSON documents committed for both pinned modes, under `tests/golden`
and `perfbench/expected`, must agree but for the `fixed` values.
"""

import json
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))

from make_golden import SUFFIXES, cases, prove_stdin  # noqa: E402


def _params():
    return [
        pytest.param(fix, path, GOLDEN / group / fix / path.stem, id=f"{group}/{fix}/{path.stem}")
        for group, fix, path in cases()
    ]


def test_every_case_has_golden_files():
    for group, fix, path in cases():
        stem = GOLDEN / group / fix / path.stem
        written = stem.with_suffix(".err").is_file() or all(
            stem.with_suffix(s).is_file() for s in SUFFIXES.values()
        )
        assert written, stem


@pytest.mark.parametrize("fix,path,stem", _params())
def test_documents_match_golden_bytes(fix, path, stem):
    text = path.read_text(encoding="utf-8")
    refused = stem.with_suffix(".err")
    if refused.is_file():
        for fmt in SUFFIXES:
            assert prove_stdin(text, fix, fmt) == (1, "", refused.read_text(encoding="utf-8"))
        return
    verdict = json.loads(stem.with_suffix(".json").read_text(encoding="utf-8"))["verdict"]
    for fmt, suffix in SUFFIXES.items():
        status, out, err = prove_stdin(text, fix, fmt)
        assert (status, err) == (0 if verdict == "Proved" else 2, "")
        assert out.encode("utf-8") == stem.with_suffix(suffix).read_bytes()


# (zero_one directory, minus_one_one directory) of the committed documents
_PINNED_PAIRS = (
    (GOLDEN.parent.parent / "perfbench" / "expected" / "zero_one", GOLDEN / "corpus" / "minus_one_one"),
    (GOLDEN / "problems" / "zero_one", GOLDEN / "problems" / "minus_one_one"),
)


def test_the_pinned_modes_commit_the_same_documents_but_for_the_fixed_values():
    # both pinned modes eliminate the same system, build_system's with A - B
    # among the factors, so their JSON documents differ in `fixed` alone
    compared = 0
    for zero_one, minus_one_one in _PINNED_PAIRS:
        for path in sorted(zero_one.glob("*.json")):
            other = minus_one_one / path.name
            if not other.is_file():
                continue
            a, b = (json.loads(p.read_text(encoding="utf-8")) for p in (path, other))
            fixed = a.pop("fixed"), b.pop("fixed")
            assert a == b, path
            assert [f["point"] for f in fixed[0]] == [f["point"] for f in fixed[1]], path
            compared += 1
    assert compared == 27
