#!/usr/bin/env python3
"""Write the expected `--format json --show-ideal` documents.

    python3 perfbench/make_expected.py

Runs every statement of every workload once, in the workload's fix mode,
and writes its standard output to expected/<fix>/<name>.json. A statement
whose exit status or verdict disagrees with manifest.json is reported and
not written. Rewrite these files only in a change that says why the output
of the program changed.
"""
from __future__ import annotations

import sys

import run


def main() -> int:
    cli_dsl = run.import_program()[0]
    manifest = run.load_manifest()
    bad = 0
    for workload in manifest["workloads"]:
        fix, stmts = run.load_workload(manifest, workload)
        for stmt in stmts:
            got = run.run_statement(cli_dsl, stmt.text, fix)
            decided, problem = run.check(stmt, got)
            if not decided or got.exit != stmt.exit:
                print(f"{fix}/{stmt.name}: {problem}", file=sys.stderr)
                bad += 1
                continue
            path = run.expected_path(fix, stmt.name)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(got.stdout.encode("utf-8"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
