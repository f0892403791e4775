#!/usr/bin/env python3
"""The benchmark's own check: counts and verdicts repeat, known defects show.

    python3 perfbench/selfcheck.py

Runs every workload traced twice, in two fresh processes with different
seeds (so in different statement orders), and requires both runs to be
correct and to agree exactly on every per-layer count and on each
statement's exit status, verdict and reason code. Then runs the statements
the manifest marks as known defects and counts each one that still fails
in failed_frac. Exits 1 if anything does not repeat or a timed workload
fails, 0 otherwise.
"""
from __future__ import annotations

import json
import subprocess
import sys

import run

SEEDS = (1, 2)


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    trace = json.loads((run.OUT / f"trace-{workload}-seed{seed}.json").read_text())
    return result, trace


def main() -> int:
    cli_dsl = run.import_program()[0]
    manifest = run.load_manifest()
    ok = True
    attempted = failed = 0
    for workload in manifest["workloads"]:
        results = [traced_run(workload, seed) for seed in SEEDS]
        counts = [
            {k: m["value"] for k, m in r["metrics"].items() if m["unit"] != "s"}
            for r, _ in results
        ]
        verdicts = [
            {row["statement"]: (row["exit"], row["verdict"], row["reason"]) for row in t["statements"]}
            for _, t in results
        ]
        for r, _ in results:
            attempted += r["attempted"]
            failed += r["failed"]
        same = counts[0] == counts[1] and verdicts[0] == verdicts[1]
        correct = all(r["correct"] for r, _ in results)
        ok = ok and same and correct
        print(f"{workload:<14} counts and verdicts {'repeat' if same else 'DIFFER'}, "
              f"{'correct' if correct else 'NOT correct'} "
              f"({len(verdicts[0])} statements, seeds {SEEDS})")
        if not same:
            for k in sorted(counts[0]):
                if counts[0][k] != counts[1].get(k):
                    print(f"  {k}: {counts[0][k]} vs {counts[1].get(k)}")
            for k in sorted(verdicts[0]):
                if verdicts[0][k] != verdicts[1].get(k):
                    print(f"  {k}: {verdicts[0][k]} vs {verdicts[1].get(k)}")

    for entry in manifest["statements"]:
        if not entry.get("known_defect"):
            continue
        for fix, want in entry["expect"].items():
            got = run.run_statement(cli_dsl, run.corpus_text(entry["name"]), fix)
            attempted += 1
            if got.exit is None:
                failed += 1
                print(f"FAILED known defect {fix}/{entry['name']}: {got.error} "
                      f"(manifest records {want['exception']})")
            else:
                print(f"known defect {fix}/{entry['name']} no longer fails: exit {got.exit}; "
                      "update manifest.json")
    print(f"failed_frac {failed}/{attempted} = {failed / attempted:.6f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
