"""The benchmark's traced path. `perfbench/run.py --trace 1` wraps the
layer entry points and reads the polynomial system, so a change to the
program's interfaces can break it while every other test passes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["classic-light", "classic-heavy", "fix-off"])
def test_traced_benchmark_pass_is_correct(workload):
    # fix_coordinates is a span of its own, and fix-off reaches its off branch
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    # the second eliminations are still traced as such
    assert result["metrics"]["groebner.second_elims"]["value"] > 0
