"""The benchmark's output contract, checked on a short run of every workload,
untraced and traced: every standard-output line is strict JSON (no NaN or
Infinity), so nothing the library does prints to stdout, standard error
stays empty, and the last line is the verdict with every metric that
BENCHMARK.json declares for the run: the end-to-end ones untraced, the
per-layer ones traced, so a wrapped name the library no longer has fails
here rather than leaving the traced verdict short."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _reject(constant):
    """Strict JSON has no NaN or Infinity, which json.dumps writes bare."""
    raise ValueError(f"non-finite constant {constant} in benchmark output")


CASES = [
    pytest.param(workload, trace, id=f"{workload}-{trace}")
    for workload in ("trials", "square", "wide")
    for trace in (0, 1)
]


@pytest.mark.parametrize("workload, trace", CASES)
def test_last_line_is_the_verdict(workload, trace):
    # No bytecode is written, so the run leaves perfbench/ as it was.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    lines = done.stdout.splitlines()
    parsed = [json.loads(line, parse_constant=_reject) for line in lines]
    verdict = parsed[-1]
    assert isinstance(verdict, dict)
    assert verdict["correct"] is True
    assert verdict["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer" if trace else "end_to_end"]}
    assert names <= set(verdict["metrics"]), sorted(names - set(verdict["metrics"]))
