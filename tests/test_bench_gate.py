"""The dim-search workload of ``perfbench/run.py`` pins the dimension and
the witness digest of every instance in its corpus.  Running its gate here
makes a checker change that alters any of them fail the test suite, not only
the benchmark."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_dim_search_gate_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dim-search", "--seconds", "0"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-4000:]
