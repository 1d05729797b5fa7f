"""The dim-search workload of ``perfbench/run.py`` pins the dimension and
the witness digest of every instance in its corpus.  Running its gate here
makes a checker change that alters any of them fail the test suite, not only
the benchmark.  The traced run also fails when a layer the workload must
reach (such as ``dimensions.vc_shatters``) is no longer called, or when its
traced passes disagree on a count."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_dim_search(*flags):
    """The last line of a dim-search run's output, parsed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dim-search", *flags],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout[-4000:]


def test_dim_search_gate_is_correct():
    result, tail = run_dim_search("--seconds", "0")
    assert result["correct"] is True, tail


def test_traced_dim_search_gate_is_correct():
    result, tail = run_dim_search("--trace", "1")
    assert result["correct"] is True, tail
