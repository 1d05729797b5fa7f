"""The dim-search and certify workloads of ``perfbench/run.py`` pin every
answer of their corpus: the dimension and witness digest of each dim-search
instance, and the exit code and stdout digest of each certify CLI run.
Running their gates here makes a change that alters any of them fail the
test suite, not only the benchmark.  The traced run also fails when a layer
the workload must reach (such as ``dimensions.vc_shatters`` or
``compression.verify_scheme``) is no longer called, or when its traced
passes disagree on a count."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("dim-search", "certify")


def run_gate(workload, *flags):
    """The last line of a workload run's output, parsed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, *flags],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout[-4000:]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_gate_is_correct(workload):
    result, tail = run_gate(workload, "--seconds", "0")
    assert result["correct"] is True, tail


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_gate_is_correct(workload):
    result, tail = run_gate(workload, "--trace", "1")
    assert result["correct"] is True, tail
