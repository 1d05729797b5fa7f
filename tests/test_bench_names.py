"""The benchmark in ``perfbench/`` reaches into the package by name: its
tracer wraps listed functions at every binding, and its runner records
``conceptlab.KERNEL_BACKEND``.  Renaming or deleting any of them breaks
``perfbench/run.py --trace 1`` without failing anything else, so this test
installs the tracer in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import conceptlab, conceptlab.cli, tracing
tracing.Tracer().install()
assert isinstance(conceptlab.KERNEL_BACKEND, str), conceptlab.KERNEL_BACKEND
"""


def test_tracer_installs_on_every_named_function():
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]),
    )
    proc = subprocess.run(
        [sys.executable, "-c", CHILD],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
