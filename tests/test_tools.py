"""The committed tools under ``tools/``, run as scripts."""

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

MODULE = '''"""A module docstring,
over two lines."""

# a comment
total = (1 +
         2)


def double(x):
    """A function docstring."""
    return 2 * x
'''


def test_code_lines_counts_only_code(tmp_path):
    # the two-line statement, the def and the return: not the docstrings,
    # the comment or the blank lines
    module = tmp_path / "module.py"
    module.write_text(MODULE, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "code_lines.py"), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == [f"     4 {module}", "     4 total", ""]
