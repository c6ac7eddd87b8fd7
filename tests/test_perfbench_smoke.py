"""The benchmark's self-test.  It fails the suite when a function the
workloads call, or a method the tracer looks up as `Class.method`, is renamed
or removed.  The tracer wraps the module-level functions a module still
defines, so a counted module-level name that is gone is skipped, not an error."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke():
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "FAIL" not in result.stdout
