"""The benchmark's self-test.  It fails the suite when a function the
workloads call, or a method the tracer looks up as `Class.method`, is renamed
or removed.  The tracer wraps the module-level functions a module still
defines, so a counted module-level name that is gone is skipped, not an error."""

import importlib.util
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


def test_the_readme_workload_runs_the_readme_commands():
    # README_COMMANDS is described as the CLI section of README.md, exactly
    # as written: the `hopfgal` lines of that section's code block, in order
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    section = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```\n", 2)[1]
    commands = [line.removeprefix("hopfgal ") for line in block.splitlines()
                if line.startswith("hopfgal ")]
    assert tuple(commands) == workloads.README_COMMANDS
