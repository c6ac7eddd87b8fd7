"""The package stays stdlib-only: every module of `hopfgal` imports the
standard library and `hopfgal` itself, nothing else."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "hopfgal").glob("*.py"))


def imported_modules(path):
    """The top-level names of the absolute imports in one source file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_modules_import_only_the_standard_library_and_hopfgal():
    assert len(SOURCES) == 7
    allowed = sys.stdlib_module_names | {"hopfgal"}
    foreign = {(path.name, name) for path in SOURCES for name in imported_modules(path)
               if name not in allowed}
    assert foreign == set()
