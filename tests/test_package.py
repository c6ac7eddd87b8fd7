"""The package stays stdlib-only: every module of `hopfgal` imports the
standard library and `hopfgal` itself, nothing else.  And its public API is
code that runs: each public module-level function is referenced in the
package, called by the benchmark, or on a short list of checked entry points.
Both tests read the sources' syntax trees and run nothing."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "hopfgal").glob("*.py"))
MODULES = {path.stem for path in SOURCES}

# Public functions that nothing in the package or the benchmark calls, kept
# because the tests compare against them or they check outside input.
ENTRY_POINTS = {
    "abelian.add": "checked form of the kernel's `_add`, the reference of the element tests",
    "abelian.scalar_mul": "checked form of `_scalar_mul`, the reference of the element tests",
    "abelian.walk_subgroups": "checked form of `_walk_subgroups`, the walk on outside maps",
    "abelian.additive_closure": "checked closure of outside generators, the subgroup tests' reference",
    "nilring.mul": "checked form of `_mul`, the reference of the product tests",
    "nilring.circle": "checked form of `_circle`, the reference of the circle-group tests",
    "nilring.nilpotency_index": "the index of nilpotency of a checked structure",
    "holomorph.translation": "checked x -> g + x, the reference of the tau tests",
    "holomorph.tau": "checked circle translation, which also tests invertibility",
    "holomorph.affine_map": "checked (a, m) pair from outside input",
    "holomorph.inverse": "checked inverse of an affine map from outside input",
    "correspondence.gaussian_subspace_count": "closed form the brute-force subgroup counts are tested against",
}


def imported_modules(path):
    """The top-level names of the absolute imports in one source file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_modules_import_only_the_standard_library_and_hopfgal():
    assert MODULES == {"__init__", "abelian", "cli", "correspondence", "errors", "holomorph", "linalg",
                       "nilring"}
    allowed = sys.stdlib_module_names | {"hopfgal"}
    foreign = {(path.name, name) for path in SOURCES for name in imported_modules(path)
               if name not in allowed}
    assert foreign == set()


def test_linalg_imports_nothing_from_the_package_but_errors():
    # the matrix module holds no model and no element table, so any module
    # can run on it and share no other code through it
    tree = ast.parse((ROOT / "src" / "hopfgal" / "linalg.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "hopfgal"):
            module = (node.module or "").removeprefix("hopfgal").lstrip(".")
            imported.update([module] if module else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            imported.update(alias.name.removeprefix("hopfgal").lstrip(".") or "hopfgal"
                            for alias in node.names if alias.name.split(".")[0] == "hopfgal")
    assert imported <= {"errors"}


def references(tree, module=None, skip=None):
    """The "module.name" references in a syntax tree: `module.name` (also
    `hopfgal.module.name`) and `from .module import name` anywhere, and a bare
    `name` when the tree is that module's own, outside the subtree `skip`."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        stack.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Attribute):
            owner = getattr(node.value, "id", getattr(node.value, "attr", None))
            if owner in MODULES:
                found.add(f"{owner}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module:
            owner = node.module.split(".")[-1]
            found.update(f"{owner}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Name) and module is not None:
            found.add(f"{module}.{node.id}")
    return found


def test_every_public_function_runs_or_is_a_checked_entry_point():
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    benchmark = set().union(*(references(ast.parse(path.read_text()))
                              for path in (ROOT / "perfbench").glob("*.py")))
    public = {f"{module}.{node.name}": (module, node) for module, tree in trees.items()
              for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    unused = set()
    for name, (module, node) in public.items():
        in_package = set().union(*(references(tree, other, node if other == module else None)
                                   for other, tree in trees.items()))
        if name not in in_package | benchmark:
            unused.add(name)
    assert unused - set(ENTRY_POINTS) == set(), "public functions that nothing runs"
    assert set(ENTRY_POINTS) - unused == set(), "entry points that now run: take them off the list"


def test_the_cli_has_one_loop_over_structures():
    # one Context per structure, built in the one loop that draws them from
    # the one structure source; the search is called by that source and by
    # `enumerate`, and by no library module
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    called = [getattr(node.func, "id", getattr(node.func, "attr", None))
              for node in ast.walk(trees["cli"]) if isinstance(node, ast.Call)]
    assert called.count("Context") == 1
    assert called.count("_resolve_structures") == 1
    assert {module for module, tree in trees.items()
            if "nilring.enumerate_structures" in references(tree)} <= {"nilring", "cli"}
