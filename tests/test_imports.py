"""clausekit has no runtime dependencies: every module imports only the standard library and itself."""

import ast
import re
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "clausekit"


def imported_roots(tree: ast.AST) -> set[str]:
    """The top-level names of the absolute imports anywhere in a module; relative ones stay in the package."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_modules_import_only_the_standard_library_and_the_package():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "cdcl.py" in modules
    outside = {
        module.name: sorted(roots)
        for module in modules
        if (roots := imported_roots(ast.parse(module.read_text())) - sys.stdlib_module_names - {"clausekit"})
    }
    assert outside == {}


def test_modules_parse_at_the_declared_python_floor():
    # no syntax newer than pyproject.toml's requires-python, such as 3.11's except*, may creep in
    floor = re.search(r'requires-python = ">=3\.(\d+)"', (PACKAGE.parents[1] / "pyproject.toml").read_text())
    for module in sorted(PACKAGE.glob("*.py")):
        ast.parse(module.read_text(), filename=str(module), feature_version=(3, int(floor.group(1))))


def test_a_third_party_import_is_caught():
    tree = ast.parse("import os.path\nfrom typing import Any\nfrom . import cdcl\nimport numpy as np\n"
                     "def f():\n    from hypothesis import given\n")
    assert imported_roots(tree) - sys.stdlib_module_names == {"numpy", "hypothesis"}


def test_oracles_take_no_ordering_or_box_from_the_engines():
    # the reference saturation and the bounded-decision references must reach
    # their own maximality and box radius, or an engine fault would pass both sides
    tree = ast.parse((Path(__file__).resolve().parent / "oracles.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "clausekit"
        for alias in node.names
    }
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not {"apriori_bounds", "kbo_compare", "literal_is_maximal"} & (imported | read)
