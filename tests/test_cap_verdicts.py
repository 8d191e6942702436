"""Every cap ends in its engine's verdict: no engine raises to stop a capped run, and the CLI catches no cap."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "clausekit"
CAP_ERROR = "ResourceLimitError"


def names(expr: ast.AST) -> set[str]:
    """The names in an expression, an attribute counted by its own name (`errors.X` as X)."""
    nodes = [n for n in ast.walk(expr) if isinstance(n, (ast.Name, ast.Attribute))]
    return {n.id if isinstance(n, ast.Name) else n.attr for n in nodes}


def cap_raisers(tree: ast.AST, module: str) -> set[str]:
    """The functions, as module.function (the innermost one), that raise the cap error; module.<module> at top level."""
    found = set()

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Raise) and node.exc is not None:
            if CAP_ERROR in names(node.exc.func if isinstance(node.exc, ast.Call) else node.exc):
                found.add(f"{module}.{function}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def handled_names(tree: ast.AST) -> set[str]:
    """Every name that an `except` clause of the module lists."""
    return {
        name
        for handler in ast.walk(tree)
        if isinstance(handler, ast.ExceptHandler) and handler.type is not None
        for name in names(handler.type)
    }


def test_only_grounding_raises_the_cap_error():
    # grounding has no result to carry a verdict; every other cap returns one
    raisers = set()
    for module in sorted(PACKAGE.glob("*.py")):
        raisers |= cap_raisers(ast.parse(module.read_text()), module.stem)
    assert raisers == {"scl.ground_problem"}


def test_the_cli_catches_no_cap():
    assert CAP_ERROR not in handled_names(ast.parse((PACKAGE / "cli.py").read_text()))


def test_a_raise_and_a_handler_are_caught():
    tree = ast.parse(
        "def f():\n    def g():\n        raise errors.ResourceLimitError('x')\n    raise ValueError\n"
        "try:\n    f()\nexcept (ValueError, ResourceLimitError):\n    raise ResourceLimitError\n"
    )
    assert cap_raisers(tree, "m") == {"m.g", "m.<module>"}
    assert handled_names(tree) == {"ValueError", CAP_ERROR}
