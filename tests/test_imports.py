"""clausekit has no runtime dependencies: every module imports only the standard library and itself."""

import ast
import os
import re
import subprocess
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


# Public top-level names and class members that no module of the package reaches, kept on purpose.
UNREACHED_ON_PURPOSE = {
    "cdcl.forget": "the Forget rule, which test_cdcl.py and test_cdcl_kernel.py state",
}


def unreached_names(sources: dict[str, str]) -> set[str]:
    """`module.name` of each public top-level def, class or assigned name that nothing reaches.

    A name is reached when its own module loads it, when another module
    imports it with `from .module import name` or reads it as `module.name`
    after `from . import module`, or when `__init__`'s `__all__` lists it.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reached = set()
    for module, tree in trees.items():
        aliases = {}  # local name -> module, for each `from . import module`
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reached.add(f"{module}.{node.id}")
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        aliases[alias.asname or alias.name] = alias.name
                    else:
                        reached.add(f"{node.module}.{alias.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
                reached.add(f"{aliases[node.value.id]}.{node.attr}")
    (exported,) = [ast.literal_eval(node.value) for node in trees["__init__"].body
                   if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "__all__"]
    return {
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in top_level_names(tree)
        if not name.startswith("_") and name not in exported and f"{module}.{name}" not in reached
    }


def unreached_members(sources: dict[str, str]) -> set[str]:
    """`module.Class.member` of each public def in a class body whose name no module reads as `x.member`.

    Methods, properties and classmethods alike are defs; names starting with
    `_`, dunders included, are exempt.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return {
        f"{module}.{cls.name}.{node.name}"
        for module, tree in trees.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and node.name not in read
    }


def top_level_names(tree: ast.Module) -> list[str]:
    """The names that the module's top-level defs, classes and assignments bind."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def test_every_public_name_in_the_package_is_reached():
    # test-only code stays in tests/: a public name or class member that no module, CLI mode or __all__ reaches goes
    sources = {module.stem: module.read_text() for module in PACKAGE.glob("*.py")}
    assert unreached_names(sources) | unreached_members(sources) == set(UNREACHED_ON_PURPOSE)


def test_an_unreached_name_is_caught():
    sources = {
        "a": "from . import b\nfrom .c import used\ndef own(): pass\nLIMIT = 3\nown()\nb.read()\n",
        "b": "def read(): pass\ndef dead(): pass\nclass Dead: pass\nSPARE: int = 2\ndef _private(): pass\n",
        "c": "def used(): pass\ndef exported(): pass\n",
        "__init__": "__all__ = ['exported']\n",
    }
    assert unreached_names(sources) == {"a.LIMIT", "b.dead", "b.Dead", "b.SPARE"}


def test_an_unreached_member_is_caught():
    sources = {
        "a": "from . import b\ndef run(x):\n    return x.read(), b.Box.make\n",
        "b": ("class Box:\n    def read(self): pass\n    def dead(self): pass\n"
              "    @property\n    def spare(self): pass\n    @classmethod\n    def make(cls): pass\n"
              "    def __len__(self): return 0\n    def _private(self): pass\n"),
    }
    assert unreached_members(sources) == {"b.Box.dead", "b.Box.spare"}


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    # every call of the CLI pays for its imports: dataclasses brings inspect, ast, dis and tokenize
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    probe = "import sys, clausekit.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"


def writers(sources: dict[str, str]) -> set[str]:
    """`module.function` of each function that reads a `write` or `writelines` attribute, by innermost def."""
    found = set()

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}")
            else:
                if isinstance(child, ast.Attribute) and child.attr in ("write", "writelines"):
                    found.add(owner)
                visit(child, owner)

    for module, source in sources.items():
        visit(ast.parse(source), module)
    return found


def test_the_cli_main_is_the_one_writer():
    # handlers hand back their lines, and main alone writes them, where a closed stream is told from a usage error
    sources = {module.stem: module.read_text() for module in PACKAGE.glob("*.py")}
    assert writers(sources) == {"cli.main"}


def test_a_writer_is_caught():
    sources = {"a": "def main(out):\n    out.writelines([])\nclass E:\n    def lines(self):\n"
                    "        w = self.out.write\n        def inner():\n            return sys.stdout.write\n"}
    assert writers(sources) == {"a.main", "a.E.lines", "a.E.lines.inner"}


def json_importers(sources: dict[str, str]) -> set[str]:
    """The modules that import `json` or one of its modules anywhere in their source."""
    return {module for module, source in sources.items() if "json" in imported_roots(ast.parse(source))}


def test_jsonl_is_the_one_module_that_imports_json():
    # every JSON line fills a format that jsonl builds, so no engine needs the encoder or its escaper
    sources = {module.stem: module.read_text() for module in PACKAGE.glob("*.py")}
    assert json_importers(sources) == {"jsonl"}


def test_a_json_import_is_caught():
    sources = {"a": "from json.encoder import encode_basestring_ascii\n", "b": "def f():\n    import json\n",
               "c": "from .jsonl import json_format\nimport jsonschema\n", "d": "import os, json as j\n"}
    assert json_importers(sources) == {"a", "b", "d"}
