"""Static guard: every module-level import in the package is used."""

import ast
from pathlib import Path

import swarmlift

PACKAGE = Path(swarmlift.__file__).parent


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted(name for name in bound if name not in used | exported)


def test_guard_flags_an_unused_import():
    src = "import os\nfrom numpy import cross, dot\nx = dot\n"
    assert unused_imports(src) == ["cross", "os"]


def test_no_unused_module_imports():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        names = unused_imports(path.read_text())
        if names:
            found[path.name] = names
    assert found == {}
