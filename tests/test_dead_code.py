"""Static guards: every module-level import in the package is used, every
module-level private function and class is referenced, every public
module-level function is referenced by the package or the benchmark, or
is listed as public API, and every module-level constant is read by the
package, the benchmark or the tests."""

import ast
from collections import Counter
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


def _referenced_names(node) -> Counter:
    names = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            names[n.attr] += 1
        elif isinstance(n, ast.alias):
            names[n.name] += 1
    return names


def unreferenced_privates(sources: dict) -> list:
    """Module-level private functions and classes (``_name``) that no
    module references outside their own body."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    used = sum((_referenced_names(t) for t in trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")
                    and not node.name.startswith("__")
                    and used[node.name] == _referenced_names(node)[node.name]):
                found.append(f"{module}:{node.name}")
    return sorted(found)


def test_guard_flags_an_unreferenced_private():
    sources = {
        "a.py": ("def _used():\n    return 1\n"
                 "def _recursive(n):\n    return _recursive(n - 1)\n"
                 "class _Gone:\n    pass\n"
                 "def __getattr__(name):\n    pass\n"),
        "b.py": "from .a import _used\nx = _used()\n",
    }
    assert unreferenced_privates(sources) == ["a.py:_Gone", "a.py:_recursive"]


def test_no_unreferenced_private_definitions():
    sources = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_privates(sources) == []


BENCH = Path(__file__).resolve().parents[1] / "bench"

# entry points for users and experiments that nothing in the package or the
# benchmark calls; a new name here needs a reason
PUBLIC_API = {
    "attitude.py:euler_rate_matrix",  # inverse of body_rate_from_euler_rate
    "identify.py:identify_estimator_response",  # weight identification
    "identify.py:identify_pd_response",
    "identify.py:identify_thrust_response",
    "identify.py:run_force_step",
    "lti.py:first_order_lag",  # weight building block
    "oracles.py:random_delta_hurwitz_check",  # Monte Carlo check of rs
    "sweep.py:read_margin_csv",  # reads back what grid_sweep writes
    "uncertainty.py:fit_uncertainty_weight",  # weight identification
}


def unreferenced_publics(package: dict, others: dict) -> list:
    """Public module-level functions of the package modules that no module
    of either set references outside their own body."""
    trees = {name: ast.parse(src) for name, src in package.items()}
    used = sum((_referenced_names(ast.parse(src)) for src in others.values()),
               sum((_referenced_names(t) for t in trees.values()), Counter()))
    return sorted(
        f"{module}:{node.name}" for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and used[node.name] == _referenced_names(node)[node.name])


def test_guard_flags_an_unreferenced_public_function():
    package = {"a.py": ("def used():\n    return 1\n"
                        "def called_by_bench():\n    return 2\n"
                        "def gone(n):\n    return gone(n - 1)\n"
                        "def _private():\n    pass\n"),
               "b.py": "from .a import used\nx = used()\n"}
    others = {"run.py": "from swarmlift import a\na.called_by_bench()\n"}
    assert unreferenced_publics(package, others) == ["a.py:gone"]


def test_no_unreferenced_public_functions():
    package = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    bench = {path.name: path.read_text() for path in sorted(BENCH.glob("*.py"))
             if not path.name.startswith("test_")}
    found = unreferenced_publics(package, bench)
    assert sorted(set(found) - PUBLIC_API) == []
    assert sorted(PUBLIC_API - set(found)) == []  # stale allowlist entries


TESTS = Path(__file__).resolve().parent


def unreferenced_constants(package: dict, others: dict) -> list:
    """Module-level constants (upper-case names) of the package modules that
    no module of either set reads."""
    trees = {name: ast.parse(src) for name, src in package.items()}
    read = Counter()
    for tree in [*trees.values(), *map(ast.parse, others.values())]:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read[n.id] += 1
            elif isinstance(n, ast.Attribute):
                read[n.attr] += 1
            elif isinstance(n, ast.alias):
                read[n.name] += 1
    return sorted(
        f"{module}:{target.id}" for module, tree in trees.items()
        for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
        if isinstance(target, ast.Name) and target.id.isupper()
        and not read[target.id])


def test_guard_flags_an_unreferenced_constant():
    package = {"a.py": ("USED = 1\nREAD_BY_TEST = 2\nGONE = 3\n"
                        "GONE_TOO: float = 4.0\nlower = 5\n"),
               "b.py": "from .a import USED\nx = USED\n"}
    others = {"test_a.py": "from swarmlift import a\nassert a.READ_BY_TEST\n"}
    assert unreferenced_constants(package, others) == ["a.py:GONE",
                                                      "a.py:GONE_TOO"]


def test_no_unreferenced_module_constants():
    package = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    others = {str(path): path.read_text()
              for path in sorted([*BENCH.glob("*.py"), *TESTS.glob("*.py")])}
    assert unreferenced_constants(package, others) == []
