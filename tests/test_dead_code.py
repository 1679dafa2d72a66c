"""Static guards: every module-level import in the package and the tests
is used, every module-level private function and class is referenced,
every public module-level function, and every public method and property
of a module-level class, is referenced by the package or the benchmark, or
is listed as public API, every module-level constant is
read by the package, the benchmark or the tests, and every parameter with
a default is passed by some call in the package or the benchmark, or is
listed with the reason it stays a parameter. Scipy is imported at module
level only where an allowlist says why, and a fresh interpreter that
imports the package loads none of the heavy scipy subpackages, and no
module keeps a fallback for another toolchain (an ``except ImportError``
or a ``getattr``/``hasattr`` probe of numpy). The
scenario schema covers every Scenario field that a document sets, and the
scenario docstring names each of its key paths and parameter sections.
Every parameter dataclass (a name ending in Params, Scenario and
AnalysisConfig) is frozen, so a field changes only through
dataclasses.replace, which runs its checks and derives its constants
again. Every field of a package dataclass is read by the package or the
benchmark, or is listed with the reason it stays, and every constructor
argument with a default is passed by some call in the package or the
benchmark (to the class, through functools.partial, checked_call,
dataclasses.replace or a ** forward), or is listed with the reason it stays
an argument; a setting that no call passes is a constant, or a field with
init=False."""

import ast
import os
import re
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

import swarmlift

PACKAGE = Path(swarmlift.__file__).parent
TESTS = Path(__file__).resolve().parent


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
    for path in sorted([*PACKAGE.glob("*.py"), *TESTS.glob("*.py")]):
        names = unused_imports(path.read_text())
        if names:
            found[str(path)] = names
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


def _functions(tree):
    """(qualified name, node) of every module-level function, and of every
    method and property of a module-level class as ``Class.name``."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{fn.name}", fn) for fn in node.body
                        if isinstance(fn, ast.FunctionDef))


def unreferenced_publics(package: dict, others: dict) -> list:
    """Public module-level functions, and public methods and properties of
    module-level classes, of the package modules that no module of either
    set references outside their own body. Members match references by
    name, as functions do."""
    trees = {name: ast.parse(src) for name, src in package.items()}
    used = sum((_referenced_names(ast.parse(src)) for src in others.values()),
               sum((_referenced_names(t) for t in trees.values()), Counter()))
    return sorted(
        f"{module}:{qualified}" for module, tree in trees.items()
        for qualified, node in _functions(tree)
        if not node.name.startswith("_")
        and used[node.name] == _referenced_names(node)[node.name])


def test_guard_flags_an_unreferenced_public_function():
    package = {"a.py": ("def used():\n    return 1\n"
                        "def called_by_bench():\n    return 2\n"
                        "def gone(n):\n    return gone(n - 1)\n"
                        "def _private():\n    pass\n"),
               "b.py": "from .a import used\nx = used()\n"}
    others = {"run.py": "from swarmlift import a\na.called_by_bench()\n"}
    assert unreferenced_publics(package, others) == ["a.py:gone"]


def test_guard_flags_an_unreferenced_public_member():
    package = {"a.py": ("class K:\n"
                        "    def __init__(self):\n        self.x = 1\n"
                        "    def used(self):\n        return self.x\n"
                        "    @property\n    def read(self):\n"
                        "        return 2\n"
                        "    @property\n    def unread(self):\n"
                        "        return 3\n"
                        "    def gone(self, n):\n"
                        "        return self.gone(n - 1)\n"
                        "    def _private(self):\n        pass\n"),
               "b.py": "from .a import K\nk = K()\nk.used()\n"}
    others = {"run.py": "from swarmlift.a import K\nprint(K().read)\n"}
    assert unreferenced_publics(package, others) == ["a.py:K.gone",
                                                     "a.py:K.unread"]


def test_no_unreferenced_public_functions():
    package = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    bench = {path.name: path.read_text() for path in sorted(BENCH.glob("*.py"))
             if not path.name.startswith("test_")}
    found = unreferenced_publics(package, bench)
    assert sorted(set(found) - PUBLIC_API) == []
    assert sorted(PUBLIC_API - set(found)) == []  # stale allowlist entries


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


# parameters with a default that no call in the package or the benchmark
# passes, and why each stays a parameter instead of becoming a constant
KEPT_DEFAULTS = {
    "analysis.py:linearize(x_full)":
        "tests linearize at their own operating points",
    "analysis.py:linearize(u0)":
        "tests linearize at their own operating points",
    "cli.py:main(argv)": "None reads the command line; tests pass argv",
    "identify.py:identify_thrust_response(axis)":
        "axis 2 identifies the vertical thrust weight",
}


def _call_name(node):
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _bound_once(tree) -> dict:
    """The value of each name that the source binds once, by a plain
    ``name = value``, so that a ``**name`` forward reads as that value."""
    stores = Counter(n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                     and isinstance(n.ctx, ast.Store))
    return {n.targets[0].id: n.value for n in ast.walk(tree)
            if isinstance(n, ast.Assign) and len(n.targets) == 1
            and isinstance(n.targets[0], ast.Name)
            and stores[n.targets[0].id] == 1}


def _forwarded_keys(value, bound: dict):
    """The keywords that ``**value`` passes: the keys of a dict display, or
    of a comprehension over a literal tuple whose key is its loop name, or
    one name of its loop tuple; a name bound once reads as its value (see
    _bound_once). None (every keyword) for any other expression."""
    if isinstance(value, ast.Name):
        value = bound.get(value.id, value)
    if isinstance(value, ast.Dict):
        # a None key is a nested ** and leaves the keys unknown
        if all(isinstance(k, ast.Constant) for k in value.keys):
            return {k.value for k in value.keys}
    elif (isinstance(value, ast.DictComp) and len(value.generators) == 1
          and isinstance(value.key, ast.Name)
          and isinstance(value.generators[0].iter, ast.Tuple)):
        gen = value.generators[0]
        target, elts = gen.target, gen.iter.elts
        if isinstance(target, ast.Name) and target.id == value.key.id:
            keys = elts
        elif isinstance(target, ast.Tuple):
            names = [getattr(t, "id", None) for t in target.elts]
            if names.count(value.key.id) != 1:
                return None
            i = names.index(value.key.id)
            keys = [e.elts[i] if isinstance(e, ast.Tuple)
                    and len(e.elts) == len(names) else None for e in elts]
        else:
            return None
        if all(isinstance(k, ast.Constant) for k in keys):
            return {k.value for k in keys}
    return None


def passed_arguments(sources) -> defaultdict:
    """The keywords and positions that the calls in the sources pass, per
    called name: directly, through functools.partial or through
    checked_call(section, fn, ...). dataclasses.replace passes its keywords
    under "replace". A ** of keys that _forwarded_keys reads passes those
    keys, any other ** None (every keyword); a * passes "*" (every
    position)."""
    passed = defaultdict(set)
    for src in sources:
        tree = ast.parse(src)
        bound = _bound_once(tree)
        for n in ast.walk(tree):
            if not isinstance(n, ast.Call):
                continue
            name, args = _call_name(n.func), n.args
            if name == "partial" and args:
                name, args = _call_name(args[0]), args[1:]
            elif name == "checked_call" and len(args) > 1:
                name, args = _call_name(args[1]), args[2:]
            passed[name].update(range(len(args)))
            for k in n.keywords:
                keys = {k.arg} if k.arg else _forwarded_keys(k.value, bound)
                passed[name].update({None} if keys is None else keys)
            if any(isinstance(a, ast.Starred) for a in args):
                passed[name].add("*")
    return passed


def unpassed_defaults(package: dict, others: dict) -> list:
    """Parameters with a default, of the package's functions and methods,
    that no call in either set passes (passed_arguments): by keyword, by
    position, through functools.partial or checked_call, or through a **
    forward. Calls match functions by name."""
    passed = passed_arguments([*package.values(), *others.values()])
    found = []
    for module, src in package.items():
        tree = ast.parse(src)
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            a, got = fn.args, passed[fn.name]
            pos = a.posonlyargs + a.args
            shift = int(id(fn) in methods)  # self is not in the call
            params = [(p.arg, i - shift, "*") for i, p in enumerate(pos)
                      if i >= len(pos) - len(a.defaults)]
            params += [(p.arg, p.arg, p.arg) for p, d in
                       zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            found += [f"{module}:{fn.name}({arg})" for arg, i, star in params
                      if not {arg, i, star, None} & got]
    return sorted(found)


def test_guard_flags_an_unpassed_default():
    package = {"a.py": ("def f(x, by_pos=1, by_kw=2, gone=3):\n    pass\n"
                        "def g(x, *, forwarded=1):\n    pass\n"
                        "def h(x, via_partial=1, unused=2):\n    pass\n"
                        "def j(x, in_dict=1, in_comp=2, hidden=3):\n"
                        "    pass\n"
                        "class K:\n"
                        "    def m(self, by_pos=1, gone_too=2):\n"
                        "        pass\n"),
               "b.py": ("from functools import partial\n"
                        "from .a import K, f, g, h, j\n"
                        "f(0, 1, by_kw=2)\nK().m(1)\n"
                        "partial(h, 0, via_partial=1)()\n"
                        "j(0, **{'in_dict': 1})\n"
                        "j(0, **{k: 1 for k in ('in_comp',) if k})\n")}
    others = {"run.py": "from swarmlift.a import g\ng(0, **options)\n"}
    assert unpassed_defaults(package, others) == [
        "a.py:f(gone)", "a.py:h(unused)", "a.py:j(hidden)",
        "a.py:m(gone_too)"]


def test_no_unpassed_defaults():
    package = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    bench = {path.name: path.read_text() for path in sorted(BENCH.glob("*.py"))
             if not path.name.startswith("test_")}
    found = unpassed_defaults(package, bench)
    assert sorted(set(found) - set(KEPT_DEFAULTS)) == []
    assert sorted(set(KEPT_DEFAULTS) - set(found)) == []  # stale entries


# module-level scipy imports of the package, and why each is paid at import
SCIPY_AT_IMPORT = {
    "admittance.py:scipy.linalg": "expm runs in every simulation",
}


def module_level_scipy_imports(sources: dict) -> list:
    """``module:scipy...`` for every import of scipy at module level, that
    is, outside any function body."""
    found = []
    for module, src in sources.items():
        nodes = list(ast.parse(src).body)
        while nodes:
            node = nodes.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.Import):
                found += [f"{module}:{a.name}" for a in node.names
                          if a.name.split(".")[0] == "scipy"]
            elif (isinstance(node, ast.ImportFrom) and node.module
                  and node.module.split(".")[0] == "scipy"):
                found.append(f"{module}:{node.module}")
            nodes.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_guard_flags_a_module_level_scipy_import():
    sources = {"a.py": ("import numpy\nimport scipy.signal as ss\n"
                        "def f():\n    from scipy.optimize import root\n"),
               "b.py": ("try:\n    from scipy.stats import norm\n"
                        "except ImportError:\n    norm = None\n"
                        "class K:\n    import scipy\n")}
    assert module_level_scipy_imports(sources) == [
        "a.py:scipy.signal", "b.py:scipy", "b.py:scipy.stats"]


def test_scipy_is_imported_at_module_level_only_where_listed():
    sources = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    found = set(module_level_scipy_imports(sources))
    assert sorted(found - set(SCIPY_AT_IMPORT)) == []
    assert sorted(set(SCIPY_AT_IMPORT) - found) == []  # stale entries


def toolchain_fallbacks(sources: dict) -> list:
    """``module:line`` of every second path for another toolchain: an
    except clause that catches ImportError or ModuleNotFoundError, and a
    getattr or hasattr call on ``np`` or ``numpy``."""
    found = []
    for module, src in sources.items():
        for n in ast.walk(ast.parse(src)):
            if isinstance(n, ast.ExceptHandler) and n.type is not None:
                types = (n.type.elts if isinstance(n.type, ast.Tuple)
                         else [n.type])
                if {_call_name(t) for t in types} & {"ImportError",
                                                     "ModuleNotFoundError"}:
                    found.append((module, n.lineno))
            elif (isinstance(n, ast.Call)
                  and _call_name(n.func) in ("getattr", "hasattr")
                  and n.args and isinstance(n.args[0], ast.Name)
                  and n.args[0].id in ("np", "numpy")):
                found.append((module, n.lineno))
    return [f"{module}:{line}" for module, line in sorted(found)]


def test_guard_flags_a_toolchain_fallback():
    sources = {"a.py": ("try:\n    import tomllib\nexcept ImportError:\n"
                        "    tomllib = None\n"
                        "try:\n    import yaml\n"
                        "except (OSError, ModuleNotFoundError):\n    pass\n"
                        "try:\n    x = 1\nexcept ValueError:\n    pass\n"),
               "b.py": ("import numpy as np\nimport numpy\n"
                        "f = getattr(np, 'matvec', None)\n"
                        "ok = hasattr(numpy, 'matvec')\n"
                        "g = getattr(buf, 'read', None)\n")}
    assert toolchain_fallbacks(sources) == ["a.py:3", "a.py:7", "b.py:3",
                                            "b.py:4"]


def test_no_toolchain_fallbacks():
    # pyproject.toml declares the numpy that every path needs
    sources = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    assert toolchain_fallbacks(sources) == []


IMPORT_PROBE = """
import sys
import numpy as np
from swarmlift import (analysis, cli, identify, mu, oracles, scenario,
                       simulate, sweep, uncertainty)
heavy = ("scipy.signal", "scipy.optimize", "scipy.stats", "scipy.interpolate")
print(sorted(m for m in heavy if m in sys.modules))
w = np.logspace(-2, 2, 25)
r = 0.3 * w / (1 + 0.2 * w)
weight = uncertainty.fit_bounding_weight(w, r)
print(bool(np.all(np.abs(weight.freq_response(w)[:, 0, 0]) >= r - 1e-12)))
"""


def test_importing_the_package_loads_no_heavy_scipy_subpackage():
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                         capture_output=True, text=True, check=True)
    # nothing heavy at import, and fit_bounding_weight still fits a bound
    assert out.stdout.splitlines() == ["[]", "True"]


def schema_gaps(schema: dict, init_fields, sections: dict, doc: str) -> list:
    """What a new scenario field could skip: init fields with no schema
    entry and entries that are no init field, schema paths that the
    docstring does not name, and parameter sections that it names neither
    as ``section.*`` nor key by key."""
    def named(path):
        return re.search(rf"(?<![\w.]){re.escape(path)}(?!\w)", doc)

    gaps = [f"field {name}" for name in sorted(set(init_fields) ^ set(schema))]
    gaps += [f"path {path}" for path, *_ in schema.values() if not named(path)]
    gaps += [f"section {section}" for section, keys in sections.items()
             if not (named(f"{section}.*")
                     or all(named(f"{section}.{key}") for key in keys))]
    return gaps


def test_guard_flags_a_schema_gap():
    schema = {"duration": ("duration", None),
              "ctrl_rate": ("rates.controller", None),
              "gone": ("gone", None)}
    doc = "duration  s\nrates.controllers  Hz\nmav.*\npayload.mass  kg\n"
    sections = {"mav": ("m",), "payload": ("mass", "side")}
    assert schema_gaps(schema, ["duration", "ctrl_rate", "new"], sections,
                       doc) == ["field gone", "field new",
                                "path rates.controller", "path gone",
                                "section payload"]


def test_scenario_schema_covers_every_field_and_is_documented():
    from dataclasses import fields

    from swarmlift import scenario

    # n_agents is checked before the payload is built from it; payload, mav
    # and adm are parameter objects built from their sections
    init = [f.name for f in fields(scenario.Scenario) if f.init
            and f.name not in ("n_agents", "payload", "mav", "adm")]
    assert schema_gaps(scenario.SCHEMA, init, scenario.PARAM_SECTIONS,
                       scenario.__doc__) == []


def parameter_dataclasses(sources: dict) -> dict:
    """``module:Class`` of every dataclass named ``*Params``, ``Scenario``
    or ``AnalysisConfig``, and whether its decorator passes
    ``frozen=True``."""
    found = {}
    for module, src in sources.items():
        for node in ast.walk(ast.parse(src)):
            if not (isinstance(node, ast.ClassDef) and (
                    node.name.endswith("Params")
                    or node.name in ("Scenario", "AnalysisConfig"))):
                continue
            for dec in node.decorator_list:
                call = dec if isinstance(dec, ast.Call) else None
                if _call_name(call.func if call else dec) == "dataclass":
                    found[f"{module}:{node.name}"] = any(
                        k.arg == "frozen" and isinstance(k.value, ast.Constant)
                        and k.value.value is True
                        for k in (call.keywords if call else []))
    return found


def test_guard_flags_an_unfrozen_parameter_class():
    sources = {"a.py": ("from dataclasses import dataclass\n"
                        "@dataclass\nclass MavParams:\n    m: float\n"
                        "@dataclass(frozen=True)\nclass GoodParams:\n"
                        "    m: float\n"
                        "@dataclass(eq=False)\nclass Scenario:\n"
                        "    n: int\n"
                        "@dataclass\nclass RunState:\n    t: float\n"
                        "@dataclass\nclass AnalysisConfig:\n"
                        "    n: int\n"
                        "class PlainParams:\n    pass\n"),
               "b.py": ("import dataclasses\n"
                        "@dataclasses.dataclass(frozen=False)\n"
                        "class LooseParams:\n    m: float\n")}
    assert parameter_dataclasses(sources) == {
        "a.py:MavParams": False, "a.py:GoodParams": True,
        "a.py:Scenario": False, "a.py:AnalysisConfig": False,
        "b.py:LooseParams": False}


def test_parameter_dataclasses_are_frozen():
    sources = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    found = parameter_dataclasses(sources)
    assert sorted(name for name, frozen in found.items() if not frozen) == []
    assert {"mav.py:MavParams", "payload.py:PayloadParams",
            "admittance.py:AdmittanceParams", "scenario.py:Scenario",
            "analysis.py:AnalysisConfig"} <= set(found)


# dataclass fields that nothing in the package or the benchmark reads, and
# why each stays a field
UNREAD_FIELDS = {
    "identify.py:SingleMavTrace.p": "trace output; the golden digests pin it",
    "identify.py:SingleMavTrace.v": "trace output; the golden digests pin it",
    "identify.py:SingleMavTrace.eta":
        "trace output; the golden digests pin it",
}


def _is_dataclass(node) -> bool:
    return any(_call_name(dec.func if isinstance(dec, ast.Call) else dec)
               == "dataclass" for dec in node.decorator_list)


def unread_fields(package: dict, others: dict) -> list:
    """``module:Class.field`` of every field of the package's dataclasses
    whose name no module of either set reads as an attribute. Writes
    (``obj.field = ...``, ``obj.field += ...``) and keywords do not count;
    reads match fields by name, as calls match functions."""
    read = Counter()
    for src in [*package.values(), *others.values()]:
        for n in ast.walk(ast.parse(src)):
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read[n.attr] += 1
    return sorted(
        f"{module}:{cls.name}.{node.target.id}"
        for module, src in package.items()
        for cls in ast.walk(ast.parse(src))
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
        for node in cls.body
        if isinstance(node, ast.AnnAssign)
        and isinstance(node.target, ast.Name) and not read[node.target.id])


def test_guard_flags_an_unread_field():
    package = {"a.py": ("import dataclasses\n"
                        "from dataclasses import dataclass\n"
                        "@dataclass\nclass State:\n"
                        "    used: int\n    by_bench: int = 0\n"
                        "    counted: int = 0\n    gone: float = 1.0\n"
                        "@dataclasses.dataclass(frozen=True)\n"
                        "class Params:\n    set_only: float\n"
                        "class Plain:\n    ignored: int\n"),
               "b.py": ("from .a import State\n"
                        "s = State(used=1, gone=2.0)\n"
                        "s.counted += 1\nprint(s.used)\n")}
    others = {"run.py": "from swarmlift.a import State\nState(1).by_bench\n"}
    assert unread_fields(package, others) == [
        "a.py:Params.set_only", "a.py:State.counted", "a.py:State.gone"]


def test_no_unread_dataclass_fields():
    package = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    bench = {path.name: path.read_text() for path in sorted(BENCH.glob("*.py"))
             if not path.name.startswith("test_")}
    found = unread_fields(package, bench)
    assert sorted(set(found) - set(UNREAD_FIELDS)) == []
    assert sorted(set(UNREAD_FIELDS) - set(found)) == []  # stale entries


# constructor arguments with a default that no call in the package or the
# benchmark passes, and why each stays an argument instead of a constant
KEPT_FIELDS = {}


def _init_fields(cls):
    """(name, whether it has a default) of each __init__ field of a
    dataclass, in order; a field(init=False) is none."""
    for node in cls.body:
        if not (isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)):
            continue
        spec = ({k.arg: k.value for k in node.value.keywords}
                if isinstance(node.value, ast.Call)
                and _call_name(node.value.func) == "field" else None)
        if spec is None:
            yield node.target.id, node.value is not None
        elif not (isinstance(spec.get("init"), ast.Constant)
                  and spec["init"].value is False):
            yield node.target.id, bool({"default", "default_factory"}
                                       & set(spec))


def unpassed_fields(package: dict, others: dict) -> list:
    """``module:Class.field`` of every __init__ field with a default, of
    the package's dataclasses, that no call in either set passes
    (passed_arguments): by keyword or position to the class, through
    functools.partial or checked_call, or through a ** forward; or by
    keyword to dataclasses.replace, whose keywords match fields by name, as
    calls match classes."""
    passed = passed_arguments([*package.values(), *others.values()])
    return sorted(
        f"{module}:{cls.name}.{name}" for module, src in package.items()
        for cls in ast.walk(ast.parse(src))
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
        for i, (name, default) in enumerate(_init_fields(cls))
        if default and not ({name, i, "*", None} & passed[cls.name]
                            or {name, None} & passed["replace"]))


def test_guard_flags_an_unpassed_field():
    package = {"a.py": ("from dataclasses import dataclass, field\n"
                        "@dataclass\nclass K:\n"
                        "    x: int\n    required: int = field(repr=False)\n"
                        "    by_pos: int = 0\n"
                        "    by_kw: int = 0\n    gone: int = 0\n"
                        "    derived: int = field(init=False, default=0)\n"
                        "    listed: list = field(default_factory=list)\n"
                        "    in_comp: int = 0\n    in_name: int = 0\n"
                        "    by_replace: int = 0\n"
                        "    gone_too: float = field(default=1.0)\n"
                        "@dataclass(frozen=True)\nclass P:\n"
                        "    via_partial: int = 0\n    via_check: int = 0\n"
                        "    unused: int = 0\n"
                        "@dataclass\nclass Q:\n    anything: int = 0\n"
                        "class Plain:\n    ignored: int = 0\n"),
               "b.py": ("import dataclasses\nfrom functools import partial\n"
                        "from .a import K, P, Q\n"
                        "k = K(0, 1, 2, by_kw=3, listed=[],\n"
                        "      **{f: 1 for f in ('in_comp',)})\n"
                        "extra = {f: v for v, f in ((1, 'in_name'),) if v}\n"
                        "K(0, 1, **extra)\n"
                        "dataclasses.replace(k, by_replace=3)\n"
                        "partial(P, via_partial=1)()\n"
                        "checked_call('p', P, via_check=1)\n")}
    others = {"run.py": "from swarmlift.a import Q\nQ(**options)\n"}
    assert unpassed_fields(package, others) == [
        "a.py:K.gone", "a.py:K.gone_too", "a.py:P.unused"]


def test_no_unpassed_fields():
    package = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    bench = {path.name: path.read_text() for path in sorted(BENCH.glob("*.py"))
             if not path.name.startswith("test_")}
    found = unpassed_fields(package, bench)
    assert sorted(set(found) - set(KEPT_FIELDS)) == []
    assert sorted(set(KEPT_FIELDS) - set(found)) == []  # stale entries
