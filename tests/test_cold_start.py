"""The package imports nothing but numpy and the standard library.

Every ``python -m repro`` command and every benchmark repetition pays
for what ``import repro`` loads before it simulates a cycle.  A fresh
interpreter imports every module of the package (``repro.__main__``,
the sweep tasks and the fault campaign among them); each top-level
module that appears in ``sys.modules`` must then be ``numpy``,
``repro`` or part of the standard library.

Within the package, each module loads only what it uses: a package
``__init__`` re-exports nothing, so importing one module does not
import its whole package, and heavy standard-library stacks
(``http.server``, the process pool) load only where they are used.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

PROBE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(name for name in added if not name.startswith("_"))))
"""

ALLOWED = {"numpy", "repro"}


def test_the_package_imports_nothing_but_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120).stdout
    loaded = json.loads(out.splitlines()[-1])
    assert "repro" in loaded
    foreign = [name for name in loaded
               if name not in sys.stdlib_module_names
               and name not in ALLOWED]
    assert foreign == []


# ----------------------------------------------------------------------
# import graph: each module loads only what it uses
# ----------------------------------------------------------------------

LOADED = """
import importlib, json, sys
importlib.import_module(sys.argv[1])
print(json.dumps(sorted(sys.modules)))
"""


def _loaded_by(module: str) -> set[str]:
    """Every module a fresh interpreter holds after ``import module``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", LOADED, module], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120).stdout
    return set(json.loads(out.splitlines()[-1]))


@pytest.mark.parametrize("module, absent", [
    ("repro.serve.daemon", ["http.server", "concurrent.futures.process",
                            "repro.multicore", "repro.workloads",
                            "repro.analysis.tasks"]),
    ("repro.core.system", ["repro.serve", "repro.faults", "http.server"]),
    ("repro.faults.campaign", ["repro.serve", "http.server"]),
    ("repro.analysis.tasks", ["repro.core.system", "repro.multicore"]),
])
def test_a_module_loads_only_what_it_uses(module, absent):
    loaded = _loaded_by(module)
    assert module in loaded
    assert [name for name in absent if name in loaded] == []


#: The package ``__init__`` files that import their own submodules, and
#: the names each may list in ``__all__`` without defining them.
#: ``repro.obs`` builds ``Obs``/``NULL_OBS`` from four backends and
#: ``repro.workloads`` its factory table from the five classes;
#: ``repro.serve`` names three classes perfbench imports from it.
OWN_IMPORTS = {"repro.obs": set(), "repro.workloads": set(),
               "repro.serve": {"ReplicaSet", "ServeConfig", "ServeDaemon"}}


def _package_inits():
    for init in sorted((SRC / "repro").rglob("__init__.py")):
        package = ".".join(init.parent.relative_to(SRC).parts)
        yield package, ast.parse(init.read_text())


def _defined(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets
                         if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign):
            names.add(node.target.id)
    return names


def _all(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_package_inits_re_export_nothing():
    packages = dict(_package_inits())
    assert set(OWN_IMPORTS) <= set(packages)
    for package, tree in packages.items():
        imported = [node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)]
        imported += [alias.name for node in ast.walk(tree)
                     if isinstance(node, ast.Import)
                     for alias in node.names]
        own = [name for name in imported
               if name and name.startswith(package + ".")]
        if package not in OWN_IMPORTS:
            assert own == [], package
        foreign = _all(tree) - _defined(tree) - OWN_IMPORTS.get(package, set())
        assert foreign == set(), package
