"""The package imports nothing but numpy and the standard library.

Every ``python -m repro`` command and every benchmark repetition pays
for what ``import repro`` loads before it simulates a cycle.  A fresh
interpreter imports every module of the package (``repro.__main__``,
the sweep tasks and the fault campaign among them); each top-level
module that appears in ``sys.modules`` must then be ``numpy``,
``repro`` or part of the standard library.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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
