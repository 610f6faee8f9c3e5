"""Slow reference twins live in ``tests/``, not in the shipped package.

The fast kernels in ``src/repro`` are pinned against their slow
references by the equivalence suites (``tests/reference_*.py``).  These
checks keep the references out of production code: no module defines a
``_reference*`` name, only ``mesh_wf`` reaches a per-object network, and
``repro perf``'s NoC benchmarks build only the struct-of-arrays kernels.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.analysis import perf
from repro.noc.flumen_net import FlumenNetwork
from repro.noc.network import Network
from repro.noc.optbus import OptBusNetwork

SRC = Path(repro.__file__).resolve().parent


def _defined_names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Store):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name


def test_no_reference_names_in_src():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [f"{path.relative_to(SRC)}: {name}"
             for path in modules
             for name in _defined_names(ast.parse(path.read_text()))
             if name.startswith("_reference")]
    assert found == []


#: The per-object NoC simulators, kept under ``src/`` only as oracles.
PER_OBJECT_NOC = {"repro.noc.network", "repro.noc.router",
                  "repro.noc.flumen_net", "repro.noc.optbus"}


def test_only_mesh_wf_imports_a_per_object_network():
    # ``noc_latency`` runs ``mesh_wf`` on the per-object ``Network``:
    # the SoA router network has no per-flit routing.  Nothing else
    # outside the per-object modules themselves may import them.
    importers = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        if "repro." + ".".join(rel.with_suffix("").parts) in PER_OBJECT_NOC:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = {node.module}
            elif isinstance(node, ast.Import):
                names = {alias.name for alias in node.names}
            else:
                continue
            if names & PER_OBJECT_NOC:
                importers.append(str(rel))
    assert importers == ["analysis/tasks.py"]


def test_perf_noc_benches_build_no_per_object_network(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"repro perf built a {type(self).__name__}")

    for oracle in (Network, FlumenNetwork, OptBusNetwork):
        monkeypatch.setattr(oracle, "__init__", refuse)
    with pytest.raises(AssertionError, match="built a Network"):
        Network(None)
    payload = perf.run_suite(small=True, only="noc_")
    assert sorted(payload["benchmarks"]) == [
        "noc_idle_run/mesh64", "noc_step/mesh16_load08",
        "noc_trace_replay/mesh16_bursty"]
