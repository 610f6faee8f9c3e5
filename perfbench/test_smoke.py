"""Smoke test of the benchmark at its tiny size.

Checks that every metric ``BENCHMARK.json`` names is emitted with its
unit, that a tampered digest pin is reported as a failed operation, and
that the benchmark refuses to run without the program's source.  Run
from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, *extra: str,
          root: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "0",
         "--trace", str(trace), "--size", "tiny", *extra],
        cwd=root, text=True, stdout=subprocess.PIPE, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, group", [(0, "end_to_end"),
                                          (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, group):
    result = result_of(bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if group == "end_to_end":
        assert all(v > 0 for v in values)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tampered_digest_is_a_failed_operation(workload, tmp_path):
    pins = json.loads((HERE / "pins.json").read_text())
    digest = pins[workload]["tiny"]["0"]
    pins[workload]["tiny"]["0"] = \
        ("1" if digest[0] == "0" else "0") + digest[1:]
    tampered = tmp_path / "pins.json"
    tampered.write_text(json.dumps(pins))
    result = result_of(bench(workload, 0, "--pins", str(tampered)))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, root=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
