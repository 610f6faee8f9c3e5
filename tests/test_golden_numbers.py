"""Golden-numbers regression guard for the end-to-end system model.

Pins :class:`~repro.core.system.SystemModel` runtime/energy outputs for
one small workload across all five configurations at a fixed traffic
seed.  The values were generated on the pre-kernel-refactor code and
must remain bit-identical afterwards: the NoP simulation kernel /
pipeline-registry refactor is required to be a pure restructuring with
no numeric drift.

If a deliberate modelling change moves these numbers, regenerate them
with the snippet in this module's docstring history (run each
configuration through a fresh ``SystemModel()`` on
``ImageBlur(height=64, width=64)``) and say so in the commit message.
"""

import pytest

from repro.core.system import SystemModel
from repro.workloads import ImageBlur

#: Exact outputs of SystemModel() on ImageBlur(64x64),
#: captured at commit 00a9445 (pre-refactor seed state).
GOLDEN = {
    "ring": dict(
        runtime_s=1.8732475e-05, energy_total_j=4.5759382400000005e-05,
        core_cycles=46831.1875, comm_cycles=46831.1875,
        mzim_cycles=0.0, avg_packet_latency=14.370119729307651,
        offloaded_macs=0, nop_j=2.06282304e-05, mzim_j=0.0),
    "mesh": dict(
        runtime_s=1.8732475e-05, energy_total_j=3.21208832e-05,
        core_cycles=46831.1875, comm_cycles=46831.1875,
        mzim_cycles=0.0, avg_packet_latency=9.122852680895367,
        offloaded_macs=0, nop_j=6.9897312e-06, mzim_j=0.0),
    "optbus": dict(
        runtime_s=1.8732475e-05, energy_total_j=2.6121370142599574e-05,
        core_cycles=46831.1875, comm_cycles=46831.1875,
        mzim_cycles=0.0, avg_packet_latency=9.0,
        offloaded_macs=0, nop_j=9.90218142599571e-07, mzim_j=0.0),
    "flumen_i": dict(
        runtime_s=1.8732475e-05, energy_total_j=2.6348108327929427e-05,
        core_cycles=46831.1875, comm_cycles=46831.1875,
        mzim_cycles=0.0, avg_packet_latency=7.0,
        offloaded_macs=0, nop_j=1.2169563279294245e-06, mzim_j=0.0),
    "flumen_a": dict(
        runtime_s=6.4565625e-06, energy_total_j=1.4812613845476524e-05,
        core_cycles=16141.40625, comm_cycles=16141.40625,
        mzim_cycles=3456.0, avg_packet_latency=452.0890161374284,
        offloaded_macs=331776, nop_j=1.037732605021222e-06,
        mzim_j=6.761624045530124e-08),
}


@pytest.fixture(scope="module")
def golden_runs():
    model = SystemModel()
    workload = ImageBlur(height=64, width=64)
    return {cfg: model.run(workload, cfg) for cfg in GOLDEN}


@pytest.mark.parametrize("configuration", sorted(GOLDEN))
def test_golden_numbers_unchanged(golden_runs, configuration):
    run = golden_runs[configuration]
    want = GOLDEN[configuration]
    assert run.runtime_s == want["runtime_s"]
    assert run.energy.total == want["energy_total_j"]
    assert run.core_cycles == want["core_cycles"]
    assert run.comm_cycles == want["comm_cycles"]
    assert run.mzim_cycles == want["mzim_cycles"]
    assert run.avg_packet_latency == want["avg_packet_latency"]
    assert run.offloaded_macs == want["offloaded_macs"]
    assert run.energy.nop == want["nop_j"]
    assert run.energy.mzim == want["mzim_j"]
