#!/usr/bin/env python3
"""Watch Algorithm 1 partition the fabric under mixed load.

Co-simulates the Flumen network with the scheduler while communication
traffic ramps up and down; compute requests arrive throughout.  The
timeline shows partitions forming during lulls and being refused while the
network is hot — the paper's "dynamic adaptability" contribution.

Run:  python examples/dynamic_partitioning.py
"""

import numpy as np

from repro.config import SchedulerConfig, SystemConfig
from repro.core.accelerator import BlockMatmul, plan_offload
from repro.core.control_unit import ComputeRequest, MZIMControlUnit
from repro.core.scheduler import FlumenScheduler
from repro.noc.simulation import make_network
from repro.noc.traffic import TrafficGenerator

PHASES = [  # (cycles, offered load) — a bursty application profile
    (600, 0.05),
    (600, 0.55),
    (600, 0.08),
    (600, 0.60),
    (600, 0.03),
]


def main() -> None:
    system = SystemConfig().replace(
        scheduler=SchedulerConfig(tau_cycles=100, eta=0.40, zeta=0.50))
    net = make_network("flumen", 16)
    control = MZIMControlUnit(net, system)
    scheduler = FlumenScheduler(control, system)
    control.matrix_memory.store("kernel", BlockMatmul(np.eye(8), 8))
    plan = plan_offload(8, 8, 512, 8, 8)

    rng = np.random.default_rng(5)

    def request_compute(cycle: int) -> None:
        # A node asks for compute every ~150 cycles if advised to.
        if cycle % 150 == 0 and control.advise_offload():
            request = ComputeRequest(
                node=int(rng.integers(16)), plan=plan,
                matrix_key="kernel", submit_cycle=cycle, ports_needed=4)
            control.submit(request, cycle)

    print(" cycle | load | buf util | partitions | granted/completed")
    print("-" * 62)
    for cycles, load in PHASES:
        traffic = TrafficGenerator(16, "uniform", load, seed=net.cycle + 1)
        scheduler.run(cycles, traffic, before_tick=request_compute)
        util = net.buffer_utilization(scan_depth=0.5)
        print(f"{net.cycle:6d} | {load:.2f} | {util:8.2f} | "
              f"{len(scheduler.active):10d} | "
              f"{scheduler.stats.granted}/{scheduler.stats.completed}")

    scheduler.drain()
    stats = scheduler.stats
    print("-" * 62)
    print(f"requests submitted: {control.requests_received}, "
          f"granted: {stats.granted}, "
          f"completed: {stats.completed}")
    print(f"average grant wait: {stats.average_wait:.0f} cycles "
          f"(tau = {system.scheduler.tau_cycles})")
    print(f"packets delivered: {net.latency.received}, "
          f"average latency: {net.latency.average:.1f} cycles")
    print("\nDuring high-load phases the Partitioner defers compute "
          "(beta > eta); during lulls it grants partitions within one tau.")


if __name__ == "__main__":
    main()
