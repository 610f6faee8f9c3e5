"""Full-stack integration: Algorithm 1 drives a *numerical* offload.

Ties every layer together: a node submits a matmul job; the scheduler
grants a fabric partition while background traffic keeps flowing in the
other half; the partition's SVD circuits are physically programmed from
matrix memory; the optical result matches NumPy; the partition is torn
down and communication resumes over the freed ports.
"""

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.core.accelerator import BlockMatmul
from repro.core.control_unit import ComputeRequest, MZIMControlUnit
from repro.core.scheduler import FlumenScheduler
from repro.noc.simulation import make_network
from repro.noc.packet import Packet
from repro.photonics.fabric import FlumenFabric, PartitionKind


@pytest.fixture
def stack():
    system = SystemConfig()
    net = make_network("flumen", 16)
    control = MZIMControlUnit(net, system)
    scheduler = FlumenScheduler(control, system)
    fabric = FlumenFabric(system.mzim_ports)
    return system, net, control, scheduler, fabric


def test_end_to_end_offload(stack):
    system, net, control, scheduler, fabric = stack
    rng = np.random.default_rng(0)

    # 1. The node precomputes phases into matrix memory (Section 3.3.3).
    matrix = rng.standard_normal((4, 4))
    vectors = rng.standard_normal((4, 6))
    matmul = BlockMatmul(matrix, mzim_size=4)
    control.matrix_memory.store("job", matmul)

    # 2. Submit the compute request over the arbitration waveguide.
    request = ComputeRequest(node=0, plan=matmul.plan(6),
                             matrix_key="job", submit_cycle=0,
                             ports_needed=4)
    assert control.advise_offload()
    control.submit(request, 0)

    for cycle in range(5):
        scheduler.tick()
        net.step()
    assert scheduler.stats.granted == 1
    comp = scheduler.active[0]

    # 4. Physically program the granted fabric partition and compute.
    partition = fabric.split(comp.lo_port, comp.hi_port)
    program = fabric.program_compute(partition, matrix)
    optical = program.apply(vectors.astype(complex)).real
    assert np.allclose(optical, matrix @ vectors, atol=1e-9)
    assert fabric.compute_configs == 1
    assert fabric.reconfiguration_time_s == pytest.approx(
        system.compute.mzim_switch_delay_s)

    # 5. Communication still flows in the other half while computing.
    blocked = control.port_range_endpoints(comp.lo_port, comp.hi_port)
    free = sorted(set(range(16)) - blocked)
    net.offer_packet(Packet(src=free[0], dst=free[-1], size_flits=4,
                            create_cycle=net.cycle))
    for _ in range(30):
        scheduler.tick()
        net.step()
    assert net.latency.received >= 1

    # 6. Result return + teardown: the gather configuration and release.
    fabric.configure_gather(partition, comp.lo_port)
    fabric.release(partition)
    assert all(p.kind is PartitionKind.COMMUNICATION
               for p in fabric.partitions)
    scheduler.drain()
    assert scheduler.stats.completed == 1
    assert not net.blocked_ports

    # 7. The freed ports carry traffic again.
    src, dst = sorted(blocked)[0], sorted(blocked)[-1]
    net.offer_packet(Packet(src=src, dst=dst, size_flits=2,
                            create_cycle=net.cycle))
    for _ in range(50):
        net.step()
        if net.quiescent():
            break
    assert net.quiescent()


def test_offload_declined_under_load_then_granted(stack):
    system, net, control, scheduler, fabric = stack
    rng = np.random.default_rng(2)
    matmul = BlockMatmul(rng.standard_normal((4, 4)), mzim_size=4)
    control.matrix_memory.store("job", matmul)

    # Saturate the request buffers -> Partitioner defers (beta > eta).
    net.block_ports(set(range(16)))
    for src in range(16):
        for _ in range(12):
            net.offer_packet(Packet(src=src, dst=(src + 1) % 16,
                                    size_flits=4, create_cycle=0))
    control.submit(ComputeRequest(node=0, plan=matmul.plan(4),
                                  matrix_key="job", submit_cycle=0,
                                  ports_needed=4), 0)
    for _ in range(system.scheduler.tau_cycles + 5):
        scheduler.tick()
        net.step()
    assert scheduler.stats.granted == 0

    # Unblock; the backlog drains; the next tau evaluation grants.
    net.unblock_ports(set(range(16)))
    for _ in range(4000):
        scheduler.tick()
        net.step()
        if scheduler.stats.granted:
            break
    assert scheduler.stats.granted == 1
    scheduler.drain()
    assert scheduler.stats.completed == 1
    assert net.latency.received == net.injected_packets
