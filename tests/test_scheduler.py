"""Tests for the MZIM control unit and Algorithm 1 scheduler."""

import numpy as np
import pytest

from repro.config import SchedulerConfig, SystemConfig
from repro.core.accelerator import BlockMatmul, plan_offload
from repro.core.control_unit import (
    ComputeRequest,
    MatrixMemory,
    MZIMControlUnit,
)
from repro.core.scheduler import FlumenScheduler, compute_duration_cycles
from repro.noc.simulation import make_network
from repro.noc.packet import Packet


def small_plan(vectors=8):
    return plan_offload(8, 8, vectors, 8, 8)


def make_stack(scheduler_cfg: SchedulerConfig | None = None):
    system = SystemConfig() if scheduler_cfg is None else \
        SystemConfig().replace(scheduler=scheduler_cfg)
    net = make_network("flumen", 16)
    control = MZIMControlUnit(net, system)
    scheduler = FlumenScheduler(control, system)
    return net, control, scheduler


def submit(control, cycle=0, ports=4, vectors=8, node=0):
    bm = BlockMatmul(np.eye(8), 8)
    key = f"m{control.requests_received}"
    control.matrix_memory.store(key, bm)
    req = ComputeRequest(node=node, plan=small_plan(vectors),
                         matrix_key=key, submit_cycle=cycle,
                         ports_needed=ports)
    control.submit(req, cycle)
    return req


class TestMatrixMemory:
    def test_store_and_get(self):
        mem = MatrixMemory(16)
        bm = BlockMatmul(np.eye(4), 4)
        mem.store("id", bm)
        assert "id" in mem
        assert mem.get("id") is bm

    def test_missing_key_raises(self):
        with pytest.raises(KeyError):
            MatrixMemory().get("nope")

    def test_lru_eviction(self):
        mem = MatrixMemory(capacity_blocks=2)
        mem.store("a", BlockMatmul(np.eye(4), 4))   # 1 block
        mem.store("b", BlockMatmul(np.eye(4), 4))   # 1 block
        mem.get("a")  # touch a so b is LRU
        mem.store("c", BlockMatmul(np.eye(4), 4))
        assert "a" in mem and "c" in mem
        assert "b" not in mem

    def test_oversized_matrix_rejected(self):
        mem = MatrixMemory(capacity_blocks=1)
        with pytest.raises(ValueError):
            mem.store("big", BlockMatmul(np.ones((16, 16)), 4))


class TestControlUnit:
    def test_submit_requires_preloaded_matrix(self):
        _, control, _ = make_stack()
        req = ComputeRequest(node=0, plan=small_plan(), matrix_key="nope",
                             submit_cycle=0)
        with pytest.raises(KeyError):
            control.submit(req, 0)

    def test_submit_enqueues(self):
        _, control, _ = make_stack()
        submit(control)
        assert len(control.compute_buffer) == 1
        assert control.requests_received == 1

    def test_port_range_endpoints(self):
        _, control, _ = make_stack()
        # 16 endpoints over 8 fabric ports: 2 per port.
        assert control.port_range_endpoints(0, 4) == set(range(8))
        assert control.port_range_endpoints(4, 8) == set(range(8, 16))

    def test_request_too_many_ports_rejected(self):
        _, control, _ = make_stack()
        bm = BlockMatmul(np.eye(8), 8)
        control.matrix_memory.store("m", bm)
        req = ComputeRequest(node=0, plan=small_plan(), matrix_key="m",
                             submit_cycle=0, ports_needed=16)
        with pytest.raises(ValueError):
            control.submit(req, 0)

    def test_request_odd_ports_rejected(self):
        with pytest.raises(ValueError):
            ComputeRequest(node=0, plan=small_plan(), matrix_key="m",
                           submit_cycle=0, ports_needed=3)

    def test_advise_offload_on_idle_network(self):
        _, control, _ = make_stack()
        assert control.advise_offload()

    def test_advise_against_offload_when_hot(self):
        net, control, _ = make_stack()
        net.block_ports(set(range(16)))
        for src in range(8):
            for _ in range(32):
                net.offer_packet(Packet(src=src, dst=15, size_flits=1,
                                        create_cycle=0))
        # Top-zeta scan sees the 8 saturated buffers: utilization 1.0.
        assert not control.advise_offload(utilization_ceiling=0.8)


class TestDuration:
    def test_duration_includes_programming_and_windows(self):
        plan = small_plan(vectors=8)
        cycles = compute_duration_cycles(plan, SystemConfig())
        # 1 matrix switch x 15 cycles + 1 window at 5 GHz (>=1 cycle)
        # + return configuration + return flits.
        assert cycles >= 15 + 1 + 3

    def test_duration_grows_with_blocks(self):
        small = compute_duration_cycles(plan_offload(8, 8, 8, 8, 8),
                                        SystemConfig())
        large = compute_duration_cycles(plan_offload(64, 64, 8, 8, 8),
                                        SystemConfig())
        assert large > small * 10


class TestScheduler:
    def test_grant_on_idle_network(self):
        net, control, sched = make_stack()
        submit(control)
        sched.run(5)
        assert sched.stats.granted == 1
        assert net.blocked_ports == set(range(8))

    def test_completion_releases_ports(self):
        net, control, sched = make_stack()
        submit(control)
        sched.run(2000)
        sched.drain()
        assert sched.stats.completed == 1
        assert not net.blocked_ports

    def test_eta_threshold_blocks_grant(self):
        # Saturate the request buffers of the would-be partition nodes.
        cfg = SchedulerConfig(tau_cycles=10, eta=0.05, zeta=1.0)
        net, control, sched = make_stack(cfg)
        net.block_ports(set(range(16)))  # hold traffic in buffers
        for src in range(8):
            for _ in range(8):
                net.offer_packet(Packet(src=src, dst=15, size_flits=4,
                                        create_cycle=0))
        submit(control)
        for _ in range(30):
            sched.tick()
        assert sched.stats.granted == 0
        assert sched.stats.deferred_evaluations > 0

    def test_permissive_eta_grants(self):
        cfg = SchedulerConfig(tau_cycles=10, eta=0.9, zeta=0.5)
        net, control, sched = make_stack(cfg)
        for src in range(4):
            net.offer_packet(Packet(src=src, dst=15, size_flits=4,
                                    create_cycle=0))
        submit(control)
        sched.run(50)
        assert sched.stats.granted == 1

    def test_partition_waits_for_draining_circuits(self):
        net, control, sched = make_stack()
        # Long transfer occupying endpoint 0 (inside the partition).
        net.offer_packet(Packet(src=0, dst=3, size_flits=40, create_cycle=0))
        net.step()
        net.step()
        submit(control)
        sched.tick()  # grants and blocks, but cannot start yet
        assert sched.stats.granted == 1
        assert not sched.active[0].started
        sched.run(200)
        assert sched.active == [] or sched.active[0].started

    def test_two_partitions_coexist(self):
        net, control, sched = make_stack()
        submit(control, ports=4, vectors=4096)
        submit(control, ports=4, vectors=4096)
        sched.run(5)
        assert sched.stats.granted == 2
        ranges = sorted((c.lo_port, c.hi_port) for c in sched.active)
        assert ranges == [(0, 4), (4, 8)]

    def test_no_room_defers(self):
        net, control, sched = make_stack()
        submit(control, ports=8, vectors=4096)
        submit(control, ports=4)
        sched.run(5)
        assert sched.stats.granted == 1
        assert len(control.compute_buffer) == 1

    def test_duration_override_respected(self):
        net, control, sched = make_stack()
        bm = BlockMatmul(np.eye(8), 8)
        control.matrix_memory.store("m", bm)
        req = ComputeRequest(node=0, plan=small_plan(), matrix_key="m",
                             submit_cycle=0, ports_needed=4,
                             duration_override=7)
        control.submit(req, 0)
        sched.run(30)
        assert sched.stats.completed == 1
        assert sched.completions[req.request_id] <= 15

    def test_tau_spacing_of_partitioner(self):
        cfg = SchedulerConfig(tau_cycles=50, eta=0.4, zeta=0.5)
        net, control, sched = make_stack(cfg)
        sched.run(5)  # partitioner ran at cycle 0 only
        submit(control, cycle=5)
        sched.run(30)  # cycles 5..35: no tau boundary yet
        assert sched.stats.granted == 0
        sched.run(20)  # crosses cycle 50
        assert sched.stats.granted == 1

    def test_communication_flows_beside_partition(self):
        net, control, sched = make_stack()
        submit(control, ports=4, vectors=100000)
        sched.run(3)
        assert sched.stats.granted == 1
        # Endpoints 8..15 are free: traffic among them completes.
        net.offer_packet(Packet(src=9, dst=14, size_flits=4, create_cycle=0))
        sched.run(60)
        assert net.latency.received == 1
