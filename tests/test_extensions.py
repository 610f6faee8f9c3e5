"""Tests for the extension features: rendering, 4:2:0 JPEG, adaptive
routing."""

import numpy as np
import pytest

from repro.noc.network import Network
from repro.noc.topology import (
    LOCAL_PORT,
    MeshTopology,
    WestFirstMeshTopology,
    make_topology,
)
from repro.noc.traffic import TrafficGenerator
from repro.photonics.clements import decompose
from repro.photonics.fabric import FlumenFabric
from repro.photonics.render import render_fabric, render_mesh
from repro.photonics.routing import permutation_matrix
from repro.workloads.jpeg import JPEGWorkload, downsample_2x2, upsample_2x2


class TestRenderMesh:
    def test_crossbar_states_rendered(self):
        mesh = decompose(permutation_matrix([1, 0, 3, 2]))
        art = render_mesh(mesh)
        assert "X" in art or "=" in art
        assert art.count("\n") == 3  # 4 ports -> 4 lines

    def test_splitting_state_rendered(self):
        from repro.photonics.routing import program_broadcast
        art = render_mesh(program_broadcast(0, 4))
        assert "/" in art

    def test_port_labels_optional(self):
        mesh = decompose(np.eye(4))
        with_labels = render_mesh(mesh, port_labels=True)
        without = render_mesh(mesh, port_labels=False)
        assert with_labels != without


class TestRenderFabric:
    def test_partitioned_fabric_shows_barrier(self):
        fab = FlumenFabric(8)
        fab.split(4, 8, matrix=np.eye(4))
        fab.configure_communication({0: 3, 3: 0})
        art = render_fabric(fab)
        assert "barrier" in art
        assert "(compute)" in art
        assert "(comm)" in art
        assert "legend" in art

    def test_idle_fabric_renders(self):
        art = render_fabric(FlumenFabric(8))
        assert "(idle)" in art

    def test_attenuation_digits_reflect_equalization(self):
        fab = FlumenFabric(8)
        fab.configure_communication({0: 1, 2: 7})
        art = render_fabric(fab)
        digits = [line.split("| ")[1][0] for line in art.splitlines()
                  if "| " in line]
        assert any(d != "9" for d in digits) or \
            fab.attenuator_transmission.min() > 0.9


class TestChromaSubsampling:
    def test_downsample_shape(self):
        plane = np.arange(32 * 48, dtype=float).reshape(32, 48)
        small = downsample_2x2(plane)
        assert small.shape == (16, 24)

    def test_downsample_is_box_average(self):
        plane = np.zeros((16, 16))
        plane[0, 0] = 4.0
        assert downsample_2x2(plane)[0, 0] == pytest.approx(1.0)

    def test_upsample_inverts_shape(self):
        plane = np.random.default_rng(0).random((16, 16))
        assert upsample_2x2(downsample_2x2(plane)).shape == plane.shape

    def test_requires_divisible_dimensions(self):
        with pytest.raises(ValueError):
            downsample_2x2(np.ones((8, 8)))

    def test_420_improves_compression_ratio(self):
        wl = JPEGWorkload(height=64, width=64)
        assert wl.compression_ratio(subsample=True) > \
            wl.compression_ratio(subsample=False)

    def test_420_chroma_planes_quarter_size(self):
        wl = JPEGWorkload(height=64, width=64)
        planes = wl.compress(subsample=True)
        assert planes["cb"].height == 32
        assert planes["y"].height == 64


class TestWestFirstRouting:
    def test_factory_builds_it(self):
        topo = make_topology("mesh_wf", 16)
        assert isinstance(topo, WestFirstMeshTopology)

    def test_west_always_first(self):
        topo = WestFirstMeshTopology(16)
        # From (3,0) to (0,3): must head west regardless of randomness.
        for _ in range(10):
            assert topo.route(3, 12) == MeshTopology.WEST

    def test_adaptive_choice_among_productive_dims(self):
        topo = WestFirstMeshTopology(16, seed=1)
        # From (0,0) to (2,2): east or south, never west/north.
        seen = {topo.route(0, 10) for _ in range(50)}
        assert seen <= {MeshTopology.EAST, MeshTopology.SOUTH}
        assert len(seen) == 2  # genuinely adaptive

    def test_route_to_self_is_local(self):
        assert WestFirstMeshTopology(16).route(5, 5) == LOCAL_PORT

    def test_all_packets_delivered_no_deadlock(self):
        net = Network(make_topology("mesh_wf", 16))
        tg = TrafficGenerator(16, "transpose", 0.4, seed=5)
        net.run(tg, cycles=1500, drain=True)
        assert net.latency.received == net.injected_packets

    def test_beats_xy_on_adversarial_traffic(self):
        def latency(name):
            net = Network(make_topology(name, 16))
            tg = TrafficGenerator(16, "transpose", 0.35, seed=3)
            net.run(tg, cycles=1500, warmup=500, drain=True)
            return net.latency.average

        assert latency("mesh_wf") < latency("mesh")
