"""Dead links retire the fabric port the control unit maps them to.

``FabricRecovery`` is the one fault path of campaigns and serve: it
builds the fault schedule and injector, attaches its monitor to the
control unit and its ladder to the scheduler, and its REROUTE rung
retires the fabric port :meth:`MZIMControlUnit.endpoint_port` maps a
dead endpoint to (none when the endpoint lies past the fabric).  A
retirement also caps partitions at the widest even run of ports left
free, so requests queued at a wider size still find a placement and a
run drains.  These tests hold that outside the default geometry
(8 fabric ports, 16 nodes), where the default pins cannot see it.
"""

import inspect
import logging
import re
from pathlib import Path

import pytest

from repro.config import SystemConfig
from repro.core.control_unit import MZIMControlUnit
from repro.faults.campaign import CampaignSpec, run_single
from repro.faults.ladder import DegradationLadder
from repro.noc.simulation import make_network
from repro.serve.daemon import ServeConfig, ServeDaemon

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def dead_link_run(run_index: int = 0, **geometry) -> dict:
    spec = CampaignSpec(fault="dead_link", runs=1, cycles=1500,
                        golden_reference=False, **geometry)
    return run_single(spec, run_index)


def dead_link_session(ports: int) -> dict:
    return ServeDaemon(ServeConfig(duration=1024, seed=0, rate=0.08,
                                   fault="dead_link", ports=ports)).run()


class TestEndpointPort:
    @pytest.mark.parametrize("nodes, endpoint, port", [
        (16, 5, 2), (16, 15, 7), (20, 4, 2), (20, 15, 7), (20, 16, None),
        (8, 7, 7), (32, 13, 3)])
    def test_maps_endpoints_onto_the_fabric(self, nodes, endpoint, port):
        control = MZIMControlUnit(make_network("flumen", nodes),
                                  SystemConfig())
        assert control.endpoint_port(endpoint) == port
        if port is not None:
            lo, hi = port, port + 1
            assert endpoint in control.port_range_endpoints(lo, hi)


class TestPartitionCap:
    def test_cap_rounds_down_to_even_and_never_rises(self):
        ladder = DegradationLadder(fabric_ports=8)
        ladder.cap_partition_ports(5)
        assert ladder.partition_ports_cap == 4
        ladder.cap_partition_ports(7)
        assert ladder.partition_ports_cap == 4
        ladder.cap_partition_ports(1)
        assert ladder.partition_ports_cap == 2

    def test_wide_mesh_session_caps_at_the_fabric(self):
        # The mesh under test is 32 ports wide; the fabric has 8.  No
        # transition, snapshot or report may offer a wider partition.
        daemon = ServeDaemon(ServeConfig(duration=1024, seed=0, rate=0.08,
                                         fault="dead_link", ports=32))
        report = daemon.run()
        fabric = daemon.control.fabric_ports
        assert fabric == 8
        transitions = [event for event in daemon.obs.events.events
                       if event["type"] == "ladder_transition"]
        caps = [report["ladder"]["partition_ports_cap"]]
        caps += [event["partition_ports_cap"] for event in transitions]
        caps += [value for sample in daemon.obs.sampler.series
                 for name, value in sample["metrics"]["gauges"].items()
                 if name.startswith("core.partition_ports_cap")]
        assert len(caps) > 5 and max(caps) <= fabric
        # SHRINK halved the fabric's width, not the mesh's.
        assert [event["partition_ports_cap"] for event in transitions
                if event["src"] == "SHRINK"] == [fabric // 2]


class TestCampaignReroute:
    @pytest.mark.parametrize("geometry", [{"ports": 4}, {"nodes": 20}])
    def test_retires_the_port_the_control_unit_maps(self, geometry):
        record = dead_link_run(**geometry)
        assert record["injected"][0]["params"]["dst"] == 4
        assert record["ladder"]["recovered_rungs"] == ["REROUTE"]
        # Endpoint 4 sits on fabric port 4 // 2 == 2 in both geometries.
        assert record["ladder"]["unusable_ports"] == [2]

    def test_endpoint_past_the_fabric_retires_no_port(self):
        # Endpoints 16..19 of a 20-node network are on no fabric port.
        record = dead_link_run(1, nodes=20)
        assert record["injected"][0]["params"]["dst"] == 17
        assert record["ladder"]["recovered_rungs"] == ["REROUTE"]
        assert record["ladder"]["unusable_ports"] == []

    @pytest.mark.parametrize("ports", [12, 16])
    def test_wide_partitions_complete_after_retirement(self, ports, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.noc"):
            record = dead_link_run(ports=ports)
        assert not caplog.records, [r.getMessage() for r in caplog.records]
        assert record["ladder"]["unusable_ports"] == [2]
        # Ports 3..7 are the widest free run: partitions cap at 4.
        assert record["ladder"]["partition_ports_cap"] == 4
        assert record["compute_completed"] == record["compute_submitted"]
        assert record["network_quiescent"]


class TestServeReroute:
    def test_retires_an_in_range_port(self):
        report = dead_link_session(ports=16)
        dst = report["injected"][0]["params"]["dst"]
        assert report["ladder"]["recovered_rungs"] == ["REROUTE"]
        assert report["ladder"]["unusable_ports"] == [dst // 2]
        assert report["ladder"]["unusable_ports"][0] < 8

    def test_wide_partitions_drain(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.noc"):
            report = dead_link_session(ports=32)
        assert not caplog.records, [r.getMessage() for r in caplog.records]
        assert report["ladder"]["unusable_ports"][0] < 8
        assert report["drained"] and report["conserved"]
        assert report["ledger"]["completed"] == report["ledger"]["admitted"]


class TestOneFaultPath:
    @pytest.mark.parametrize("construct", [
        r"FaultInjector\(", r"FaultSchedule\.seeded\(",
        # the monitor -> control unit and ladder -> scheduler hooks
        r"health ?= ?self\.(recovery\.)?monitor",
        r"ladder ?= ?self\.ladder"])
    def test_built_at_one_site(self, construct):
        sites = [f"{path.relative_to(SRC)}:{n}"
                 for path in sorted(SRC.rglob("*.py"))
                 for n, line in enumerate(path.read_text().splitlines(), 1)
                 if re.search(construct, line)
                 and not line.lstrip().startswith(("#", "class ", "def "))]
        assert len(sites) == 1, sites
        assert sites[0].startswith("faults/recovery.py:"), sites

    def test_serve_reads_no_probe_interval_for_its_next_event(self):
        assert "probe_interval" not in inspect.getsource(
            ServeDaemon._next_due)
