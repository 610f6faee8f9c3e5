"""Tests for the fault-injection + graceful-degradation subsystem.

Covers the DESIGN.md §12 contract layer by layer: the backoff/retry
bookkeeping and the ladder state machine in isolation; the fault
registry's plug-in semantics (mirroring the NoC backend registry); the
faulty-mesh physics; the health monitor; the scheduler's electrical
fallback (with the same drain/conservation property the NoC registry
tests use); and end-to-end campaigns proving each fault class exercises
its designated rung with transitions visible through ``repro.obs``.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.core.accelerator import plan_offload
from repro.core.control_unit import (
    ComputeRequest,
    HealthMonitor,
    MZIMControlUnit,
)
from repro.core.scheduler import FlumenScheduler
from repro.faults import (
    FAULTS,
    BackoffPolicy,
    DegradationLadder,
    FaultDomain,
    FaultInjector,
    FaultSchedule,
    FaultyMesh,
    Rung,
    StuckMZI,
)
from repro.faults.campaign import (
    CampaignSpec,
    campaign_fault_kinds,
    csv_records,
    run_fault_campaign,
    run_single,
)
from repro.noc.simulation import make_network
from repro.noc.traffic import TrafficGenerator
from repro.obs import Obs
from repro.photonics.calibration import matrix_error
from repro.photonics.clements import decompose, random_unitary
from repro.photonics.devices import BAR_THETA
from repro.photonics.registry import MESHES


class TestBackoffPolicy:
    def test_exponential_growth(self):
        policy = BackoffPolicy(base_cycles=10, factor=2.0, max_retries=3,
                               max_backoff_cycles=1000)
        assert [policy.delay_cycles(a) for a in range(4)] == \
            [10, 20, 40, 80]

    def test_cap_applies(self):
        policy = BackoffPolicy(base_cycles=10, factor=10.0, max_retries=4,
                               max_backoff_cycles=250)
        assert policy.delay_cycles(3) == 250
        assert policy.schedule() == (10, 100, 250, 250, 250)

    def test_schedule_length_is_retries_plus_one(self):
        policy = BackoffPolicy(max_retries=2)
        assert len(policy.schedule()) == 3

    @pytest.mark.parametrize("kwargs", [
        dict(base_cycles=0),
        dict(factor=0.5),
        dict(max_retries=-1),
        dict(base_cycles=100, max_backoff_cycles=50),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            BackoffPolicy(**kwargs)

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError, match="attempt"):
            BackoffPolicy().delay_cycles(-1)


class TestFaultRegistry:
    def test_builtins_registered(self):
        assert set(FAULTS.names()) >= {
            "stuck_mzi", "phase_drift", "laser_degradation", "dead_link"}

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            FAULTS.register("stuck_mzi", StuckMZI)

    def test_unknown_error_lists_registered_kinds(self):
        with pytest.raises(ValueError) as err:
            FAULTS.get("cosmic_ray")
        for kind in FAULTS.names():
            assert kind in str(err.value)

    def test_temporary_fault_registers_and_restores(self):
        class Toy(StuckMZI):
            kind = "toy_fault"

        with FAULTS.temporary("toy_fault", Toy):
            assert FAULTS.get("toy_fault") is Toy
            assert "toy_fault" in campaign_fault_kinds()
        with pytest.raises(ValueError):
            FAULTS.get("toy_fault")

    def test_make_fault_passes_parameters(self):
        fault = FAULTS.get("stuck_mzi")(mzi_index=5, count=2)
        assert fault.mzi_index == 5 and fault.count == 2

    def test_magnitude_scaling(self):
        assert FAULTS.get("stuck_mzi")().with_magnitude(3.0).count == 3
        drift = FAULTS.get("phase_drift")(sigma_rad=0.01)
        assert drift.with_magnitude(2.0).sigma_rad == pytest.approx(0.02)
        laser = FAULTS.get("laser_degradation")().with_magnitude(2.0)
        assert laser.power_fraction == pytest.approx(1e-2)


class TestFaultSchedule:
    def test_seeded_is_deterministic(self):
        kinds = FAULTS.names()
        a = FaultSchedule.seeded(kinds, 7, window_cycles=1000)
        b = FaultSchedule.seeded(kinds, 7, window_cycles=1000)
        assert a == b
        assert len(a) == len(kinds)

    def test_injections_land_in_first_half(self):
        schedule = FaultSchedule.seeded(
            FAULTS.names(), 3, window_cycles=800)
        for event in schedule:
            assert 100 <= event.cycle < 400

    def test_tiny_window_rejected(self):
        with pytest.raises(ValueError, match="window_cycles"):
            FaultSchedule.seeded(["stuck_mzi"], 0, window_cycles=4)

    def test_empty_schedule_injects_nothing(self):
        domain = FaultDomain()
        injector = FaultInjector(FaultSchedule(), domain)
        for cycle in range(100):
            injector.tick(cycle)
        assert injector.injected == [] and injector.pending == 0


class TestFaultyMesh:
    def test_stuck_theta_survives_programming(self):
        target = random_unitary(8, np.random.default_rng(0))
        mesh = FaultyMesh(decompose(target))
        baseline = matrix_error(mesh.measure(), target)
        mesh.stick(3, BAR_THETA)
        stuck_error = matrix_error(mesh.measure(), target)
        assert baseline < 1e-9
        assert stuck_error > baseline

    def test_stick_out_of_range_rejected(self):
        mesh = FaultyMesh(decompose(random_unitary(4,
                                                   np.random.default_rng(0))))
        with pytest.raises(ValueError, match="out of range"):
            mesh.stick(mesh.num_mzis, 0.0)

    def test_drift_is_deterministic_per_seed(self):
        target = random_unitary(6, np.random.default_rng(1))

        def run(seed):
            mesh = FaultyMesh(decompose(target))
            rng = np.random.default_rng(seed)
            for _ in range(5):
                mesh.drift(0.03, rng)
            return matrix_error(mesh.measure(), target)

        assert run(11) == run(11)
        assert run(11) != run(12)

    def test_continuous_drift_grows_error(self):
        target = random_unitary(8, np.random.default_rng(2))
        domain = FaultDomain(mesh=FaultyMesh(decompose(target)))
        schedule = FaultSchedule.seeded(["phase_drift"], 5,
                                        window_cycles=512)
        injector = FaultInjector(schedule, domain, seed=5)
        errors = []
        for cycle in range(512):
            injector.tick(cycle)
            if cycle % 128 == 0:
                errors.append(matrix_error(domain.mesh.measure(), target))
        assert domain.mesh.drift_steps > 3
        assert errors[-1] > errors[0]


class TestHealthMonitor:
    def test_healthy_until_first_probe(self):
        monitor = HealthMonitor(mesh_probe=lambda: 1.0)
        assert monitor.healthy
        monitor.probe(0)
        assert not monitor.healthy

    def test_error_threshold(self):
        error = {"value": 0.0}
        monitor = HealthMonitor(mesh_probe=lambda: error["value"],
                                error_threshold=0.05)
        assert monitor.probe(0)["healthy"]
        error["value"] = 0.1
        assert not monitor.probe(64)["healthy"]

    def test_low_power_flags_enob(self):
        monitor = HealthMonitor(power_probe=lambda: 50e-6,
                                min_effective_bits=4.0)
        assert monitor.probe(0)["healthy"]
        starved = HealthMonitor(power_probe=lambda: 50e-9,
                                min_effective_bits=4.0)
        assert not starved.probe(0)["healthy"]

    def test_sample_respects_interval(self):
        monitor = HealthMonitor(mesh_probe=lambda: 0.0, interval_cycles=10)
        assert monitor.sample(0) is not None
        assert monitor.sample(5) is None
        assert monitor.sample(20) is not None
        assert monitor.probes == 2

    def test_validation(self):
        with pytest.raises(ValueError, match="interval_cycles"):
            HealthMonitor(interval_cycles=0)
        with pytest.raises(ValueError, match="error_threshold"):
            HealthMonitor(error_threshold=0.0)


def walk_ladder(ladder: DegradationLadder, target: Rung,
                start_cycle: int = 0) -> int:
    """Drive the ladder protocol with failing probes until ``target``."""
    cycle = start_cycle
    ladder.detect(cycle, error=1.0)
    while ladder.rung is not target:
        cycle = ladder.next_action_cycle
        assert ladder.due(cycle)
        ladder.attempt_started(cycle)
        ladder.attempt_result(cycle, healthy=False, error=1.0)
    return cycle


class TestDegradationLadder:
    def test_detect_arms_recalibrate(self):
        ladder = DegradationLadder()
        assert ladder.healthy
        assert ladder.detect(100, error=0.2)
        assert ladder.rung is Rung.RECALIBRATE
        assert ladder.next_action_cycle == 100 + \
            ladder.policy.delay_cycles(0)
        # A second detection while armed is a no-op.
        assert not ladder.detect(101, error=0.3)

    def test_full_walk_to_electrical(self):
        policy = BackoffPolicy(base_cycles=8, factor=2.0, max_retries=2,
                               max_backoff_cycles=64)
        ladder = DegradationLadder(fabric_ports=8, policy=policy)
        walk_ladder(ladder, Rung.ELECTRICAL)
        assert ladder.electrical_fallback
        assert ladder.next_action_cycle is None
        assert not ladder.due(10**9)
        # 3 working rungs x (1 + max_retries) attempts each.
        assert ladder.stats.attempts == 3 * (policy.max_retries + 1)
        assert ladder.stats.escalations == 3
        # Backoff bookkeeping: each non-terminal rung pays the full
        # schedule (entry delay + one per failed retry).
        assert ladder.stats.backoff_cycles == 3 * sum(policy.schedule())

    def test_shrink_halves_cap_to_even_floor(self):
        ladder = DegradationLadder(fabric_ports=8,
                                   policy=BackoffPolicy(max_retries=0))
        walk_ladder(ladder, Rung.SHRINK)
        assert ladder.partition_ports_cap == 4
        # Recovery keeps the shrunken cap: the physical fault persists.
        ladder.attempt_started(ladder.next_action_cycle)
        ladder.attempt_result(ladder.next_action_cycle, healthy=True)
        assert ladder.healthy
        assert ladder.partition_ports_cap == 4
        assert ladder.stats.recovered_rungs == ["SHRINK"]

    def test_shrink_respects_minimum(self):
        ladder = DegradationLadder(fabric_ports=4, min_partition_ports=4,
                                   policy=BackoffPolicy(max_retries=0))
        walk_ladder(ladder, Rung.SHRINK)
        assert ladder.partition_ports_cap == 4

    def test_transitions_recorded_with_reasons(self):
        ladder = DegradationLadder(policy=BackoffPolicy(max_retries=0))
        walk_ladder(ladder, Rung.ELECTRICAL)
        reasons = [t.reason for t in ladder.transitions]
        assert reasons == ["health_probe"] + ["retries_exhausted"] * 3
        names = [t.dst for t in ladder.transitions]
        assert names == ["RECALIBRATE", "SHRINK", "REROUTE", "ELECTRICAL"]

    def test_obs_counters_and_trace_instants(self):
        obs = Obs.active()
        ladder = DegradationLadder(policy=BackoffPolicy(max_retries=0),
                                   obs=obs)
        walk_ladder(ladder, Rung.ELECTRICAL)
        counters = obs.metrics.to_dict()["counters"]
        assert counters["core.ladder_detections"] == 1
        assert counters["core.ladder_escalations"] == 3
        assert counters["core.ladder_transitions{dst=ELECTRICAL}"] == 1
        events = [e for e in obs.tracer.events
                  if e["name"] == "ladder_transition"]
        assert len(events) == 4
        assert all(e["args"]["reason"] for e in events)

    def test_to_dict_round_trips_to_json(self):
        ladder = DegradationLadder(policy=BackoffPolicy(max_retries=0))
        walk_ladder(ladder, Rung.REROUTE)
        ladder.mark_dead_port(3)
        snapshot = json.loads(json.dumps(ladder.to_dict()))
        assert snapshot["rung"] == "REROUTE"
        assert snapshot["unusable_ports"] == [3]
        assert snapshot["rung_entries"] == {
            "RECALIBRATE": 1, "SHRINK": 1, "REROUTE": 1}


class TestElectricalFallback:
    def _make(self, ladder=None):
        system = SystemConfig()
        net = make_network("flumen", 16)
        control = MZIMControlUnit(net, system)
        scheduler = FlumenScheduler(control, system, ladder=ladder)
        return net, control, scheduler

    def _submit(self, control, cycle, ports=4):
        plan = plan_offload(8, 8, 64, 8, 8)
        control.compute_buffer.append(ComputeRequest(
            node=cycle % 16, plan=plan, matrix_key="t",
            submit_cycle=cycle, ports_needed=ports,
            duration_override=40))
        control.requests_received += 1

    def test_electrical_jobs_complete(self):
        ladder = DegradationLadder(policy=BackoffPolicy(max_retries=0))
        walk_ladder(ladder, Rung.ELECTRICAL)
        net, control, scheduler = self._make(ladder)
        for cycle in range(3):
            self._submit(control, cycle)
        scheduler.drain(max_cycles=60_000)
        assert scheduler.stats.completed == 3
        assert scheduler.stats.electrical_completions == 3
        assert not scheduler.active  # nothing placed on the fabric

    def test_partition_cap_limits_grants(self):
        obs = Obs.active()
        ladder = DegradationLadder(
            fabric_ports=8, policy=BackoffPolicy(max_retries=0), obs=obs)
        walk_ladder(ladder, Rung.SHRINK)
        system = SystemConfig()
        net = make_network("flumen", 16, obs=obs)
        control = MZIMControlUnit(net, system, obs=obs)
        scheduler = FlumenScheduler(control, system, obs=obs,
                                    ladder=ladder)
        self._submit(control, 0, ports=8)
        scheduler.drain(max_cycles=10_000)
        assert scheduler.stats.completed == 1
        assert scheduler.stats.electrical_completions == 0
        blocks = [e for e in obs.tracer.events
                  if e["name"] == "mzim_block"]
        assert blocks, "the request should still be granted photonically"
        for event in blocks:
            width = event["args"]["hi_port"] - event["args"]["lo_port"]
            assert width <= ladder.partition_ports_cap

    @settings(max_examples=10, deadline=None)
    @given(load=st.floats(0.05, 0.3), seed=st.integers(0, 2**16))
    def test_fallback_conserves_packets(self, load, seed):
        # Same conservation property the NoC registry tests assert: a
        # finite offered trace fully drains even while every compute
        # request detours to the electrical path.
        ladder = DegradationLadder(policy=BackoffPolicy(max_retries=0))
        walk_ladder(ladder, Rung.ELECTRICAL)
        net, control, scheduler = self._make(ladder)
        traffic = TrafficGenerator(16, "uniform", load, seed=seed)
        for cycle in range(300):
            for packet in traffic.packets_for_cycle(net.cycle):
                net.offer_packet(packet)
            if cycle % 60 == 0:
                self._submit(control, cycle)
            scheduler.tick()
            net.step()
        scheduler.drain(max_cycles=60_000)
        assert net.quiescent()
        assert net.injected_packets == net.latency.received
        assert scheduler.stats.electrical_completions == \
            scheduler.stats.completed == 5


class TestReroute:
    def test_reroute_pair_penalizes_setup(self):
        net = make_network("flumen", 16)
        net.reroute_pair(2, 9, 6)
        assert net.reroute_penalties[(2, 9)] == 6
        with pytest.raises(ValueError):
            net.reroute_pair(2, 9, -1)

    def test_rerouted_traffic_still_delivers(self):
        net = make_network("flumen", 16)
        net.reroute_pair(0, 5, 8)
        traffic = TrafficGenerator(16, "uniform", 0.2, seed=3)
        net.run(traffic, cycles=400, warmup=0)
        for _ in range(10_000):
            if net.quiescent():
                break
            net.step()
        assert net.injected_packets == net.latency.received


#: Each built-in fault class must demonstrably exercise its designated
#: ladder rung end to end (the acceptance criterion for DESIGN.md §12).
RUNG_CASES = [
    ("stuck_mzi", 1.0, "SHRINK"),
    ("phase_drift", 1.0, "RECALIBRATE"),
    ("dead_link", 1.0, "REROUTE"),
    ("laser_degradation", 3.0, "ELECTRICAL"),
]


@pytest.fixture(scope="module", params=MESHES.names())
def rung_records(request):
    records = {}
    for kind, magnitude, _ in RUNG_CASES:
        spec = CampaignSpec(fault=kind, magnitude=magnitude, cycles=1200,
                            golden_reference=False,
                            mesh_architecture=request.param)
        records[kind] = run_single(spec, 0)
    return records


class TestCampaignEndToEnd:
    @pytest.mark.parametrize("kind,magnitude,rung", RUNG_CASES)
    def test_each_fault_class_reaches_its_rung(self, rung_records, kind,
                                               magnitude, rung):
        record = rung_records[kind]
        assert record["detected_cycle"] is not None
        assert record["detection_latency"] >= 0
        if rung == "ELECTRICAL":
            assert record["final_rung"] == "ELECTRICAL"
            assert not record["recovered"]
            assert record["electrical_completions"] > 0
            # Digital fallback restores full precision...
            assert record["enob_final"] == 8.0
            # ...at a visible runtime/energy cost.
            assert record["runtime_overhead_cycles"] > 0
            assert record["energy_overhead_j"] > 0
        else:
            assert record["recovered"]
            assert rung in record["ladder"]["recovered_rungs"]
        assert record["packets_conserved"]
        assert record["network_quiescent"]

    def test_stuck_mzi_degradation_is_bounded(self, rung_records):
        record = rung_records["stuck_mzi"]
        # Recovery re-places the circuit on fault-free columns, so the
        # post-recovery ENOB is within a bit of the nominal fabric.
        assert record["enob_nominal"] > 6.0
        assert record["enob_final"] >= record["enob_nominal"] - 1.0
        assert record["enob_loss_bits"] <= 1.0

    def test_run_is_deterministic(self):
        spec = CampaignSpec(fault="stuck_mzi", cycles=600,
                            golden_reference=False)
        a = run_single(spec, 0)
        b = run_single(spec, 0)
        assert a == b
        assert run_single(spec, 1) != a

    def test_transitions_visible_through_obs(self):
        obs = Obs.active()
        spec = CampaignSpec(fault="stuck_mzi", cycles=1200,
                            golden_reference=False)
        run_single(spec, 0, obs=obs)
        counters = obs.metrics.to_dict()["counters"]
        assert counters["photonics.faults_injected{kind=stuck_mzi}"] == 1
        assert counters["core.health_unhealthy"] >= 1
        assert counters["core.ladder_transitions{dst=RECALIBRATE}"] >= 1
        injects = [e for e in obs.tracer.events
                   if e["name"] == "inject_stuck_mzi"]
        transitions = [e for e in obs.tracer.events
                       if e["name"] == "ladder_transition"]
        assert injects and transitions
        # Trace rows live on the existing layers (trace --check safe):
        # the pid of every fault event maps to a registered layer name.
        layer_by_pid = {e["pid"]: e["args"]["name"] for e in
                        obs.tracer.metadata_events()
                        if e["name"] == "process_name"}
        assert {layer_by_pid[e["pid"]] for e in injects} == {"photonics"}
        assert {layer_by_pid[e["pid"]] for e in transitions} == {"core"}

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ValueError, match="cosmic_ray"):
            CampaignSpec(fault="cosmic_ray")

    def test_csv_rows_are_scalar(self):
        spec = CampaignSpec(fault="dead_link", runs=2, cycles=600,
                            golden_reference=False)
        campaign = run_fault_campaign(spec)
        rows = csv_records([campaign])
        assert len(rows) == 2
        for row in rows:
            assert all(not isinstance(v, (list, dict))
                       for v in row.values())


class TestZeroFaultCampaign:
    def test_golden_reference_matches_pinned_numbers(self):
        from tests.test_golden_numbers import GOLDEN

        spec = CampaignSpec(fault="none", runs=1, cycles=600)
        campaign = run_fault_campaign(spec)
        record = campaign["runs"][0]
        assert record["detected_cycle"] is None
        assert record["recalibrations"] == 0
        assert record["final_rung"] == "HEALTHY"
        reference = campaign["golden_reference"]
        for config, want in GOLDEN.items():
            got = reference[config]
            assert got["runtime_s"] == want["runtime_s"]
            assert got["energy_total_j"] == want["energy_total_j"]
            assert got["energy"]["nop"] == want["nop_j"]
            assert got["energy"]["mzim"] == want["mzim_j"]
            assert got["avg_packet_latency"] == want["avg_packet_latency"]


class TestFaultsCLI:
    def test_two_runs_byte_identical(self, tmp_path, capsys):
        from repro.__main__ import main

        argv = ["faults", "--fault", "stuck_mzi", "--runs", "1",
                "--cycles", "600", "--seed", "0", "--no-cache",
                "--no-golden", "--jobs", "1"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_fault_rejected(self, caplog):
        from repro.__main__ import main

        assert main(["faults", "--fault", "gamma_ray"]) == 2
        assert "gamma_ray" in caplog.text
        assert "stuck_mzi" in caplog.text  # the registered list is shown


def test_spec_round_trips_through_task_params():
    # The sweep task rebuilds CampaignSpec (incl. BackoffPolicy) from the
    # JSON-safe params dict the engine hashes for its cache key.
    from repro.analysis.tasks import fault_point

    spec = CampaignSpec(fault="stuck_mzi", runs=1, cycles=600,
                        golden_reference=False)
    params = json.loads(json.dumps(dataclasses.asdict(spec)))
    result = fault_point(params, seed=123)
    assert result["spec"]["fault"] == "stuck_mzi"
    assert result["spec"]["seed"] == spec.seed  # explicit seed wins
    assert result["runs"][0] == run_single(spec, 0)


@pytest.mark.parametrize("field, value", [
    ("request_period", 0), ("probe_interval", 0), ("load", -0.5),
    ("load", 1.5), ("nodes", 1), ("runs", 0), ("cycles", 63)])
def test_spec_rejects_invalid_fields_at_construction(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be "):
        CampaignSpec(**{field: value})


@pytest.mark.parametrize("fields, rule", [
    # partition max(2, 20 // 2) = 10 > the 8 fabric ports: never granted.
    ({"ports": 20}, r"^partition_ports must be even and <= the 8 fabric "
                    r"ports, got 10$"),
    ({"ports": 6}, r"^partition_ports must be even .*, got 3$"),
    ({"ports": 10}, r"^partition_ports must be even .*, got 5$"),
    ({"ports": 0}, r"^ports must be >= 2, got 0$"),
    ({"ports": 1}, r"^ports must be >= 2, got 1$"),
    ({"error_threshold": 0.0}, r"^error_threshold must be > 0, got 0.0$"),
    # Fabric ports 4..7 would have no network endpoint.
    ({"nodes": 4}, r"^nodes must be >= 8, one network endpoint per "
                   r"fabric port, got 4$"),
], ids=["ports20", "ports6", "ports10", "ports0", "ports1",
        "error_threshold0", "nodes4"])
def test_spec_rejects_fabric_geometry_at_construction(fields, rule):
    with pytest.raises(ValueError, match=rule):
        CampaignSpec(**fields)


def test_largest_accepted_partition_is_granted():
    # The construction check and the run size the partition from the
    # same property: the largest accepted one fills the fabric and runs.
    spec = CampaignSpec(ports=16, runs=1, cycles=300,
                        golden_reference=False)
    assert spec.partition_ports == SystemConfig().mzim_ports == 8
    [record] = run_fault_campaign(spec)["runs"]
    assert record["compute_completed"] > 0


def test_fault_point_names_the_invalid_field():
    from repro.analysis.tasks import fault_point

    with pytest.raises(ValueError,
                       match=r"request_period must be >= 1, got 0"):
        fault_point({"fault": "none", "request_period": 0}, seed=0)
