"""Tests for the NoC backend registry and the configuration pipelines.

Covers the refactor's contract: a new topology or system configuration
plugs in via registration alone — through ``make_network``, through
``SystemModel``, and through the ``python -m repro sweep`` CLI — with no
edits to ``core/system.py``; unknown names fail listing exactly what is
registered; and every registered backend satisfies the kernel's
quiescence/conservation semantics on a finite offered trace.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipelines import CONFIGURATIONS, ConfigPipeline
from repro.core.system import SystemModel
from repro.noc.kernel import SimKernel
from repro.noc.registry import TOPOLOGIES
from repro.noc.simulation import make_network
from repro.noc.traffic import TracePlayback
from repro.obs import NULL_OBS
from repro.workloads import Rotation3D


class IdealNetwork(SimKernel):
    """Toy backend: contention-free delivery after a fixed pipe delay.

    Exists to prove the plug-in path; only implements the four kernel
    hooks.
    """

    def __init__(self, nodes: int = 16, delay: int = 2,
                 obs=NULL_OBS, **kwargs) -> None:
        super().__init__(name="ideal", num_links=nodes, obs=obs, **kwargs)
        self.nodes = nodes
        self.delay = delay
        self._in_flight: list[list] = []  # [cycles left, packet]

    def _enqueue(self, packet) -> None:
        self._in_flight.append([self.delay + packet.size_flits, packet])

    def step(self) -> None:
        busy = 0
        finished = []
        for entry in self._in_flight:
            entry[0] -= 1
            busy += 1
            self.flit_hops += 1
            self.link_traversals += 1
            if entry[0] <= 0:
                finished.append(entry)
        for entry in finished:
            self._in_flight.remove(entry)
            packet = entry[1]
            self._deliver(packet, self.cycle, f"node{packet.src}")
        self.utilization.record_cycle(
            min(busy, self.utilization.num_links))
        self.cycle += 1

    def quiescent(self) -> bool:
        return not self._in_flight

    def total_queued_flits(self) -> int:
        return sum(entry[1].size_flits for entry in self._in_flight)


def _make_ideal(nodes: int = 16, **kwargs):
    return IdealNetwork(nodes, **kwargs)


IDEAL_PIPELINE = ConfigPipeline(name="ideal", topology="ideal",
                                link_energy="electrical")


class TestBackendRegistry:
    def test_builtins_registered(self):
        assert set(TOPOLOGIES.names()) >= {
            "ring", "mesh", "optbus", "flumen"}

    def test_unknown_error_lists_registered_names(self):
        # Satellite: the error interpolates the live registry, not a
        # static tuple — the message must match the registry contents.
        with pytest.raises(ValueError) as err:
            make_network("hypercube", 16)
        message = str(err.value)
        listed = re.search(r"known: \((.*)\)", message).group(1)
        names = tuple(item.strip().strip("'") for item in listed.split(","))
        assert names == TOPOLOGIES.names()

    def test_error_reflects_temporary_registration(self):
        with TOPOLOGIES.temporary("toy_listed", _make_ideal):
            with pytest.raises(ValueError, match="toy_listed"):
                make_network("nope", 16)
        with pytest.raises(ValueError) as err:
            make_network("nope", 16)
        assert "toy_listed" not in str(err.value)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            TOPOLOGIES.register("ring", _make_ideal)

    def test_replace_allows_override(self):
        with TOPOLOGIES.temporary("toy_repl", _make_ideal):
            TOPOLOGIES.register("toy_repl", _make_ideal, replace=True)

    def test_registered_backend_constructs_through_factory(self):
        with TOPOLOGIES.temporary("toy_net", _make_ideal):
            net = make_network("toy_net", 8, delay=1)
            assert isinstance(net, IdealNetwork)
            assert net.nodes == 8


class TestPipelineRegistry:
    def test_builtin_configurations(self):
        assert CONFIGURATIONS.names() == (
            "ring", "mesh", "optbus", "flumen_i", "flumen_a")

    def test_unknown_configuration_lists_registered(self):
        with pytest.raises(ValueError) as err:
            CONFIGURATIONS.get("torus")
        for name in CONFIGURATIONS.names():
            assert name in str(err.value)

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            CONFIGURATIONS.register("mesh", ConfigPipeline(
                name="mesh", topology="mesh"))

    def test_invalid_fields_rejected(self):
        with pytest.raises(ValueError, match="link_energy"):
            ConfigPipeline(name="x", topology="mesh", link_energy="steam")
        with pytest.raises(ValueError, match="compute_path"):
            ConfigPipeline(name="x", topology="mesh", compute_path="gpu")

    def test_flumen_a_declares_mzim_compute(self):
        pipeline = CONFIGURATIONS.get("flumen_a")
        assert pipeline.topology == "flumen"
        assert pipeline.compute_path == "mzim"
        assert pipeline.link_energy == "flumen"


class TestToyBackendEndToEnd:
    """A topology plugs in by registration alone — no core edits."""

    @pytest.fixture()
    def ideal_registered(self):
        with TOPOLOGIES.temporary("ideal", _make_ideal), \
                CONFIGURATIONS.temporary("ideal", IDEAL_PIPELINE):
            yield

    def test_system_model_runs_toy_configuration(self, ideal_registered):
        model = SystemModel()
        run = model.run(Rotation3D(vertices=34), "ideal")
        assert run.configuration == "ideal"
        assert run.runtime_s > 0
        assert run.energy.total > 0
        assert run.energy.nop > 0

    def test_run_all_includes_toy_configuration(self, ideal_registered):
        runs = SystemModel().run_all(Rotation3D(vertices=34))
        assert set(runs) == set(CONFIGURATIONS.names())
        assert "ideal" in runs

    def test_sweep_cli_runs_toy_configuration(self, ideal_registered,
                                              capsys, tmp_path):
        from repro.__main__ import main
        out = tmp_path / "records.json"
        code = main(["sweep", "--small", "--workloads", "rotation3d",
                     "--configs", "ideal", "--jobs", "1", "--no-cache",
                     "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "ideal" in stdout
        import json
        records = json.loads(out.read_text())
        assert [r["key"] for r in records] == ["rotation3d/ideal"]
        assert records[0]["metrics"]["configuration"] == "ideal"


@pytest.mark.parametrize("topology", TOPOLOGIES.names())
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       npackets=st.integers(min_value=1, max_value=60),
       packet_size=st.integers(min_value=1, max_value=6))
def test_property_finite_trace_drains_and_conserves(topology, seed,
                                                    npackets, packet_size):
    """Satellite: quiescence/drain semantics for every registered backend.

    A finite offered trace must fully drain — ``quiescent()`` with zero
    queued flits — and conserve packets: offered equals delivered plus
    dropped (no backend drops today, so delivered equals offered).
    """
    import random
    rng = random.Random(seed)
    events = []
    for _ in range(npackets):
        src = rng.randrange(16)
        dst = rng.randrange(16)
        if dst == src:
            dst = (dst + 1) % 16
        events.append((rng.randrange(40), src, dst, packet_size))
    net = make_network(topology, 16)
    net.run(TracePlayback(events), cycles=41, drain=True,
            max_drain_cycles=50_000)
    assert net.quiescent()
    assert net.total_queued_flits() == 0
    offered = net.injected_packets
    delivered = net.latency.received
    dropped = getattr(net, "dropped_packets", 0)
    assert offered == len(events)
    assert offered == delivered + dropped


# ----------------------------------------------------------------------
# the shared Registry contract, over every registry in the package
# ----------------------------------------------------------------------

def _registries():
    from repro.analysis.engine import TASKS, get_task
    from repro.faults import FAULTS
    from repro.photonics.registry import MESHES
    from repro.serve import ARRIVALS

    get_task("selftest")  # loads the built-in task set
    return [TOPOLOGIES, CONFIGURATIONS, MESHES, FAULTS, ARRIVALS, TASKS]


REGISTRIES = _registries()


@pytest.mark.parametrize("registry", REGISTRIES,
                         ids=[r.kind for r in REGISTRIES])
class TestRegistryContract:
    def test_unknown_name_lists_live_names(self, registry):
        from repro.registry import UnknownNameError

        with registry.temporary("probe", object()):
            with pytest.raises(UnknownNameError) as err:
                registry.get("no_such_name")
            assert "probe" in registry.names()
            assert str(err.value) == (
                f"unknown {registry.kind} 'no_such_name'; "
                f"known: {registry.names()}")
        assert isinstance(err.value, ValueError)
        assert isinstance(err.value, KeyError)
        with pytest.raises(KeyError) as err:
            registry.get("no_such_name")
        assert "probe" not in str(err.value)

    def test_duplicate_rejected_and_replace_overrides(self, registry):
        first, second = object(), object()
        builtin = registry.names()[0]
        with pytest.raises(ValueError, match=re.escape(
                f"{registry.kind} {builtin!r} is already registered; "
                f"pass replace=True to override")):
            registry.register(builtin, second)
        with registry.temporary("probe", first):
            with pytest.raises(ValueError, match="already registered"):
                registry.register("probe", second)
            assert registry.get("probe") is first
            registry.register("probe", second, replace=True)
            assert registry.get("probe") is second
        assert "probe" not in registry

    def test_temporary_cleans_up_when_body_raises(self, registry):
        before = registry.names()
        with pytest.raises(RuntimeError, match="boom"):
            with registry.temporary("probe", object()):
                assert "probe" in registry
                raise RuntimeError("boom")
        assert "probe" not in registry
        assert registry.names() == before

    def test_names_keep_registration_order(self, registry):
        before = registry.names()
        try:
            registry.register("probe_b", object())
            registry.register("probe_a", object())
            assert registry.names() == (*before, "probe_b", "probe_a")
        finally:
            registry.unregister("probe_b")
            registry.unregister("probe_a")
        assert registry.names() == before

    def test_slots_are_independent(self, registry):
        # One slot per name: shadowing one swaps only its entry, and the
        # original comes back, in its place in the order, on exit.
        builtin, *others = registry.names()
        original = registry.get(builtin)
        untouched = {name: registry.get(name) for name in others}
        shadow = object()
        with registry.temporary(builtin, shadow):
            assert registry.get(builtin) is shadow
            assert registry.names() == (builtin, *others)
            assert {name: registry.get(name) for name in others} == untouched
        assert registry.get(builtin) is original
        assert registry.names() == (builtin, *others)

    def test_decorator_form_and_silent_removal(self, registry):
        @registry.register("probe")
        def entry():
            pass

        assert registry.get("probe") is entry
        registry.unregister("probe")
        registry.unregister("probe")  # a missing name is a no-op
        assert "probe" not in registry
