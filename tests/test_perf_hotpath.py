"""Tests for the vectorized photonic hot path, the config-aware caches,
the active-set NoC stepping, and the ``repro perf`` harness (DESIGN.md
§13).

The vectorized kernels are pinned against their pre-vectorization loops
(``tests/reference_photonics.py``); the tests here assert *exact*
equality against them — the batched 2x2 matmul forms are
bit-identical, not merely close, which is what lets the golden-numbers
artifacts stay byte-stable across the optimization.
"""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.photonics.clements import (
    MZIMesh,
    _trace_hops,
    decompose,
    random_unitary,
)
from repro.photonics.devices import MZIState
from repro.photonics.fabric import FlumenFabric
from repro.photonics.svd import (
    clear_svd_cache,
    program_svd,
    program_unitary,
    svd_cache_stats,
)
from tests.reference_arbiter import dense_allocate
from tests.reference_photonics import (
    reference_propagate,
    reference_trace_hops,
)
from tests.test_fault_injection import stick_mzi


def random_mesh(n: int, seed: int) -> MZIMesh:
    return decompose(random_unitary(n, np.random.default_rng(seed)))


def random_fields(n: int, seed: int, width: int | None = None) -> np.ndarray:
    rng = np.random.default_rng(seed)
    shape = (n,) if width is None else (n, width)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def fabric_meshes(seed: int) -> list[MZIMesh]:
    """Comm meshes from every routing mode (the paths the system uses)."""
    rng = np.random.default_rng(seed)
    meshes = []
    fab = FlumenFabric(8)
    targets = rng.permutation(8)
    fab.configure_communication(
        {s: int(d) for s, d in enumerate(targets) if s != int(d)})
    meshes.append(fab.partitions[0].comm_mesh)
    fab = FlumenFabric(8)
    fab.configure_multicast(0, [3, 5, 7])
    meshes.append(fab.partitions[0].comm_mesh)
    fab = FlumenFabric(8)
    fab.configure_gather(fab.partitions[0], int(rng.integers(8)))
    meshes.append(fab.partitions[0].comm_mesh)
    return [m for m in meshes if m is not None]


class TestVectorizedBitIdentity:
    """Columnized propagation is *exactly* the per-MZI loop."""

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
    @pytest.mark.parametrize("width", [None, 4])
    def test_propagate_bit_identical_to_reference(self, n, width):
        mesh = random_mesh(n, seed=n)
        fields = random_fields(n, seed=100 + n, width=width)
        assert np.array_equal(mesh.propagate(fields),
                              reference_propagate(mesh, fields))

    def test_matrix_bit_identical_through_columns(self):
        # matrix() uses the same columnized plan; its product with any
        # input must equal propagation to machine precision.
        mesh = random_mesh(9, seed=3)
        fields = random_fields(9, seed=4)
        np.testing.assert_allclose(mesh.matrix() @ fields,
                                   mesh.propagate(fields), atol=1e-12)

    def test_fabric_routed_meshes_bit_identical(self):
        for mesh in fabric_meshes(seed=11):
            fields = random_fields(mesh.n, seed=12)
            assert np.array_equal(mesh.propagate(fields),
                                  reference_propagate(mesh, fields))

    def test_trace_hops_bit_identical_to_reference(self):
        for mesh in [random_mesh(6, 21), random_mesh(11, 22),
                     *fabric_meshes(seed=23)]:
            assert np.array_equal(_trace_hops(mesh),
                                  reference_trace_hops(mesh))

    def test_handbuilt_mesh_without_columns_falls_back(self):
        # No column assignment (-1): the plan must fall back to greedy
        # mode-disjoint segmentation and still match the reference.
        mzis = [MZIState(0, 1.1, 0.3), MZIState(2, 0.7, -0.2),
                MZIState(1, 2.0, 0.5), MZIState(0, 0.4, 1.0),
                MZIState(2, 1.9, -1.4)]
        mesh = MZIMesh(n=4, mzis=mzis)
        fields = random_fields(4, seed=31)
        assert np.array_equal(mesh.propagate(fields),
                              reference_propagate(mesh, fields))

    def test_empty_and_single_mode_meshes(self):
        empty = MZIMesh(n=3, mzis=[])
        fields = random_fields(3, seed=41)
        assert np.array_equal(empty.propagate(fields), fields)
        one = MZIMesh(n=1)
        assert np.array_equal(one.propagate(np.array([1 + 2j])),
                              np.array([1 + 2j]))

    def test_propagate_rejects_wrong_leading_dim(self):
        mesh = random_mesh(4, seed=51)
        with pytest.raises(ValueError, match="leading dimension"):
            mesh.propagate(np.ones(5, dtype=complex))
        with pytest.raises(ValueError, match="leading dimension"):
            reference_propagate(mesh, np.ones(5, dtype=complex))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 10), seed=st.integers(0, 10**6),
       width=st.sampled_from([None, 3]))
def test_property_vectorized_propagate_equals_oracle_and_matrix(
        n, seed, width):
    """The satellite property: propagate == reference == matrix() @ a."""
    mesh = random_mesh(n, seed)
    fields = random_fields(n, seed + 1, width)
    vec = mesh.propagate(fields)
    assert np.array_equal(vec, reference_propagate(mesh, fields))
    np.testing.assert_allclose(vec, mesh.matrix() @ fields, atol=1e-12)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_property_svd_meshes_vectorize_exactly(seed):
    rng = np.random.default_rng(seed)
    clear_svd_cache()
    program = program_svd(rng.standard_normal((6, 6)))
    fields = random_fields(6, seed + 7)
    for mesh in (program.v_dagger_mesh, program.u_mesh):
        assert np.array_equal(mesh.propagate(fields),
                              reference_propagate(mesh, fields))
    np.testing.assert_allclose(program.matrix() @ fields,
                               program.propagate(fields), atol=1e-12)


class TestMeshCaches:
    """The propagation plan and hop matrix are built once per mesh."""

    def test_plan_is_reused_between_calls(self):
        mesh = random_mesh(6, seed=61)
        mesh.propagate(random_fields(6, 62))
        plan = mesh._propagation_plan
        mesh.propagate(random_fields(6, 63))
        assert mesh._propagation_plan is plan

    def test_hops_memoized_and_read_only(self):
        mesh = random_mesh(6, seed=64)
        hops = mesh.mzis_per_path()
        assert mesh.mzis_per_path() is hops
        assert not hops.flags.writeable
        with pytest.raises(ValueError):
            hops[0, 0] = 99

    def test_fault_injection_sees_fresh_hops(self):
        # End to end: a realized fault is a new mesh value, so its hop
        # matrix is traced afresh, never served from the healthy mesh.
        fab = FlumenFabric(8)
        fab.configure_multicast(0, [3, 5])
        mesh = fab.partitions[0].comm_mesh
        before = mesh.mzis_per_path()
        for i in range(mesh.num_mzis):
            # Flip one MZI to 50:50 until connectivity actually changes.
            faulted = stick_mzi(mesh, i, theta=np.pi / 2)
            after = faulted.mzis_per_path()
            if not np.array_equal(after, before):
                break
        else:
            pytest.fail("no single stuck MZI changed the path structure")
        assert np.array_equal(after, reference_trace_hops(faulted))
        assert np.array_equal(mesh.mzis_per_path(), before)
        assert np.array_equal(before, reference_trace_hops(mesh))


class TestImmutableMesh:
    """Meshes and programs are values: every write raises.

    With no invalidation left, this is what keeps the memoized plans
    and hop matrices correct.
    """

    def test_item_write_raises(self):
        mesh = random_mesh(6, seed=65)
        with pytest.raises(TypeError):
            mesh.mzis[0] = mesh.mzis[0].with_phases(0.123, -0.456)

    def test_reassignment_raises(self):
        mesh = random_mesh(5, seed=67)
        other = random_mesh(5, seed=69)
        with pytest.raises(dataclasses.FrozenInstanceError):
            mesh.mzis = list(other.mzis)
        with pytest.raises(dataclasses.FrozenInstanceError):
            mesh.output_phases = other.output_phases

    @pytest.mark.parametrize("mutate", [
        lambda m: m.mzis.append(MZIState(0, 1.0)),
        lambda m: m.mzis.pop(),
        lambda m: m.mzis.extend([MZIState(0, 1.0)]),
        lambda m: m.mzis.clear(),
    ])
    def test_list_mutations_raise(self, mutate):
        mesh = random_mesh(4, seed=70)
        with pytest.raises(AttributeError):
            mutate(mesh)

    def test_output_phases_read_only(self):
        mesh = random_mesh(4, seed=72)
        with pytest.raises(ValueError, match="read-only"):
            mesh.output_phases[0] = 1.0

    def test_constructor_copies_output_phases(self):
        phases = np.exp(1j * np.arange(3.0))
        mesh = MZIMesh(n=3, mzis=[MZIState(0, 1.0, 0.5, 0)],
                       output_phases=phases)
        expected = mesh.matrix()
        phases[:] = 1.0
        assert phases.flags.writeable
        assert isinstance(mesh.mzis, tuple)
        assert np.array_equal(mesh.matrix(), expected)

    def test_pickle_keeps_arrays_read_only(self):
        program = program_svd(
            np.random.default_rng(74).standard_normal((5, 5)))
        mesh = program.u_mesh
        mesh.mzis_per_path()  # memoize the hop matrix before pickling
        mesh_copy = pickle.loads(pickle.dumps(mesh))
        program_copy = pickle.loads(pickle.dumps(program))
        for array in (mesh_copy.output_phases, mesh_copy.mzis_per_path(),
                      program_copy.sigma,
                      program_copy.u_mesh.output_phases):
            assert not array.flags.writeable
        assert mesh_copy.mzis == mesh.mzis
        assert np.array_equal(mesh_copy.output_phases, mesh.output_phases)
        assert np.array_equal(mesh_copy.mzis_per_path(),
                              mesh.mzis_per_path())
        assert np.array_equal(program_copy.sigma, program.sigma)
        assert np.array_equal(program_copy.matrix(), program.matrix())
        # Immutable values: a round trip compares and hashes equal.
        assert mesh_copy == mesh and hash(mesh_copy) == hash(mesh)
        assert program_copy == program
        assert hash(program_copy) == hash(program)
        assert program_copy.u_mesh != program_copy.v_dagger_mesh
        other = program_svd(2 * np.asarray(program.matrix()))
        assert other != program


class TestHopTracingDeduplication:
    """One reconfiguration triggers at most one hop trace (satellite b)."""

    def test_configure_communication_traces_once(self, monkeypatch):
        import repro.photonics.clements as clements
        calls = {"n": 0}
        real = clements._trace_hops

        def counting(mesh):
            calls["n"] += 1
            return real(mesh)

        monkeypatch.setattr(clements, "_trace_hops", counting)
        fab = FlumenFabric(8)
        fab.configure_communication({0: 5, 3: 1, 6: 2})
        assert calls["n"] == 1
        # Loss accounting and propagation reuse the memo — still one.
        fab.path_loss_db(0, 5)
        fields = np.zeros(8, dtype=complex)
        fields[0] = 1.0
        fab.propagate_comm(fields)
        assert calls["n"] == 1
        # A new configuration re-traces exactly once.
        fab.configure_multicast(0, [3, 5])
        fab.equalize_attenuators()
        assert calls["n"] == 2


class TestSVDProgramMemo:
    """program_svd memoizes by content hash and shares frozen programs."""

    def setup_method(self):
        clear_svd_cache()

    def teardown_method(self):
        clear_svd_cache()

    def test_repeat_programming_hits(self):
        rng = np.random.default_rng(81)
        matrix = rng.standard_normal((5, 5))
        program_svd(matrix)
        program_svd(matrix)
        program_svd(matrix.copy())  # same content, different object
        stats = svd_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 2
        assert stats["size"] == 1

    def test_different_content_misses(self):
        rng = np.random.default_rng(82)
        program_svd(rng.standard_normal((5, 5)))
        program_svd(rng.standard_normal((5, 5)))
        assert svd_cache_stats()["misses"] == 2

    def test_cache_hit_returns_the_cached_program(self, monkeypatch):
        import repro.photonics.clements as clements
        calls = {"n": 0}
        real = clements.mzi_transfers

        def counting(theta, phi):
            calls["n"] += 1
            return real(theta, phi)

        monkeypatch.setattr(clements, "mzi_transfers", counting)
        rng = np.random.default_rng(83)
        matrix = rng.standard_normal((4, 4))
        fields = random_fields(4, 85)
        first = program_svd(matrix)
        out = first.apply(fields)
        second = program_svd(matrix.copy())
        assert second is first
        assert np.array_equal(second.apply(fields), out)
        # One propagation plan per mesh (V* and U), built once.
        assert calls["n"] == 2

    def test_programs_are_frozen(self):
        program = program_svd(np.random.default_rng(86).standard_normal(
            (4, 4)))
        with pytest.raises(ValueError, match="read-only"):
            program.sigma[:] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            program.u_mesh = program.v_dagger_mesh
        unitary = program_unitary(random_unitary(
            4, np.random.default_rng(87)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            unitary.mesh = program.u_mesh

    def test_equivalence_with_uncached_computation(self):
        rng = np.random.default_rng(84)
        matrix = rng.standard_normal((5, 5)) \
            + 1j * rng.standard_normal((5, 5))
        warm = program_svd(matrix)
        clear_svd_cache()
        cold = program_svd(matrix)
        np.testing.assert_allclose(warm.matrix(), cold.matrix(), atol=0)
        assert warm.scale == cold.scale


class TestActiveSetStepping:
    """Idle-skip bookkeeping drains clean and stays cycle-exact."""

    def test_wavefront_rotate_matches_empty_allocate(self):
        from repro.noc.arbiter import WavefrontArbiter
        a, b = WavefrontArbiter(6), WavefrontArbiter(6)
        empty = np.zeros((6, 6), dtype=bool)
        requests = np.zeros((6, 6), dtype=bool)
        requests[0, 3] = requests[2, 3] = requests[4, 1] = True
        for _ in range(5):
            dense_allocate(a, empty)  # the full-scan idle behavior
            b.rotate()                # the fast-path idle behavior
        assert dense_allocate(a, requests) == dense_allocate(b, requests)

    def test_network_active_sets_drain(self):
        from repro.noc.network import Network
        from repro.noc.topology import make_topology
        from repro.noc.traffic import TrafficGenerator
        net = Network(make_topology("mesh", 16))
        net.run(TrafficGenerator(16, "uniform", 0.2, seed=3),
                cycles=400, drain=True)
        assert net.quiescent()
        assert not net._active_routers
        assert not net._waiting_sources

    def test_flumen_waiting_sources_drain(self):
        from repro.noc.flumen_net import FlumenNetwork
        from repro.noc.traffic import TrafficGenerator
        net = FlumenNetwork(16)
        net.run(TrafficGenerator(16, "uniform", 0.3, seed=3),
                cycles=400, drain=True)
        assert net.quiescent()
        assert not net._waiting_sources

    def test_optbus_sets_drain(self):
        from repro.noc.optbus import OptBusNetwork
        from repro.noc.traffic import TrafficGenerator
        net = OptBusNetwork(16)
        net.run(TrafficGenerator(16, "uniform", 0.2, seed=3),
                cycles=400, drain=True)
        assert net.quiescent()
        assert not net._active_buses
        assert not net._waiting_sources

    def test_idle_stepping_preserves_later_deliveries(self):
        # A long idle stretch before traffic must not change how that
        # traffic is then served (same per-packet service latencies).
        from repro.noc.packet import Packet
        from repro.noc.simulation import make_network

        def serve(idle_cycles):
            net = make_network("flumen", 8)
            for _ in range(idle_cycles):
                net.step()
            base = net.cycle
            for src, dst in [(0, 3), (1, 3), (5, 2)]:
                net.offer_packet(Packet(src=src, dst=dst, size_flits=4,
                                        create_cycle=base))
            while not net.quiescent() and net.cycle < base + 500:
                net.step()
            return net.latency.histogram

        # Idle gaps that are multiples of the arbiter period leave the
        # priority diagonal in the same phase — identical service.
        assert serve(0) == serve(8 * 3)


class TestPerfHarness:
    """The pinned suite: stable digests, strict comparison semantics."""

    def test_micro_benchmark_payload_shape(self):
        from repro.analysis import perf
        payload = perf.run_suite(small=True, only="mesh_propagate/n16")
        assert payload["schema"] == perf.SCHEMA_VERSION
        assert payload["suite"] == "small"
        record = payload["benchmarks"]["mesh_propagate/n16"]
        assert record["wall_s"] > 0
        assert "speedup_vs_reference" not in record
        assert record["meta"] == {"n": 16, "width": None}
        assert len(record["digest"]) == 64

    def test_digests_are_run_independent(self):
        from repro.analysis import perf
        one = perf.run_suite(small=True, only="mesh_propagate/n16")
        two = perf.run_suite(small=True, only="mesh_propagate/n16")
        assert (one["benchmarks"]["mesh_propagate/n16"]["digest"]
                == two["benchmarks"]["mesh_propagate/n16"]["digest"])

    def test_small_suite_is_subset_of_full(self):
        from repro.analysis import perf
        assert set(perf.benchmark_names(small=True)) \
            <= set(perf.benchmark_names(small=False))

    def test_compare_flags_digest_mismatch(self):
        from repro.analysis.perf import compare_to_baseline
        current = {"benchmarks": {"b": {
            "wall_s": 1.0, "meta": {"n": 4}, "digest": "aaa"}}}
        baseline = {"benchmarks": {"b": {
            "wall_s": 1.0, "meta": {"n": 4}, "digest": "bbb"}}}
        rows, failures = compare_to_baseline(current, baseline)
        assert len(failures) == 1
        assert "digest" in failures[0]

    def test_compare_flags_slowdown_beyond_tolerance(self):
        from repro.analysis.perf import compare_to_baseline
        current = {"benchmarks": {"b": {
            "wall_s": 5.0, "meta": {}, "digest": "x"}}}
        baseline = {"benchmarks": {"b": {
            "wall_s": 1.0, "meta": {}, "digest": "x"}}}
        rows, failures = compare_to_baseline(current, baseline,
                                             tolerance=2.0)
        assert len(failures) == 1
        assert "2.0" in failures[0] or "tolerance 2" in failures[0]
        _rows, ok = compare_to_baseline(current, baseline, tolerance=10.0)
        assert not ok

    def test_compare_prefers_per_call_over_wall(self):
        from repro.analysis.perf import compare_to_baseline
        # Small-suite runs use fewer reps: wall differs, per-call does
        # not — comparison must use per-call and pass.
        current = {"benchmarks": {"b": {
            "wall_s": 0.1, "per_call_s": 0.01, "meta": {}, "digest": "x"}}}
        baseline = {"benchmarks": {"b": {
            "wall_s": 1.0, "per_call_s": 0.01, "meta": {}, "digest": "x"}}}
        _rows, failures = compare_to_baseline(current, baseline,
                                              tolerance=1.5)
        assert not failures

    def test_compare_skips_meta_and_membership_mismatches(self):
        from repro.analysis.perf import compare_to_baseline
        current = {"benchmarks": {
            "changed": {"wall_s": 1.0, "meta": {"n": 8}, "digest": "x"},
            "new": {"wall_s": 1.0, "meta": {}, "digest": "y"}}}
        baseline = {"benchmarks": {
            "changed": {"wall_s": 9.0, "meta": {"n": 4}, "digest": "z"},
            "gone": {"wall_s": 1.0, "meta": {}, "digest": "w"}}}
        rows, failures = compare_to_baseline(current, baseline)
        assert not failures
        statuses = {row[0]: row[4] for row in rows}
        assert "meta" in statuses["changed"]
        assert "new" in statuses["new"]
        assert statuses["gone"] == "not run"

    def test_committed_baseline_covers_small_suite(self):
        import json
        from pathlib import Path
        from repro.analysis import perf
        baseline_path = Path(__file__).resolve().parent.parent \
            / "BENCH_baseline.json"
        baseline = json.loads(baseline_path.read_text())
        assert baseline["schema"] == perf.SCHEMA_VERSION
        assert set(perf.benchmark_names(small=True)) \
            <= set(baseline["benchmarks"])


class TestPerfCLI:
    def test_perf_only_micro(self, capsys, tmp_path, monkeypatch):
        import json
        from repro.__main__ import main
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "bench.json"
        assert main(["perf", "--small", "--only", "mesh_propagate/n16",
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "mesh_propagate/n16" in text
        assert "no baseline" in text
        payload = json.loads(out.read_text())
        assert list(payload["benchmarks"]) == ["mesh_propagate/n16"]

    def test_perf_check_against_matching_baseline(self, capsys, tmp_path):
        from repro.__main__ import main
        base = tmp_path / "base.json"
        out1 = tmp_path / "one.json"
        assert main(["perf", "--small", "--only", "mesh_propagate/n16",
                     "--out", str(base), "--baseline", str(base)]) == 0
        capsys.readouterr()
        assert main(["perf", "--small", "--only", "mesh_propagate/n16",
                     "--out", str(out1), "--baseline", str(base),
                     "--check", "--tolerance", "50"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_perf_check_requires_baseline(self, capsys, tmp_path):
        from repro.__main__ import main
        assert main(["perf", "--small", "--only", "mesh_propagate/n16",
                     "--out", str(tmp_path / "b.json"),
                     "--baseline", str(tmp_path / "missing.json"),
                     "--check"]) == 2

    def test_perf_unknown_only_prefix(self, tmp_path):
        from repro.__main__ import main
        assert main(["perf", "--only", "nope/",
                     "--out", str(tmp_path / "b.json")]) == 2

    def test_perf_timing_breach_fails_without_check(self, capsys,
                                                    tmp_path):
        # A supplied baseline is a contract: a blown timing budget must
        # exit nonzero even when --check was not passed.
        import json
        from repro.__main__ import main
        base = tmp_path / "base.json"
        assert main(["perf", "--small", "--only", "mesh_propagate/n16",
                     "--out", str(base), "--baseline", str(base)]) == 0
        doctored = json.loads(base.read_text())
        for record in doctored["benchmarks"].values():
            record["per_call_s"] /= 1e6  # current run can't be this fast
        base.write_text(json.dumps(doctored))
        capsys.readouterr()
        assert main(["perf", "--small", "--only", "mesh_propagate/n16",
                     "--out", str(tmp_path / "two.json"),
                     "--baseline", str(base)]) == 1
        assert "SLOWER" in capsys.readouterr().out

    def test_tripped_telemetry_gate_is_recorded(self, monkeypatch):
        import time

        from repro.analysis import perf
        from repro.obs import Obs
        real = Obs.telemetry

        def slow_telemetry(**kwargs):
            time.sleep(0.01)  # 40 ms per leg: past both 5% and 5 ms
            return real(**kwargs)

        monkeypatch.setattr(Obs, "telemetry", slow_telemetry)
        record = perf._bench_telemetry_overhead(small=True)
        [failure] = record["gate_failures"]
        assert failure.startswith("overhead: ")
        assert record["overhead_fraction"] > 0.05
        assert record["digest"]

    def test_tripped_gate_still_writes_the_artifact(self, caplog, tmp_path,
                                                    monkeypatch):
        # The suite runs on past a tripped gate and writes its artifact;
        # only then does the run exit nonzero, naming the gate.
        import json

        from repro.__main__ import main
        from repro.analysis import perf
        tripped = ("gate/tripped", True, lambda small: {
            "wall_s": 0.0, "gate_failures": ["overhead: 21.7% > 5%"]})
        real = next(b for b in perf.BENCHMARKS
                    if b[0] == "mesh_propagate/n16")
        monkeypatch.setattr(perf, "BENCHMARKS", [tripped, real])
        out = tmp_path / "b.json"
        assert main(["perf", "--small", "--out", str(out),
                     "--baseline", str(tmp_path / "missing.json")]) == 1
        payload = json.loads(out.read_text())
        assert list(payload["benchmarks"]) == ["gate/tripped",
                                               "mesh_propagate/n16"]
        assert "gate failed: gate/tripped: overhead: 21.7% > 5%" \
            in caplog.text

    def test_perf_summary_md_without_baseline(self, capsys, tmp_path):
        from repro.__main__ import main
        summary = tmp_path / "summary.md"
        summary.write_text("# earlier step\n")
        assert main(["perf", "--small", "--only", "mesh_propagate/n16",
                     "--out", str(tmp_path / "b.json"),
                     "--baseline", str(tmp_path / "missing.json"),
                     "--summary-md", str(summary)]) == 0
        text = summary.read_text()
        # Appended after existing content, not overwritten.
        assert text.startswith("# earlier step")
        assert "## Perf suite" in text
        assert "mesh_propagate/n16" in text
        assert "No baseline available" in text

    def test_perf_summary_md_with_baseline_trend(self, capsys, tmp_path):
        from repro.__main__ import main
        base = tmp_path / "base.json"
        summary = tmp_path / "summary.md"
        assert main(["perf", "--small", "--only", "mesh_propagate/n16",
                     "--out", str(base), "--baseline", str(base)]) == 0
        assert main(["perf", "--small", "--only", "mesh_propagate/n16",
                     "--out", str(tmp_path / "two.json"),
                     "--baseline", str(base),
                     "--summary-md", str(summary)]) == 0
        text = summary.read_text()
        assert "### vs baseline @" in text
        assert "| ok |" in text

    def test_markdown_summary_flags_failures(self):
        from repro.analysis.perf import compare_to_baseline, \
            markdown_summary
        payload = {
            "suite": "small", "rev": "abc123",
            "benchmarks": {
                "x/one": {"wall_s": 1.0, "per_call_s": 0.5,
                          "digest": "d1", "meta": {}}}}
        baseline = {
            "benchmarks": {
                "x/one": {"wall_s": 1.0, "per_call_s": 0.5,
                          "digest": "d2", "meta": {}}}}
        rows, failures = compare_to_baseline(payload, baseline)
        assert failures
        text = markdown_summary(payload, rows, baseline_rev="base999",
                                tolerance=2.0)
        assert "`small` @ `abc123`" in text
        assert "base999" in text
        assert "DIGEST MISMATCH" in text and "⚠️" in text
