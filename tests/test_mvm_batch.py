"""Stacked MVM dispatch: bit-identity against the per-program oracle.

The fleet-wide ``(B, k, 2, 2)`` kernel (:mod:`repro.photonics.batch`)
claims *exact* equality with sequential :meth:`MZIMesh.propagate` /
:meth:`SVDProgram.apply` / :class:`BlockMatmul` evaluation, and so does
the control unit's flush memo — every assertion here is
``array_equal``, never ``allclose``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accelerator import BlockMatmul, block_matmul_many
from repro.core.control_unit import MZIMControlUnit
from repro.noc.simulation import make_network
from repro.photonics.batch import (
    apply_jobs,
    apply_svd_stacked,
    batch_stats,
    plan_signature,
    propagate_stacked,
    reset_batch_stats,
    stack_meshes,
)
from repro.photonics.clements import MZIMesh, decompose
from repro.photonics.devices import MZIState
from repro.photonics.svd import program_svd
from tests.test_fault_injection import stick_mzi


def _random_unitary(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    u, _, _ = np.linalg.svd(m)
    return u


@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=2, max_value=10),
       b=st.integers(min_value=2, max_value=6),
       q=st.integers(min_value=1, max_value=12),
       seed=st.integers(min_value=0, max_value=10**6))
def test_property_stacked_mesh_propagate_bit_identical(n, b, q, seed):
    rng = np.random.default_rng(seed)
    meshes = [decompose(_random_unitary(rng, n)) for _ in range(b)]
    fields = rng.normal(size=(b, n, q)) + 1j * rng.normal(size=(b, n, q))
    out = propagate_stacked(meshes, fields)
    for i, mesh in enumerate(meshes):
        assert np.array_equal(out[i], mesh.propagate(fields[i]))


@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=2, max_value=9),
       b=st.integers(min_value=2, max_value=5),
       q=st.integers(min_value=1, max_value=10),
       seed=st.integers(min_value=0, max_value=10**6))
def test_property_stacked_svd_apply_bit_identical(n, b, q, seed):
    rng = np.random.default_rng(seed)
    programs = [program_svd(rng.normal(size=(n, n))) for _ in range(b)]
    fields = rng.normal(size=(b, n, q)).astype(complex)
    out = apply_svd_stacked(programs, fields)
    for i, program in enumerate(programs):
        assert np.array_equal(out[i], program.apply(fields[i]))


def test_same_size_clements_meshes_share_a_layout():
    rng = np.random.default_rng(0)
    sigs = {plan_signature(decompose(_random_unitary(rng, 8)))
            for _ in range(4)}
    assert len(sigs) == 1


def test_stack_meshes_rejects_mixed_layouts():
    rng = np.random.default_rng(1)
    meshes = [decompose(_random_unitary(rng, 4)),
              decompose(_random_unitary(rng, 6))]
    assert stack_meshes(meshes) is None
    with pytest.raises(ValueError):
        propagate_stacked(meshes, np.zeros((2, 4, 1), dtype=complex))


def test_propagate_stacked_validates_field_shape():
    rng = np.random.default_rng(2)
    meshes = [decompose(_random_unitary(rng, 4)) for _ in range(2)]
    with pytest.raises(ValueError):
        propagate_stacked(meshes, np.zeros((2, 4), dtype=complex))
    with pytest.raises(ValueError):
        propagate_stacked(meshes, np.zeros((2, 5, 3), dtype=complex))


def test_apply_jobs_stacks_singletons_bit_identically():
    rng = np.random.default_rng(3)
    p8 = [program_svd(rng.normal(size=(8, 8))) for _ in range(3)]
    p4 = program_svd(rng.normal(size=(4, 4)))
    jobs = [(p8[0], rng.normal(size=(8, 5))),
            (p4, rng.normal(size=(4, 5))),  # different layout: a singleton
            (p8[1], rng.normal(size=(8, 5))),
            (p8[2], rng.normal(size=(8, 2))),  # different q: a singleton
            ]
    reset_batch_stats()
    results = apply_jobs(jobs)
    stats = batch_stats()
    assert stats["jobs"] == stats["stacked"] == 4
    assert stats["groups"] == 3
    for (program, fields), result in zip(jobs, results):
        assert np.array_equal(result,
                              program.apply(np.asarray(fields, complex)))


@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=2, max_value=9),
       q=st.integers(min_value=1, max_value=10),
       seed=st.integers(min_value=0, max_value=10**6))
def test_property_singleton_job_equals_program_apply(n, q, seed):
    rng = np.random.default_rng(seed)
    program = program_svd(rng.normal(size=(n, n)))
    fields = rng.normal(size=(n, q)).astype(complex)
    [result] = apply_jobs([(program, fields)])
    assert np.array_equal(result, program.apply(fields))


def _faulted_meshes(rng, n=8):
    """A stuck MZI, a removed MZI, and columns left unassigned."""
    mesh = decompose(_random_unitary(rng, n))
    phases = mesh.output_phases
    unassigned = [MZIState(m.top_mode, m.theta, m.phi) for m in mesh.mzis]
    return [stick_mzi(mesh, 5, theta=np.pi / 2),
            MZIMesh(n, mesh.mzis[:5] + mesh.mzis[6:], phases),
            MZIMesh(n, unassigned, phases)]


@pytest.mark.parametrize("index", range(3),
                         ids=["stuck", "removed", "unassigned"])
def test_every_propagate_path_equals_reference_on_faulted_mesh(index):
    rng = np.random.default_rng(10)
    mesh = _faulted_meshes(rng)[index]
    vector = rng.normal(size=8) + 1j * rng.normal(size=8)
    fields = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
    expected = mesh._reference_propagate(fields)
    assert np.array_equal(mesh.propagate(vector),
                          mesh._reference_propagate(vector))
    assert np.array_equal(mesh.propagate(fields), expected)
    assert np.array_equal(propagate_stacked([mesh], fields[np.newaxis])[0],
                          expected)


def test_apply_jobs_rejects_non_2d_fields():
    program = program_svd(np.eye(4))
    with pytest.raises(ValueError):
        apply_jobs([(program, np.zeros(4))])


@settings(max_examples=10, deadline=None)
@given(rows=st.integers(min_value=2, max_value=30),
       cols=st.integers(min_value=2, max_value=30),
       q=st.integers(min_value=1, max_value=10),
       seed=st.integers(min_value=0, max_value=10**6))
def test_property_block_matmul_batched_equals_sequential(rows, cols, q,
                                                         seed):
    rng = np.random.default_rng(seed)
    matmul = BlockMatmul(rng.normal(size=(rows, cols)), mzim_size=8)
    vectors = rng.normal(size=(cols, q))
    assert np.array_equal(matmul(vectors),
                          matmul(vectors, batched=False))


def test_block_matmul_batched_squeezes_single_vector():
    rng = np.random.default_rng(5)
    matmul = BlockMatmul(rng.normal(size=(11, 13)), mzim_size=8)
    vector = rng.normal(size=13)
    batched = matmul(vector)
    assert batched.shape == (11,)
    assert np.array_equal(batched, matmul(vector, batched=False))


def test_block_matmul_all_zero_matrix_stays_zero():
    matmul = BlockMatmul(np.zeros((10, 10)), mzim_size=8)
    out = matmul(np.ones((10, 3)))
    assert np.array_equal(out, np.zeros((10, 3)))


def test_block_matmul_many_matches_each_job():
    rng = np.random.default_rng(6)
    jobs = []
    for _ in range(5):
        rows, cols = int(rng.integers(4, 25)), int(rng.integers(4, 25))
        matmul = BlockMatmul(rng.normal(size=(rows, cols)), mzim_size=8)
        jobs.append((matmul, rng.normal(size=(cols, 7))))
    reset_batch_stats()
    results = block_matmul_many(jobs)
    assert batch_stats()["groups"] == 1  # whole fleet in one kernel pass
    for (matmul, vectors), result in zip(jobs, results):
        assert np.array_equal(result, matmul(vectors, batched=False))


def test_block_matmul_result_numerically_close_to_digital():
    rng = np.random.default_rng(7)
    matmul = BlockMatmul(rng.normal(size=(16, 24)), mzim_size=8)
    vectors = rng.normal(size=(24, 9))
    np.testing.assert_allclose(matmul(vectors), matmul.matrix @ vectors,
                               rtol=1e-9, atol=1e-9)


def test_control_unit_queue_and_flush_fleet():
    rng = np.random.default_rng(8)
    control = MZIMControlUnit(make_network("flumen", 16))
    matrices = {}
    for i in range(3):
        key = f"m{i}"
        matrices[key] = BlockMatmul(rng.normal(size=(16, 16)), 8)
        control.matrix_memory.store(key, matrices[key])
    jobs = []
    for i in range(8):
        key = f"m{i % 3}"
        vectors = rng.normal(size=(16, 6))
        job_id = control.queue_mvm(key, vectors, node=i)
        jobs.append((job_id, i, key, vectors))
    assert control.pending_mvms() == 8
    results = control.flush_mvms()
    assert control.pending_mvms() == 0
    assert control.flush_mvms() == []
    for (job_id, node, key, vectors), res in zip(jobs, results):
        assert (res.job_id, res.node, res.matrix_key) == (job_id, node, key)
        assert np.array_equal(res.result,
                              matrices[key](vectors, batched=False))


def test_control_unit_queue_requires_preloaded_matrix():
    control = MZIMControlUnit(make_network("flumen", 16))
    with pytest.raises(KeyError):
        control.queue_mvm("missing", np.zeros((8, 1)))


# ----------------------------------------------------------------------
# the flush memo: repeated (program, vectors) jobs answered from results
# ----------------------------------------------------------------------


def _memo_control(matrices):
    control = MZIMControlUnit(make_network("flumen", 16))
    for key, matmul in matrices.items():
        control.matrix_memory.store(key, matmul)
    return control


def _flush(control, jobs):
    """Queue ``(key, vectors)`` jobs, flush them, return the results."""
    for key, vectors in jobs:
        control.queue_mvm(key, vectors)
    return [r.result for r in control.flush_mvms()]


def _direct(matmul, vectors):
    return block_matmul_many([(matmul, vectors)])[0]


def test_memo_answers_repeated_jobs_across_flushes():
    rng = np.random.default_rng(11)
    matmul = BlockMatmul(rng.normal(size=(16, 16)), 8)
    vectors = rng.normal(size=(16, 4))
    control = _memo_control({"m": matmul})
    first = _flush(control, [("m", vectors)])
    for _ in range(3):
        reset_batch_stats()
        again = _flush(control, [("m", vectors)])
        assert batch_stats()["jobs"] == 0  # no kernel work: a memo hit
        assert np.array_equal(again[0], first[0])
    assert np.array_equal(first[0], _direct(matmul, vectors))


def test_memo_computes_duplicates_within_a_flush_once():
    rng = np.random.default_rng(12)
    matmuls = {k: BlockMatmul(rng.normal(size=(16, 16)), 8) for k in "ab"}
    va, vb = rng.normal(size=(16, 3)), rng.normal(size=(16, 3))
    control = _memo_control(matmuls)
    reset_batch_stats()
    results = _flush(control, [("a", va), ("b", vb), ("a", va), ("a", va)])
    # Two distinct jobs of four block units each reach the kernel.
    assert batch_stats()["jobs"] == 8
    for key, result in zip("abaa", results):
        expected = _direct(matmuls[key], va if key == "a" else vb)
        assert np.array_equal(result, expected)
    assert results[0] is not results[2] and results[2] is not results[3]


@pytest.mark.parametrize("stored", [1, 5])
def test_memo_evicts_past_the_derived_bound(stored):
    rng = np.random.default_rng(13)
    matmuls = {f"m{i}": BlockMatmul(rng.normal(size=(8, 8)), 8)
               for i in range(stored)}
    control = _memo_control(matmuls)
    bound = max(8, 4 * stored)
    blocks = [rng.normal(size=(8, 2)) for _ in range(bound + 3)]
    for vectors in blocks:
        [result] = _flush(control, [("m0", vectors)])
        assert np.array_equal(result, _direct(matmuls["m0"], vectors))
    assert len(control._mvm_memo) == bound
    reset_batch_stats()
    _flush(control, [("m0", blocks[-1])])  # the newest entry: a hit
    assert batch_stats()["jobs"] == 0
    [result] = _flush(control, [("m0", blocks[0])])  # evicted: recomputed
    assert batch_stats()["jobs"] == 1
    assert np.array_equal(result, _direct(matmuls["m0"], blocks[0]))


def test_memo_eviction_inside_one_flush_keeps_duplicates_right():
    rng = np.random.default_rng(14)
    matmul = BlockMatmul(rng.normal(size=(8, 8)), 8)
    control = _memo_control({"m": matmul})
    blocks = [rng.normal(size=(8, 2)) for _ in range(12)]
    # The first block's entry is evicted before its duplicate is served.
    jobs = [("m", v) for v in blocks] + [("m", blocks[0])]
    results = _flush(control, jobs)
    assert len(control._mvm_memo) == 8
    for (_, vectors), result in zip(jobs, results):
        assert np.array_equal(result, _direct(matmul, vectors))


def test_memo_survives_callers_mutating_results():
    rng = np.random.default_rng(15)
    matmul = BlockMatmul(rng.normal(size=(16, 16)), 8)
    vectors = rng.normal(size=(16, 4))
    expected = _direct(matmul, vectors)
    control = _memo_control({"m": matmul})
    for _ in range(3):  # a miss, then hits; each result gets scribbled on
        results = _flush(control, [("m", vectors), ("m", vectors)])
        for result in results:
            assert np.array_equal(result, expected)
            result[:] = -1.0


def test_memo_never_serves_a_dropped_program():
    """Replacing a stored matrix drops its program, and CPython may hand
    the freed ``id()`` to the next program built.  Every flush must
    still answer for the program stored now."""
    rng = np.random.default_rng(16)
    vectors = rng.normal(size=(8, 2))
    placeholder = BlockMatmul(np.eye(8), 8)
    control = _memo_control({})
    for _ in range(40):
        control.matrix_memory.store("m", placeholder)  # drop the last one
        matmul = BlockMatmul(rng.normal(size=(8, 8)), 8)
        control.matrix_memory.store("m", matmul)
        [result] = _flush(control, [("m", vectors)])
        assert np.array_equal(result, _direct(matmul, vectors))
        del matmul
