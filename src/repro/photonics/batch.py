"""Stacked MVM dispatch: many meshes, one batched ``(B, k, 2, 2)`` kernel.

The columnized propagation plan (:attr:`MZIMesh._propagation_plan`)
already batches the 2x2 transfers of one physical column into a
``(k, 2, 2)`` stack.  This module adds the *fleet* dimension on top:
``B`` meshes whose MZIs sit at the same physical positions — always true
for Clements meshes of equal size, since the layout is fixed by ``N`` —
propagate ``B`` independent field batches through the same column sweep
(:func:`repro.photonics.clements.sweep_columns`), one
``np.matmul((B, k, 2, 2), (B, k, 2, q))`` per column.  Concurrent MVM
offloads from different cores thus share a single pass through the
kernel instead of looping Python-side per mesh.

Oracle contract (DESIGN.md §14): the stacked kernel is **bit-identical**
to calling :meth:`MZIMesh.propagate` / :meth:`SVDProgram.apply` per
element.  Batched ``np.matmul`` performs the same 2x2 products in the
same operand order for every batch element, so no tolerance is needed
anywhere — tests assert ``==``.  Every MVM job takes this path, a lone
job as a fleet of one; programs whose layouts disagree (e.g. a
fault-injected mesh with a removed MZI) land in separate groups.

Module counters (:func:`batch_stats`) record how many jobs ran and how
many stacked kernel launches they took.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.photonics.clements import MZIMesh, sweep_columns

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.photonics.svd import SVDProgram

#: Counters for the stacked dispatch path (reset with
#: :func:`reset_batch_stats`): ``jobs`` MVM jobs executed, ``stacked``
#: of them through a stacked group (all of them; the stacked fraction
#: is still reported), and ``groups`` stacked kernel launches.
_STATS = {"jobs": 0, "stacked": 0, "groups": 0}


def batch_stats() -> dict:
    """Snapshot of the stacked-dispatch counters."""
    return dict(_STATS)


def reset_batch_stats() -> None:
    for key in _STATS:
        _STATS[key] = 0


def plan_signature(mesh: MZIMesh) -> tuple:
    """Hashable fingerprint of a mesh's column layout.

    Two meshes with equal signatures occupy identical physical positions
    (same columns, same mode pairs per column) and may be stacked; the
    programmed phases are free to differ — they live in the transfer
    matrices, not the signature.
    """
    return (mesh.n,
            tuple(rows.tobytes() for rows, _ in mesh._propagation_plan))


def stack_meshes(meshes: Sequence[MZIMesh]):
    """Build the stacked plan for layout-compatible meshes.

    Returns ``(plan, phases)`` where ``plan`` is a list of
    ``(mode_pairs (k, 2), transfers (B, k, 2, 2))`` per column and
    ``phases`` is the ``(B, n, 1)`` output phase screen — or ``None``
    when the layouts disagree and stacking is impossible.
    """
    plans = [m._propagation_plan for m in meshes]
    base = plans[0]
    for other in plans[1:]:
        if len(other) != len(base):
            return None
        for (rows0, _), (rows1, _) in zip(base, other):
            if rows0.shape != rows1.shape or not np.array_equal(rows0,
                                                                rows1):
                return None
    plan = [(base[c][0], np.stack([p[c][1] for p in plans]))
            for c in range(len(base))]
    phases = np.stack([m.output_phases for m in meshes])[:, :, np.newaxis]
    return plan, phases


def propagate_stacked(meshes: Sequence[MZIMesh],
                      fields: np.ndarray) -> np.ndarray:
    """Propagate ``B`` field batches through ``B`` meshes in one pass.

    ``fields`` has shape ``(B, n, q)``; row ``b`` propagates through
    ``meshes[b]``.  Bit-identical to ``meshes[b].propagate(fields[b])``
    for every ``b``.  Raises ``ValueError`` when the mesh layouts cannot
    be stacked — :func:`apply_jobs` groups jobs by layout first.
    """
    stacked = stack_meshes(meshes)
    if stacked is None:
        raise ValueError("mesh layouts differ; cannot stack")
    plan, phases = stacked
    out = np.array(fields, dtype=complex)
    if out.ndim != 3 or out.shape[0] != len(meshes):
        raise ValueError(
            f"expected ({len(meshes)}, n, q) fields, got {out.shape}")
    if out.shape[1] != meshes[0].n:
        raise ValueError(
            f"expected mode dimension {meshes[0].n}, got {out.shape[1]}")
    return phases * sweep_columns(plan, out)


def svd_signature(program: SVDProgram) -> tuple:
    """Layout fingerprint of a full SVD circuit (both unitary meshes)."""
    return (plan_signature(program.v_dagger_mesh),
            plan_signature(program.u_mesh))


def apply_svd_stacked(programs: Sequence[SVDProgram],
                      fields: np.ndarray) -> np.ndarray:
    """``B`` SVD MVMs in one stacked pass: ``out[b] = M_b @ fields[b]``.

    Mirrors :meth:`SVDProgram.apply` stage for stage — V* mesh, Sigma
    attenuation, U mesh, spectral rescale — with every stage batched;
    each elementwise stage multiplies the same operands as the
    per-program path, so the result is bit-identical.
    """
    mid = propagate_stacked([p.v_dagger_mesh for p in programs], fields)
    mid = np.stack([p.sigma for p in programs])[:, :, np.newaxis] * mid
    out = propagate_stacked([p.u_mesh for p in programs], mid)
    scales = np.array([p.scale for p in programs])[:, np.newaxis, np.newaxis]
    return scales * out


def apply_jobs(jobs: Sequence[tuple]) -> list[np.ndarray]:
    """Execute MVM jobs ``(program, fields (n, q))`` in stacked groups.

    Jobs are grouped by ``(circuit layout, field shape)`` and each group,
    a lone job included, runs through :func:`apply_svd_stacked`.  Results
    come back in submission order and are bit-identical to calling
    ``program.apply(fields)`` per job.
    """
    results: list = [None] * len(jobs)
    groups: dict[tuple, list[int]] = {}
    for idx, (program, fields) in enumerate(jobs):
        fields = np.asarray(fields)
        if fields.ndim != 2:
            raise ValueError(
                f"job {idx}: fields must be (n, q), got {fields.shape}")
        key = (svd_signature(program), fields.shape)
        groups.setdefault(key, []).append(idx)
    for members in groups.values():
        programs = [jobs[idx][0] for idx in members]
        fields = np.stack(
            [np.asarray(jobs[idx][1], dtype=complex) for idx in members])
        out = apply_svd_stacked(programs, fields)
        for slot, idx in enumerate(members):
            results[idx] = out[slot]
    _STATS["jobs"] += len(jobs)
    _STATS["stacked"] += len(jobs)
    _STATS["groups"] += len(groups)
    return results
