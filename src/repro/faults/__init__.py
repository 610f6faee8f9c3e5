"""Fault injection and graceful degradation (DESIGN.md §12).

The subsystem has four parts, mirroring how a real Flumen controller
would be hardened:

:mod:`repro.faults.models`
    Frozen fault dataclasses (stuck MZI, phase drift, laser degradation,
    dead interposer link) registered in ``FAULTS``, plus deterministic
    seeded fault schedules.
:mod:`repro.faults.injector`
    Applies scheduled faults to a live run: a :class:`FaultyMesh` whose
    realized phases can be pinned or drifted, and a :class:`FaultDomain`
    holding the mutable fault state shared with detection/recovery.
:mod:`repro.faults.ladder`
    The degradation ladder state machine — re-calibrate with bounded
    retries and exponential backoff, shrink the compute partition,
    reroute around dead paths, electrical fallback — with every
    transition emitted through :mod:`repro.obs`.
:mod:`repro.faults.campaign`
    Campaign runner on the sweep engine: inject, detect, recover,
    and report ENOB loss, runtime/energy overhead and recovery
    statistics per fault class (``python -m repro faults``).
"""
