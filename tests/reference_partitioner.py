"""Test-only reference for Algorithm 1's partitioner (lines 19-28).

:class:`ReferenceScheduler` keeps the request-by-request scan that
:meth:`repro.core.scheduler.FlumenScheduler._partitioner` replaced with a
single pass.  For every queued request it rebuilds the taken-port map,
runs a fresh first-fit search and a fresh β evaluation, and a grant
removes the request from the compute buffer in place.  It is the
oracle the one-pass partitioner is held to, exactly, by
``tests/test_partitioner_equivalence.py``; it lives under ``tests/`` so
production code carries one partitioner only.
"""

from __future__ import annotations

from repro.core.scheduler import (
    ActiveComputation,
    FlumenScheduler,
    compute_duration_cycles,
)


class ReferenceScheduler(FlumenScheduler):
    """:class:`FlumenScheduler` with the per-request rescan partitioner."""

    def _partitioner(self) -> None:
        """Scan the compute buffer, granting partitions where buffers allow."""
        if self.ladder is not None and self.ladder.electrical_fallback:
            self._fallback_to_electrical()
            return
        network = self.control.network
        remaining = []
        for request in list(self.control.compute_buffer):
            placement = self._find_ports(
                self._effective_ports(request.ports_needed))
            if placement is None:
                remaining.append(request)
                self.stats.deferred_evaluations += 1
                self._m_deferrals.inc()
                if self._events.enabled:
                    self._events.emit(
                        "partition_defer", self.cycle,
                        tenant=request.tenant,
                        request_id=request.request_id, reason="no_ports",
                        ports_needed=request.ports_needed)
                if self._tracer.enabled:
                    self._tracer.instant(
                        "core", "alg1", "partition_defer", self.cycle,
                        request_id=request.request_id, reason="no_ports",
                        ports_needed=request.ports_needed)
                continue
            lo, hi = placement
            endpoints = self.control.port_range_endpoints(lo, hi)
            beta = network.buffer_utilization(
                sorted(endpoints), scan_depth=self.cfg.zeta)
            granted = beta <= self.cfg.eta
            self._h_beta.observe(beta)
            if self._tracer.enabled:
                self._tracer.instant(
                    "core", "alg1", "beta_eval", self.cycle,
                    request_id=request.request_id, beta=round(beta, 6),
                    eta=self.cfg.eta, zeta=self.cfg.zeta, granted=granted)
            if granted:
                network.block_ports(endpoints)
                duration = (request.duration_override
                            if request.duration_override is not None
                            else compute_duration_cycles(
                                request.plan, self.system))
                comp = ActiveComputation(
                    request=request, lo_port=lo, hi_port=hi,
                    total_cycles=duration, remaining_cycles=duration,
                    grant_cycle=self.cycle)
                if self.fabric is not None:
                    comp.fabric_partition = self.fabric.split(lo, hi)
                self.active.append(comp)
                self.stats.granted += 1
                self._m_grants.inc()
                wait = self.cycle - request.submit_cycle
                self.stats.total_wait_cycles += wait
                self.control.compute_buffer.remove(request)
                self._account_tenant("core.tenant_partition_grants",
                                     request.tenant)
                self._account_tenant("core.tenant_wait_cycles",
                                     request.tenant, wait)
                if self._events.enabled:
                    self._events.emit(
                        "partition_grant", self.cycle,
                        tenant=request.tenant,
                        request_id=request.request_id,
                        lo_port=lo, hi_port=hi, beta=round(beta, 6),
                        wait_cycles=wait, duration=duration)
                if self._tracer.enabled:
                    self._tracer.instant(
                        "core", "alg1", "mzim_block", self.cycle,
                        request_id=request.request_id, lo_port=lo,
                        hi_port=hi, endpoints=sorted(endpoints))
            else:
                remaining.append(request)
                self.stats.deferred_evaluations += 1
                self._m_deferrals.inc()
                if self._events.enabled:
                    self._events.emit(
                        "partition_defer", self.cycle,
                        tenant=request.tenant,
                        request_id=request.request_id, reason="beta",
                        beta=round(beta, 6), eta=self.cfg.eta)

    def _find_ports(self, ports_needed: int) -> tuple[int, int] | None:
        """First-fit contiguous free fabric port range.

        Ports the degradation ladder has retired (dead-link endpoints)
        are never part of a placement.
        """
        taken = [False] * self.control.fabric_ports
        for comp in self.active:
            for p in range(comp.lo_port, comp.hi_port):
                taken[p] = True
        if self.ladder is not None:
            for p in self.ladder.unusable_ports:
                if 0 <= p < len(taken):
                    taken[p] = True
        run = 0
        for p in range(self.control.fabric_ports):
            run = run + 1 if not taken[p] else 0
            if run == ports_needed:
                return p - ports_needed + 1, p + 1
        return None
