"""Long-lived serving daemon: live traffic over the Flumen fabric.

``python -m repro serve`` runs a persistent session in which seeded
client populations (:mod:`repro.serve.arrivals`) offer concurrent MVM
and communication requests, token buckets shed overload
(:mod:`repro.serve.admission`), per-tenant batches drain into the
fleet MVM queue, Algorithm 1 repartitions under the *observed* load,
and the degradation ladder handles faults mid-session
(:mod:`repro.serve.daemon`).  A live `/metrics` / `/healthz` endpoint
(:mod:`repro.serve.live`) serves the running session through the
standard telemetry server.  See DESIGN.md §17.
"""

from repro.serve.admission import AdmissionController, TokenBucket
from repro.serve.arrivals import (
    ARRIVALS,
    Arrival,
    ArrivalProcess,
    BurstyArrivals,
    ClientPopulation,
    DiurnalArrivals,
    PoissonArrivals,
)
from repro.serve.cluster import (
    ClusterTelemetryStore,
    ReplicaSet,
    shard_configs,
    shard_tenants,
)
from repro.serve.daemon import (
    LATENCY_BOUNDS,
    DaemonState,
    ServeConfig,
    ServeDaemon,
)
from repro.serve.live import LiveTelemetryStore

__all__ = [
    "ARRIVALS",
    "AdmissionController",
    "Arrival",
    "ArrivalProcess",
    "BurstyArrivals",
    "ClientPopulation",
    "ClusterTelemetryStore",
    "DaemonState",
    "DiurnalArrivals",
    "LATENCY_BOUNDS",
    "LiveTelemetryStore",
    "PoissonArrivals",
    "ReplicaSet",
    "ServeConfig",
    "ServeDaemon",
    "TokenBucket",
    "shard_configs",
    "shard_tenants",
]
