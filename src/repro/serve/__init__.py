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

# perfbench/cases.py imports these three names from the package.
from repro.serve.cluster import ReplicaSet
from repro.serve.daemon import ServeConfig, ServeDaemon

__all__ = ["ReplicaSet", "ServeConfig", "ServeDaemon"]
