"""Parallel sweep/experiment execution engine with an on-disk result cache.

Every design-space exploration in the repository — the Figure 13/14/15
system sweep, the Algorithm 1 sensitivity scans, the network ablations —
is a map of one *task* over many *points*.  This module gives that map a
single execution substrate:

* **Parallelism.**  Points fan out across a
  :class:`concurrent.futures.ProcessPoolExecutor` (``jobs > 1``) or run
  inline (``jobs == 1``).  Results are always collected in input order,
  and every point gets a deterministic seed derived from ``(base_seed,
  point.key)``, so ``--jobs 1`` and ``--jobs N`` produce identical
  output.
* **Caching.**  Completed points are memoized in a content-addressed
  on-disk cache (JSON artifacts under ``.flumen_cache/`` by default).
  The cache key hashes the task name, the point parameters, the derived
  seed, the task's declared context (system/device parameter tables),
  and a digest of the ``repro`` source tree — editing any model source
  invalidates every cached result automatically.
* **Telemetry.**  Each run reports points evaluated, cache hits,
  failures, and wall/task time via :class:`RunTelemetry`; a per-point
  progress callback is available for long sweeps.
* **Failure isolation.**  A point that raises is recorded as a failed
  :class:`PointResult` (with the traceback) instead of aborting the
  sweep; callers that need all points use :meth:`SweepRun.raise_failures`.

Tasks that cross process boundaries must be registered by name in
``TASKS`` (see :func:`register_task`); plain callables are supported
for inline runs.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time
import traceback
from collections.abc import Callable, Mapping, Sequence
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs import NULL_OBS, Obs
from repro.registry import Registry

#: Default cache location, overridable via the environment.
CACHE_DIR_ENV = "FLUMEN_CACHE_DIR"
DEFAULT_CACHE_DIR = ".flumen_cache"
#: Default worker count, overridable via the environment.
JOBS_ENV = "FLUMEN_JOBS"

_CACHE_SCHEMA = 1


def default_jobs(ceiling: int = 4) -> int:
    """Worker count for callers that did not choose one explicitly."""
    env = os.environ.get(JOBS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return max(1, min(ceiling, os.cpu_count() or 1))


# ----------------------------------------------------------------------
# task registry
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TaskSpec:
    """A named, process-safe sweep task.

    ``fn(params, seed)`` returns a JSON-serializable metrics mapping.
    ``context`` (optional) returns extra state folded into the cache key
    — typically the default system/device parameter tables.
    """

    name: str
    fn: Callable[[dict, int], Mapping]
    context: Callable[[], Mapping] | None = None


TASKS: Registry[TaskSpec] = Registry("task")


def register_task(name: str, *, context: Callable[[], Mapping] | None = None):
    """Decorator: register ``fn(params, seed) -> metrics`` under ``name``.

    A taken name raises: cache keys hash the task *name*, so a silent
    re-registration would be served the previous task's cached results.
    """
    def decorate(fn: Callable[[dict, int], Mapping]):
        TASKS.register(name, TaskSpec(name=name, fn=fn, context=context))
        return fn
    return decorate


def get_task(name: str) -> TaskSpec:
    """Look up a registered task, importing the built-in set on demand."""
    if name not in TASKS:
        from repro.analysis import tasks as _builtin  # noqa: F401
    return TASKS.get(name)


# ----------------------------------------------------------------------
# hashing helpers
# ----------------------------------------------------------------------

def canonical_json(obj: object) -> str:
    """Stable JSON encoding used for hashing and cache payloads."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=str)


@functools.lru_cache(maxsize=1)
def code_version() -> str:
    """Digest of the ``repro`` source tree — the cache-invalidation rule.

    Any edit to any module under ``src/repro`` changes this digest and
    therefore every cache key, so stale results can never be served
    across code changes (see DESIGN.md).
    """
    import repro
    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\x00")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def point_seed(base_seed: int, key: str) -> int:
    """Deterministic per-point seed: stable across runs and job counts."""
    digest = hashlib.sha256(f"{base_seed}\x1f{key}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def cache_key(task: TaskSpec, params: Mapping, seed: int) -> str:
    """Content address of one sweep point."""
    context = task.context() if task.context else {}
    payload = {
        "task": task.name,
        "params": dict(params),
        "seed": seed,
        "context": context,
        "code": code_version(),
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


# ----------------------------------------------------------------------
# result cache
# ----------------------------------------------------------------------

class ResultCache:
    """Content-addressed JSON result store under one directory.

    Entries are written atomically (temp file + ``os.replace``) so
    concurrent sweeps sharing a cache directory never observe torn
    writes; unreadable or malformed entries are treated as misses and
    deleted, so a corrupted cache heals itself on the next run.
    """

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        root = root or os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def load(self, key: str) -> dict | None:
        """Return the cached payload for ``key``, or None on miss."""
        path = self.path_for(key)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            self._discard(path)
            return None
        if (not isinstance(payload, dict)
                or payload.get("schema") != _CACHE_SCHEMA
                or not isinstance(payload.get("metrics"), dict)):
            self._discard(path)
            return None
        return payload

    def store(self, key: str, point_key: str, params: Mapping,
              seed: int, metrics: Mapping) -> None:
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": _CACHE_SCHEMA,
            "key": key,
            "point": point_key,
            "params": dict(params),
            "seed": seed,
            "metrics": dict(metrics),
        }
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(canonical_json(payload))
        os.replace(tmp, path)

    def entries(self) -> int:
        """Number of cached results currently on disk."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass


# ----------------------------------------------------------------------
# run records
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PointSpec:
    """One point of a sweep: a unique key plus JSON-serializable params."""

    key: str
    params: Mapping = field(default_factory=dict)


@dataclass
class PointResult:
    """Outcome of one sweep point, in input order."""

    key: str
    params: dict
    status: str                      # "ok" | "failed"
    metrics: dict | None = None
    error: str | None = None
    traceback: str | None = None
    seed: int = 0
    from_cache: bool = False
    duration_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def record(self) -> dict:
        """Deterministic artifact record (no timing / provenance noise)."""
        rec = {"key": self.key, "params": self.params,
               "status": self.status}
        if self.metrics is not None:
            rec["metrics"] = self.metrics
        if self.error is not None:
            rec["error"] = self.error
        return rec


@dataclass
class RunTelemetry:
    """Counters for one engine run."""

    total: int = 0
    evaluated: int = 0       # task executions (== SystemModel re-evals)
    cache_hits: int = 0
    failures: int = 0
    duration_s: float = 0.0
    task_seconds: float = 0.0

    def summary(self) -> str:
        return (f"points={self.total} cache_hits={self.cache_hits} "
                f"evaluated={self.evaluated} failures={self.failures} "
                f"elapsed={self.duration_s:.2f}s "
                f"task_time={self.task_seconds:.2f}s")

    def to_dict(self) -> dict:
        """JSON-ready snapshot (timing included; strip for determinism)."""
        return {
            "total": self.total,
            "evaluated": self.evaluated,
            "cache_hits": self.cache_hits,
            "failures": self.failures,
            "duration_s": self.duration_s,
            "task_seconds": self.task_seconds,
        }


@dataclass
class SweepRun:
    """Ordered results + telemetry for one engine run."""

    task: str
    results: list[PointResult]
    telemetry: RunTelemetry

    def ok_results(self) -> list[PointResult]:
        return [r for r in self.results if r.ok]

    def failed_results(self) -> list[PointResult]:
        return [r for r in self.results if not r.ok]

    def metrics(self) -> list[dict]:
        """Metrics of successful points, in input order."""
        return [r.metrics for r in self.results if r.ok]

    def records(self) -> list[dict]:
        """Deterministic records for JSON export (input order)."""
        return [r.record() for r in self.results]

    def raise_failures(self) -> SweepRun:
        """Raise if any point failed — for callers that need every point."""
        failed = self.failed_results()
        if failed:
            detail = "; ".join(f"{r.key}: {r.error}" for r in failed[:5])
            raise RuntimeError(
                f"{len(failed)}/{len(self.results)} sweep points failed "
                f"({detail})")
        return self


# ----------------------------------------------------------------------
# worker entry point (module-level: must pickle across processes)
# ----------------------------------------------------------------------

def _execute(fn: Callable[[dict, int], Mapping], params: dict,
             seed: int) -> dict:
    start = time.perf_counter()
    try:
        metrics = fn(dict(params), seed)
        if not isinstance(metrics, Mapping):
            raise TypeError(f"task returned {type(metrics).__name__}, "
                            f"expected a metrics mapping")
        return {"status": "ok", "metrics": dict(metrics),
                "duration_s": time.perf_counter() - start}
    except Exception as exc:
        return {"status": "failed",
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
                "duration_s": time.perf_counter() - start}


def _run_named_point(task_name: str, params: dict, seed: int) -> dict:
    """Worker-side wrapper: resolve the task by name, then execute."""
    try:
        spec = get_task(task_name)
    except KeyError as exc:
        return {"status": "failed", "error": f"KeyError: {exc}",
                "traceback": traceback.format_exc(), "duration_s": 0.0}
    return _execute(spec.fn, params, seed)


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------

class SweepEngine:
    """Map a task over sweep points — in parallel, cached, telemetered.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` runs inline (no pool); ``>1`` fans
        points out over a :class:`ProcessPoolExecutor`.
    cache:
        A :class:`ResultCache`, or ``None`` to disable caching.  Only
        registered (named) tasks are cacheable — plain callables have no
        stable identity to hash.
    progress:
        Optional ``callback(done, total, result)`` invoked in the parent
        process as each point resolves.
    """

    def __init__(self, jobs: int = 1, cache: ResultCache | None = None,
                 progress: Callable[[int, int, PointResult], None]
                 | None = None, obs: Obs = NULL_OBS) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.progress = progress
        self.obs = obs

    def run(self, task: str | Callable[[dict, int], Mapping],
            points: Sequence[PointSpec], base_seed: int = 0) -> SweepRun:
        """Evaluate ``task`` at every point; results keep input order."""
        start = time.perf_counter()
        keys = [p.key for p in points]
        if len(set(keys)) != len(keys):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            raise ValueError(f"duplicate point keys: {dupes[:5]}")

        spec = get_task(task) if isinstance(task, str) else None
        task_name = spec.name if spec else getattr(
            task, "__name__", "<callable>")
        telemetry = RunTelemetry(total=len(points))
        results: list[PointResult | None] = [None] * len(points)
        done = 0
        # Engine events use the point *index* as the cycle timestamp —
        # the engine has no simulation clock, and the index is the one
        # quantity that is identical across --jobs 1 and --jobs N.
        events = self.obs.events

        # Phase 1: serve cache hits.
        pending: list[tuple[int, PointSpec, int, str | None]] = []
        for i, point in enumerate(points):
            seed = point_seed(base_seed, point.key)
            ckey = None
            hit = False
            if spec is not None and self.cache is not None:
                ckey = cache_key(spec, point.params, seed)
                payload = self.cache.load(ckey)
                hit = payload is not None
                if hit:
                    results[i] = PointResult(
                        key=point.key, params=dict(point.params),
                        status="ok", metrics=payload["metrics"],
                        seed=seed, from_cache=True)
                    telemetry.cache_hits += 1
                    done += 1
            if events.enabled:
                events.emit("cache_hit" if hit else "cache_miss", i,
                            task=task_name, key=point.key)
            if hit:
                self._notify(done, len(points), results[i])
                continue
            pending.append((i, point, seed, ckey))

        # Phase 2: evaluate misses.
        by_index = {i: (point, seed, ckey)
                    for i, point, seed, ckey in pending}
        for i, outcome in self._evaluate(spec, task, pending):
            point, seed, ckey = by_index[i]
            result = PointResult(
                key=point.key, params=dict(point.params),
                status=outcome["status"], metrics=outcome.get("metrics"),
                error=outcome.get("error"),
                traceback=outcome.get("traceback"), seed=seed,
                duration_s=outcome.get("duration_s", 0.0))
            telemetry.evaluated += 1
            telemetry.task_seconds += result.duration_s
            if result.ok:
                if ckey is not None and self.cache is not None:
                    self.cache.store(ckey, point.key, point.params, seed,
                                     result.metrics)
            else:
                telemetry.failures += 1
            results[i] = result
            done += 1
            self._notify(done, len(points), result)

        telemetry.duration_s = time.perf_counter() - start
        final = [r for r in results if r is not None]
        assert len(final) == len(points)
        # Failure events are deferred to the end and emitted in input
        # order, so the event log is deterministic under jobs > 1 (pool
        # completion order is not).
        if events.enabled:
            for i, result in enumerate(final):
                if not result.ok:
                    events.emit("point_failed", i, task=task_name,
                                key=result.key, error=result.error or "")
        self._record_telemetry(task_name, telemetry)
        if self.obs.sampler is not None:
            # One end-of-run snapshot at the final point index; the
            # engine clock only advances at run boundaries.
            self.obs.sampler.sample(len(points))
        return SweepRun(task=task_name, results=final, telemetry=telemetry)

    def _record_telemetry(self, task_name: str,
                          telemetry: RunTelemetry) -> None:
        """Mirror the run counters into the metrics registry."""
        metrics = self.obs.metrics
        metrics.counter("engine.points_total", task=task_name).inc(
            telemetry.total)
        metrics.counter("engine.points_evaluated", task=task_name).inc(
            telemetry.evaluated)
        metrics.counter("engine.cache_hits", task=task_name).inc(
            telemetry.cache_hits)
        metrics.counter("engine.failures", task=task_name).inc(
            telemetry.failures)
        # Per-phase wall timing (count-only in deterministic snapshots).
        metrics.timer("engine.run_seconds", task=task_name).observe(
            telemetry.duration_s)
        if telemetry.evaluated:
            metrics.timer("engine.task_seconds", task=task_name).observe(
                telemetry.task_seconds)

    # ------------------------------------------------------------------

    def _evaluate(self, spec: TaskSpec | None, task, pending):
        """Yield ``(index, outcome)`` for every pending point."""
        if not pending:
            return
        if self.jobs > 1 and spec is not None and len(pending) > 1:
            yield from self._evaluate_pool(spec, pending)
            return
        fn = spec.fn if spec is not None else task
        for i, point, seed, _ckey in pending:
            yield i, _execute(fn, dict(point.params), seed)

    def _evaluate_pool(self, spec: TaskSpec, pending):
        # Imported here: it loads multiprocessing, which inline runs skip.
        from concurrent.futures import ProcessPoolExecutor

        workers = min(self.jobs, len(pending))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_run_named_point, spec.name,
                            dict(point.params), seed): i
                for i, point, seed, _ckey in pending}
            remaining = set(futures)
            while remaining:
                finished, remaining = wait(remaining,
                                           return_when=FIRST_COMPLETED)
                for fut in finished:
                    i = futures[fut]
                    try:
                        outcome = fut.result()
                    except Exception as exc:
                        # Pool-level breakage (worker killed, pickle
                        # error): record it against the point rather
                        # than aborting the sweep.
                        outcome = {
                            "status": "failed",
                            "error": f"{type(exc).__name__}: {exc}",
                            "traceback": traceback.format_exc(),
                            "duration_s": 0.0}
                    yield i, outcome

    def _notify(self, done: int, total: int, result: PointResult) -> None:
        if self.progress is not None:
            self.progress(done, total, result)
