"""One benchmark repetition, run by ``run.py`` in a fresh interpreter.

A fresh interpreter per repetition keeps in-process memos (the SVD LRU,
propagation plans, serve memos) from carrying over between
repetitions.  The repetition generates its inputs from the seed, runs
the workload, checks its outputs, and prints one JSON line::

    {"setup_s", "wall_s", "setup_speed_s", "wall_speed_s", "rss_mb",
     "digest", "problems", "sim", "layers"}

``setup_s`` runs from ``--t0`` (taken by the parent just before it
started this interpreter, on the system-wide monotonic clock) to the
moment the inputs exist; ``wall_s`` is the measured call.  Both exclude
the time spent in the speed probe, whose mean kernel time over each
phase is ``setup_speed_s`` and ``wall_speed_s``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _reference_kernel() -> None:
    """A fixed pure-Python loop (~1.5 ms) sharing no code with the program."""
    table: dict[int, int] = {}
    total = 0
    for i in range(10_000):
        table[i & 1023] = i
        total += table.get(i >> 3 & 1023, 0)


class SpeedProbe:
    """Samples how fast the host runs Python while the program runs.

    Every ``interval`` seconds a timer signal runs the reference kernel
    between two bytecodes of the program and records the kernel's CPU
    time.  A shared 2-CPU host was seen to run everything up to ~2x
    slower for seconds to minutes at a time; the kernel slows down with
    the program, so host times divided by its mean time are steady.
    """

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.samples: list[float] = []
        #: Wall seconds spent inside the probe.
        self.spent = 0.0
        #: Called with each sample's wall seconds (the tracer uses it to
        #: keep the probe out of the open span's self time).
        self.on_sample = None

    def _sample(self, signum, frame) -> None:
        start, cpu = time.perf_counter(), time.thread_time()
        _reference_kernel()
        self.samples.append(time.thread_time() - cpu)
        elapsed = time.perf_counter() - start
        self.spent += elapsed
        if self.on_sample is not None:
            self.on_sample(elapsed)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.spent

    def speed_since(self, mark: tuple[int, float]) -> float | None:
        """Mean kernel seconds since ``mark`` (all samples if none)."""
        samples = self.samples[mark[0]:] or self.samples
        return statistics.fmean(samples) if samples else None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True,
                        help="the run's mode: 1 for a traced run")
    parser.add_argument("--spans", type=int, choices=(0, 1), required=True,
                        help="1 to record spans in this repetition")
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args()

    probe = SpeedProbe()
    probe.start()
    begin = probe.mark()

    from cases import CASES
    from repro.analysis.engine import canonical_json

    case = CASES[args.workload]
    tracer = None
    if args.spans:
        from spans import SpanTracer, install
        tracer = SpanTracer()
        install(tracer)
        probe.on_sample = tracer.exclude
    inputs = case.inputs(args.seed, args.size, bool(args.trace))
    setup = probe.mark()
    setup_s = time.monotonic() - args.t0 - setup[1]
    setup_speed_s = probe.speed_since(begin)

    start = time.perf_counter()
    output = case.run(inputs)
    wall_s = time.perf_counter() - start - (probe.spent - setup[1])
    probe.stop()
    wall_speed_s = probe.speed_since(setup)

    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    layers = {}
    if tracer is not None:
        from spans import layer_metrics
        layers = layer_metrics(tracer, wall_s)
    digest = hashlib.sha256(
        canonical_json(case.canonical(output)).encode()).hexdigest()
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "setup_speed_s": setup_speed_s,
        "wall_speed_s": wall_speed_s,
        "rss_mb": rss_kb / 1024.0,
        "digest": digest,
        "problems": case.invariants(output),
        "sim": case.sim_metrics(output),
        "layers": layers,
    }))


if __name__ == "__main__":
    main()
