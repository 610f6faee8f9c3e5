"""Run one workload of the repository benchmark and report its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep_paper --seed 0 --seconds 25 --trace 0

The run repeats the workload, each repetition in a fresh interpreter
(``rep.py``), until ``--seconds`` have passed, and reports medians over
the repetitions; host times are rescaled to a quiet host's speed by a
probe sampled during each repetition (see ``rep.py``).  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics, including the tracing
overhead.  Every repetition's simulated output is hashed and checked
against ``pins.json`` (where the seed is pinned) and against the
workload's invariants; a mismatch counts the repetition as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Paths the program writes by default; the benchmark must leave them be.
GUARDED = (".flumen_cache", "trace.json", "trace.metrics.jsonl")
#: One repetition may not exceed this (the longest is ~10 s).
REP_TIMEOUT_S = 150
#: The speed probe's mean kernel time (``rep.py``) on a quiet host.
#: Host times are reported at that speed: measured seconds x this / the
#: kernel's mean time over the same phase of the same repetition.
QUIET_SPEED_S = 0.0015


def _mtime(path: Path) -> int | None:
    try:
        return path.stat().st_mtime_ns
    except FileNotFoundError:
        return None


def repetition(workload: str, seed: int, size: str, trace: bool,
               spans: bool) -> dict:
    """Run one repetition in a fresh interpreter; returns its record.

    ``trace`` is the run's mode (both legs of a traced run execute the
    same inputs); ``spans`` records spans in this repetition.

    A fixed hash seed and single-threaded BLAS keep host timings steadier
    and floating-point results independent of the machine's core count.
    """
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    command = [sys.executable, str(HERE / "rep.py"),
               "--workload", workload, "--seed", str(seed),
               "--size", size, "--trace", str(int(trace)),
               "--spans", str(int(spans)),
               "--t0", repr(time.monotonic())]
    proc = subprocess.run(command, cwd=ROOT, env=env, text=True,
                          stdout=subprocess.PIPE, timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"repetition exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _problems(record: dict, pinned: str | None,
              guarded: dict[Path, int | None]) -> list[str]:
    problems = list(record["problems"])
    if pinned is not None and record["digest"] != pinned:
        problems.append(f"digest {record['digest'][:16]} != pinned "
                        f"{pinned[:16]}")
    for path, before in guarded.items():
        if _mtime(path) != before:
            problems.append(f"the run wrote {path.name} into the tree")
    return problems


def _median(records: list[dict], name: str) -> float:
    return statistics.median(r[name] for r in records)


def _quiet(record: dict, phase: str) -> float:
    """The phase's time in ``record`` at the quiet speed."""
    return record[f"{phase}_s"] * QUIET_SPEED_S / record[f"{phase}_speed_s"]


def _at_quiet_speed(records: list[dict], phase: str) -> float:
    return statistics.median(_quiet(r, phase) for r in records)


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke test's reduced inputs")
    parser.add_argument("--pins", type=Path, default=HERE / "pins.json",
                        help="digest pins to check outputs against")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    pinned = json.loads(args.pins.read_text()).get(args.workload, {}) \
        .get(args.size, {}).get(str(args.seed))
    guarded = {ROOT / name: _mtime(ROOT / name) for name in GUARDED}

    # An untimed tiny repetition first compiles the bytecode and warms the
    # file cache, so the first measured setup is not an outlier.
    repetition(args.workload, 0, "tiny", bool(args.trace), False)
    # Rounds of one untraced (and with --trace 1, one traced) repetition
    # run while the next round is expected to end within --seconds; at
    # least one round runs.
    legs = (False, True) if args.trace else (False,)
    runs: dict[bool, list[dict]] = {leg: [] for leg in legs}
    failures: list[str] = []
    start = time.monotonic()
    rounds = 0
    while not rounds or (time.monotonic() - start) * (rounds + 1) / rounds \
            <= args.seconds:
        rounds += 1
        for leg in legs:
            record = repetition(args.workload, args.seed, args.size,
                                bool(args.trace), leg)
            problems = _problems(record, pinned, guarded)
            failures += problems
            record["failed"] = bool(problems)
            runs[leg].append(record)

    untraced = runs[False]
    reps = [r for leg in legs for r in runs[leg]]
    if len({r["digest"] for r in reps}) > 1:
        failures.append("repetitions of one seed disagree on the output")
        for record in reps:
            record["failed"] = True
    host = {"setup_s": (_at_quiet_speed(untraced, "setup"), "s"),
            "wall_s": (_at_quiet_speed(untraced, "wall"), "s"),
            "peak_rss_mb": (_median(untraced, "rss_mb"), "MB")}
    # Simulated outputs are deterministic for a seed (checked above).
    sim = untraced[0]["sim"]
    metrics = dict(host, **sim)
    if args.trace:
        # Every layer metric comes from one repetition (the median one at
        # the quiet speed), so the self times and unattributed_s add up to
        # its wall time; times are rescaled like the end-to-end ones.
        traced = sorted(runs[True], key=lambda r: _quiet(r, "wall"))[
            (len(runs[True]) - 1) // 2]
        scale = QUIET_SPEED_S / traced["wall_speed_s"]
        for name, (value, unit) in traced["layers"].items():
            metrics[name] = (value * scale if unit in ("s", "ns") else value,
                             unit)
        metrics["trace_overhead_frac"] = (
            _quiet(traced, "wall") / host["wall_s"][0] - 1.0, "ratio")
    failed = sum(r["failed"] for r in reps)

    print(f"{args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace}: {len(reps)} repetitions, {failed} failed")
    for problem in dict.fromkeys(failures):
        print(f"  FAILED: {problem}")
    raw_wall = _median(untraced, "wall_s")
    probe_ms = 1e3 * _median(untraced, "wall_speed_s")
    print(f"  host, median of {len(untraced)} untraced repetitions, at the "
          f"quiet speed (raw wall {raw_wall:.3f} s, probe {probe_ms:.3f} ms):")
    _print_metrics(host)
    print("  simulated:")
    _print_metrics(sim)
    if args.trace:
        _print_layers(metrics, _quiet(traced, "wall"))

    group = "per_layer" if args.trace else "end_to_end"
    reported = {m["name"]: {"value": metrics.get(m["name"], (0.0,))[0],
                            "unit": m["unit"]} for m in spec[group]}
    print(json.dumps({"correct": not failures, "attempted": len(reps),
                      "failed": failed, "metrics": reported}))
    return 0


def _print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"    {name:<30} {value:14.4f} {unit}")


def _print_layers(metrics: dict, wall_s: float) -> None:
    from spans import LAYERS

    print(f"  per layer, median traced repetition at the quiet speed "
          f"(wall {wall_s:.3f} s):")
    for name in [f"{layer}.self_s" for layer in LAYERS] + ["unattributed_s"]:
        value = metrics[name][0]
        print(f"    {name:<30} {value:9.3f} s {100 * value / wall_s:6.1f}%")
    _print_metrics({name: metrics[name] for name in sorted(metrics)
                    if "." in name and not name.endswith(".self_s")})
    _print_metrics({"trace_overhead_frac": metrics["trace_overhead_frac"]})


if __name__ == "__main__":
    sys.exit(main())
