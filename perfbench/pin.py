"""Re-pin the simulated-output digests in ``pins.json``.

Run from the repository root after a change that is meant to alter
simulated outputs (and say why in CHANGES.md)::

    python3 perfbench/pin.py

Pins the ``full`` size at the default seed (0) and one held-out seed,
and the ``tiny`` size the smoke test uses at seed 0.
"""

from __future__ import annotations

import json

from run import HERE, ROOT, repetition

#: (size, seed) pairs pinned for every workload.
PINNED = (("full", 0), ("full", 7), ("tiny", 0))


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pins: dict = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for size, seed in PINNED:
            record = repetition(workload, seed, size, trace=False,
                                spans=False)
            if record["problems"]:
                raise SystemExit(f"{workload}/{size}/{seed}: "
                                 f"{record['problems']}")
            pins.setdefault(workload, {}).setdefault(size, {})[str(seed)] = \
                record["digest"]
            print(workload, size, seed, record["digest"][:16])
    (HERE / "pins.json").write_text(json.dumps(pins, indent=2) + "\n")


if __name__ == "__main__":
    main()
