"""Golden digests of the serve artifacts.

Each session below runs through the ``repro serve`` CLI with ``--out``
and ``--telemetry-dir``, and the sha256 of every file it writes — the
report JSON, ``events.jsonl``, ``snapshots.jsonl`` and ``metrics.prom``
— is pinned.  The per-cycle reference daemon (``tests/reference_serve.py``)
subclasses :class:`~repro.serve.daemon.ServeDaemon` and so shares its request
ledger and counter sync; it cannot catch drift there.  These pins can:
a counter written at a different cycle, a series created early or a
latency summary computed another way changes a digest.

A pin moves only with a deliberate change to serve semantics, and the
change that moves it says so.
"""

import hashlib
from pathlib import Path

import pytest

from repro.__main__ import main

#: Session name -> ``repro serve`` arguments.
SESSIONS = {
    "bursty": ["--duration", "1200", "--seed", "7", "--arrival", "bursty",
               "--rate", "0.08"],
    "overload": ["--duration", "512", "--seed", "0", "--tenants", "12",
                 "--rate", "0.2"],
    "stuck_mzi": ["--duration", "2000", "--seed", "5", "--rate", "0.08",
                  "--fault", "stuck_mzi", "--fault-magnitude", "1.0"],
    "laser_degradation": ["--duration", "3000", "--seed", "5", "--rate",
                          "0.08", "--fault", "laser_degradation",
                          "--fault-magnitude", "2.0"],
    "cluster": ["--duration", "2000", "--seed", "7", "--tenants", "8",
                "--rate", "0.08", "--replicas", "4", "--jobs", "1"],
}

#: Artifact file -> its sha256, per session.
GOLDEN = {
    "bursty": {
        "report.json": "005b06fb587be733604cb034eb1f85d546bae361308b58f4a790cc4ef7895dcf",
        "events.jsonl": "04045f5f75f1ac9f01a64b0c3d1e7f0b34c1d57ed114fc77ca25982db0e7d7e6",
        "snapshots.jsonl": "47d559e486e84433c47855b60f341e01819e7e21ee279fc45d2a92384ec16920",
        "metrics.prom": "5273c173d035224e27199d9367a88e99c981f06da8bad98f2e41ad2f36f332da",
    },
    "cluster": {
        "report.json": "e80f650ed35367da81af7eb93cc61057a2a609d2e7d82f67ca21f4bac3e14654",
        "events.jsonl": "ce67ebdfc31560794249a7b4f39e1b50d98899abe73169b0baa27335f92cbfc1",
        "snapshots.jsonl": "db613fca2368829a1979184375cda52139ba40d1091f020c89397e21fac90427",
        "metrics.prom": "79936da22bdb9e21b681bce3cc73b3b97e938119f65e3c09246b03d7869e3fc0",
    },
    "laser_degradation": {
        "report.json": "c5507e26f5065ffd35a4cdabd058385bf53bf77dd08d37e329fbcded76096e90",
        "events.jsonl": "e8bee8dcbc83702a1891fde096a99deab3d038418d0af74e3241e63c8d1d2486",
        "snapshots.jsonl": "36cfb10bc6d3f695552d7268db0d148f616fb6944f74005c1ab59a143aa1b14e",
        "metrics.prom": "f3accf8f30bf8f65735008bf62a44816b7bd6b267a01d2f1b7de9aeb109f3be3",
    },
    "overload": {
        "report.json": "bfa62638e1f8e38ef9868e7ce3dbe478f294d53a87be63ac511db5416a459f27",
        "events.jsonl": "a5ee21e3ccbc3068f63a2c08fea52200a2ad93684caee3846405916bef90a057",
        "snapshots.jsonl": "84af4fe3f57f4f07df2bbc4f9eecbe4b5cab24af188a73fb7c9effa13e2d5239",
        "metrics.prom": "ed6f2d4648a7ddfccb87b08fdab49f9eb87f75c669097dae8267766821287eed",
    },
    "stuck_mzi": {
        "report.json": "48bfcc7ecfd3441fb5eabd56bb9c02a557eb2428e4abd5c64704f2ed4a86655f",
        "events.jsonl": "a6bd759062df51aa28eaa6640a0675c4f777761525be9b76958c759afb1f7110",
        "snapshots.jsonl": "fe7d8ec645faefe06f323943617e2474591dec32a0f7e37ff7a43cf18f9304a0",
        "metrics.prom": "9938a7d25f71cdfc65704c68ba97a1709c7dcfa24b264905793fe96cb8e24f03",
    },
}


def session_digests(args: list[str], root: Path) -> dict[str, str]:
    """Run one ``repro serve`` session; sha256 of each file it wrote."""
    out, telemetry = root / "report.json", root / "telemetry"
    assert main(["serve", *args, "--out", str(out),
                 "--telemetry-dir", str(telemetry)]) == 0
    files = [out, *(telemetry / name for name in
                    ("events.jsonl", "snapshots.jsonl", "metrics.prom"))]
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in files}


@pytest.mark.parametrize("session", sorted(SESSIONS))
def test_serve_artifacts_match_golden(session, tmp_path):
    assert session_digests(SESSIONS[session], tmp_path) == GOLDEN[session]
