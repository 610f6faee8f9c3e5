"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestCLI:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "MZIM ports" in out
        assert "vgg16_fc" in out

    def test_area(self, capsys):
        assert main(["area"]) == 0
        out = capsys.readouterr().out
        assert "9.46" in out
        assert "162.6" in out

    def test_compute(self, capsys):
        assert main(["compute"]) == 0
        out = capsys.readouterr().out
        assert "64x64" in out
        assert "advantage" in out

    def test_latency_small(self, capsys):
        assert main(["latency", "--topology", "flumen",
                     "--pattern", "shuffle", "--cycles", "600"]) == 0
        out = capsys.readouterr().out
        assert "flumen / shuffle" in out

    def test_system_rotation(self, capsys):
        assert main(["system", "--workload", "rotation3d"]) == 0
        out = capsys.readouterr().out
        assert "flumen_a" in out
        assert "speedup" in out

    def test_system_unknown_workload(self, capsys):
        assert main(["system", "--workload", "nope"]) == 2

    def test_sweep_small(self, capsys, tmp_path):
        out_path = tmp_path / "records.json"
        assert main(["sweep", "--small", "--workloads", "rotation3d",
                     "--configs", "mesh", "flumen_a", "--jobs", "1",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out
        assert "evaluated=2" in out
        import json
        records = json.loads(out_path.read_text())
        assert [r["key"] for r in records] == ["rotation3d/mesh",
                                               "rotation3d/flumen_a"]

        # Warm rerun: every point served from cache, zero re-evaluations.
        assert main(["sweep", "--small", "--workloads", "rotation3d",
                     "--configs", "mesh", "flumen_a", "--jobs", "1",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        assert "evaluated=0" in capsys.readouterr().out

    def test_sweep_unknown_workload(self, capsys):
        assert main(["sweep", "--workloads", "nope"]) == 2

    def test_sweep_unknown_config(self, capsys):
        assert main(["sweep", "--configs", "hypercube"]) == 2

    @pytest.mark.parametrize("argv", [
        ["sweep", "--mesh", "nope"],
        ["trace", "--small", "--mesh", "nope"],
        ["faults", "--mesh", "nope"],
        ["faults", "--fault", "nope"],
        ["perf", "--small", "--mesh", "nope"],
    ], ids=["sweep-mesh", "trace-mesh", "faults-mesh", "faults-fault",
            "perf-mesh"])
    def test_unknown_registry_name(self, argv, caplog):
        assert main(argv) == 2
        assert "'nope'; choose from" in caplog.text

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])
