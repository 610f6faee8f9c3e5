"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import build_parser, main


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


#: ``vars(parse_args([command]))`` for every subcommand, as the parser
#: stood before its shared flags moved onto argparse parents.  The one
#: deliberate difference: ``trace --seed`` is gone (the system model
#: never read it).
DEFAULTS = {
    "area": {"command": "area", "log_level": "warning"},
    "compute": {"command": "compute", "log_level": "warning"},
    "faults": {"cache_dir": None, "command": "faults", "csv": None,
               "cycles": 1200, "fault": None, "jobs": 1,
               "log_level": "warning", "magnitudes": [1.0],
               "mesh": "clements", "no_cache": False, "no_golden": False,
               "out": None, "runs": 3, "seed": 0},
    "info": {"command": "info", "log_level": "warning"},
    "latency": {"command": "latency", "cycles": 2000,
                "log_level": "warning", "pattern": "uniform",
                "topology": "flumen"},
    "metrics-server": {"check": False, "command": "metrics-server",
                       "dir": "telemetry", "host": "127.0.0.1",
                       "log_level": "warning", "once": False,
                       "port": 9109},
    "perf": {"baseline": "BENCH_baseline.json", "check": False,
             "command": "perf", "log_level": "warning", "mesh": None,
             "only": None, "out": None, "small": False,
             "summary_md": None, "tolerance": 2.0},
    "serve": {"admission_burst": 24.0, "admission_rate": 0.12,
              "arrival": "poisson", "batch_size": 8, "batch_window": 64,
              "check": False, "command": "serve", "duration": 4096,
              "fault": None, "fault_magnitude": 1.0, "host": "127.0.0.1",
              "http_port": None, "jobs": 1, "linger": 0.0,
              "log_level": "warning", "max_events": None,
              "mvm_fraction": 0.5, "nodes": 16, "out": None, "ports": 8,
              "rate": 0.05, "replicas": 1, "seed": 0,
              "telemetry_dir": None, "tenants": 3},
    "sweep": {"cache_dir": None, "command": "sweep", "configs": None,
              "jobs": 1, "log_level": "warning", "mesh": None,
              "no_cache": False, "out": None, "progress": False,
              "seed": 17, "small": False, "task": "system_point",
              "telemetry_dir": None, "workloads": None},
    "system": {"command": "system", "log_level": "warning",
               "workload": "rotation3d"},
    "top": {"command": "top", "dir": "telemetry", "events": 8,
            "follow": False, "frames": None, "interval": 2.0,
            "log_level": "warning", "top": 10},
    "trace": {"check": False, "command": "trace", "config": "flumen_a",
              "log_level": "warning", "mesh": None, "metrics_out": None,
              "out": "trace.json", "small": False,
              "workload": "rotation3d"},
}

_ENGINE_HELP = {
    "--jobs": ["  --jobs JOBS           worker processes (default: 1)"],
    "--no-cache": ["  --no-cache            bypass the on-disk result "
                   "cache"],
    "--cache-dir": [
        "  --cache-dir CACHE_DIR",
        "                        cache directory (default: "
        "$FLUMEN_CACHE_DIR or",
        "                        .flumen_cache)"],
}

#: Each shared flag's ``--help`` entry at 80 columns, per subcommand.
SHARED_HELP = {
    "sweep": _ENGINE_HELP,
    "faults": _ENGINE_HELP,
    "serve": {
        "--jobs": [
            "  --jobs J              run replicas across a J-worker "
            "process pool (default:",
            "                        1, sequential; results are "
            "byte-identical either way)"],
        "--replicas": [
            "  --replicas R          shard tenants across R independent "
            "fabric replicas",
            "                        (default: 1, the single daemon); "
            "per-tenant streams",
            "                        are byte-identical to the unsharded "
            "session's"],
    },
}


def _help_entry(text: str, flag: str) -> list[str]:
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith(f"  {flag} ") or line == f"  {flag}")
    entry = [lines[start]]
    for line in lines[start + 1:]:
        if not line.startswith("    "):
            break
        entry.append(line)
    return entry


class TestParser:
    @pytest.mark.parametrize("command", sorted(DEFAULTS))
    def test_defaults_pinned(self, command):
        assert vars(build_parser().parse_args([command])) \
            == DEFAULTS[command]

    @pytest.mark.parametrize("command", sorted(SHARED_HELP))
    def test_shared_flag_help_unchanged(self, command, capsys,
                                        monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        text = capsys.readouterr().out
        for flag, entry in SHARED_HELP[command].items():
            assert _help_entry(text, flag) == entry, flag

    def test_trace_has_no_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["trace", "--seed", "3"])
        assert exc.value.code == 2


class TestBadCounts:
    @pytest.mark.parametrize("argv", [
        ["serve", "--duration", "300", "--replicas", "0"],
        ["serve", "--duration", "300", "--replicas", "-2"],
        ["serve", "--duration", "300", "--replicas", "2", "--jobs", "0"],
        ["sweep", "--jobs", "0"],
        ["faults", "--jobs", "0"],
    ], ids=["replicas-0", "replicas-negative", "serve-jobs-0",
            "sweep-jobs-0", "faults-jobs-0"])
    def test_argparse_rejects_non_positive(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--tenants", "2", "--replicas", "4"],
         "4 replicas need at least 4 tenants, got 2"),
        (["--duration", "0"], "duration must be >= 1, got 0"),
        (["--duration", "0", "--tenants", "4", "--replicas", "2"],
         "duration must be >= 1, got 0"),
    ], ids=["too-few-tenants", "bad-config", "bad-cluster-config"])
    def test_config_errors_exit_2_with_one_line(self, argv, message,
                                                capsys, caplog):
        assert main(["serve", *argv]) == 2
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert [r.getMessage() for r in errors] == [message]
        assert capsys.readouterr().out == ""
