"""Unit tests for the CLI."""

import json

import pytest

from repro.cli import main
from repro.memsim import clear_global_cache


def test_machines_lists_all(capsys):
    assert main(["machines"]) == 0
    out = capsys.readouterr().out
    for name in ("dunnington", "finis_terrae", "dempsey", "athlon_3200"):
        assert name in out


def test_run_writes_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["run", "--machine", "dempsey", "-o", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["system"] == "dempsey"
    assert [c["size"] for c in data["caches"]] == [16384, 2097152]
    out = capsys.readouterr().out
    assert "Cache hierarchy" in out


def test_run_unknown_machine_fails_cleanly(capsys):
    assert main(["run", "--machine", "cray-1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_report_roundtrip(tmp_path, capsys):
    path = tmp_path / "report.json"
    main(["run", "--machine", "athlon_3200", "-o", str(path)])
    capsys.readouterr()
    assert main(["report", str(path)]) == 0
    assert "athlon_3200" in capsys.readouterr().out


def test_advise(tmp_path, capsys):
    path = tmp_path / "report.json"
    main(["run", "--machine", "dempsey", "-o", str(path)])
    capsys.readouterr()
    assert main(["advise", str(path)]) == 0
    out = capsys.readouterr().out
    assert "matmul tile for L1" in out


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_run_resume_requires_checkpoint(capsys):
    assert main(["run", "--machine", "dempsey", "--resume"]) == 2
    assert "--resume requires --checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--jobs", "2"], ["--probe-timeout", "5"]])
def test_run_rejects_removed_worker_pool_flags(flag, capsys):
    # Probes are measured one at a time; the pool's flags are gone.
    with pytest.raises(SystemExit) as exc:
        main(["run", "--machine", "dunnington", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_run_with_checkpoint_then_resume(tmp_path, capsys):
    ckpt = tmp_path / "ckpt.json"
    assert main(["run", "--machine", "dempsey", "--checkpoint", str(ckpt)]) == 0
    assert ckpt.exists()
    data = json.loads(ckpt.read_text())
    assert "cache_size" in data["completed"]
    capsys.readouterr()
    # Resuming a finished run re-measures nothing and still reports.
    assert main(
        ["run", "--machine", "dempsey", "--checkpoint", str(ckpt), "--resume"]
    ) == 0
    assert "Cache hierarchy" in capsys.readouterr().out


def test_run_lenient_with_fault_plan_degrades(tmp_path, capsys):
    from repro import FaultPlan

    plan_path = tmp_path / "plan.json"
    # A dead bandwidth meter: memory phase fails, suite survives.
    FaultPlan(seed=1, nan_rate=1.0, only=("bandwidth",)).save(plan_path)
    report_path = tmp_path / "report.json"
    code = main(
        [
            "run",
            "--machine",
            "dempsey",
            "--fault-plan",
            str(plan_path),
            "--retries",
            "2",
            "--lenient",
            "-o",
            str(report_path),
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "WARNING: degraded run" in captured.err
    assert "memory_overhead=failed" in captured.err
    data = json.loads(report_path.read_text())
    assert data["phase_status"]["memory_overhead"] == "failed"
    assert data["phase_status"]["cache_size"] == "ok"


def test_run_strict_with_fault_plan_fails_loudly(tmp_path, capsys):
    from repro import FaultPlan

    plan_path = tmp_path / "plan.json"
    FaultPlan(seed=1, nan_rate=1.0, only=("bandwidth",)).save(plan_path)
    code = main(
        [
            "run",
            "--machine",
            "dempsey",
            "--fault-plan",
            str(plan_path),
            "--retries",
            "2",
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_run_with_samples_hardening(tmp_path):
    path = tmp_path / "report.json"
    assert main(
        ["run", "--machine", "athlon_3200", "--samples", "2", "-o", str(path)]
    ) == 0
    data = json.loads(path.read_text())
    assert data["caches"]


def test_run_retries_n_makes_n_retries(tmp_path, capsys):
    """``--retries N`` retries a failing measurement N times: N + 1 attempts."""
    from repro import FaultPlan

    plan_path = tmp_path / "plan.json"
    FaultPlan(seed=1, nan_rate=1.0, only=("bandwidth",)).save(plan_path)
    argv = ["run", "--machine", "dempsey", "--fault-plan", str(plan_path)]
    assert main([*argv, "--retries", "2"]) == 1
    assert "no valid measurement after 3 attempt(s)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags,hardening",
    [(["--retries", "4"], (4, 1)), (["--samples", "3"], (2, 3))],
)
def test_run_one_hardening_flag_takes_the_api_default_for_the_other(
    tmp_path, monkeypatch, flags, hardening
):
    import functools

    import repro.cli as cli

    built = []
    real = cli.HardenedBackend

    @functools.wraps(real)
    def recording(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "HardenedBackend", recording)
    path = tmp_path / "report.json"
    assert main(["run", "--machine", "athlon_3200", *flags, "-o", str(path)]) == 0
    assert [(b.retries, b.samples) for b in built] == [hardening]


def test_run_warm_matches_cold_run(tmp_path, capsys):
    cold = tmp_path / "cold.json"
    warm = tmp_path / "warm.json"
    clear_global_cache()
    assert main(["run", "--machine", "dempsey", "-o", str(cold)]) == 0
    assert main(["run", "--machine", "dempsey", "-o", str(warm)]) == 0
    a = json.loads(cold.read_text())
    b = json.loads(warm.read_text())
    # The outcome cache only changes wall-clock time, never measurements.
    for volatile in ("timings", "total_wall_seconds"):
        a.pop(volatile, None)
        b.pop(volatile, None)
    assert a == b


SMALL_MIX = (
    "streaming:lines=512,rounds=2;"
    "blocked:lines=256,block=64,repeats=2,rounds=2;"
    "zipf:accesses=1024,lines=512,s=1.2;"
    "stencil:lines=256,halo=1,sweeps=1"
)


def test_workload_list(capsys):
    assert main(["workload", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("streaming", "blocked", "zipf", "stencil"):
        assert name in out


def test_workload_profile(capsys):
    assert main(
        ["workload", "profile", "zipf:lines=256,accesses=1024",
         "--capacity", "64,256"]
    ) == 0
    out = capsys.readouterr().out
    assert "reuse profile of zipf:" in out
    assert "accesses 1024" in out
    assert "solo miss ratio @ 64 lines" in out
    assert "solo miss ratio @ 256 lines" in out


def test_workload_profile_json_roundtrips(capsys):
    assert main(
        ["workload", "profile", "streaming:lines=128,rounds=2", "--json"]
    ) == 0
    from repro.workload import ReuseProfile

    profile = ReuseProfile.from_dict(json.loads(capsys.readouterr().out))
    assert profile.accesses == 256
    assert profile.distinct_lines == 128


def test_workload_profile_bad_spec_fails_cleanly(capsys):
    assert main(["workload", "profile", "zipf:warp=9"]) == 1
    assert "error:" in capsys.readouterr().err


def test_advise_coschedule(tmp_path, capsys, dunnington_report):
    path = tmp_path / "dunnington.json"
    dunnington_report.save(path)
    assert main(
        ["advise", "co-schedule", "--report", str(path),
         "--workloads", SMALL_MIX, "--cache-level", "2",
         "--instances", "2", "--top", "2"]
    ) == 0
    out = capsys.readouterr().out
    assert "Co-scheduling advice for dunnington" in out
    assert "#1:" in out and "#2:" in out
    assert "worst slowdown" in out
    assert "best:" in out


def test_advise_coschedule_json(tmp_path, capsys, dunnington_report):
    path = tmp_path / "dunnington.json"
    dunnington_report.save(path)
    assert main(
        ["advise", "co-schedule", "--report", str(path),
         "--workloads", "streaming:lines=128,rounds=2;zipf:accesses=256,lines=128",
         "--json"]
    ) == 0
    advice = json.loads(capsys.readouterr().out)
    assert advice["system"] == "dunnington"
    assert advice["ranked"]
    assert advice["provenance"]["method"]


def test_advise_coschedule_requires_workloads(tmp_path, capsys, dunnington_report):
    path = tmp_path / "dunnington.json"
    dunnington_report.save(path)
    assert main(["advise", "co-schedule", "--report", str(path)]) == 1
    assert "--workloads" in capsys.readouterr().err


def test_advise_coschedule_requires_report(capsys):
    assert main(
        ["advise", "co-schedule", "--workloads", "streaming"]
    ) == 1
    assert "--report" in capsys.readouterr().err


def test_advise_coschedule_no_shared_cache_fails_cleanly(tmp_path, capsys):
    # dempsey's caches are all private: there is nothing to co-schedule.
    path = tmp_path / "dempsey.json"
    main(["run", "--machine", "dempsey", "-o", str(path)])
    capsys.readouterr()
    code = main(
        ["advise", "co-schedule", "--report", str(path),
         "--workloads", "streaming;zipf"]
    )
    assert code == 1
    assert "shared" in capsys.readouterr().err


def test_query_coschedule(tmp_path, capsys, dunnington_report):
    path = tmp_path / "dunnington.json"
    dunnington_report.save(path)
    assert main(
        ["query", str(path), "co-schedule", "--workloads", SMALL_MIX,
         "--cache-level", "2", "--instances", "2", "--top", "1"]
    ) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["system"] == "dunnington"
    assert len(result["ranked"]) == 1
    assert result["ranked"][0]["worst_slowdown"] >= 1.0
