"""CLI coverage for the ``servet fleet`` command family."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.fleet import FleetFaultPlan, FleetReport


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("fleet") / "fleet.json"
    assert main([
        "fleet", "generate", "-o", str(path),
        "--machines", "12", "--classes", "4", "--seed", "11",
    ]) == 0
    return path


def test_generate_writes_spec(spec_path, capsys):
    data = json.loads(spec_path.read_text())
    assert len(data["machines"]) == 12


def test_survey_status_roundtrip(spec_path, tmp_path, capsys):
    store = tmp_path / "store"
    report_path = tmp_path / "report.json"
    checkpoint = tmp_path / "checkpoint.json"
    code = main([
        "fleet", "survey", str(spec_path),
        "--store", str(store),
        "--checkpoint", str(checkpoint),
        "--workers", "4",
        "-o", str(report_path),
        "--metrics", str(tmp_path / "metrics.json"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "12 machine(s) in 4 hardware class(es)" in out
    assert "Dedup: 4 measurement(s) cover 12 machine(s)" in out
    assert report_path.exists()
    assert checkpoint.exists()
    assert (store / "fleet_report.json").exists()
    assert (tmp_path / "metrics.json").exists()

    report = FleetReport.load(report_path)
    assert report.complete

    # status accepts both the report file and the store directory.
    assert main(["fleet", "status", str(report_path)]) == 0
    assert main(["fleet", "status", str(store)]) == 0
    status_out = capsys.readouterr().out
    assert "ok" in status_out

    # The store is a plain registry: one version per hardware class.
    assert main(["registry", "list", "--registry", str(store)]) == 0
    listed = capsys.readouterr().out.splitlines()[1:]
    assert len(listed) == 4
    assert all(" v1 " in line for line in listed)


def test_survey_rejects_removed_shards_flag(spec_path, tmp_path, capsys):
    # Class reports go to one registry; the shard count is gone.
    with pytest.raises(SystemExit) as exc:
        main([
            "fleet", "survey", str(spec_path),
            "--store", str(tmp_path / "store"), "--shards", "4",
        ])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_survey_with_fault_plan(spec_path, tmp_path, capsys):
    plan_path = tmp_path / "faults.json"
    FleetFaultPlan(seed=1, crash_rate=0.2, respawn_seconds=120.0).save(plan_path)
    code = main([
        "fleet", "survey", str(spec_path),
        "--store", str(tmp_path / "store"),
        "--fault-plan", str(plan_path),
    ])
    assert code == 0
    assert "Machines: 12 ok" in capsys.readouterr().out


def test_resume_requires_checkpoint(spec_path, tmp_path, capsys):
    code = main([
        "fleet", "resume", str(spec_path),
        "--store", str(tmp_path / "store"),
    ])
    assert code == 2
    assert "requires --checkpoint" in capsys.readouterr().err
