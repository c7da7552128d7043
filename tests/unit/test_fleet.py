"""Unit tests for the fleet layer: spec, validation, store, checkpoint,
and worker behavior."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.core.report import ServetReport
from repro.errors import CheckpointError, FleetError
from repro.fleet import (
    FleetCheckpoint,
    FleetConfig,
    FleetCoordinator,
    FleetFaultPlan,
    FleetSpec,
    FleetWorker,
    HardwareClass,
    Job,
    MachineSpec,
    generate_fleet,
    report_problems,
    stable_seed,
)
from repro.fleet.worker import HEARTBEAT_SECONDS
from repro.service.fingerprint import machine_fingerprint
from repro.service.registry import ReportRegistry


# -- spec ------------------------------------------------------------------


def test_stable_seed_is_process_stable():
    assert stable_seed(1, "m0001") == stable_seed(1, "m0001")
    assert stable_seed(1, "m0001") != stable_seed(2, "m0001")
    assert 0 <= stable_seed("x") < 2**64


def test_generate_fleet_distinct_classes_and_round_robin():
    spec = generate_fleet(20, 5, seed=3)
    classes = spec.classes()
    assert len(classes) == 5
    assert sum(len(members) for members in classes.values()) == 20
    # Round-robin deal: every class gets exactly 20/5 members.
    assert {len(m) for m in classes.values()} == {4}
    # Distinct hardware parameters behind every key.
    keys = {m.hardware.key() for m in spec.machines}
    assert len(keys) == 5


def test_generate_fleet_is_reproducible():
    a = generate_fleet(12, 4, seed=9)
    b = generate_fleet(12, 4, seed=9)
    assert a.to_dict() == b.to_dict()
    assert a.fingerprint() == b.fingerprint()
    assert generate_fleet(12, 4, seed=10).fingerprint() != a.fingerprint()


def test_generate_fleet_validates_shape():
    with pytest.raises(FleetError):
        generate_fleet(0, 1)
    with pytest.raises(FleetError):
        generate_fleet(4, 5)


def test_fleet_spec_rejects_duplicate_ids():
    hw = generate_fleet(2, 1, seed=0).machines[0].hardware
    with pytest.raises(FleetError, match="duplicate machine id"):
        FleetSpec(
            name="dup",
            machines=(
                MachineSpec("m0", hw),
                MachineSpec("m0", hw),
            ),
        )


def test_fleet_spec_roundtrip(tmp_path):
    spec = generate_fleet(6, 3, seed=1, noise=0.0)
    path = tmp_path / "fleet.json"
    spec.save(path)
    loaded = FleetSpec.load(path)
    assert loaded == spec
    assert loaded.fingerprint() == spec.fingerprint()


def test_hardware_class_key_ignores_name():
    spec = generate_fleet(2, 1, seed=4)
    hw = spec.machines[0].hardware
    renamed = HardwareClass.from_dict({**hw.to_dict(), "name": "other"})
    assert renamed.key() == hw.key()


def test_hardware_class_builds_matching_machine():
    hw = generate_fleet(2, 1, seed=8).machines[0].hardware
    machine = hw.build()
    assert machine.n_cores == hw.n_cores
    assert list(machine.cache_sizes) == [size for size, _, _, _ in hw.levels]


# -- validation ------------------------------------------------------------


def _minimal_report(**overrides) -> ServetReport:
    data = {
        "system": "x",
        "n_cores": 2,
        "page_size": 4096,
        "caches": [
            {"level": 1, "size": 32768, "method": "fit", "shared_pairs": [],
             "sharing_groups": [[0], [1]], "ways": 8},
            {"level": 2, "size": 2097152, "method": "fit", "shared_pairs": [[0, 1]],
             "sharing_groups": [[0, 1]], "ways": 8},
        ],
        "memory_reference": 3.0e9,
        "memory_levels": [],
        "comm_probe_size": 32768,
        "comm_layers": [],
    }
    data.update(overrides)
    return ServetReport.from_dict(data)


def test_plausible_report_passes():
    assert report_problems(_minimal_report()) == []


def test_negated_cache_size_flagged():
    report = _minimal_report()
    report.caches[0].size = -32768
    problems = report_problems(report)
    assert any("L1 cache size" in p for p in problems)


def test_non_monotone_cache_sizes_flagged():
    report = _minimal_report()
    report.caches[1].size = 1024
    assert any("not larger" in p for p in report_problems(report))


def test_negative_bandwidth_flagged():
    report = _minimal_report(memory_reference=-1.0)
    assert any("memory reference" in p for p in report_problems(report))


def test_degraded_but_plausible_report_passes():
    # A failed phase leaves its section empty; plausibility judges only
    # what is present, so the report still passes.
    report = _minimal_report(
        caches=[], memory_reference=0.0,
        phase_status={"cache_size": "failed"},
    )
    assert report_problems(report) == []


def test_worker_corruption_is_caught_by_validators():
    report = _minimal_report()
    data = report.to_dict()
    FleetWorker._corrupt(data)
    assert report_problems(ServetReport.from_dict(data))


# -- store ---------------------------------------------------------------


def test_store_is_one_registry(tmp_path):
    spec = generate_fleet(6, 3, seed=2)
    store = ReportRegistry(tmp_path / "store")
    report = FleetCoordinator(spec, store=store).survey()
    # One digest directory per class right under the root, next to the
    # fleet report: the layout every registry reader understands.
    entries = store.entries()
    assert sorted(e.digest for e in entries) == sorted(
        p.name for p in store.root.iterdir() if p.is_dir()
    )
    assert len(entries) == 3
    assert all(entry.version == 1 for entry in entries)
    assert (store.root / "fleet_report.json").is_file()
    stored = {store.get(e.digest).system for e in entries}
    assert stored == {cls["name"] for cls in report.classes.values()}


def _sharded_store(root):
    """A store written before the survey used one registry: reports in
    shard-NN/ registries, the shard count in store.json, and the fleet
    report at the root.  Returns the fleet spec and its report."""
    spec = generate_fleet(2, 2, seed=2, name="old-layout")
    report = FleetCoordinator(spec).survey()
    for machine in spec.machines:
        fp = machine_fingerprint(machine.hardware.build(), options=spec.options)
        shard = int(fp.digest[:4], 16) % 4
        ReportRegistry(root / f"shard-{shard:02d}").put(
            fp, _minimal_report(system=machine.hardware.name)
        )
    (root / "store.json").write_text(json.dumps({"shards": 4}))
    report.save(root / "fleet_report.json")
    return spec, report


def test_status_reads_a_sharded_store(tmp_path, capsys):
    root = tmp_path / "store"
    _, report = _sharded_store(root)
    assert main(["fleet", "status", str(root)]) == 0
    assert capsys.readouterr().out.strip() == report.summary().strip()


def test_survey_refuses_a_sharded_store(tmp_path, capsys):
    root = tmp_path / "store"
    spec, _ = _sharded_store(root)
    spec_path = tmp_path / "fleet.json"
    spec.save(spec_path)

    def listing():
        return {
            str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")
        }

    before = listing()
    assert main(["fleet", "survey", str(spec_path), "--store", str(root)]) == 1
    err = capsys.readouterr().err
    assert "sharded fleet store" in err and "shard-" in err and "store.json" in err
    assert listing() == before
    with pytest.raises(FleetError, match="sharded fleet store"):
        FleetCoordinator(spec, store=ReportRegistry(root))
    assert listing() == before


# -- checkpoint ------------------------------------------------------------


def test_checkpoint_records_only_terminal_classes():
    checkpoint = FleetCheckpoint(fleet_fingerprint="f" * 64, fleet_name="x")
    with pytest.raises(CheckpointError, match="terminal"):
        checkpoint.record_class("k", {"status": "running"})
    checkpoint.record_class("k", {"status": "measured"})
    assert "k" in checkpoint.classes


def test_checkpoint_roundtrip_and_fleet_mismatch(tmp_path):
    checkpoint = FleetCheckpoint(fleet_fingerprint="a" * 64, fleet_name="x")
    checkpoint.record_class("k", {"status": "failed", "errors": ["boom"]})
    path = tmp_path / "cp.json"
    checkpoint.save(path)
    loaded = FleetCheckpoint.load(path)
    assert loaded.classes == checkpoint.classes
    loaded.matches("a" * 64)
    with pytest.raises(CheckpointError, match="refusing to mix"):
        loaded.matches("b" * 64)


def test_checkpoint_rejects_unknown_version(tmp_path):
    path = tmp_path / "cp.json"
    path.write_text(json.dumps({
        "version": 99, "fleet_fingerprint": "a", "fleet_name": "x",
        "classes": {},
    }))
    with pytest.raises(CheckpointError, match="version"):
        FleetCheckpoint.load(path)


# -- worker ----------------------------------------------------------------


def _job_for(spec: FleetSpec, machine_id: str) -> Job:
    return Job(
        job_id="j1",
        machine=spec.machine(machine_id),
        seed=stable_seed(spec.seed, machine_id),
        noise=spec.noise,
        options=spec.options,
        expected_seconds=600.0,
    )


def test_worker_runs_job_and_reports(small_fleet):
    run = FleetWorker("w0").run(_job_for(small_fleet, "m0000"), now=10.0)
    assert run.error is None
    assert report_problems(ServetReport.from_dict(run.report)) == []
    assert run.fingerprint["digest"]
    # Heartbeats tick at the heartbeat interval while the job runs, the
    # result lands after the last one, and the next request goes out
    # with it.
    assert run.heartbeats
    assert run.heartbeats[0] == pytest.approx(10.0 + HEARTBEAT_SECONDS)
    assert list(run.heartbeats) == sorted(run.heartbeats)
    assert run.heartbeats[-1] < run.finished_at
    assert run.next_request_at == run.finished_at


def test_worker_result_is_deterministic_across_retries(small_fleet):
    job = _job_for(small_fleet, "m0000")
    first = FleetWorker("w0").run(job, now=0.0)
    second = FleetWorker("w1").run(job, now=50.0)
    # Wall-clock timings differ; the measurement content must not.
    m1 = ServetReport.from_dict(first.report).measurement_dict()
    m2 = ServetReport.from_dict(second.report).measurement_dict()
    assert json.dumps(m1, sort_keys=True) == json.dumps(m2, sort_keys=True)


def test_worker_failure_becomes_an_error_step(small_fleet):
    job = replace(_job_for(small_fleet, "m0000"), options={"prune": "bogus"})
    run = FleetWorker("w0").run(job, now=5.0)
    assert run.report is None
    assert run.error and "prune" in run.error
    assert run.heartbeats == ()
    assert run.finished_at == run.next_request_at == 6.0


def test_crashed_worker_emits_no_result_and_respawns(small_fleet):
    plan = FleetFaultPlan(seed=0, crash_rate=1.0, respawn_seconds=100.0)
    worker = FleetWorker("w0", fault_plan=plan)
    run = worker.run(_job_for(small_fleet, "m0000"), now=0.0)
    assert run.finished_at is None
    assert run.report is None and run.error is None
    # Heartbeats stop at the crash; the respawned worker asks for work
    # respawn_seconds later.
    assert all(t < run.next_request_at - plan.respawn_seconds + 1e-9
               for t in run.heartbeats)
    assert worker.crashes == 1


def test_flaky_machine_returns_corrupt_but_cache_stays_clean(small_fleet):
    plan = FleetFaultPlan(seed=0, flaky_machines=("m0000",))
    cache: dict = {}
    worker = FleetWorker("w0", fault_plan=plan, suite_cache=cache)
    run = worker.run(_job_for(small_fleet, "m0000"), now=0.0)
    assert report_problems(ServetReport.from_dict(run.report))
    # The memoized clean measurement must not have been corrupted.
    cached_report, _, _ = cache["m0000"]
    assert report_problems(ServetReport.from_dict(cached_report)) == []


def test_drain_frame_marks_worker_draining(small_fleet):
    coordinator = FleetCoordinator(small_fleet, config=FleetConfig(workers=3))
    report = coordinator.survey(
        on_class_complete=lambda cls: coordinator.request_drain()
    )
    drained = [w for w in coordinator.workers.values() if w.draining]
    # The idle worker and each worker asking for work after the drain
    # were told to stop; each DRAIN step reached exactly one worker.
    assert drained
    assert report.protocol["messages"]["DRAIN"] == len(drained)


# -- fault plan / config validation ---------------------------------------


def test_fault_plan_roundtrip_and_validation(tmp_path):
    plan = FleetFaultPlan(seed=1, crash_rate=0.25, straggler_rate=0.1,
                          flaky_machines=("m2", "m1", "m1"))
    assert plan.flaky_machines == ("m1", "m2")
    path = tmp_path / "plan.json"
    plan.save(path)
    assert FleetFaultPlan.load(path) == plan
    with pytest.raises(FleetError):
        FleetFaultPlan(crash_rate=1.5)
    with pytest.raises(FleetError):
        FleetFaultPlan(straggle_factor=1.0)
    with pytest.raises(FleetError):
        FleetFaultPlan(respawn_seconds=0.0)


def test_fleet_config_validation():
    with pytest.raises(FleetError, match="heartbeat interval"):
        FleetConfig(lease_seconds=HEARTBEAT_SECONDS)
    with pytest.raises(FleetError):
        FleetConfig(workers=0)
    with pytest.raises(FleetError):
        FleetConfig(max_attempts=0)
    with pytest.raises(FleetError):
        FleetConfig(speculate_after=0)


@pytest.fixture(scope="module")
def small_fleet() -> FleetSpec:
    return generate_fleet(4, 2, seed=13, name="unit")
