"""Unit tests for the fleet layer: protocol, spec, validation, store,
checkpoint, and worker behavior."""

from __future__ import annotations

import json

import pytest

from repro.core.report import ServetReport
from repro.errors import CheckpointError, FleetError, FleetProtocolError
from repro.fleet import (
    COORDINATOR,
    DRAIN,
    HEARTBEAT,
    JOB_DISPATCH,
    JOB_REQUEST,
    NO_MORE_JOBS,
    RESULT,
    FleetCheckpoint,
    FleetConfig,
    FleetFaultPlan,
    FleetSpec,
    FleetWorker,
    HardwareClass,
    MachineSpec,
    Message,
    ShardedFleetStore,
    generate_fleet,
    report_problems,
    stable_seed,
)
from repro.obs.metrics import MetricsRegistry
from repro.service.fingerprint import machine_fingerprint


# -- protocol --------------------------------------------------------------


def test_message_unknown_type_rejected():
    with pytest.raises(FleetProtocolError, match="unknown message type"):
        Message(type="GOSSIP", sender="w0", recipient=COORDINATOR)


def test_message_missing_required_payload_rejected():
    with pytest.raises(FleetProtocolError, match="missing required payload"):
        Message(type=HEARTBEAT, sender="w0", recipient=COORDINATOR,
                payload={"job_id": "j1"})


def test_message_non_dict_payload_rejected():
    with pytest.raises(FleetProtocolError, match="payload must be a dict"):
        Message(type=JOB_REQUEST, sender="w0", recipient=COORDINATOR,
                payload=["nope"])  # type: ignore[arg-type]


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


# -- sharded store ---------------------------------------------------------


def test_store_routes_puts_and_reads_back(tmp_path):
    store = ShardedFleetStore(tmp_path / "store", shards=4)
    spec = generate_fleet(2, 2, seed=2)
    for machine in spec.machines:
        fp = machine_fingerprint(machine.hardware.build(), options=spec.options)
        store.put(fp, _minimal_report(system=machine.hardware.name))
        assert store.get(fp.digest).system == machine.hardware.name
        shard_dir = tmp_path / "store" / f"shard-{store.shard_of(fp.digest):02d}"
        assert (shard_dir / fp.digest).is_dir()
    assert len(store.entries()) == 2
    assert store.quarantined_counts() == {}


def test_store_refuses_shard_count_change(tmp_path):
    root = tmp_path / "store"
    store = ShardedFleetStore(root, shards=4)
    spec = generate_fleet(1, 1, seed=2)
    fp = machine_fingerprint(spec.machines[0].hardware.build(),
                             options=spec.options)
    store.put(fp, _minimal_report())
    with pytest.raises(FleetError, match="mis-route"):
        ShardedFleetStore(root, shards=8)
    # Same count reopens fine.
    assert ShardedFleetStore(root, shards=4).get(fp.digest).system == "x"


def test_store_rejects_bad_shard_counts(tmp_path):
    with pytest.raises(FleetError):
        ShardedFleetStore(tmp_path, shards=0)
    with pytest.raises(FleetError):
        ShardedFleetStore(tmp_path, shards=1000)


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


def _dispatch_for(spec: FleetSpec, machine_id: str, recipient: str = "w0") -> Message:
    machine = spec.machine(machine_id)
    return Message(
        type=JOB_DISPATCH,
        sender=COORDINATOR,
        recipient=recipient,
        payload={"job": {
            "job_id": "j1",
            "machine_id": machine_id,
            "class_key": machine.hardware.key(),
            "class": machine.hardware.to_dict(),
            "seed": stable_seed(spec.seed, machine_id),
            "noise": spec.noise,
            "options": spec.options,
            "expected_seconds": 600.0,
            "heartbeat_seconds": 30.0,
            "attempt": 0,
            "speculative": False,
        }},
    )


def test_worker_runs_job_and_reports(small_fleet):
    worker = FleetWorker("w0")
    out = worker.on_message(_dispatch_for(small_fleet, "m0000"), now=0.0)
    types = [msg.type for _, msg in out]
    assert types.count(RESULT) == 1
    assert types[-1] == JOB_REQUEST
    assert all(t in (HEARTBEAT, RESULT, JOB_REQUEST) for t in types)
    result = next(msg for _, msg in out if msg.type == RESULT)
    report = ServetReport.from_dict(result.payload["report"])
    assert report_problems(report) == []
    # Emission times are ordered and the RESULT lands after the start.
    times = [t for t, _ in out]
    assert times == sorted(times)
    assert times[-1] > 0.0


def test_worker_result_is_deterministic_across_retries(small_fleet):
    first = FleetWorker("w0").on_message(
        _dispatch_for(small_fleet, "m0000"), now=0.0
    )
    second = FleetWorker("w1").on_message(
        _dispatch_for(small_fleet, "m0000", recipient="w1"), now=50.0
    )
    r1 = next(m for _, m in first if m.type == RESULT).payload["report"]
    r2 = next(m for _, m in second if m.type == RESULT).payload["report"]
    # Wall-clock timings differ; the measurement content must not.
    m1 = ServetReport.from_dict(r1).measurement_dict()
    m2 = ServetReport.from_dict(r2).measurement_dict()
    assert json.dumps(m1, sort_keys=True) == json.dumps(m2, sort_keys=True)


def test_crashed_worker_emits_no_result_and_respawns(small_fleet):
    plan = FleetFaultPlan(seed=0, crash_rate=1.0, respawn_seconds=100.0)
    worker = FleetWorker("w0", fault_plan=plan)
    out = worker.on_message(_dispatch_for(small_fleet, "m0000"), now=0.0)
    types = [msg.type for _, msg in out]
    assert RESULT not in types
    assert types[-1] == JOB_REQUEST  # the respawn announcement
    respawn_at = out[-1][0]
    heartbeat_times = [t for t, msg in out if msg.type == HEARTBEAT]
    assert all(t < respawn_at - plan.respawn_seconds + 1e-9
               for t in heartbeat_times)
    assert worker.crashes == 1


def test_flaky_machine_returns_corrupt_but_cache_stays_clean(small_fleet):
    plan = FleetFaultPlan(seed=0, flaky_machines=("m0000",))
    cache: dict = {}
    worker = FleetWorker("w0", fault_plan=plan, suite_cache=cache)
    out = worker.on_message(_dispatch_for(small_fleet, "m0000"), now=0.0)
    result = next(msg for _, msg in out if msg.type == RESULT)
    assert report_problems(ServetReport.from_dict(result.payload["report"]))
    # The memoized clean measurement must not have been corrupted.
    cached_report, _, _ = cache["m0000"]
    assert report_problems(ServetReport.from_dict(cached_report)) == []


def test_worker_rejects_misaddressed_and_untyped_frames():
    worker = FleetWorker("w0")
    with pytest.raises(FleetProtocolError, match="addressed to"):
        worker.on_message(
            Message(type=NO_MORE_JOBS, sender=COORDINATOR, recipient="w1"),
            now=0.0,
        )
    with pytest.raises(FleetProtocolError, match="cannot handle"):
        worker.on_message(
            Message(type=JOB_REQUEST, sender=COORDINATOR, recipient="w0"),
            now=0.0,
        )


def test_drain_frame_marks_worker_draining():
    worker = FleetWorker("w0")
    assert worker.on_message(
        Message(type=DRAIN, sender=COORDINATOR, recipient="w0",
                payload={"reason": "test"}),
        now=0.0,
    ) == []
    assert worker.draining


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
    with pytest.raises(FleetError, match="exceed heartbeat"):
        FleetConfig(lease_seconds=10.0, heartbeat_seconds=30.0)
    with pytest.raises(FleetError):
        FleetConfig(workers=0)
    with pytest.raises(FleetError):
        FleetConfig(max_attempts=0)
    with pytest.raises(FleetError):
        FleetConfig(speculate_factor=1.0)


@pytest.fixture(scope="module")
def small_fleet() -> FleetSpec:
    return generate_fleet(4, 2, seed=13, name="unit")


def test_metrics_shared_across_store_shards(tmp_path):
    metrics = MetricsRegistry()
    store = ShardedFleetStore(tmp_path / "s", shards=2, metrics=metrics)
    spec = generate_fleet(1, 1, seed=2)
    fp = machine_fingerprint(spec.machines[0].hardware.build(),
                             options=spec.options)
    store.put(fp, _minimal_report())
    assert metrics.value("counter", "fleet.store_puts") == 1
