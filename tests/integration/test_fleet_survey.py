"""End-to-end fleet survey scenarios: clean runs, fault drills,
drain/resume, and the acceptance-scale heterogeneous fleet.

All runs are discrete-event simulations under fixed seeds, so every
scenario — including crashes, stragglers, and quarantines — replays
identically.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import CheckpointError
from repro.fleet import (
    FleetCheckpoint,
    FleetConfig,
    FleetCoordinator,
    FleetFaultPlan,
    FleetReport,
    generate_fleet,
)
from repro.service.registry import ReportRegistry


def _survey(spec, tmp_path, subdir, **kwargs):
    store = ReportRegistry(tmp_path / subdir)
    coordinator = FleetCoordinator(spec, store=store, **kwargs)
    return coordinator, coordinator.survey(), store


class TestFaultFreeSurvey:
    def test_all_machines_ok_and_deduped(self, tmp_path):
        spec = generate_fleet(12, 4, seed=11, name="clean")
        coordinator, report, store = _survey(spec, tmp_path, "store")

        assert report.complete
        assert report.counts == {"ok": 12}
        assert report.dedup == {
            "machines": 12,
            "classes": 4,
            "measured": 4,
            "ratio": 3.0,
        }
        # Every machine maps to a status and a class report.
        assert len(report.machines) == 12
        for machine in spec.machines:
            assert report.report_for(machine.machine_id) is not None

    @pytest.mark.parametrize("seed", [1, 4])
    def test_rendezvous_exchanges_leave_no_machine_degraded(self, tmp_path, seed):
        # These fleets hold classes whose comm phase exchanges messages
        # above the eager threshold; a blocking exchange deadlocked there.
        spec = generate_fleet(50, 10, seed=seed)
        coordinator, report, store = _survey(spec, tmp_path, "store")
        assert report.complete
        assert report.counts == {"ok": 50}

    def test_one_registry_version_per_class(self, tmp_path):
        spec = generate_fleet(12, 4, seed=11)
        coordinator, report, store = _survey(spec, tmp_path, "store")
        entries = store.entries()
        assert len(entries) == 4  # one stored report per hardware class
        assert all(entry.version == 1 for entry in entries)
        assert len({entry.digest for entry in entries}) == 4
        # The persisted fleet report round-trips.
        loaded = FleetReport.load(store.root / "fleet_report.json")
        assert loaded.survey_dict() == report.survey_dict()

    def test_protocol_accounting_is_closed(self, tmp_path):
        spec = generate_fleet(12, 4, seed=11)
        coordinator, report, store = _survey(spec, tmp_path, "store")
        protocol = report.protocol
        assert protocol["dispatches"] == 4
        assert protocol["messages"]["RESULT"] == 4
        assert protocol["lease_expiries"] == 0
        assert protocol["duplicate_results"] == 0
        assert protocol["quarantines"] == 0


class TestFaultDrill:
    @pytest.fixture(scope="class")
    def drill(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("drill")
        spec = generate_fleet(20, 5, seed=11, name="drill")
        clean_coord, clean, _ = _survey(spec, tmp_path, "clean")
        plan = FleetFaultPlan(
            seed=3,
            crash_rate=0.25,
            respawn_seconds=200.0,
            straggler_rate=0.2,
            straggle_factor=10.0,
            flaky_machines=(spec.machines[0].machine_id,),
        )
        faulty_coord, faulty, faulty_store = _survey(
            spec, tmp_path, "faulty", fault_plan=plan
        )
        return spec, clean, faulty_coord, faulty, faulty_store

    def test_flaky_machine_quarantined_with_promotion(self, drill):
        spec, clean, coordinator, faulty, store = drill
        flaky = spec.machines[0].machine_id
        assert faulty.machines[flaky] == "quarantined"
        assert faulty.complete
        # Its class still got measured through a promoted member.
        for key, cls in faulty.classes.items():
            if flaky in cls["machines"]:
                assert cls["status"] == "measured"
                assert cls["measured_machine"] != flaky
                assert flaky in cls["quarantined_members"]
        assert faulty.counts == {"ok": 19, "quarantined": 1}
        assert faulty.protocol["quarantines"] >= 1
        assert faulty.protocol["implausible_results"] >= 1

    def test_crashes_recovered_without_double_counting(self, drill):
        spec, clean, coordinator, faulty, store = drill
        # Crashes actually happened and every one was recovered.
        crashes = sum(w.crashes for w in coordinator.workers.values())
        assert crashes >= 1
        assert faulty.protocol["lease_expiries"] >= 1
        assert faulty.protocol["reassignments"] >= 1
        # No class was ever counted twice: exactly one stored version
        # per measured class, even after reassignment and speculation.
        entries = store.entries()
        assert len(entries) == len({e.digest for e in entries}) == 5
        assert all(entry.version == 1 for entry in entries)

    def test_survivors_byte_identical_to_fault_free_run(self, drill):
        spec, clean, coordinator, faulty, store = drill
        flaky = spec.machines[0].machine_id
        clean_dict = clean.survey_dict()
        faulty_dict = faulty.survey_dict()
        # Per-machine statuses agree everywhere but the quarantined one.
        for machine_id, status in clean_dict["machines"].items():
            if machine_id != flaky:
                assert faulty_dict["machines"][machine_id] == status
        # Class reports (the measurements themselves) are byte-identical
        # at noise=0 no matter who measured them or how many retries it
        # took.
        for key, clean_cls in clean_dict["classes"].items():
            faulty_cls = faulty_dict["classes"][key]
            assert json.dumps(faulty_cls["report"], sort_keys=True) == (
                json.dumps(clean_cls["report"], sort_keys=True)
            )
            assert faulty_cls["status"] == clean_cls["status"]


class TestDrainResume:
    def test_kill_and_resume_is_byte_identical(self, tmp_path):
        spec = generate_fleet(16, 8, seed=5, name="resumable")
        config = FleetConfig(workers=2)

        # The uninterrupted reference run.
        reference = FleetCoordinator(spec, config=config).survey()
        assert reference.complete

        # Run 1: drain after two classes complete (a graceful SIGINT).
        checkpoint = tmp_path / "fleet_checkpoint.json"
        first = FleetCoordinator(spec, config=config, checkpoint=checkpoint)
        done = []

        def drain_after_two(cls):
            done.append(cls.name)
            if len(done) == 2:
                first.request_drain()

        partial = first.survey(on_class_complete=drain_after_two)
        assert not partial.complete
        assert partial.counts.get("pending", 0) > 0
        assert sum(
            v for k, v in partial.counts.items() if k != "pending"
        ) > 0
        assert checkpoint.exists()

        # Run 2: resume from the checkpoint and finish.
        second = FleetCoordinator(spec, config=config, checkpoint=checkpoint)
        resumed = second.survey(resume=True)
        assert resumed.complete
        assert json.dumps(resumed.survey_dict(), sort_keys=True) == (
            json.dumps(reference.survey_dict(), sort_keys=True)
        )
        # Only the unfinished classes were re-dispatched.
        assert resumed.protocol["dispatches"] < reference.protocol["dispatches"]

    def test_interrupted_checkpoint_write_keeps_the_previous_one(
        self, tmp_path, monkeypatch
    ):
        spec = generate_fleet(16, 8, seed=5, name="resumable")
        config = FleetConfig(workers=2)
        reference = FleetCoordinator(spec, config=config).survey()

        # The second checkpoint write dies in its rename, after the
        # temp file is written and fsync'd.
        checkpoint = tmp_path / "fleet_checkpoint.json"
        real_replace = os.replace
        written: list[bytes] = []

        def dying_replace(src, dst):
            if str(dst) == str(checkpoint):
                if written:
                    raise OSError("killed mid-rename")
                real_replace(src, dst)
                written.append(checkpoint.read_bytes())
                return
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", dying_replace)
        with pytest.raises(CheckpointError, match="killed mid-rename"):
            FleetCoordinator(spec, config=config, checkpoint=checkpoint).survey()
        monkeypatch.undo()

        assert checkpoint.read_bytes() == written[0]
        assert len(FleetCheckpoint.load(checkpoint).classes) == 1
        assert list(tmp_path.glob("*.tmp")) == []

        resumed = FleetCoordinator(
            spec, config=config, checkpoint=checkpoint
        ).survey(resume=True)
        assert resumed.complete
        assert json.dumps(resumed.survey_dict(), sort_keys=True) == (
            json.dumps(reference.survey_dict(), sort_keys=True)
        )

    def test_resume_without_checkpoint_fails_loudly(self, tmp_path):
        from repro.errors import FleetError

        spec = generate_fleet(4, 2, seed=5)
        coordinator = FleetCoordinator(spec)
        with pytest.raises(FleetError, match="checkpoint"):
            coordinator.survey(resume=True)

    def test_checkpoint_from_other_fleet_is_refused(self, tmp_path):
        from repro.errors import CheckpointError

        checkpoint = tmp_path / "cp.json"
        spec_a = generate_fleet(4, 2, seed=5)
        coord_a = FleetCoordinator(spec_a, checkpoint=checkpoint)
        coord_a.survey()

        spec_b = generate_fleet(4, 2, seed=6)
        coord_b = FleetCoordinator(spec_b, checkpoint=checkpoint)
        with pytest.raises(CheckpointError, match="refusing to mix"):
            coord_b.survey(resume=True)


@pytest.mark.slow
class TestAcceptanceFleet:
    """The ISSUE acceptance drill: 200 heterogeneous machines, 40
    hardware classes, >=10% worker crash rate plus stragglers."""

    @pytest.fixture(scope="class")
    def outcome(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("acceptance")
        spec = generate_fleet(200, 40, seed=7, name="acceptance")
        plan = FleetFaultPlan(
            seed=2,
            crash_rate=0.15,
            respawn_seconds=150.0,
            straggler_rate=0.1,
            straggle_factor=10.0,
        )
        store = ReportRegistry(tmp_path / "store")
        coordinator = FleetCoordinator(
            spec, store=store, fault_plan=plan,
            config=FleetConfig(workers=8),
        )
        return spec, coordinator, coordinator.survey(), store

    def test_survey_completes_despite_faults(self, outcome):
        spec, coordinator, report, store = outcome
        assert report.complete
        crashes = sum(w.crashes for w in coordinator.workers.values())
        assert crashes >= 1
        assert report.protocol["lease_expiries"] >= 1
        assert report.protocol["reassignments"] >= 1

    def test_every_surviving_machine_characterized(self, outcome):
        spec, coordinator, report, store = outcome
        for machine_id, status in report.machines.items():
            if status != "quarantined":
                assert status in ("ok", "degraded"), (machine_id, status)

    def test_dedup_hits_acceptance_ratio(self, outcome):
        spec, coordinator, report, store = outcome
        assert report.dedup["classes"] <= 40
        assert report.dedup["ratio"] >= 5.0
        # The store holds one report per class, never more.
        entries = store.entries()
        assert len(entries) == report.dedup["measured"]
        assert all(entry.version == 1 for entry in entries)
