"""Checkpoint/resume: recover a long run without re-measuring phases.

The key guarantee: a run that is interrupted mid-suite and resumed
from its checkpoint produces a **byte-identical** final report to an
uninterrupted run (same seed, deterministic wall clock), because the
checkpoint restores the backend's RNG state exactly.
"""

import json

import pytest

import repro.core.suite as suite_mod
from repro import ServetSuite, SimulatedBackend, SuiteCheckpoint, dempsey
from repro.errors import CheckpointError, MeasurementError


def zero_clock() -> float:
    """Deterministic wall clock (wall timings become 0.0)."""
    return 0.0


def make_suite(**kwargs) -> ServetSuite:
    return ServetSuite(SimulatedBackend(dempsey(), seed=5), clock=zero_clock, **kwargs)


class TestCheckpointWriting:
    def test_checkpoint_written_after_each_phase(self, tmp_path):
        path = tmp_path / "ckpt.json"
        report = make_suite().run(checkpoint=path)
        state = SuiteCheckpoint.load(path)
        assert state.completed == list(report.phase_status)
        assert state.status == report.phase_status
        assert state.rng_state is not None
        # The stored report round-trips to the returned one.
        from repro import ServetReport

        assert ServetReport.from_dict(state.report) == report

    def test_mismatched_fingerprint_refused(self, tmp_path):
        path = tmp_path / "ckpt.json"
        make_suite().run(checkpoint=path)
        other = ServetSuite(
            SimulatedBackend(dempsey(), seed=5),
            node_cores=[0],
            comm_cores=[0, 1],
            clock=zero_clock,
        )
        with pytest.raises(CheckpointError, match="different machine"):
            other.run(checkpoint=path, resume=True)

    def test_resume_without_file_runs_fresh(self, tmp_path):
        path = tmp_path / "missing.json"
        report = make_suite().run(checkpoint=path, resume=True)
        assert report.cache_sizes
        assert path.exists()


class TestByteIdenticalResume:
    def test_interrupted_then_resumed_matches_uninterrupted(
        self, tmp_path, monkeypatch
    ):
        reference = make_suite().run()
        ref_bytes = json.dumps(reference.to_dict(), sort_keys=True)

        # Interrupt the run: the memory phase crashes on first entry.
        orig = suite_mod.characterize_memory_overhead
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            if calls["n"] == 0:
                calls["n"] += 1
                raise MeasurementError("simulated mid-run crash")
            return orig(*args, **kwargs)

        monkeypatch.setattr(suite_mod, "characterize_memory_overhead", flaky)
        path = tmp_path / "ckpt.json"
        with pytest.raises(MeasurementError, match="simulated mid-run crash"):
            make_suite().run(checkpoint=path)  # strict: raises, state saved

        state = SuiteCheckpoint.load(path)
        assert "memory_overhead" not in state.completed
        assert "cache_size" in state.completed

        # Resume with a *fresh* backend: the checkpoint restores the RNG.
        resumed = make_suite().run(checkpoint=path, resume=True)
        assert json.dumps(resumed.to_dict(), sort_keys=True) == ref_bytes

    def test_worker_pool_era_checkpoint_resumes_to_same_report(
        self, tmp_path, monkeypatch
    ):
        # A checkpoint written while the planner had a worker pool carries
        # ``jobs`` and ``probe_timeouts`` in its report's planner counters.
        reference = make_suite().run()
        orig = suite_mod.run_comm_costs
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            if calls["n"] == 0:
                calls["n"] += 1
                raise MeasurementError("crash in comm phase")
            return orig(*args, **kwargs)

        monkeypatch.setattr(suite_mod, "run_comm_costs", flaky)
        path = tmp_path / "ckpt.json"
        with pytest.raises(MeasurementError):
            make_suite().run(checkpoint=path)
        data = json.loads(path.read_text())
        assert data["report"]["planner"]["issued"] > 0
        data["report"]["planner"].update(jobs=4, probe_timeouts=0)
        path.write_text(json.dumps(data))

        resumed = make_suite().run(checkpoint=path, resume=True)
        assert resumed.planner["issued"] == reference.planner["issued"]
        assert json.dumps(resumed.to_dict(), sort_keys=True) == json.dumps(
            reference.to_dict(), sort_keys=True
        )

    def test_saved_report_files_are_byte_identical(self, tmp_path, monkeypatch):
        ref_path = tmp_path / "ref.json"
        make_suite().run().save(ref_path)

        orig = suite_mod.run_comm_costs
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            if calls["n"] == 0:
                calls["n"] += 1
                raise MeasurementError("crash in comm phase")
            return orig(*args, **kwargs)

        monkeypatch.setattr(suite_mod, "run_comm_costs", flaky)
        ckpt = tmp_path / "ckpt.json"
        with pytest.raises(MeasurementError):
            make_suite().run(checkpoint=ckpt)
        resumed_path = tmp_path / "resumed.json"
        make_suite().run(checkpoint=ckpt, resume=True).save(resumed_path)
        assert resumed_path.read_bytes() == ref_path.read_bytes()

    def test_fully_completed_checkpoint_resumes_to_same_report(self, tmp_path):
        path = tmp_path / "ckpt.json"
        first = make_suite().run(checkpoint=path)
        # Resume re-measures nothing: every phase is already terminal.
        resumed = make_suite().run(checkpoint=path, resume=True)
        assert json.dumps(resumed.to_dict(), sort_keys=True) == json.dumps(
            first.to_dict(), sort_keys=True
        )
