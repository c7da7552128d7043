"""The fleet coordinator: rank 0 of the characterization farm.

One :class:`FleetCoordinator` surveys a whole :class:`FleetSpec`.  It
owns the job queue (one job per *hardware class*, not per machine —
identical hardware yields identical reports at noise=0, so one
representative is measured and the result broadcast to the class), and
drives a population of :class:`~repro.fleet.worker.FleetWorker` objects.
Every step of the survey — a job request, dispatch, heartbeat, result,
failure, "no more jobs" or drain — and every lease check is a callback
on one :class:`~repro.simmpi.events.Engine`, whose virtual clock is the
survey's logical clock, so a survey is deterministic under a fixed
fleet seed even with crashes, stragglers, and flaky machines injected.
Each step is counted under ``fleet.messages{type=...}`` when it fires.

Robustness machinery, all observable through ``repro.obs.metrics``:

- **Leases.**  A dispatch carries a lease; every heartbeat extends
  it.  A worker that dies mid-job stops heartbeating, the lease check
  fires, and the job is reassigned — at most
  :attr:`FleetConfig.max_attempts` times, after which the class is
  marked ``failed`` with its full error chain preserved.
- **Speculation.**  Logical job durations feed the windowed
  ``fleet.job_seconds`` histogram; a running job that exceeds
  :data:`SPECULATE_FACTOR` times its p90 is re-dispatched to an idle
  worker.  The first result wins; late duplicates are counted and
  ignored, never double-stored.
- **Quarantine.**  Every result passes the plausibility validators
  (:func:`repro.fleet.validate.report_problems`).  A machine that
  returns :data:`QUARANTINE_AFTER` implausible reports is
  quarantined and the next member of its class promoted as
  representative.
- **Checkpoint/drain.**  After every terminal class the coordinator
  rewrites its :class:`~repro.fleet.checkpoint.FleetCheckpoint`;
  SIGINT (or :meth:`FleetCoordinator.request_drain`) lets in-flight
  jobs finish, dispatches nothing new, checkpoints, and returns a
  partial report whose unstarted machines are ``pending``.
"""

from __future__ import annotations

import signal
import threading
import time
from collections import deque
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from collections.abc import Callable

from ..core.report import ServetReport
from ..errors import CheckpointError, FleetError
from ..obs.metrics import MetricsRegistry
from ..service.fingerprint import MachineFingerprint
from ..service.registry import ReportRegistry
from ..simmpi.events import Engine
from .checkpoint import FleetCheckpoint
from .report import FleetReport
from .spec import FleetSpec, MachineSpec, stable_seed
from .validate import report_problems
from .worker import HEARTBEAT_SECONDS, FleetFaultPlan, FleetWorker, Job, JobRun

__all__ = ["FleetConfig", "FleetCoordinator"]

#: The survey's steps, each counted under ``fleet.messages{type=...}``
#: when it fires.  Workers take the first, announce themselves with
#: ``JOB_REQUEST`` and answer with the next three; the coordinator
#: takes those and answers with the last three.
JOB_REQUEST = "JOB_REQUEST"
JOB_DISPATCH = "JOB_DISPATCH"
NO_MORE_JOBS = "NO_MORE_JOBS"
HEARTBEAT = "HEARTBEAT"
RESULT = "RESULT"
FAILURE = "FAILURE"
DRAIN = "DRAIN"
STEPS = (JOB_REQUEST, JOB_DISPATCH, NO_MORE_JOBS, HEARTBEAT, RESULT, FAILURE, DRAIN)

#: A running job this many times over the p90 job time gets a
#: speculative duplicate.
SPECULATE_FACTOR = 1.5
#: Implausible reports after which a machine is quarantined.
QUARANTINE_AFTER = 2
#: Logical seconds from a coordinator decision to the worker acting on it.
DISPATCH_OVERHEAD = 1.0
#: Expected job time before any job has finished.
DEFAULT_EXPECTED_SECONDS = 600.0


def _refuse_sharded_store(root: Path) -> None:
    """Refuse a store laid out by an earlier version.

    Such a store keeps its class reports in ``shard-NN/`` registries
    with the shard count in ``store.json``.  Surveying into it would
    add a second v1 of every class report at its root, beside shard
    reports that ``registry list`` never sees.
    """
    old = sorted(p.name for p in root.glob("shard-*") if p.is_dir())
    if (root / "store.json").exists():
        old.append("store.json")
    if old:
        raise FleetError(
            f"{root} is a sharded fleet store from an earlier version "
            f"({', '.join(old)}); survey into a new directory "
            "(fleet status still reads this one)"
        )


@dataclass(frozen=True)
class FleetConfig:
    """What a survey's caller sets (defaults suit simulated surveys)."""

    workers: int = 8
    lease_seconds: float = 120.0
    max_attempts: int = 4
    speculate_after: int = 5

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise FleetError("a fleet needs >= 1 worker")
        if self.lease_seconds <= HEARTBEAT_SECONDS:
            raise FleetError(
                f"lease_seconds must exceed the {HEARTBEAT_SECONDS:g} s "
                "heartbeat interval, or every healthy job would expire "
                "between heartbeats"
            )
        if self.max_attempts < 1:
            raise FleetError("max_attempts must be >= 1")
        if self.speculate_after < 1:
            raise FleetError("speculate_after must be >= 1")


class _ClassState:
    """Scheduling state of one hardware class."""

    __slots__ = (
        "key",
        "name",
        "members",
        "status",
        "representative",
        "attempts",
        "strikes",
        "errors",
        "report",
        "fingerprint",
        "report_degraded",
        "measured_machine",
        "quarantined_members",
        "speculated",
        "outstanding",
    )

    def __init__(self, key: str, name: str, members: list[str]) -> None:
        self.key = key
        self.name = name
        self.members = members
        self.status = "pending"  # pending|queued|running|measured|failed|quarantined
        self.representative = members[0]
        self.attempts = 0
        self.strikes: dict[str, int] = {}
        self.errors: list[str] = []
        self.report: dict | None = None
        self.fingerprint: dict | None = None
        self.report_degraded = False
        self.measured_machine: str | None = None
        self.quarantined_members: list[str] = []
        self.speculated = False
        #: job_id -> {"worker", "start", "lease", "speculative"}
        self.outstanding: dict[str, dict] = {}

    @property
    def terminal(self) -> bool:
        return self.status in ("measured", "failed", "quarantined")


class FleetCoordinator:
    """Survey a fleet; tolerate its faults; report its health."""

    def __init__(
        self,
        spec: FleetSpec,
        store: ReportRegistry | None = None,
        config: FleetConfig | None = None,
        fault_plan: FleetFaultPlan | None = None,
        checkpoint: str | Path | None = None,
    ) -> None:
        if store is not None:
            _refuse_sharded_store(store.root)
        self.spec = spec
        self.store = store
        self.config = config if config is not None else FleetConfig()
        self.fault_plan = fault_plan
        self.metrics = MetricsRegistry()
        self.checkpoint_path = Path(checkpoint) if checkpoint is not None else None
        self.engine = Engine()
        self._on_class_complete: Callable[[_ClassState], None] | None = None
        self._drain_requested = False
        self._draining = False
        self._machines: dict[str, MachineSpec] = {
            m.machine_id: m for m in spec.machines
        }
        self.classes: dict[str, _ClassState] = {
            key: _ClassState(key, members[0].hardware.name,
                             [m.machine_id for m in members])
            for key, members in spec.classes().items()
        }
        self.quarantined: dict[str, str] = {}
        self._jobs: dict[str, str] = {}  # job_id -> class key
        self._job_seq = 0
        self._queue: deque[tuple[str, bool]] = deque()
        self._idle: deque[str] = deque()
        self.workers: dict[str, FleetWorker] = {}

    # -- public API --------------------------------------------------------

    def request_drain(self) -> None:
        """Ask the survey to wind down gracefully (signal-handler safe)."""
        self._drain_requested = True

    def survey(
        self,
        resume: bool = False,
        on_class_complete: Callable[[_ClassState], None] | None = None,
    ) -> FleetReport:
        """Run the survey to completion (or to a requested drain).

        ``resume=True`` reloads the coordinator's checkpoint and
        re-queues only the classes that never reached a terminal state.
        ``on_class_complete`` is a test/progress hook invoked after
        each class terminates (it may call :meth:`request_drain`).
        """
        wall_start = time.perf_counter()
        if resume:
            self._apply_checkpoint()
        suite_cache: dict = {}
        self.workers = {
            f"w{i}": FleetWorker(
                f"w{i}", fault_plan=self.fault_plan, suite_cache=suite_cache
            )
            for i in range(self.config.workers)
        }
        for key, cls in self.classes.items():
            if not cls.terminal:
                cls.status = "queued"
                self._queue.append((key, False))
        for worker_id in self.workers:
            self._at(0.0, JOB_REQUEST, partial(self._on_job_request, worker_id))

        self._on_class_complete = on_class_complete
        installed = self._install_sigint()
        try:
            # The event budget is a watchdog against a scheduling bug
            # spinning the loop; it raises WatchdogError.
            self.engine.run(max_events=2000 * len(self.spec.machines) + 100_000)
        finally:
            self._restore_sigint(installed)

        if self._draining and self.checkpoint_path is not None:
            self._write_checkpoint()
        report = self._build_report(time.perf_counter() - wall_start)
        if self.store is not None:
            report.save(self.store.root / "fleet_report.json")
        return report

    # -- event loop --------------------------------------------------------

    def _at(
        self,
        when: float,
        step: str | None,
        handler: Callable[[], None] | None,
    ) -> None:
        """Run ``handler()`` at logical time ``when``, counted as ``step``.

        Lease checks are no step (``None``); ``NO_MORE_JOBS`` has no
        handler, since an idle worker just waits for a requeue.  A
        requested drain begins before the next event is handled.
        """

        def fire() -> None:
            if self._drain_requested and not self._draining:
                self._begin_drain()
            if step is not None:
                self.metrics.counter("fleet.messages", type=step).inc()
            if handler is not None:
                handler()

        self.engine.schedule_at(when, fire)

    def _send(self, step: str, handler: Callable[[], None] | None = None) -> None:
        """A coordinator step that reaches its worker after the overhead."""
        self._at(self.engine.now + DISPATCH_OVERHEAD, step, handler)

    # -- worker steps ------------------------------------------------------

    def _run_job(self, worker: FleetWorker, job: Job) -> None:
        run = worker.run(job, self.engine.now)
        for at in run.heartbeats:
            self._at(at, HEARTBEAT, partial(self._on_heartbeat, job.job_id))
        if run.error is not None:
            self._at(
                run.finished_at, FAILURE, partial(self._on_failure, job, run.error)
            )
        elif run.finished_at is not None:
            self._at(run.finished_at, RESULT, partial(self._on_result, job, run))
        self._at(
            run.next_request_at,
            JOB_REQUEST,
            partial(self._on_job_request, worker.worker_id),
        )

    # -- coordinator handlers ----------------------------------------------

    def _on_job_request(self, worker_id: str) -> None:
        if self._draining:
            self._send(DRAIN, self.workers[worker_id].drain)
            return
        entry = self._next_queued()
        if entry is None:
            if worker_id not in self._idle:
                self._idle.append(worker_id)
            self._send(NO_MORE_JOBS)
            return
        key, speculative = entry
        self._dispatch(key, worker_id, speculative)

    def _next_queued(self) -> tuple[str, bool] | None:
        while self._queue:
            key, speculative = self._queue.popleft()
            cls = self.classes[key]
            if speculative:
                # A speculative duplicate only makes sense while the
                # original dispatch is still in flight.
                if cls.status == "running" and cls.outstanding:
                    return key, True
                continue
            if cls.status == "queued":
                return key, False
        return None

    def _dispatch(self, key: str, worker_id: str, speculative: bool) -> None:
        cls = self.classes[key]
        machine = self._machines[cls.representative]
        self._job_seq += 1
        job_id = f"{key[:8]}-j{self._job_seq}"
        job = Job(
            job_id=job_id,
            machine=machine,
            seed=stable_seed(self.spec.seed, machine.machine_id),
            noise=self.spec.noise,
            options=self.spec.options,
            expected_seconds=self._expected_seconds(),
        )
        deliver_at = self.engine.now + DISPATCH_OVERHEAD
        self._send(
            JOB_DISPATCH, partial(self._run_job, self.workers[worker_id], job)
        )
        lease = deliver_at + self.config.lease_seconds
        cls.outstanding[job_id] = {
            "worker": worker_id,
            "start": deliver_at,
            "lease": lease,
            "speculative": speculative,
        }
        self._jobs[job_id] = key
        self._at(lease, None, partial(self._on_lease_check, job_id))
        cls.status = "running"
        self.metrics.counter("fleet.dispatches").inc()
        if speculative:
            self.metrics.counter("fleet.speculative_dispatches").inc()
        self.metrics.gauge("fleet.in_flight").set(
            sum(len(c.outstanding) for c in self.classes.values())
        )

    def _expected_seconds(self) -> float:
        hist = self.metrics.histogram("fleet.job_seconds")
        if hist.count >= 1:
            p50 = hist.percentile(0.50)
            if p50 > 0:
                return p50
        return DEFAULT_EXPECTED_SECONDS

    def _on_heartbeat(self, job_id: str) -> None:
        cls = self.classes[self._jobs[job_id]]
        record = cls.outstanding.get(job_id)
        if record is None or cls.terminal:
            return  # a stale heartbeat from a reassigned or finished job
        record["lease"] = self.engine.now + self.config.lease_seconds
        self._at(record["lease"], None, partial(self._on_lease_check, job_id))
        self._maybe_speculate(cls, record)

    def _maybe_speculate(self, cls: _ClassState, record: dict) -> None:
        if record["speculative"] or cls.speculated or self._draining:
            return
        hist = self.metrics.histogram("fleet.job_seconds")
        if hist.count < self.config.speculate_after:
            return
        p90 = hist.percentile(0.90)
        elapsed = self.engine.now - record["start"]
        if p90 > 0 and elapsed > SPECULATE_FACTOR * p90:
            cls.speculated = True
            self.metrics.counter("fleet.stragglers_detected").inc()
            self._enqueue(cls.key, speculative=True, front=True)

    def _on_result(self, job: Job, run: JobRun) -> None:
        machine_id = job.machine.machine_id
        cls = self.classes[self._jobs[job.job_id]]
        record = cls.outstanding.pop(job.job_id, None)
        if cls.terminal or record is None:
            # The speculation race resolved, or a lease already expired
            # and the job was reassigned: first accepted RESULT won,
            # this one is evidence of a duplicate, not a second sample.
            self.metrics.counter("fleet.duplicate_results").inc()
            return
        report = ServetReport.from_dict(run.report)
        problems = report_problems(report)
        if problems:
            self.metrics.counter("fleet.implausible_results").inc()
            strikes = cls.strikes.get(machine_id, 0) + 1
            cls.strikes[machine_id] = strikes
            cls.errors.append(
                f"{machine_id}: implausible report "
                f"(strike {strikes}/{QUARANTINE_AFTER}): "
                + "; ".join(problems[:3])
            )
            if strikes >= QUARANTINE_AFTER:
                self._quarantine_machine(cls, machine_id, problems[0])
            else:
                self._requeue(cls)
            return
        cls.status = "measured"
        cls.report = run.report
        cls.fingerprint = dict(run.fingerprint)
        cls.measured_machine = machine_id
        cls.report_degraded = report.degraded
        cls.outstanding.clear()
        self.metrics.counter("fleet.results_accepted").inc()
        self.metrics.histogram("fleet.job_seconds").observe(
            self.engine.now - record["start"]
        )
        if self.store is not None:
            fingerprint = MachineFingerprint(
                digest=str(cls.fingerprint["digest"]),
                inputs=dict(cls.fingerprint["inputs"]),
            )
            self.store.put(fingerprint, report)
        self._class_completed(cls)

    def _on_failure(self, job: Job, error: str) -> None:
        cls = self.classes[self._jobs[job.job_id]]
        record = cls.outstanding.pop(job.job_id, None)
        if cls.terminal or record is None:
            return
        self.metrics.counter("fleet.failures").inc()
        cls.attempts += 1
        cls.errors.append(
            f"{job.machine.machine_id}: {error} (attempt {cls.attempts}/"
            f"{self.config.max_attempts})"
        )
        self._retry_or_fail(cls)

    def _on_lease_check(self, job_id: str) -> None:
        cls = self.classes[self._jobs[job_id]]
        record = cls.outstanding.get(job_id)
        if record is None or cls.terminal:
            return
        if self.engine.now + 1e-9 < record["lease"]:
            return  # a heartbeat extended the lease; its own check is queued
        cls.outstanding.pop(job_id)
        self.metrics.counter("fleet.lease_expiries").inc()
        if not record["speculative"]:
            cls.attempts += 1
            cls.errors.append(
                f"{cls.representative}: lease expired on worker "
                f"{record['worker']} at t={self.engine.now:g} "
                f"(attempt {cls.attempts}/{self.config.max_attempts})"
            )
        self._retry_or_fail(cls)

    def _retry_or_fail(self, cls: _ClassState) -> None:
        if cls.attempts >= self.config.max_attempts:
            cls.status = "failed"
            self.metrics.counter("fleet.classes_failed").inc()
            self._class_completed(cls)
        elif not cls.outstanding:
            self.metrics.counter("fleet.reassignments").inc()
            self._requeue(cls)
        # else: another dispatch of this class is still in flight and
        # carries the job from here.

    def _quarantine_machine(self, cls: _ClassState, machine_id: str, reason: str) -> None:
        if machine_id not in cls.quarantined_members:
            cls.quarantined_members.append(machine_id)
        self.quarantined[machine_id] = reason
        self.metrics.counter("fleet.quarantines").inc()
        survivors = [
            m for m in cls.members if m not in cls.quarantined_members
        ]
        if survivors:
            cls.representative = survivors[0]
            cls.attempts = 0
            cls.errors.append(
                f"quarantined {machine_id} ({reason}); promoted "
                f"{cls.representative} as class representative"
            )
            self._requeue(cls)
        else:
            cls.status = "quarantined"
            self._class_completed(cls)

    # -- queue plumbing ----------------------------------------------------

    def _requeue(self, cls: _ClassState) -> None:
        if self._draining:
            cls.status = "pending"
            return
        if cls.status == "queued":
            return
        cls.status = "queued"
        self._enqueue(cls.key, speculative=False, front=True)

    def _enqueue(self, key: str, speculative: bool, front: bool) -> None:
        if front:
            self._queue.appendleft((key, speculative))
        else:
            self._queue.append((key, speculative))
        self._dispatch_to_idle()

    def _dispatch_to_idle(self) -> None:
        while self._idle and not self._draining:
            entry = self._next_queued()
            if entry is None:
                return
            worker_id = self._idle.popleft()
            self._dispatch(entry[0], worker_id, entry[1])

    # -- completion, checkpointing, drain ----------------------------------

    def _class_completed(self, cls: _ClassState) -> None:
        if self.checkpoint_path is not None:
            self._write_checkpoint()
        if self._on_class_complete is not None:
            self._on_class_complete(cls)

    def _begin_drain(self) -> None:
        self._draining = True
        for key, speculative in list(self._queue):
            if not speculative:
                cls = self.classes[key]
                if not cls.terminal and not cls.outstanding:
                    cls.status = "pending"
        self._queue.clear()
        while self._idle:
            self._send(DRAIN, self.workers[self._idle.popleft()].drain)

    def _write_checkpoint(self) -> None:
        checkpoint = FleetCheckpoint(
            fleet_fingerprint=self.spec.fingerprint(),
            fleet_name=self.spec.name,
            quarantined=dict(self.quarantined),
        )
        for key, cls in self.classes.items():
            if cls.terminal:
                checkpoint.record_class(
                    key,
                    {
                        "status": cls.status,
                        "measured_machine": cls.measured_machine,
                        "attempts": cls.attempts,
                        "errors": list(cls.errors),
                        "report": cls.report,
                        "fingerprint": cls.fingerprint,
                        "report_degraded": cls.report_degraded,
                        "quarantined_members": list(cls.quarantined_members),
                    },
                )
        checkpoint.save(self.checkpoint_path)

    def _apply_checkpoint(self) -> None:
        if self.checkpoint_path is None:
            raise FleetError("resume requested without a checkpoint path")
        checkpoint = FleetCheckpoint.load(self.checkpoint_path)
        checkpoint.matches(self.spec.fingerprint())
        for key, record in checkpoint.classes.items():
            cls = self.classes.get(key)
            if cls is None:
                raise CheckpointError(
                    f"checkpoint class {key[:12]} is not in this fleet"
                )
            cls.status = str(record["status"])
            cls.measured_machine = record.get("measured_machine")
            cls.attempts = int(record.get("attempts", 0))
            cls.errors = list(record.get("errors", []))
            cls.report = record.get("report")
            cls.fingerprint = record.get("fingerprint")
            cls.report_degraded = bool(record.get("report_degraded", False))
            cls.quarantined_members = list(record.get("quarantined_members", []))
            self.metrics.counter("fleet.classes_resumed").inc()
        self.quarantined.update(checkpoint.quarantined)

    # -- signal handling ---------------------------------------------------

    def _install_sigint(self):
        if threading.current_thread() is not threading.main_thread():
            return None
        previous = signal.getsignal(signal.SIGINT)

        def _handler(signum, frame):  # pragma: no cover - needs a real signal
            self.request_drain()

        signal.signal(signal.SIGINT, _handler)
        return previous

    def _restore_sigint(self, previous) -> None:
        if previous is not None:
            signal.signal(signal.SIGINT, previous)

    # -- report assembly ---------------------------------------------------

    def _build_report(self, wall_seconds: float) -> FleetReport:
        machines: dict[str, str] = {}
        for cls in self.classes.values():
            for machine_id in cls.members:
                if machine_id in self.quarantined:
                    machines[machine_id] = "quarantined"
                elif cls.status == "measured":
                    machines[machine_id] = (
                        "degraded" if cls.report_degraded else "ok"
                    )
                elif cls.status == "failed":
                    machines[machine_id] = "failed"
                else:
                    machines[machine_id] = "pending"
        machines = {m: machines[m] for m in sorted(machines)}
        counts: dict[str, int] = {}
        for status in machines.values():
            counts[status] = counts.get(status, 0) + 1
        measured = sum(1 for c in self.classes.values() if c.status == "measured")
        classes = {
            key: {
                "name": cls.name,
                "machines": list(cls.members),
                "status": cls.status if cls.terminal else "pending",
                "measured_machine": cls.measured_machine,
                "attempts": cls.attempts,
                "errors": list(cls.errors),
                "report": cls.report,
                "report_degraded": cls.report_degraded,
                "quarantined_members": list(cls.quarantined_members),
            }
            for key, cls in self.classes.items()
        }
        value = self.metrics.value
        protocol = {
            "messages": {
                step: int(value("counter", "fleet.messages", type=step))
                for step in STEPS
            },
            "dispatches": int(value("counter", "fleet.dispatches")),
            "speculative_dispatches": int(
                value("counter", "fleet.speculative_dispatches")
            ),
            "duplicate_results": int(value("counter", "fleet.duplicate_results")),
            "lease_expiries": int(value("counter", "fleet.lease_expiries")),
            "reassignments": int(value("counter", "fleet.reassignments")),
            "quarantines": int(value("counter", "fleet.quarantines")),
            "implausible_results": int(
                value("counter", "fleet.implausible_results")
            ),
            "stragglers_detected": int(
                value("counter", "fleet.stragglers_detected")
            ),
        }
        return FleetReport(
            fleet=self.spec.name,
            fleet_fingerprint=self.spec.fingerprint(),
            classes=classes,
            machines=machines,
            dedup={
                "machines": len(machines),
                "classes": len(self.classes),
                "measured": measured,
                "ratio": len(machines) / len(self.classes),
            },
            counts=counts,
            timing={
                "logical_seconds": self.engine.now,
                "wall_seconds": wall_seconds,
            },
            protocol=protocol,
        )
