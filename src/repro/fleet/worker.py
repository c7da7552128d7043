"""Fleet workers: the measurement hosts of a survey.

A :class:`FleetWorker` holds no thread and no socket.  The coordinator
calls :meth:`FleetWorker.run` when a dispatch fires on its
discrete-event loop, and the worker answers with a :class:`JobRun`:
the logical times of its heartbeats, of its result (or failure), and
of its next job request.  The coordinator schedules each of those
steps on the same loop.  Because a worker's behavior is a pure
function of its inputs and its seeded RNG stream, every survey —
including every crash and every straggler — replays identically under
the same fleet seed.

Fault injection lives in :class:`FleetFaultPlan`: per-dispatch crash
probability (the worker dies mid-job and respawns later), straggler
probability (the job takes ``straggle_factor`` times longer but keeps
heartbeating), and a set of *flaky* machines whose reports come back
corrupted — the case leases and retries cannot catch, handled by the
coordinator's plausibility quarantine instead.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from ..backends.simulated import SimulatedBackend
from ..core.suite import ServetSuite
from ..errors import FleetError
from ..ioutils import atomic_write_text
from ..service.fingerprint import fingerprint_of
from .spec import MachineSpec, stable_seed

__all__ = ["HEARTBEAT_SECONDS", "FleetFaultPlan", "FleetWorker", "Job", "JobRun"]

#: Logical seconds between a running job's heartbeats.
HEARTBEAT_SECONDS = 30.0
#: Ceiling on heartbeats per job: very long jobs stretch their
#: heartbeat interval rather than flooding the event heap.
_MAX_HEARTBEATS_PER_JOB = 200


@dataclass(frozen=True)
class FleetFaultPlan:
    """Deterministic fault schedule for a survey.

    ``crash_rate`` and ``straggler_rate`` are per-dispatch
    probabilities drawn from each worker's seeded stream;
    ``flaky_machines`` is an explicit machine-id set because flakiness
    is a property of the *machine*, not of the worker that happens to
    measure it.
    """

    seed: int = 0
    crash_rate: float = 0.0
    respawn_seconds: float = 300.0
    straggler_rate: float = 0.0
    straggle_factor: float = 10.0
    flaky_machines: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for name in ("crash_rate", "straggler_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise FleetError(f"{name} must be in [0, 1], got {value!r}")
        if self.respawn_seconds <= 0:
            raise FleetError("respawn_seconds must be > 0")
        if self.straggle_factor <= 1.0:
            raise FleetError("straggle_factor must be > 1")
        object.__setattr__(
            self, "flaky_machines", tuple(sorted(set(self.flaky_machines)))
        )

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "crash_rate": self.crash_rate,
            "respawn_seconds": self.respawn_seconds,
            "straggler_rate": self.straggler_rate,
            "straggle_factor": self.straggle_factor,
            "flaky_machines": list(self.flaky_machines),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FleetFaultPlan":
        try:
            return cls(
                seed=int(data.get("seed", 0)),
                crash_rate=float(data.get("crash_rate", 0.0)),
                respawn_seconds=float(data.get("respawn_seconds", 300.0)),
                straggler_rate=float(data.get("straggler_rate", 0.0)),
                straggle_factor=float(data.get("straggle_factor", 10.0)),
                flaky_machines=tuple(data.get("flaky_machines", ())),
            )
        except (TypeError, ValueError) as exc:
            raise FleetError(f"malformed fleet fault plan: {exc}") from exc

    def save(self, path: str | Path) -> None:
        atomic_write_text(path, json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load(cls, path: str | Path) -> "FleetFaultPlan":
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise FleetError(f"cannot load fault plan {path}: {exc}") from exc
        return cls.from_dict(data)


@dataclass(frozen=True)
class Job:
    """One dispatch: measure ``machine`` under the survey's settings."""

    job_id: str
    machine: MachineSpec
    seed: int
    noise: float
    options: dict
    expected_seconds: float


@dataclass(frozen=True)
class JobRun:
    """What a worker does with one job, on the fleet's logical clock.

    ``finished_at`` is None when the worker crashed mid-job: neither a
    report nor an error ever arrives.  Otherwise exactly one of
    ``report`` (with its ``fingerprint``) and ``error`` is set.
    """

    heartbeats: tuple[float, ...]
    finished_at: float | None
    next_request_at: float
    report: dict | None = None
    fingerprint: dict | None = None
    error: str | None = None


class FleetWorker:
    """One measurement host.

    Parameters
    ----------
    worker_id:
        Name in the survey's error chains (``w0``, ``w1``, ...).
    fault_plan:
        Optional fault schedule; ``None`` means a perfectly healthy
        worker.  The worker draws crash/straggle decisions from a
        stream seeded by ``(plan seed, worker id)`` — per *dispatch*,
        not per machine, so a retried job is not doomed to repeat its
        first attempt's crash.
    suite_cache:
        Shared ``machine_id -> measured result`` memo.  Re-dispatches
        of the same machine (lease-expiry retries, speculative
        duplicates) are deterministic repeats, so re-running the suite
        would burn wall time to compute an identical report.
    """

    def __init__(
        self,
        worker_id: str,
        fault_plan: FleetFaultPlan | None = None,
        suite_cache: dict | None = None,
    ) -> None:
        self.worker_id = worker_id
        self.fault_plan = fault_plan
        self.suite_cache = suite_cache if suite_cache is not None else {}
        self.draining = False
        self.crashes = 0
        self._fault_rng = (
            random.Random(stable_seed(fault_plan.seed, "worker", worker_id))
            if fault_plan is not None
            else None
        )

    def run(self, job: Job, now: float) -> JobRun:
        """Take ``job`` at logical time ``now``; say what happens next."""
        crash, straggle = False, False
        if self._fault_rng is not None:
            crash = self._fault_rng.random() < self.fault_plan.crash_rate
            straggle = self._fault_rng.random() < self.fault_plan.straggler_rate

        if crash:
            # The process dies mid-job: heartbeats stop, no result ever
            # arrives, and the coordinator's lease expiry does the rest.
            # The suite is deliberately *not* run — a dead worker does
            # no work, and skipping it keeps fault drills cheap.
            self.crashes += 1
            crash_at = now + (0.2 + 0.6 * self._fault_rng.random()) * job.expected_seconds
            return JobRun(
                heartbeats=_heartbeats(now, crash_at),
                finished_at=None,
                next_request_at=crash_at + self.fault_plan.respawn_seconds,
            )

        try:
            report_dict, fingerprint, virtual_seconds = self._measure(job)
        except Exception as exc:  # surfaced to the coordinator, not raised
            return JobRun(
                heartbeats=(),
                finished_at=now + 1.0,
                next_request_at=now + 1.0,
                error=f"{type(exc).__name__}: {exc}",
            )

        duration = max(1.0, virtual_seconds)
        if straggle:
            duration *= self.fault_plan.straggle_factor
        done_at = now + duration
        return JobRun(
            heartbeats=_heartbeats(now, done_at),
            finished_at=done_at,
            next_request_at=done_at,
            report=report_dict,
            fingerprint=fingerprint,
        )

    def drain(self) -> None:
        """Finish the job in hand; the coordinator sends no new one."""
        self.draining = True

    def _measure(self, job: Job) -> tuple[dict, dict, float]:
        """Run (or recall) the suite for one machine.

        Returns ``(report dict, fingerprint dict, virtual seconds)``.
        The memo key is the machine id: within one survey a machine's
        job parameters never change, so a repeat dispatch is by
        construction the same measurement.
        """
        machine_id = job.machine.machine_id
        cached = self.suite_cache.get(machine_id)
        if cached is None:
            options = dict(job.options)
            backend = SimulatedBackend(
                job.machine.hardware.build(), noise=job.noise, seed=job.seed
            )
            suite = ServetSuite(
                backend,
                node_cores=options.get("node_cores"),
                comm_cores=options.get("comm_cores"),
                probe_tlb=bool(options.get("probe_tlb", True)),
                prune=str(options.get("prune", "off")),
            )
            report = suite.run(strict=False)
            fingerprint = fingerprint_of(backend, options=options)
            virtual = sum(v for v, _ in report.timings.values())
            cached = (
                report.to_dict(),
                {"digest": fingerprint.digest, "inputs": fingerprint.inputs},
                float(virtual),
            )
            self.suite_cache[machine_id] = cached
        report_dict, fingerprint_dict, virtual = cached
        report_dict = copy.deepcopy(report_dict)
        if self.fault_plan is not None and machine_id in self.fault_plan.flaky_machines:
            self._corrupt(report_dict)
        return report_dict, copy.deepcopy(fingerprint_dict), virtual

    @staticmethod
    def _corrupt(report_dict: dict) -> None:
        """What a machine with failing hardware hands back.

        Negated cache sizes and a negative memory bandwidth: complete,
        well-formed JSON that no real machine could produce — exactly
        the shape the plausibility validators exist to catch.
        """
        for cache in report_dict.get("caches", []):
            cache["size"] = -abs(int(cache["size"]))
        report_dict["memory_reference"] = -1.0


def _heartbeats(start: float, until: float) -> tuple[float, ...]:
    """Heartbeat times of a job running from ``start`` to ``until``."""
    effective = max(HEARTBEAT_SECONDS, (until - start) / _MAX_HEARTBEATS_PER_JOB)
    out: list[float] = []
    t = start + effective
    while t < until:
        out.append(t)
        t += effective
    return tuple(out)
