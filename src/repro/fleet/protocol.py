"""Typed coordinator/worker message protocol for fleet surveys.

The fleet layer is a rank-0-style work-distribution loop in the
panda-yoda Yoda/Droid mold: a single coordinator owns the job queue,
workers pull work with ``JOB_REQUEST`` and push results back, and every
exchange is a typed :class:`Message` rather than an ad-hoc dict.  The
transport is in-process: the coordinator delivers each frame as a
callback on its discrete-event engine, so frames are never serialized.

Message types
-------------

- ``JOB_REQUEST``   worker → coordinator: "I am idle, give me work."
- ``JOB_DISPATCH``  coordinator → worker: a survey job plus its lease.
- ``NO_MORE_JOBS``  coordinator → worker: queue empty, stay idle.
- ``HEARTBEAT``     worker → coordinator: job liveness (extends the
  lease; carries the phase currently measuring).
- ``RESULT``        worker → coordinator: the finished ``ServetReport``.
- ``FAILURE``       worker → coordinator: the suite raised; carries the
  error text for the machine's error chain.
- ``DRAIN``         coordinator → worker: finish what you hold, then
  stop requesting (graceful shutdown).

Every type declares the payload fields it requires; constructing a
message that violates the contract raises
:class:`~repro.errors.FleetProtocolError` — a malformed frame is a bug
surfaced at the boundary, never a KeyError three layers deep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import FleetProtocolError

__all__ = [
    "COORDINATOR",
    "DRAIN",
    "FAILURE",
    "HEARTBEAT",
    "JOB_DISPATCH",
    "JOB_REQUEST",
    "MESSAGE_TYPES",
    "Message",
    "NO_MORE_JOBS",
    "RESULT",
]

#: The coordinator's well-known address (the "rank 0" of the fleet).
COORDINATOR = "coordinator"

JOB_REQUEST = "JOB_REQUEST"
JOB_DISPATCH = "JOB_DISPATCH"
NO_MORE_JOBS = "NO_MORE_JOBS"
HEARTBEAT = "HEARTBEAT"
RESULT = "RESULT"
FAILURE = "FAILURE"
DRAIN = "DRAIN"

#: Every type the protocol knows, in documentation order.
MESSAGE_TYPES: tuple[str, ...] = (
    JOB_REQUEST,
    JOB_DISPATCH,
    NO_MORE_JOBS,
    HEARTBEAT,
    RESULT,
    FAILURE,
    DRAIN,
)

#: Payload fields each message type must carry.
REQUIRED_PAYLOAD: dict[str, tuple[str, ...]] = {
    JOB_REQUEST: (),
    JOB_DISPATCH: ("job",),
    NO_MORE_JOBS: (),
    HEARTBEAT: ("job_id", "phase"),
    RESULT: ("job_id", "report"),
    FAILURE: ("job_id", "error"),
    DRAIN: ("reason",),
}


@dataclass(frozen=True)
class Message:
    """One typed frame between the coordinator and a worker.

    ``time`` is the fleet's *logical* clock (seconds since survey
    start), not wall time: the coordinator's event engine delivers the
    frame at that time, and two surveys of the same fleet produce the
    same timeline.
    """

    type: str
    sender: str
    recipient: str
    time: float = 0.0
    payload: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.type not in MESSAGE_TYPES:
            raise FleetProtocolError(
                f"unknown message type {self.type!r}; expected one of "
                f"{', '.join(MESSAGE_TYPES)}"
            )
        if not isinstance(self.payload, dict):
            raise FleetProtocolError(
                f"{self.type} payload must be a dict, got "
                f"{type(self.payload).__name__}"
            )
        missing = [
            key for key in REQUIRED_PAYLOAD[self.type] if key not in self.payload
        ]
        if missing:
            raise FleetProtocolError(
                f"{self.type} message from {self.sender!r} is missing "
                f"required payload field(s): {', '.join(missing)}"
            )
