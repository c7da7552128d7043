"""Fleet-granularity checkpoints: survive coordinator death.

The suite already checkpoints *within* one machine's run
(:class:`repro.resilience.checkpoint.SuiteCheckpoint`); a fleet survey
adds a layer above it.  :class:`FleetCheckpoint` records every
hardware class that reached a *terminal* state — measured, failed, or
fully quarantined — together with the evidence (report payload, error
chain, quarantined members).  The coordinator rewrites it atomically
after each class completes, so a killed survey resumes by re-queuing
only the classes that never finished; at noise=0 the resumed survey's
report is byte-identical to an uninterrupted one.

The checkpoint embeds the fleet spec's fingerprint: resuming against a
different fleet (renamed machines, changed options, different noise)
is refused with :class:`~repro.errors.CheckpointError` rather than
silently mixing two surveys' results.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import CheckpointError
from ..ioutils import atomic_write_text

__all__ = ["FLEET_CHECKPOINT_VERSION", "FleetCheckpoint"]

FLEET_CHECKPOINT_VERSION = 1

#: Class states a checkpoint may record (non-terminal classes are
#: simply absent — that is what "re-queue on resume" means).
_TERMINAL_STATUSES = ("measured", "failed", "quarantined")


@dataclass
class FleetCheckpoint:
    """Everything needed to resume a half-finished survey.

    ``classes`` maps hardware-class key to a terminal record::

        {
          "status": "measured" | "failed" | "quarantined",
          "measured_machine": str | None,
          "attempts": int,
          "errors": [str, ...],
          "report": {...} | None,          # ServetReport.to_dict()
          "fingerprint": {...} | None,     # digest + inputs
          "report_degraded": bool,
          "quarantined_members": [str, ...],
        }

    ``quarantined`` maps machine id to the reason it was quarantined
    (fleet-wide, so resumed surveys never re-trust a bad machine).
    """

    fleet_fingerprint: str
    fleet_name: str
    classes: dict[str, dict] = field(default_factory=dict)
    quarantined: dict[str, str] = field(default_factory=dict)
    version: int = FLEET_CHECKPOINT_VERSION

    def record_class(self, key: str, record: dict) -> None:
        status = record.get("status")
        if status not in _TERMINAL_STATUSES:
            raise CheckpointError(
                f"fleet checkpoint only records terminal classes; "
                f"{key[:12]} has status {status!r}"
            )
        self.classes[key] = record

    def matches(self, fleet_fingerprint: str) -> None:
        """Refuse to resume against a different fleet."""
        if self.fleet_fingerprint != fleet_fingerprint:
            raise CheckpointError(
                f"checkpoint belongs to fleet {self.fleet_name!r} "
                f"({self.fleet_fingerprint[:12]}), not to this fleet "
                f"({fleet_fingerprint[:12]}); refusing to mix surveys"
            )

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "fleet_fingerprint": self.fleet_fingerprint,
            "fleet_name": self.fleet_name,
            "classes": self.classes,
            "quarantined": self.quarantined,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FleetCheckpoint":
        try:
            version = int(data["version"])
            if version != FLEET_CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"unsupported fleet checkpoint version {version} "
                    f"(this library writes v{FLEET_CHECKPOINT_VERSION})"
                )
            return cls(
                fleet_fingerprint=str(data["fleet_fingerprint"]),
                fleet_name=str(data["fleet_name"]),
                classes={str(k): dict(v) for k, v in data["classes"].items()},
                quarantined={
                    str(k): str(v) for k, v in data.get("quarantined", {}).items()
                },
                version=version,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed fleet checkpoint: {exc}") from exc

    def save(self, path: str | Path) -> None:
        """Replace the checkpoint atomically; a failed write leaves the
        previous one intact and raises :class:`CheckpointError`."""
        try:
            atomic_write_text(path, json.dumps(self.to_dict(), indent=2))
        except OSError as exc:
            raise CheckpointError(
                f"cannot write fleet checkpoint {path}: {exc}"
            ) from exc

    @classmethod
    def load(cls, path: str | Path) -> "FleetCheckpoint":
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"cannot load fleet checkpoint {path}: {exc}"
            ) from exc
        return cls.from_dict(data)
