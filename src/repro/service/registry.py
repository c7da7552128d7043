"""Versioned on-disk report store keyed by machine fingerprint.

Layout under the registry root::

    <root>/
      sequence                  # global put counter ("latest" ordering)
      <digest>/
        meta.json               # fingerprint inputs + display fields
        v000001.json            # envelope: schema_version/checksum/report
        v000002.json
        v000001.json.quarantined   # a corrupt file, moved aside

Every write is atomic (:func:`repro.ioutils.atomic_write_text`), every
envelope carries a SHA-256 checksum of the canonical report JSON, and a
version file that fails integrity checking is *quarantined* — renamed
``*.quarantined`` so the evidence survives — rather than crashing the
reader, which falls back to the newest intact version.

Schema migrations: version 1 is the bare ``ServetReport.to_dict()``
payload that loose ``servet run -o report.json`` files contain;
:func:`register_migration` hooks lift an envelope one version at a
time until it reaches :data:`REPORT_SCHEMA_VERSION`, so old reports
keep loading as the format evolves.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Callable

from ..core.report import ServetReport
from ..errors import RegistryError
from ..ioutils import atomic_write_text, canonical_json, sha256_hex
from .fingerprint import REPORT_SCHEMA_VERSION, MachineFingerprint

#: Width of the zero-padded version number in file names.
_VERSION_DIGITS = 6

#: Schema migration hooks: ``from_version -> fn(envelope) -> envelope``
#: where the result is one version newer.  Applied in sequence until
#: :data:`REPORT_SCHEMA_VERSION` is reached.
_MIGRATIONS: dict[int, Callable[[dict], dict]] = {}


def register_migration(from_version: int):
    """Decorator registering a one-step schema migration hook."""

    def decorate(fn: Callable[[dict], dict]) -> Callable[[dict], dict]:
        _MIGRATIONS[int(from_version)] = fn
        return fn

    return decorate


def report_checksum(report_dict: dict) -> str:
    """Integrity checksum of a report payload (canonical-JSON SHA-256)."""
    return sha256_hex(canonical_json(report_dict))


@register_migration(1)
def _migrate_v1_to_v2(envelope: dict) -> dict:
    """v1 (bare report JSON, as ``ServetReport.save`` writes) -> v2.

    Wraps the payload in the envelope and computes the checksum it
    never had.  The payload itself is untouched, so a migrated report
    yields an identical ``measurement_dict()``.
    """
    report = envelope["report"]
    return {
        "schema_version": 2,
        "checksum": report_checksum(report),
        "report": report,
    }


def _migrate(envelope: dict, origin: str) -> dict:
    version = int(envelope.get("schema_version", 0))
    while version < REPORT_SCHEMA_VERSION:
        hook = _MIGRATIONS.get(version)
        if hook is None:
            raise RegistryError(
                f"{origin}: no migration from report schema v{version} "
                f"(current is v{REPORT_SCHEMA_VERSION})"
            )
        envelope = hook(envelope)
        new_version = int(envelope.get("schema_version", 0))
        if new_version <= version:
            raise RegistryError(
                f"{origin}: migration from v{version} did not advance "
                "the schema version"
            )
        version = new_version
    if version != REPORT_SCHEMA_VERSION:
        raise RegistryError(
            f"{origin}: report schema v{version} is newer than this "
            f"library understands (v{REPORT_SCHEMA_VERSION})"
        )
    return envelope


@dataclass(frozen=True)
class RegistryEntry:
    """One stored report version (metadata only; load via the registry)."""

    digest: str
    version: int
    seq: int
    created: float
    schema_version: int
    system: str
    n_cores: int
    path: Path

    @property
    def short(self) -> str:
        return self.digest[:12]


class ReportRegistry:
    """List/get/put/gc over fingerprint-keyed report versions.

    Parameters
    ----------
    root:
        Registry directory (created on first ``put``).
    clock:
        Source of the human-facing ``created`` timestamps (injectable
        so tests stay deterministic).  Ordering never relies on it —
        "latest" is decided by the monotonic ``sequence`` counter.
    """

    def __init__(self, root: str | Path, clock: Callable[[], float] = time.time) -> None:
        self.root = Path(root)
        self._clock = clock

    # -- write side ---------------------------------------------------------

    def put(self, fingerprint: MachineFingerprint, report: ServetReport) -> RegistryEntry:
        """Store a report as the next version under its fingerprint."""
        digest_dir = self.root / fingerprint.digest
        digest_dir.mkdir(parents=True, exist_ok=True)
        meta_path = digest_dir / "meta.json"
        if not meta_path.exists():
            atomic_write_text(
                meta_path,
                json.dumps(
                    {
                        "digest": fingerprint.digest,
                        "inputs": fingerprint.inputs,
                        "system": report.system,
                        "n_cores": report.n_cores,
                    },
                    indent=2,
                ),
            )
        version = self._next_version_number(digest_dir)
        seq = self._next_seq()
        payload = report.to_dict()
        envelope = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "version": version,
            "seq": seq,
            "created": float(self._clock()),
            "checksum": report_checksum(payload),
            "report": payload,
        }
        path = digest_dir / self._version_name(version)
        atomic_write_text(path, json.dumps(envelope, indent=2))
        return self._entry_from_envelope(fingerprint.digest, path, envelope)

    def import_report(
        self, path: str | Path, fingerprint: MachineFingerprint
    ) -> RegistryEntry:
        """Adopt a loose report file (any supported schema version).

        This is how pre-registry ``servet run -o report.json`` output
        (schema v1) enters the registry: the file is parsed, migrated
        through the hooks, and stored as a fresh version.
        """
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise RegistryError(f"cannot import report {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise RegistryError(f"cannot import report {path}: not a JSON object")
        if "schema_version" not in data:
            data = {"schema_version": 1, "report": data}
        envelope = _migrate(data, origin=str(path))
        return self.put(fingerprint, ServetReport.from_dict(envelope["report"]))

    def gc(self, keep: int = 1) -> list[Path]:
        """Drop all but the newest ``keep`` versions of every digest.

        Quarantined files are swept too — by the time gc runs they have
        served their diagnostic purpose.  Returns the removed paths.
        """
        if keep < 1:
            raise RegistryError("gc needs keep >= 1")
        removed: list[Path] = []
        for digest_dir in self._digest_dirs():
            for stale in sorted(digest_dir.glob("*.quarantined")):
                stale.unlink()
                removed.append(stale)
            versions = self._version_paths(digest_dir)
            for path in versions[:-keep] if len(versions) > keep else []:
                path.unlink()
                removed.append(path)
        return removed

    # -- read side ----------------------------------------------------------

    def entries(self, spec: str | None = None) -> list[RegistryEntry]:
        """All stored versions (of one digest spec, or everything).

        Sorted by global sequence — the last element is what ``latest``
        resolves to.  Unreadable version files, and envelopes whose
        version, sequence or timestamps are not numbers, are skipped
        here (they surface, and are quarantined, on :meth:`get`).
        """
        digests = [self.resolve(spec)] if spec is not None else [
            d.name for d in self._digest_dirs()
        ]
        found: list[RegistryEntry] = []
        for digest in digests:
            digest_dir = self.root / digest
            for path in self._version_paths(digest_dir):
                envelope = self._read_object(path)
                if envelope is None:
                    continue
                try:
                    found.append(self._entry_from_envelope(digest, path, envelope))
                except (TypeError, ValueError, OverflowError):
                    continue
        return sorted(found, key=lambda e: e.seq)

    def get(self, spec: str = "latest", version: int | None = None) -> ServetReport:
        """Load a report (see :meth:`get_with_entry`)."""
        return self.get_with_entry(spec, version)[0]

    def get_with_entry(
        self, spec: str = "latest", version: int | None = None
    ) -> tuple[ServetReport, RegistryEntry]:
        """Load a report, verifying integrity and migrating its schema.

        A version file that is unreadable or fails its checksum is
        quarantined (renamed ``*.quarantined``) and the next-newest
        intact version is tried; only when none survives is
        :class:`RegistryError` raised.  The entry is that of the file
        the report came from, read with it, so a concurrent ``put``
        cannot pair one version's report with the next version's number.
        """
        digest = self.resolve(spec)
        digest_dir = self.root / digest
        candidates = self._version_paths(digest_dir)
        if version is not None:
            wanted = digest_dir / self._version_name(version)
            candidates = [p for p in candidates if p == wanted]
            if not candidates:
                raise RegistryError(
                    f"registry has no version {version} of {digest[:12]}"
                )
        quarantined: list[str] = []
        for path in reversed(candidates):
            loaded = self._load_verified(path, quarantined)
            if loaded is not None:
                return loaded
        detail = f" (quarantined: {', '.join(quarantined)})" if quarantined else ""
        raise RegistryError(
            f"registry has no intact report for {digest[:12]}{detail}"
        )

    def latest_version(self, digest: str) -> int:
        """Newest stored version number of a digest — no payload read.

        A pure directory-listing probe: version numbers live in the
        file *names*, so polling this in a watcher loop (the serving
        daemon does, every ``poll_interval``) costs one ``listdir``
        and zero JSON deserialization.  Accepts a full digest or a
        unique prefix; returns 0 when the digest has no versions (or
        no directory yet).  ``"latest"`` is deliberately unsupported —
        resolving it requires reading envelopes, which would defeat
        the cheapness this probe exists for.
        """
        if digest == "latest":
            raise RegistryError(
                "latest_version needs a digest or prefix; resolve 'latest' "
                "first (it requires reading stored envelopes)"
            )
        matches = [d for d in self._digest_dirs() if d.name.startswith(digest)]
        if not matches:
            return 0
        if len(matches) > 1:
            raise RegistryError(
                f"fingerprint prefix {digest!r} is ambiguous: "
                + ", ".join(m.name[:12] for m in sorted(matches))
            )
        return self._latest_version_number(matches[0])

    def fingerprint_inputs(self, spec: str = "latest") -> dict:
        """The stored fingerprint inputs of a digest (staleness baseline)."""
        digest = self.resolve(spec)
        meta_path = self.root / digest / "meta.json"
        try:
            meta = json.loads(meta_path.read_text())
            return dict(meta["inputs"])
        except (OSError, json.JSONDecodeError, KeyError) as exc:
            raise RegistryError(
                f"registry metadata for {digest[:12]} is unreadable: {exc}"
            ) from exc

    def resolve(self, spec: str) -> str:
        """Resolve ``"latest"``, a full digest, or a unique prefix."""
        digests = [d.name for d in self._digest_dirs()]
        if spec == "latest":
            entries = []
            for digest in digests:
                entries.extend(self.entries(digest))
            if not entries:
                raise RegistryError(f"registry {self.root} is empty")
            return max(entries, key=lambda e: e.seq).digest
        matches = [d for d in digests if d.startswith(spec)]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise RegistryError(
                f"registry has no report for fingerprint {spec!r}"
            )
        raise RegistryError(
            f"fingerprint prefix {spec!r} is ambiguous: "
            + ", ".join(m[:12] for m in sorted(matches))
        )

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _read_object(path: Path) -> dict | None:
        """The JSON object a file holds; None for anything else (unreadable,
        not JSON, or JSON that is not an object such as ``5`` or ``null``)."""
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        return data if isinstance(data, dict) else None

    def _load_verified(
        self, path: Path, quarantined: list[str]
    ) -> tuple[ServetReport, RegistryEntry] | None:
        data = self._read_object(path)
        if data is None:
            self._quarantine(path, quarantined)
            return None
        if "schema_version" not in data:
            data = {"schema_version": 1, "report": data}
        stored_checksum = data.get("checksum")
        try:
            envelope = _migrate(data, origin=str(path))
        except RegistryError:
            self._quarantine(path, quarantined)
            return None
        # v1 payloads had no checksum to verify; everything newer does.
        if stored_checksum is not None and stored_checksum != report_checksum(
            envelope["report"]
        ):
            self._quarantine(path, quarantined)
            return None
        try:
            report = ServetReport.from_dict(envelope["report"])
            return report, self._entry_from_envelope(path.parent.name, path, data)
        except Exception:
            self._quarantine(path, quarantined)
            return None

    def _quarantine(self, path: Path, quarantined: list[str]) -> None:
        target = path.with_name(path.name + ".quarantined")
        try:
            path.replace(target)
        except OSError:
            return
        quarantined.append(target.name)

    def quarantined_counts(self) -> dict[str, int]:
        """Quarantined files on disk, per digest (empty digests omitted):
        evidence from this or any earlier process."""
        counts: dict[str, int] = {}
        for digest_dir in self._digest_dirs():
            n = len(list(digest_dir.glob("*.quarantined")))
            if n:
                counts[digest_dir.name] = n
        return counts

    def _entry_from_envelope(
        self, digest: str, path: Path, envelope: dict
    ) -> RegistryEntry:
        # Tolerate hand-placed legacy files: a bare v1 payload has no
        # envelope fields, so fall back to the file name for the version
        # and neutral values for the rest.
        if "schema_version" not in envelope:
            report, schema_version = envelope, 1
        else:
            report = envelope.get("report")
            report = report if isinstance(report, dict) else {}
            schema_version = int(envelope["schema_version"])
        return RegistryEntry(
            digest=digest,
            version=int(envelope.get("version", int(path.stem[1:]))),
            seq=int(envelope.get("seq", 0)),
            created=float(envelope.get("created", 0.0)),
            schema_version=schema_version,
            system=str(report.get("system", "?")),
            n_cores=int(report.get("n_cores", 0)),
            path=path,
        )

    def _digest_dirs(self) -> list[Path]:
        if not self.root.exists():
            return []
        return sorted(d for d in self.root.iterdir() if d.is_dir())

    @staticmethod
    def _version_name(version: int) -> str:
        return f"v{version:0{_VERSION_DIGITS}d}.json"

    @staticmethod
    def _version_paths(digest_dir: Path) -> list[Path]:
        return sorted(digest_dir.glob("v" + "[0-9]" * _VERSION_DIGITS + ".json"))

    def _latest_version_number(self, digest_dir: Path) -> int:
        versions = self._version_paths(digest_dir)
        if not versions:
            return 0
        return int(versions[-1].stem[1:])

    @staticmethod
    def _next_version_number(digest_dir: Path) -> int:
        """One past every version on disk, quarantined ones included, so
        a new version never takes the name of moved-aside evidence."""
        pattern = "v" + "[0-9]" * _VERSION_DIGITS + ".json"
        numbers = [
            int(path.name[1 : 1 + _VERSION_DIGITS])
            for suffix in ("", ".quarantined")
            for path in digest_dir.glob(pattern + suffix)
        ]
        return max(numbers, default=0) + 1

    def _next_seq(self) -> int:
        seq_path = self.root / "sequence"
        try:
            current = int(seq_path.read_text())
        except (OSError, ValueError):
            current = 0
        atomic_write_text(seq_path, str(current + 1))
        return current + 1
