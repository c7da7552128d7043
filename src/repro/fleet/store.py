"""Sharded report storage for fleet-scale surveys.

A single :class:`~repro.service.registry.ReportRegistry` keeps every
digest directory under one root and serializes its global ``sequence``
counter through one file — fine for a workstation, a bottleneck for a
farm writing hundreds of class reports.  :class:`ShardedFleetStore`
splits the key space: fingerprint digests are hashed onto ``shards``
independent registries (``shard-00/`` ... ``shard-NN/``), each a full
:class:`ReportRegistry` with its own versioning, checksums, and
quarantine behavior.  Everything the registry already guarantees —
atomic durable writes, corrupt-version quarantine, schema migration —
is inherited per shard for free.

The shard count is persisted in ``store.json`` at the root; reopening
with a different count would silently mis-route digests, so it is
refused.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..core.report import ServetReport
from ..errors import FleetError
from ..ioutils import atomic_write_text
from ..obs.metrics import MetricsRegistry
from ..service.fingerprint import MachineFingerprint
from ..service.registry import RegistryEntry, ReportRegistry

__all__ = ["ShardedFleetStore"]


class ShardedFleetStore:
    """Fingerprint-keyed report storage across ``shards`` registries."""

    def __init__(
        self,
        root: str | Path,
        shards: int = 16,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if not 1 <= shards <= 256:
            raise FleetError(f"shard count must be in [1, 256], got {shards}")
        self.root = Path(root)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.shards = self._reconcile_shard_count(shards)
        self._registries: dict[int, ReportRegistry] = {}

    def _reconcile_shard_count(self, shards: int) -> int:
        meta_path = self.root / "store.json"
        if meta_path.exists():
            try:
                stored = int(json.loads(meta_path.read_text())["shards"])
            except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
                raise FleetError(
                    f"fleet store metadata {meta_path} is unreadable: {exc}"
                ) from exc
            if stored != shards:
                raise FleetError(
                    f"fleet store {self.root} was created with {stored} "
                    f"shard(s); reopening with {shards} would mis-route "
                    "digests"
                )
            return stored
        return shards

    def shard_of(self, digest: str) -> int:
        """Stable digest -> shard mapping (hex prefix, modulo)."""
        try:
            return int(digest[:4], 16) % self.shards
        except ValueError as exc:
            raise FleetError(f"not a fingerprint digest: {digest!r}") from exc

    def registry_for(self, digest: str) -> ReportRegistry:
        """The shard registry owning ``digest`` (created lazily)."""
        shard = self.shard_of(digest)
        return self._registry(shard, self.root / f"shard-{shard:02d}")

    def _registry(self, index: int, path: Path) -> ReportRegistry:
        registry = self._registries.get(index)
        if registry is None:
            registry = ReportRegistry(path, metrics=self.metrics)
            self._registries[index] = registry
        return registry

    # -- write side --------------------------------------------------------

    def put(self, fingerprint: MachineFingerprint, report: ServetReport) -> RegistryEntry:
        """Store one class report under its machine fingerprint."""
        self._ensure_meta()
        entry = self.registry_for(fingerprint.digest).put(fingerprint, report)
        self.metrics.counter("fleet.store_puts").inc()
        return entry

    def _ensure_meta(self) -> None:
        meta_path = self.root / "store.json"
        if not meta_path.exists():
            self.root.mkdir(parents=True, exist_ok=True)
            atomic_write_text(
                meta_path, json.dumps({"shards": self.shards}, indent=2)
            )

    # -- read side ---------------------------------------------------------

    def get(self, digest: str) -> ServetReport:
        """Load the newest intact report stored under ``digest``."""
        return self.registry_for(digest).get(digest)

    def entries(self) -> list[RegistryEntry]:
        """Every stored version across all shards.

        Sorted by ``(shard, seq)`` — sequence counters are per-shard,
        so a global "latest" ordering does not exist by design.
        """
        found: list[RegistryEntry] = []
        for shard in self._shard_dirs():
            registry = self._registry(int(shard.name.split("-")[1]), shard)
            found.extend(
                sorted(registry.entries(), key=lambda e: (e.seq, e.digest))
            )
        return found

    def quarantined_counts(self) -> dict[str, int]:
        """Quarantined files per digest, aggregated across shards."""
        counts: dict[str, int] = {}
        for shard in self._shard_dirs():
            registry = self._registry(int(shard.name.split("-")[1]), shard)
            counts.update(registry.quarantined_counts())
        return counts

    def _shard_dirs(self) -> list[Path]:
        if not self.root.exists():
            return []
        return sorted(
            d
            for d in self.root.iterdir()
            if d.is_dir() and d.name.startswith("shard-")
        )
