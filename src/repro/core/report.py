"""The Servet report: the file autotuned applications consult.

The paper (Section IV-E): the benchmarks "must be run only once at
installation time ... the information obtained can be stored in a file
to be consulted by the applications to guide optimizations when
needed".  :class:`ServetReport` is that file — a JSON-serializable
summary of everything the suite measured.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..errors import ReproError
from ..ioutils import atomic_write_text
from ..topology.machine import CorePair
from ..units import format_bandwidth, format_size, format_time


def _pairs_to_json(pairs: list[CorePair]) -> list[list[int]]:
    return [list(p) for p in pairs]


def _pairs_from_json(raw: list[list[int]]) -> list[CorePair]:
    return [(int(a), int(b)) for a, b in raw]


@dataclass
class CacheLevelReport:
    """One detected cache level and which cores share it."""

    level: int
    size: int
    method: str
    shared_pairs: list[CorePair] = field(default_factory=list)
    sharing_groups: list[list[int]] = field(default_factory=list)
    #: Associativity, when the probabilistic fit produced one (a free
    #: by-product of the Fig. 3 algorithm; None for positional levels).
    ways: int | None = None

    @property
    def private(self) -> bool:
        """True when no pair shares this level."""
        return not self.shared_pairs


@dataclass
class MemoryLevelReport:
    """One memory-overhead level (BW[i] / Pm[i] / groups / curve)."""

    bandwidth: float
    pairs: list[CorePair]
    groups: list[list[int]]
    scalability: list[float] = field(default_factory=list)


@dataclass
class CommLayerReport:
    """One communication layer with its characterization."""

    index: int
    latency: float
    pairs: list[CorePair]
    #: (message size, latency seconds, bandwidth bytes/s)
    characterization: list[tuple[int, float, float]] = field(default_factory=list)
    #: (concurrent messages, worst latency seconds, slowdown factor)
    scalability: list[tuple[int, float, float]] = field(default_factory=list)

    def estimate_latency(self, nbytes: int) -> float:
        """Latency estimate for any message size on this layer.

        Linear interpolation of the characterization sweep; beyond the
        sweep the last observed bandwidth extrapolates.  This is the
        lookup an autotuned code performs before choosing between
        communication alternatives (Section III-D).
        """
        curve = self.characterization
        if not curve:
            return self.latency
        if nbytes <= curve[0][0]:
            return curve[0][1]
        for (s0, t0, _), (s1, t1, _) in zip(curve, curve[1:]):
            if s0 <= nbytes <= s1:
                frac = (nbytes - s0) / (s1 - s0)
                return t0 + frac * (t1 - t0)
        s_last, t_last, _ = curve[-1]
        return t_last * nbytes / s_last


@dataclass
class ServetReport:
    """Everything Servet measured about one system."""

    system: str
    n_cores: int
    page_size: int
    caches: list[CacheLevelReport] = field(default_factory=list)
    memory_reference: float = 0.0
    memory_levels: list[MemoryLevelReport] = field(default_factory=list)
    comm_probe_size: int = 0
    comm_layers: list[CommLayerReport] = field(default_factory=list)
    #: Detected TLB entry count (extension); None when no unambiguous
    #: TLB pressure was visible in the probed range.
    tlb_entries: int | None = None
    #: benchmark name -> (virtual seconds, wall seconds)
    timings: dict[str, tuple[float, float]] = field(default_factory=dict)
    #: phase name -> ``ok | degraded | failed | skipped`` (empty for
    #: reports written before the resilience layer existed).
    phase_status: dict[str, str] = field(default_factory=dict)
    #: phase name -> captured error message (failed phases only).
    phase_errors: dict[str, str] = field(default_factory=dict)
    #: Measurement-planner accounting: probes issued vs saved by
    #: memoization and symmetry pruning, plus the prune mode
    #: (empty for runs without a planner).
    planner: dict = field(default_factory=dict)
    #: Parameter path -> provenance record (probe IDs + measurements
    #: that justified the detected value); see
    #: :mod:`repro.obs.provenance` and ``servet explain``.  Empty for
    #: reports written before the observability layer.
    provenance: dict = field(default_factory=dict)

    # -- degraded-mode queries ----------------------------------------------

    @property
    def degraded(self) -> bool:
        """True when any phase was degraded or failed.

        Structurally ``skipped`` phases (e.g. communication on a
        unicore system) do not taint the run by themselves — their
        upstream failure, if any, already does.
        """
        return any(
            status in ("degraded", "failed")
            for status in self.phase_status.values()
        )

    @property
    def failed_phases(self) -> list[str]:
        """Phases that failed outright (their report sections hold
        fallbacks or are empty)."""
        return [p for p, s in self.phase_status.items() if s == "failed"]

    def phase_ok(self, name: str) -> bool:
        """True when ``name`` ran cleanly (unknown phases count as ok,
        for compatibility with pre-resilience reports)."""
        return self.phase_status.get(name, "ok") == "ok"

    # -- convenience queries (the autotuning API surface) ------------------

    @property
    def cache_sizes(self) -> list[int]:
        """Detected cache sizes, L1 first."""
        return [c.size for c in self.caches]

    def cache_sharing_group(self, core: int, level: int) -> list[int]:
        """Cores sharing cache ``level`` with ``core`` (incl. itself)."""
        for cache in self.caches:
            if cache.level == level:
                group = {core}
                for a, b in cache.shared_pairs:
                    if core in (a, b):
                        group.update((a, b))
                return sorted(group)
        raise ReproError(f"report has no cache level {level}")

    def comm_layer_of(self, a: int, b: int) -> CommLayerReport:
        """The communication layer serving the pair ``(a, b)``."""
        key = (a, b) if a < b else (b, a)
        for layer in self.comm_layers:
            if key in layer.pairs:
                return layer
        raise ReproError(f"no communication layer recorded for pair {key}")

    def memory_level_of(self, a: int, b: int) -> MemoryLevelReport | None:
        """The overhead level of the pair, or None (no contention)."""
        key = (a, b) if a < b else (b, a)
        for level in self.memory_levels:
            if key in level.pairs:
                return level
        return None

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-JSON representation."""
        data = asdict(self)
        for cache in data["caches"]:
            cache["shared_pairs"] = _pairs_to_json(cache["shared_pairs"])
        for level in data["memory_levels"]:
            level["pairs"] = _pairs_to_json(level["pairs"])
        for layer in data["comm_layers"]:
            layer["pairs"] = _pairs_to_json(layer["pairs"])
            layer["characterization"] = [list(t) for t in layer["characterization"]]
            layer["scalability"] = [list(t) for t in layer["scalability"]]
        data["timings"] = {k: list(v) for k, v in data["timings"].items()}
        return data

    def measurement_dict(self) -> dict:
        """The measured content only — no cost accounting.

        Strips :attr:`timings`, :attr:`planner` and :attr:`provenance`
        from :meth:`to_dict`.  A symmetry-pruned run is *supposed* to
        be cheaper (different timings, different probe counts, a
        different evidence trail) while producing the same
        measurements; this is the dictionary two such runs are compared
        on.
        """
        data = self.to_dict()
        data.pop("timings", None)
        data.pop("planner", None)
        data.pop("provenance", None)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ServetReport":
        """Inverse of :meth:`to_dict`."""
        try:
            return cls(
                system=data["system"],
                n_cores=int(data["n_cores"]),
                page_size=int(data["page_size"]),
                caches=[
                    CacheLevelReport(
                        level=int(c["level"]),
                        size=int(c["size"]),
                        method=c["method"],
                        shared_pairs=_pairs_from_json(c["shared_pairs"]),
                        sharing_groups=[[int(x) for x in g] for g in c["sharing_groups"]],
                        ways=None if c.get("ways") is None else int(c["ways"]),
                    )
                    for c in data["caches"]
                ],
                memory_reference=float(data["memory_reference"]),
                memory_levels=[
                    MemoryLevelReport(
                        bandwidth=float(m["bandwidth"]),
                        pairs=_pairs_from_json(m["pairs"]),
                        groups=[[int(x) for x in g] for g in m["groups"]],
                        scalability=[float(x) for x in m["scalability"]],
                    )
                    for m in data["memory_levels"]
                ],
                comm_probe_size=int(data["comm_probe_size"]),
                comm_layers=[
                    CommLayerReport(
                        index=int(l["index"]),
                        latency=float(l["latency"]),
                        pairs=_pairs_from_json(l["pairs"]),
                        characterization=[
                            (int(s), float(t), float(bw))
                            for s, t, bw in l["characterization"]
                        ],
                        scalability=[
                            (int(n), float(t), float(f)) for n, t, f in l["scalability"]
                        ],
                    )
                    for l in data["comm_layers"]
                ],
                tlb_entries=(
                    None
                    if data.get("tlb_entries") is None
                    else int(data["tlb_entries"])
                ),
                timings={
                    k: (float(v[0]), float(v[1]))
                    for k, v in data.get("timings", {}).items()
                },
                phase_status={
                    str(k): str(v)
                    for k, v in data.get("phase_status", {}).items()
                },
                phase_errors={
                    str(k): str(v)
                    for k, v in data.get("phase_errors", {}).items()
                },
                planner=dict(data.get("planner", {})),
                provenance=dict(data.get("provenance", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"malformed report data: {exc}") from exc

    def save(self, path: str | Path) -> None:
        """Write the report as JSON, atomically.

        The same temp-file-then-rename helper the report registry uses
        (:func:`repro.ioutils.atomic_write_text`): a crash mid-save can
        never leave a truncated report where a good one used to be.
        """
        atomic_write_text(path, json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load(cls, path: str | Path) -> "ServetReport":
        """Read a report saved by :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text()))

    # -- presentation --------------------------------------------------------

    def summary(self) -> str:
        """Human-readable report (the CLI's ``servet report`` output)."""
        lines = [f"Servet report for {self.system} ({self.n_cores} cores)"]
        lines.append("Cache hierarchy:")
        for cache in self.caches:
            sharing = (
                "private"
                if cache.private
                else f"shared, groups {cache.sharing_groups}"
            )
            lines.append(
                f"  L{cache.level}: {format_size(cache.size)} "
                f"[{cache.method}] ({sharing})"
            )
        if self.tlb_entries is not None:
            lines.append(f"TLB: {self.tlb_entries} entries")
        lines.append(
            f"Memory: reference {format_bandwidth(self.memory_reference)}, "
            f"{len(self.memory_levels)} overhead level(s)"
        )
        for i, level in enumerate(self.memory_levels):
            lines.append(
                f"  level {i}: {format_bandwidth(level.bandwidth)} "
                f"({len(level.pairs)} pairs, groups {level.groups})"
            )
        lines.append(
            f"Communication: {len(self.comm_layers)} layer(s) at probe size "
            f"{format_size(self.comm_probe_size)}"
        )
        for layer in self.comm_layers:
            lines.append(
                f"  layer {layer.index}: {format_time(layer.latency)} "
                f"({len(layer.pairs)} pairs)"
            )
        if self.degraded:
            lines.append("Phase status (degraded run):")
            for phase, status in self.phase_status.items():
                note = ""
                if phase in self.phase_errors:
                    note = f" — {self.phase_errors[phase]}"
                lines.append(f"  {phase}: {status}{note}")
        if self.planner:
            issued = self.planner.get("issued", 0)
            saved = self.planner.get("saved", 0)
            detail = []
            if self.planner.get("prune"):
                detail.append(f"prune={self.planner['prune']}")
            suffix = f" [{', '.join(detail)}]" if detail else ""
            lines.append(
                f"Planner: {issued} measurement(s) issued, {saved} "
                f"saved{suffix}"
            )
        if self.provenance:
            lines.append(
                f"Provenance: {len(self.provenance)} parameter(s) with "
                "evidence trails (see `servet explain`)"
            )
        if self.timings:
            lines.append("Benchmark execution times (virtual):")
            for name, (virtual, wall) in self.timings.items():
                lines.append(
                    f"  {name}: {format_time(virtual)} "
                    f"(wall {format_time(wall)})"
                )
        return "\n".join(lines)
