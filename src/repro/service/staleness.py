"""Staleness analysis and incremental re-measurement.

Measured parameters go stale as the platform changes (Cooper & Xu's
hidden-hierarchy observation); re-running the whole suite for every
change throws away everything that is still valid.  This module diffs a
live :class:`~repro.service.fingerprint.MachineFingerprint` against the
one stored with a report, maps each changed input path to the minimal
set of suite phases whose measurements it invalidates (closing over
phase dependencies — a new cache hierarchy invalidates the sharing,
TLB and communication phases that consumed it), and re-measures *only*
those phases by synthesizing a
:class:`~repro.resilience.SuiteCheckpoint` in which the still-fresh
phases are already "completed" and resuming the suite through the
normal :meth:`ServetSuite.run` path.  The merged report becomes a new
version in the registry under the live fingerprint.

The staleness -> phase table (see README "Tuning service"):

==============================  =========================================
changed input path prefix        re-measured phases
==============================  =========================================
``topology.node.levels``         cache_size (+ all dependents)
``topology.node.mem_latency``    cache_size (+ all dependents)
``topology.node.tlb``            cache_size (+ all dependents)
``topology.node.core_stream_bw`` memory_overhead
``topology.node.bandwidth``      memory_overhead
``topology.node.processors``     memory_overhead, communication_costs
``topology.node.cells``          memory_overhead, communication_costs
``comm``                         communication_costs
``options.comm_cores``           communication_costs
``options.node_cores``           all single-node phases
``options.probe_tlb``            tlb_detection
``options.prune``                nothing (measurements stay valid; the
                                 report is re-keyed under the new digest)
anything else                    everything (conservative fallback)
==============================  =========================================
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from collections.abc import Callable, Sequence

from ..core.report import ServetReport
from ..core.suite import ALL_PHASES, ServetSuite
from ..errors import ServiceError
from ..resilience.checkpoint import SuiteCheckpoint
from .fingerprint import (
    MachineFingerprint,
    diff_inputs,
    fingerprint_of,
    normalize_options,
)
from .registry import ReportRegistry

#: Phases whose inputs include another phase's output: invalidating the
#: key re-measures the whole closure.  shared_caches sizes its arrays
#: from the detected levels, tlb_detection steers its probe with them,
#: and communication_costs takes its probe size from the detected L1.
PHASE_DEPENDENTS: dict[str, frozenset[str]] = {
    "cache_size": frozenset(
        {"shared_caches", "tlb_detection", "communication_costs"}
    ),
}

_SINGLE_NODE = frozenset(
    {"cache_size", "shared_caches", "tlb_detection", "memory_overhead"}
)

#: Ordered (prefix, affected phases) rules; first match wins.  An empty
#: set means the change does not invalidate any measurement (the report
#: is merely re-keyed).  A changed path no rule matches re-measures
#: everything — the conservative default for inputs we cannot reason
#: about.
STALENESS_RULES: tuple[tuple[str, frozenset[str]], ...] = (
    ("options.probe_tlb", frozenset({"tlb_detection"})),
    ("options.node_cores", _SINGLE_NODE),
    ("options.comm_cores", frozenset({"communication_costs"})),
    # Prune mode changes how measurements are *scheduled*, not what the
    # machine is: stored measurements remain valid.
    ("options.prune", frozenset()),
    ("topology.node.levels", frozenset({"cache_size"})),
    ("topology.node.mem_latency", frozenset({"cache_size"})),
    ("topology.node.tlb", frozenset({"cache_size", "tlb_detection"})),
    ("topology.node.core_stream_bw", frozenset({"memory_overhead"})),
    ("topology.node.bandwidth", frozenset({"memory_overhead"})),
    (
        "topology.node.processors",
        frozenset({"memory_overhead", "communication_costs"}),
    ),
    ("topology.node.cells", frozenset({"memory_overhead", "communication_costs"})),
    ("comm", frozenset({"communication_costs"})),
)

#: How to erase a stale phase's contribution from a report dict before
#: the resumed suite re-measures it.
_SECTION_CLEARERS: dict[str, Callable[[dict], None]] = {
    "cache_size": lambda d: d.update(caches=[]),
    "shared_caches": lambda d: [
        c.update(shared_pairs=[], sharing_groups=[]) for c in d["caches"]
    ],
    "tlb_detection": lambda d: d.update(tlb_entries=None),
    "memory_overhead": lambda d: d.update(memory_reference=0.0, memory_levels=[]),
    "communication_costs": lambda d: d.update(comm_probe_size=0, comm_layers=[]),
}


@dataclass(frozen=True)
class StalenessReport:
    """What changed and which phases the change invalidates."""

    #: Dotted input paths that differ (sorted).
    changed: tuple[str, ...]
    #: Phases to re-measure, in canonical order (dependency-closed).
    affected: tuple[str, ...]

    @property
    def fresh(self) -> bool:
        """True when the stored measurements fully cover the live machine."""
        return not self.affected

    @property
    def full(self) -> bool:
        """True when nothing can be salvaged (re-run from scratch)."""
        return set(self.affected) == set(ALL_PHASES)

    def summary(self) -> str:
        if not self.changed:
            return "fingerprint unchanged; report is current"
        lines = [f"{len(self.changed)} changed input(s):"]
        lines += [f"  {path}" for path in self.changed]
        if self.fresh:
            lines.append("no measurements invalidated (re-key only)")
        else:
            lines.append(f"phases to re-measure: {', '.join(self.affected)}")
        return "\n".join(lines)


def affected_phases(changed: Sequence[str]) -> tuple[str, ...]:
    """Map changed input paths to the dependency-closed phase set."""
    affected: set[str] = set()
    for path in changed:
        for prefix, phases in STALENESS_RULES:
            if path == prefix or path.startswith(prefix + ".") or path.startswith(
                prefix + "["
            ):
                affected |= phases
                break
        else:
            return ALL_PHASES  # unknown input: distrust everything
    for phase in list(affected):
        affected |= PHASE_DEPENDENTS.get(phase, frozenset())
    return tuple(p for p in ALL_PHASES if p in affected)


def assess_staleness(stored_inputs: dict, live_inputs: dict) -> StalenessReport:
    """Diff stored fingerprint inputs against live ones."""
    changed = diff_inputs(stored_inputs, live_inputs)
    return StalenessReport(changed=tuple(changed), affected=affected_phases(changed))


@dataclass
class RefreshResult:
    """Outcome of :func:`incremental_refresh`."""

    report: ServetReport
    staleness: StalenessReport
    #: ``up_to_date`` (digest already stored), ``rekey`` (measurements
    #: reused verbatim under a new digest), ``incremental`` (stale
    #: phases re-measured), or ``full`` (everything re-measured).
    mode: str
    fingerprint: MachineFingerprint
    #: The registry entry written (None when up to date).
    entry: object | None = None


def incremental_refresh(
    registry: ReportRegistry,
    backend,
    base: str = "latest",
    options: dict | None = None,
) -> RefreshResult:
    """Bring a stored report up to date with a live backend.

    Fingerprints the backend, diffs against the registry entry ``base``
    names, and re-measures only the affected phases by resuming the
    suite from a synthesized checkpoint (a temporary file) in which
    every still-fresh phase is already completed.  The suite runs
    strict: a phase failure raises.  The refreshed report is stored as
    a new version under the live fingerprint.

    With ``noise=0`` backends this is exact: the merged report's
    ``measurement_dict()`` is byte-identical to a from-scratch run on
    the changed machine, while issuing strictly fewer probes (the
    integration tests assert both).
    """
    opts = normalize_options(options)
    live = fingerprint_of(backend, options=opts)
    stored_inputs = registry.fingerprint_inputs(base)
    staleness = assess_staleness(stored_inputs, live.inputs)

    base_digest = registry.resolve(base)
    # Cheap existence probe (file names only) before any payload load:
    # a digest directory with metadata but no stored versions fails
    # here with a clear message instead of a deep registry error.
    if registry.latest_version(base_digest) == 0:
        raise ServiceError(
            f"registry has no stored versions of {base_digest[:12]} "
            "to refresh from"
        )
    if live.digest == base_digest:
        return RefreshResult(
            report=registry.get(base_digest),
            staleness=staleness,
            mode="up_to_date",
            fingerprint=live,
        )

    if staleness.fresh:
        report = registry.get(base_digest)
        entry = registry.put(live, report)
        return RefreshResult(
            report=report,
            staleness=staleness,
            mode="rekey",
            fingerprint=live,
            entry=entry,
        )

    suite = _build_suite(backend, opts)
    if staleness.full:
        report = suite.run()
        entry = registry.put(live, report)
        return RefreshResult(
            report=report,
            staleness=staleness,
            mode="full",
            fingerprint=live,
            entry=entry,
        )

    stale = set(staleness.affected)
    stored = registry.get(base_digest)
    checkpoint = _synthesize_checkpoint(suite, backend, stored, stale)
    fd, path = tempfile.mkstemp(prefix="servet-refresh-", suffix=".json")
    os.close(fd)
    try:
        checkpoint.save(path)
        report = suite.run(checkpoint=path, resume=True)
    finally:
        try:
            os.unlink(path)
        except OSError:
            pass
    entry = registry.put(live, report)
    return RefreshResult(
        report=report,
        staleness=staleness,
        mode="incremental",
        fingerprint=live,
        entry=entry,
    )


def _build_suite(backend, opts: dict) -> ServetSuite:
    return ServetSuite(
        backend,
        node_cores=opts["node_cores"],
        comm_cores=opts["comm_cores"],
        probe_tlb=opts["probe_tlb"],
        prune=opts["prune"],
    )


def _synthesize_checkpoint(
    suite: ServetSuite, backend, stored: ServetReport, stale: set[str]
) -> SuiteCheckpoint:
    """A checkpoint in which every still-fresh phase already finished.

    Resuming the suite from it re-measures exactly the stale phases and
    merges their sections into the preserved ones.
    """
    report_dict = stored.to_dict()
    # The header always reflects the live machine; when it materially
    # changed the staleness rules already forced a full re-run.
    report_dict["system"] = backend.name
    report_dict["n_cores"] = backend.n_cores
    report_dict["page_size"] = backend.page_size
    # The refreshed run accounts only its own probes: the stored
    # planner counters describe measurements we deliberately did not
    # repeat, so carrying them forward would hide the saving.
    report_dict["planner"] = {}
    for phase in stale:
        clearer = _SECTION_CLEARERS.get(phase)
        if clearer is None:
            raise ServiceError(f"no section clearer for phase {phase!r}")
        clearer(report_dict)
    completed = [
        p
        for p in ALL_PHASES
        if p in stored.phase_status and p not in stale
    ]
    if not completed:
        raise ServiceError(
            "stored report has no reusable phases; run the suite from scratch"
        )
    status = {p: stored.phase_status[p] for p in completed}
    errors = {
        p: stored.phase_errors[p] for p in completed if p in stored.phase_errors
    }
    timings = {
        p: stored.timings[p] for p in completed if p in stored.timings
    }
    report_dict["phase_status"] = dict(status)
    report_dict["phase_errors"] = dict(errors)
    report_dict["timings"] = {k: list(v) for k, v in timings.items()}
    return SuiteCheckpoint(
        fingerprint=suite._fingerprint(),
        completed=completed,
        status=status,
        errors=errors,
        report=report_dict,
        timings=timings,
        rng_state=None,
    )
