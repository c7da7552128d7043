"""Suite orchestration: run all four Servet benchmarks in order.

The order matters, as in the real suite: cache sizes feed the
shared-cache benchmark (array sizing) and the communication benchmark
(probe message size = L1 size).  Each phase's measurement cost is
accounted both in virtual seconds (the simulated machine's clock —
comparable to the paper's Table I) and in wall seconds.

Resilience (DESIGN.md §6): by default the suite keeps its historical
raise-loudly behavior (``strict=True``).  With ``strict=False`` a
failing phase is recorded as ``failed`` in the report, later phases
proceed with documented fallbacks (the communication probe size falls
back to 32 KiB when cache detection failed), and phases whose
prerequisites are missing are marked ``skipped``.  A phase that
succeeded only after fault recovery (the backend reports incidents,
see :class:`repro.resilience.HardenedBackend`) is marked ``degraded``.
With ``checkpoint=PATH`` the suite serializes partial state after
every finished phase; ``resume=True`` reloads it and re-measures only
the phases that never finished.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from collections.abc import Callable, Sequence

from ..backends.base import Backend, instrument_backend
from ..errors import CheckpointError, ReproError
from ..obs.metrics import MetricsRegistry
from ..obs.provenance import ParameterProvenance, record_provenance
from ..obs.trace import Tracer
from ..planner import PlanExecutor, PlannerStats
from ..resilience.checkpoint import SuiteCheckpoint, restore_rng, rng_state_of
from ..resilience.policy import DEGRADING_INCIDENTS
from ..units import KiB
from .cache_size import _window_probe_ids, detect_caches
from .clustering import groups_from_pairs
from .comm_costs import run_comm_costs
from .memory_overhead import characterize_memory_overhead
from .report import (
    CacheLevelReport,
    CommLayerReport,
    MemoryLevelReport,
    ServetReport,
)
from .shared_cache import detect_shared_caches
from .tlb import detect_tlb_entries

#: Every phase the suite can run, in the order :meth:`ServetSuite.run`
#: executes them.
ALL_PHASES: tuple[str, ...] = (
    "cache_size",
    "shared_caches",
    "tlb_detection",
    "memory_overhead",
    "communication_costs",
)

#: Canonical phase names (Table I rows): the paper's four benchmarks,
#: without the TLB extension.
PHASES: tuple[str, ...] = tuple(p for p in ALL_PHASES if p != "tlb_detection")

#: Terminal statuses a phase can reach in the report.
PHASE_STATUSES: tuple[str, ...] = ("ok", "degraded", "failed", "skipped")

#: Communication probe size used when cache detection produced no L1
#: size to probe with (documented degraded-mode fallback).
COMM_PROBE_FALLBACK: int = 32 * KiB


@dataclass
class SuiteTimings:
    """Per-phase (virtual seconds, wall seconds)."""

    phases: dict[str, tuple[float, float]] = field(default_factory=dict)

    def record(self, name: str, virtual: float, wall: float) -> None:
        self.phases[name] = (virtual, wall)

    @property
    def total(self) -> tuple[float, float]:
        virtual = sum(v for v, _ in self.phases.values())
        wall = sum(w for _, w in self.phases.values())
        return virtual, wall


@dataclass
class _RunContext:
    """Mutable per-run bookkeeping shared by the phase helpers."""

    report: ServetReport
    completed: list[str]
    strict: bool
    checkpoint_path: Path | None


class ServetSuite:
    """Run the full benchmark suite against a backend.

    Parameters
    ----------
    backend:
        Measurement backend (simulated or native), optionally wrapped
        in :class:`repro.resilience.HardenedBackend` (retries/robust
        sampling) and/or :class:`repro.resilience.FaultInjectingBackend`
        (fault drills).
    node_cores:
        Cores used by the single-node benchmarks (cache sizes, shared
        caches, memory overhead).  Defaults to the first node's cores
        when the backend exposes a cluster, else all cores.
    comm_cores:
        Cores used by the communication benchmark (the paper uses two
        Finis Terrae nodes, i.e. 32 cores, to see every layer).
        Defaults to all cores.
    clock:
        Wall-clock source for the per-phase timings (defaults to
        :func:`time.perf_counter`; tests inject a deterministic clock
        so checkpoint/resume reports compare byte-for-byte).
    prune:
        Symmetry-pruning mode for pairwise batches: ``"off"`` (measure
        everything), ``"topology"`` (one representative per
        topology-equivalence class), or ``"verify"`` (topology plus a
        measured spot check per class).  One
        :class:`~repro.planner.PlanExecutor` serves every phase, so later
        phases reuse earlier measurements.
    tracer:
        Collector (:class:`repro.obs.Tracer`) of ``phase``, ``probe``
        and ``backend.*`` spans.  ``None`` (the default) records no span;
        phase timings still reach ``report.timings`` and the
        ``suite.phase_*`` gauges, and ``backend.calls`` still counts.

    At the end of :meth:`run` the suite writes the planner's counts
    (``planner.*`` and ``suite.probes_issued{phase}``) and the phase
    timings (``suite.phase_*_seconds{phase}``) into its :attr:`metrics`
    registry from ``report.planner`` and ``report.timings``, so the
    report and the exported metrics document agree, resumed or not.
    """

    def __init__(
        self,
        backend: Backend,
        node_cores: Sequence[int] | None = None,
        comm_cores: Sequence[int] | None = None,
        probe_tlb: bool = True,
        clock: Callable[[], float] = time.perf_counter,
        prune: str = "off",
        tracer: Tracer | None = None,
    ) -> None:
        self.backend = backend
        self.probe_tlb = probe_tlb
        self.metrics = MetricsRegistry()
        self.tracer = tracer
        self.planner = PlanExecutor(backend, prune=prune, tracer=tracer)
        instrument_backend(backend, tracer=tracer, metrics=self.metrics)
        self.prune = self.planner.prune
        #: Probes issued by the planner, per phase (checkpoint-resumable
        #: breakdown; sums to the planner's ``issued`` count).
        self._phase_probes: dict[str, int] = {}
        if node_cores is None:
            cluster = getattr(backend, "cluster", None)
            if cluster is not None and cluster.n_nodes > 1:
                node_cores = list(range(cluster.node.n_cores))
            else:
                node_cores = list(range(backend.n_cores))
        self.node_cores = list(node_cores)
        self.comm_cores = (
            list(comm_cores) if comm_cores is not None else list(range(backend.n_cores))
        )
        self.timings = SuiteTimings()
        self._clock = clock
        self._last_phase: str | None = None

    # -- public API ---------------------------------------------------------

    def run(
        self,
        strict: bool = True,
        checkpoint: str | Path | None = None,
        resume: bool = False,
    ) -> ServetReport:
        """Execute all four phases and assemble the report.

        ``strict=True`` (default) re-raises the first phase failure.
        ``strict=False`` degrades gracefully: the failure is recorded
        in :attr:`ServetReport.phase_status` / ``phase_errors`` and
        later phases run with documented fallbacks.  ``checkpoint``
        names a JSON file updated after every finished phase;
        ``resume=True`` restores it (verifying it belongs to this
        machine/configuration) instead of re-measuring.
        """
        backend = self.backend
        checkpoint_path = Path(checkpoint) if checkpoint is not None else None
        state = self._load_checkpoint(checkpoint_path, resume)
        if state is not None:
            report = ServetReport.from_dict(state.report)
            report.phase_status = dict(state.status)
            report.phase_errors = dict(state.errors)
            completed = list(state.completed)
            self.timings.phases.update(state.timings)
            self._last_phase = completed[-1] if completed else None
            restore_rng(backend, state.rng_state)
            # Carry the finished phases' planner accounting forward so
            # the final report counts the whole run, not just the
            # resumed tail.
            planner_state = state.report.get("planner", {})
            self.planner.stats.merge(planner_state)
            for phase, count in planner_state.get("per_phase", {}).items():
                self._phase_probes[phase] = (
                    self._phase_probes.get(phase, 0) + int(count)
                )
        else:
            report = ServetReport(
                system=backend.name,
                n_cores=backend.n_cores,
                page_size=backend.page_size,
            )
            completed = []
        ctx = _RunContext(report, completed, strict, checkpoint_path)

        # Phase 1: cache sizes (Fig. 4 pipeline).
        self._run_phase(ctx, "cache_size", lambda: self._phase_cache_size(report))
        have_caches = bool(report.caches)

        # Phase 2: shared caches (Fig. 5) — needs detected levels.
        if have_caches:
            self._run_phase(
                ctx, "shared_caches", lambda: self._phase_shared_caches(report)
            )
        else:
            self._skip_phase(ctx, "shared_caches", "no cache levels detected")

        # Extension phase: TLB entry count (cheap; see repro.core.tlb).
        if self.probe_tlb:
            if have_caches:
                self._run_phase(ctx, "tlb_detection", lambda: self._phase_tlb(report))
            else:
                self._skip_phase(
                    ctx, "tlb_detection", "no cache sizes to steer the probe"
                )

        # Phase 3: memory-access overhead (Fig. 6 + scalability).
        self._run_phase(ctx, "memory_overhead", lambda: self._phase_memory(report))

        # Phase 4: communication costs (Fig. 7 + Figs. 10b-d).
        if len(self.comm_cores) < 2:
            # A unicore system has no communication layers to measure.
            if "communication_costs" not in ctx.completed:
                report.comm_probe_size = (
                    report.cache_sizes[0] if have_caches else 0
                )
            self._skip_phase(
                ctx,
                "communication_costs",
                "fewer than two communication cores",
            )
        else:
            probe_size = (
                report.cache_sizes[0] if have_caches else COMM_PROBE_FALLBACK
            )
            self._run_phase(
                ctx,
                "communication_costs",
                lambda: self._phase_comm(report, probe_size),
                fallback=lambda exc: setattr(
                    report, "comm_probe_size", probe_size
                ),
                degraded_note=(
                    None
                    if have_caches
                    else "probe size fell back to 32 KiB (cache detection "
                    "produced no L1 size)"
                ),
            )

        report.timings = dict(self.timings.phases)
        report.planner = self._planner_dict()
        self._publish_metrics(report)
        self._save_checkpoint(ctx)
        return report

    # -- phase bodies --------------------------------------------------------

    def _phase_cache_size(self, report: ServetReport) -> None:
        detection = detect_caches(self.backend, core=self.node_cores[0])
        for est in detection.levels:
            report.caches.append(
                CacheLevelReport(
                    level=est.level,
                    size=est.size,
                    method=est.method,
                    ways=(
                        est.probabilistic.associativity
                        if est.probabilistic is not None
                        else None
                    ),
                )
            )
        record_provenance(
            report, detection.provenance_records(), phase="cache_size"
        )

    def _phase_shared_caches(self, report: ServetReport) -> None:
        shared = detect_shared_caches(
            self.backend,
            report.cache_sizes,
            cores=self.node_cores,
            reference_core=self.node_cores[0],
            planner=self.planner,
        )
        for cache, pairs in zip(report.caches, shared.shared_pairs):
            cache.shared_pairs = pairs
            cache.sharing_groups = groups_from_pairs(pairs)
        record_provenance(report, shared.provenance, phase="shared_caches")

    def _phase_tlb(self, report: ServetReport) -> None:
        tlb = detect_tlb_entries(
            self.backend, report.cache_sizes, core=self.node_cores[0]
        )
        report.tlb_entries = tlb.entries
        if tlb.entries is not None:
            sweep = tlb.mcalibrator
            pids = _window_probe_ids(sweep, 0, len(sweep.sizes))
            record_provenance(
                report,
                [
                    ParameterProvenance(
                        parameter="tlb.entries",
                        value=tlb.entries,
                        method="cliff-discounted",
                        probes=pids,
                        measurements={
                            pid: float(c)
                            for pid, c in zip(pids, sweep.cycles)
                        },
                        note=(
                            f"one-line-per-page sweep at stride "
                            f"{sweep.stride}; cache-capacity regions "
                            f"{tlb.discounted_regions} discounted"
                        ),
                    )
                ],
                phase="tlb_detection",
            )
        else:
            # Detector give-up: record *why* there is no number instead
            # of silently omitting the parameter (queryable via
            # ``servet explain tlb.entries``).
            sweep = tlb.mcalibrator
            pids = _window_probe_ids(sweep, 0, len(sweep.sizes))
            if tlb.discounted_regions:
                reason = (
                    "undetectable: every rise in the one-line-per-page "
                    f"sweep (stride {sweep.stride}) sat on a cache-capacity "
                    f"cliff (discounted regions {tlb.discounted_regions})"
                )
            else:
                reason = (
                    "undetectable: the one-line-per-page sweep (stride "
                    f"{sweep.stride}) shows no TLB cliff up to "
                    f"{int(sweep.sizes[-1])} pages; TLB reach exceeds the "
                    "probed range"
                )
            record_provenance(
                report,
                [
                    ParameterProvenance(
                        parameter="tlb.entries",
                        value=None,
                        method="undetectable",
                        probes=pids,
                        measurements={
                            pid: float(c)
                            for pid, c in zip(pids, sweep.cycles)
                        },
                        note=reason,
                    )
                ],
                phase="tlb_detection",
            )

    def _phase_memory(self, report: ServetReport) -> None:
        memory = characterize_memory_overhead(
            self.backend,
            cores=self.node_cores,
            reference_core=self.node_cores[0],
            planner=self.planner,
        )
        report.memory_reference = memory.reference
        for level, curve in zip(memory.levels, memory.scalability):
            report.memory_levels.append(
                MemoryLevelReport(
                    bandwidth=level.bandwidth,
                    pairs=level.pairs,
                    groups=level.groups,
                    scalability=curve,
                )
            )
        record_provenance(report, memory.provenance, phase="memory_overhead")

    def _phase_comm(self, report: ServetReport, probe_size: int) -> None:
        comm = run_comm_costs(
            self.backend, probe_size, cores=self.comm_cores, planner=self.planner
        )
        report.comm_probe_size = comm.probe_size
        for layer in comm.layers:
            report.comm_layers.append(
                CommLayerReport(
                    index=layer.index,
                    latency=layer.latency,
                    pairs=layer.pairs,
                    characterization=comm.characterization[layer.index],
                    scalability=comm.scalability[layer.index],
                )
            )
        record_provenance(report, comm.provenance, phase="communication_costs")

    # -- resilience machinery ------------------------------------------------

    def _run_phase(
        self,
        ctx: _RunContext,
        name: str,
        body: Callable[[], None],
        fallback: Callable[[ReproError], None] | None = None,
        degraded_note: str | None = None,
    ) -> None:
        """Run one phase with status tracking and graceful degradation."""
        if name in ctx.completed:
            return  # restored from a checkpoint
        self._drain_incidents()  # don't blame this phase for old incidents
        issued_before = self.planner.stats.issued
        try:
            if self.tracer is None:
                self._timed(name, body)
            else:
                with self.tracer.span("phase", phase=name) as span:
                    _, (virtual, wall) = self._timed(name, body)
                    span.set(virtual_seconds=virtual, wall_seconds=wall)
        except ReproError as exc:
            self._account_phase(name, issued_before)
            ctx.report.phase_status[name] = "failed"
            ctx.report.phase_errors[name] = str(exc)
            if ctx.strict:
                raise
            if fallback is not None:
                fallback(exc)
            self._drain_incidents()
            self._finish_phase(ctx, name)
            return
        self._account_phase(name, issued_before)
        incidents = self._drain_incidents()
        notes = []
        if degraded_note:
            notes.append(degraded_note)
        if incidents:
            counts = ", ".join(f"{v} {k}" for k, v in sorted(incidents.items()))
            notes.append(f"recovered from measurement faults ({counts})")
        if notes:
            ctx.report.phase_status[name] = "degraded"
            ctx.report.phase_errors[name] = "; ".join(notes)
        else:
            ctx.report.phase_status[name] = "ok"
        self._finish_phase(ctx, name)

    def _account_phase(self, name: str, issued_before: int) -> None:
        """Attribute the planner probes a phase triggered to its name.

        Phases that bypass the planner (mcalibrator-driven cache and
        TLB sweeps call the backend directly) contribute a zero delta,
        so the per-phase counters always sum to the planner's global
        ``issued`` count.
        """
        delta = self.planner.stats.issued - issued_before
        self._phase_probes[name] = self._phase_probes.get(name, 0) + delta

    def _skip_phase(self, ctx: _RunContext, name: str, reason: str) -> None:
        if name in ctx.completed:
            return
        ctx.report.phase_status[name] = "skipped"
        ctx.report.phase_errors[name] = reason
        self.timings.record(name, 0.0, 0.0)
        self._finish_phase(ctx, name)

    def _finish_phase(self, ctx: _RunContext, name: str) -> None:
        ctx.completed.append(name)
        self._save_checkpoint(ctx)

    def _drain_incidents(self) -> dict[str, int]:
        """Pull (and reset) fault-recovery counters off the backend.

        Only incidents that mean actual fault recovery are returned
        (see :data:`repro.resilience.policy.DEGRADING_INCIDENTS`);
        routine spread-gate resamples never degrade a phase.
        """
        take = getattr(self.backend, "take_incidents", None)
        if take is None:
            return {}
        return {
            kind: count
            for kind, count in take().items()
            if count and kind in DEGRADING_INCIDENTS
        }

    def _fingerprint(self) -> dict:
        return {
            "system": self.backend.name,
            "n_cores": self.backend.n_cores,
            "page_size": self.backend.page_size,
            "node_cores": list(self.node_cores),
            "comm_cores": list(self.comm_cores),
            "probe_tlb": self.probe_tlb,
            # Pruned and unpruned runs are not resumable into each other
            # (different probes reached the backend, so its RNG streams
            # diverge mid-phase).
            "prune": self.prune,
        }

    def _planner_dict(self) -> dict:
        data: dict = dict(self.planner.stats.as_dict())
        data["prune"] = self.prune
        data["per_phase"] = dict(self._phase_probes)
        return data

    def _publish_metrics(self, report: ServetReport) -> None:
        """Write the report's planner counts and phase timings into the
        metrics registry, so a resumed run exports its restored phases
        too."""
        planner = report.planner
        for f in fields(PlannerStats):
            self.metrics.counter(f"planner.{f.name}").set(planner[f.name])
        for phase, count in planner["per_phase"].items():
            self.metrics.counter("suite.probes_issued", phase=phase).set(count)
        for phase, (virtual, wall) in report.timings.items():
            self.metrics.gauge("suite.phase_virtual_seconds", phase=phase).set(virtual)
            self.metrics.gauge("suite.phase_wall_seconds", phase=phase).set(wall)

    def _load_checkpoint(
        self, path: Path | None, resume: bool
    ) -> SuiteCheckpoint | None:
        if path is None or not resume:
            return None
        if not path.exists():
            return None  # nothing to resume from: run fresh
        state = SuiteCheckpoint.load(path)
        if not state.matches(self._fingerprint()):
            raise CheckpointError(
                f"checkpoint {path} belongs to a different machine or suite "
                "configuration; refusing to resume"
            )
        return state

    def _save_checkpoint(self, ctx: _RunContext) -> None:
        if ctx.checkpoint_path is None:
            return
        ctx.report.planner = self._planner_dict()
        SuiteCheckpoint(
            fingerprint=self._fingerprint(),
            completed=list(ctx.completed),
            status=dict(ctx.report.phase_status),
            errors=dict(ctx.report.phase_errors),
            report=ctx.report.to_dict(),
            timings=dict(self.timings.phases),
            rng_state=rng_state_of(self.backend),
        ).save(ctx.checkpoint_path)

    # -- timing ---------------------------------------------------------------

    def _timed(self, name: str, fn):
        """Run ``fn`` recording wall time and the backend's virtual time.

        Any virtual seconds charged *between* phases (e.g. retry
        backoff during suite-level bookkeeping) are folded into the
        previous phase rather than silently dropped.
        """
        stray = self.backend.take_virtual_time()
        if stray and self._last_phase is not None:
            virtual, wall = self.timings.phases[self._last_phase]
            self.timings.phases[self._last_phase] = (virtual + stray, wall)
            stray = 0.0
        wall_start = self._clock()
        try:
            result = fn()
        except BaseException:
            # Account what the failed phase already spent before bailing.
            wall = self._clock() - wall_start
            self.timings.record(
                name, stray + self.backend.take_virtual_time(), wall
            )
            self._last_phase = name
            raise
        wall = self._clock() - wall_start
        virtual = stray + self.backend.take_virtual_time()
        self.timings.record(name, virtual, wall)
        self._last_phase = name
        return result, (virtual, wall)
