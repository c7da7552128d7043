"""Co-scheduling placement advisor over a measured sharing topology.

The last mile of the workload model: given K workload profiles and the
shared-cache topology a Servet run *measured* (the ``sharing_groups``
equivalence classes of a :class:`~repro.core.report.ServetReport`),
rank the ways of packing the workloads onto the shared-cache instances
by predicted contention.  Workloads placed in the same block co-run on
cores sharing one cache instance and are scored with
:func:`~repro.workload.contention.predict_corun`; workloads in
different blocks don't interact (the instances are disjoint by
construction — that is exactly what the shared-cache benchmark
detected).

The answer is a provenance-carrying ranked list: every option names its
blocks, the per-workload predicted slowdowns, and the worst/mean
scores; the provenance section records which detected cache level,
capacity, and model parameters produced the numbers, so a surprising
recommendation can be traced the same way ``servet explain`` traces a
detected cache size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

from ..errors import WorkloadError
from .contention import CachePressureModel, CorunPrediction, predict_corun
from .generators import parse_workload, profile_workload
from .profile import ReuseProfile

#: Enumeration guard: partitions of K items grow like the Bell numbers,
#: so the advisor refuses absurd K instead of hanging.
MAX_WORKLOADS = 10


def enumerate_partitions(
    n_items: int, max_blocks: int, max_block_size: int
) -> list[tuple[tuple[int, ...], ...]]:
    """All set partitions of ``range(n_items)`` under the two bounds.

    Canonical form: blocks are ordered by their smallest member and
    each block's members ascend, so the enumeration is deterministic
    and duplicate-free (item 0 is always in the first block).
    """
    if n_items <= 0:
        raise WorkloadError("cannot partition zero workloads")
    if max_blocks * max_block_size < n_items:
        raise WorkloadError(
            f"{n_items} workloads cannot fit {max_blocks} shared-cache "
            f"instance(s) of {max_block_size} core(s)"
        )
    results: list[tuple[tuple[int, ...], ...]] = []

    def extend(item: int, blocks: list[list[int]]) -> None:
        if item == n_items:
            results.append(tuple(tuple(b) for b in blocks))
            return
        for block in blocks:
            if len(block) < max_block_size:
                block.append(item)
                extend(item + 1, blocks)
                block.pop()
        if len(blocks) < max_blocks:
            blocks.append([item])
            extend(item + 1, blocks)
            blocks.pop()

    extend(0, [])
    return results


@dataclass(frozen=True)
class PlacementOption:
    """One ranked assignment of workloads to shared-cache instances."""

    #: Workload indices per co-running block (canonical order).
    blocks: tuple[tuple[int, ...], ...]
    #: Per-block contention predictions (aligned with ``blocks``).
    predictions: tuple[CorunPrediction, ...]

    @property
    def worst_slowdown(self) -> float:
        return max(p.worst_slowdown for p in self.predictions)

    @property
    def mean_slowdown(self) -> float:
        slowdowns = [
            w.slowdown for p in self.predictions for w in p.workloads
        ]
        return sum(slowdowns) / len(slowdowns)

    def to_dict(self, names: Sequence[str]) -> dict:
        return {
            "blocks": [[names[i] for i in block] for block in self.blocks],
            "worst_slowdown": self.worst_slowdown,
            "mean_slowdown": self.mean_slowdown,
            "per_block": [p.to_dict() for p in self.predictions],
        }


class CoScheduler:
    """Ranks workload placements across disjoint shared-cache instances."""

    def __init__(
        self,
        profiles: Sequence[ReuseProfile],
        model: CachePressureModel,
        instances: int,
        group_size: int,
    ) -> None:
        if not profiles:
            raise WorkloadError("co-scheduler needs at least one workload")
        if len(profiles) > MAX_WORKLOADS:
            raise WorkloadError(
                f"co-scheduling {len(profiles)} workloads would enumerate "
                f"too many partitions (cap {MAX_WORKLOADS})"
            )
        if instances < 1 or group_size < 1:
            raise WorkloadError(
                "need at least one shared-cache instance with one core"
            )
        self.profiles = list(profiles)
        self.model = model
        self.instances = instances
        self.group_size = group_size

    def rank(self) -> list[PlacementOption]:
        """All feasible placements, best (lowest worst slowdown) first.

        Ties on the rounded scores break on the canonical block
        structure, so rankings are stable across platforms even when
        two placements are numerically equivalent.
        """
        options = [
            PlacementOption(
                blocks=blocks,
                predictions=tuple(
                    predict_corun(
                        self.model, [self.profiles[i] for i in block]
                    )
                    for block in blocks
                ),
            )
            for blocks in enumerate_partitions(
                len(self.profiles), self.instances, self.group_size
            )
        ]
        options.sort(
            key=lambda o: (
                round(o.worst_slowdown, 9),
                round(o.mean_slowdown, 9),
                o.blocks,
            )
        )
        return options


@dataclass(frozen=True)
class CoScheduleAdvice:
    """The full, serializable answer to a co-scheduling query."""

    system: str
    level: int
    names: tuple[str, ...]
    options: tuple[PlacementOption, ...]
    provenance: dict = field(default_factory=dict)

    @property
    def best(self) -> PlacementOption:
        return self.options[0]

    def to_dict(self) -> dict:
        return {
            "system": self.system,
            "level": self.level,
            "workloads": list(self.names),
            "ranked": [o.to_dict(self.names) for o in self.options],
            "best": self.best.to_dict(self.names),
            "provenance": dict(self.provenance),
        }


def _pick_shared_level(report, level: int | None):
    """The report cache level to model contention on.

    Default: the outermost level with detected sharing groups — the
    cache multi-tenant placement actually fights over.
    """
    shared = [c for c in report.caches if c.sharing_groups]
    if level is not None:
        for cache in report.caches:
            if cache.level == level:
                if not cache.sharing_groups:
                    raise WorkloadError(
                        f"cache level {level} of {report.system} was "
                        "detected as private; co-scheduling needs a "
                        "shared level"
                    )
                return cache
        raise WorkloadError(
            f"report for {report.system} has no cache level {level}"
        )
    if not shared:
        raise WorkloadError(
            f"report for {report.system} detected no shared cache level; "
            "nothing to co-schedule against"
        )
    return max(shared, key=lambda c: c.level)


def co_schedule(
    report,
    workloads: Sequence[str],
    seed: int = 0,
    level: int | None = None,
    instances: int | None = None,
    top: int = 5,
    model: CachePressureModel | None = None,
) -> CoScheduleAdvice:
    """Rank placements of ``workloads`` on a report's sharing topology.

    ``instances`` restricts how many shared-cache instances are
    available (fewer instances force co-running — the interesting
    case); default is every instance the report detected.  ``model``
    overrides the cache-pressure parameters derived from the detected
    level (capacity from the measured size, default line size and
    latency ratio).
    """
    if not workloads:
        raise WorkloadError("co_schedule needs at least one workload spec")
    if top < 1:
        raise WorkloadError("top must be >= 1")
    cache = _pick_shared_level(report, level)
    available = len(cache.sharing_groups)
    group_size = min(len(g) for g in cache.sharing_groups)
    if instances is None:
        instances = available
    if not (1 <= instances <= available):
        raise WorkloadError(
            f"report for {report.system} detected {available} shared "
            f"L{cache.level} instance(s); cannot place onto {instances}"
        )
    if model is None:
        model = CachePressureModel(capacity_lines=cache.size // 64)
    parsed = [parse_workload(spec) for spec in workloads]
    profiles = [profile_workload(w, seed=seed) for w in parsed]
    scheduler = CoScheduler(profiles, model, instances, group_size)
    options = scheduler.rank()
    names = tuple(p.name for p in profiles)
    provenance = {
        "method": "reuse-cdf-composition",
        "cache_level": cache.level,
        "cache_size": cache.size,
        "cache_method": cache.method,
        "sharing_groups": [list(g) for g in cache.sharing_groups],
        "instances": instances,
        "group_size": group_size,
        "seed": int(seed),
        "model": model.to_dict(),
        "profiles": {
            p.name: {
                "accesses": p.accesses,
                "distinct_lines": p.distinct_lines,
                "solo_miss_ratio": p.miss_ratio(model.capacity_lines),
            }
            for p in profiles
        },
        "partitions_scored": len(options),
    }
    return CoScheduleAdvice(
        system=report.system,
        level=cache.level,
        names=names,
        options=tuple(options[:top]),
        provenance=provenance,
    )
