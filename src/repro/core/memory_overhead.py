"""Memory-access overhead characterization (paper Fig. 6).

Measures STREAM-copy bandwidth for an isolated core (the reference),
then for every pair of cores accessing memory concurrently.  Pairs whose
bandwidth falls significantly below the reference are grouped into
overhead *levels* by bandwidth similarity (the BW/Pm arrays of Fig. 6);
each level's pairs are merged into core *groups* (connected components),
and one group per level is used to characterize how effective bandwidth
scales with the number of concurrent cores (Fig. 9b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

from ..backends.base import Backend
from ..errors import MeasurementError
from ..obs.provenance import ParameterProvenance
from ..planner import PlanExecutor, StreamProbe, probe_id
from ..topology.machine import CorePair, all_pairs
from .clustering import cluster_similar, groups_from_pairs

#: Relative tolerance within which two bandwidths are "similar" (Fig. 6).
SIMILARITY_TOLERANCE: float = 0.08
#: A pair's bandwidth must be at least this fraction below the
#: reference to count as overhead (absorbs measurement noise).
SIGNIFICANCE: float = 0.05


@dataclass
class OverheadLevel:
    """One overhead magnitude: BW[i] and Pm[i] of Fig. 6, plus groups."""

    bandwidth: float
    pairs: list[CorePair]
    groups: list[list[int]]

    @property
    def example_group(self) -> list[int]:
        """One representative group (enough to characterize the level)."""
        return self.groups[0] if self.groups else []


@dataclass
class MemoryOverheadResult:
    """Everything Fig. 6 produces, plus scalability curves (Fig. 9b)."""

    reference: float
    levels: list[OverheadLevel]
    #: All pairwise bandwidths (core-0 slices of this are Fig. 9a).
    pair_bandwidths: dict[CorePair, float] = field(default_factory=dict)
    #: Per level: effective bandwidth of the first group's first core as
    #: 1..len(group) of its cores run concurrently.
    scalability: list[list[float]] = field(default_factory=list)
    #: Per-level evidence trails (``memory.level<i>.bandwidth``).
    provenance: list[ParameterProvenance] = field(default_factory=list)

    @property
    def n_levels(self) -> int:
        """The ``n`` output of Fig. 6."""
        return len(self.levels)

    def overhead_level_of(self, pair: CorePair) -> int | None:
        """Index of the overhead level containing ``pair`` (None = no
        overhead: the pair runs at full reference bandwidth)."""
        key = tuple(sorted(pair))
        for i, level in enumerate(self.levels):
            if key in level.pairs:
                return i
        return None


def characterize_memory_overhead(
    backend: Backend,
    cores: Sequence[int] | None = None,
    reference_core: int = 0,
    planner: PlanExecutor | None = None,
) -> MemoryOverheadResult:
    """Run the Fig. 6 algorithm (plus group inference and scalability).

    A pair has overhead when its bandwidth falls more than
    :data:`SIGNIFICANCE` below the single-core reference; overhead pairs
    within :data:`SIMILARITY_TOLERANCE` of each other form one level.
    The all-pairs bandwidth batch goes through the measurement
    ``planner`` (pass-through by default), which may prune
    topology-equivalent pairs.
    """
    if cores is None:
        cores = list(range(backend.n_cores))
    if reference_core not in cores:
        raise MeasurementError("reference core must be among the tested cores")
    executor = planner if planner is not None else PlanExecutor(backend)
    ref = executor.copy_bandwidth([reference_core])[reference_core]
    if not (ref > 0) or ref != ref:  # catches 0, negatives and NaN
        raise MeasurementError(
            f"reference bandwidth measurement is unusable ({ref!r})"
        )

    # "the bandwidth of one core when both of them are concurrently
    # accessing": measure the first core of the pair.
    pair_bw = executor.pairwise(
        all_pairs(list(cores)),
        probe_factory=lambda pair, s: StreamProbe(cores=pair, sample=s),
        value=lambda pair, raws: raws[0][pair[0]],
    )
    overhead_items: list[tuple[CorePair, float]] = [
        (pair, bw)
        for pair, bw in pair_bw.items()
        if bw < ref * (1.0 - SIGNIFICANCE)
    ]

    clusters = cluster_similar(overhead_items, rel_tol=SIMILARITY_TOLERANCE)
    levels = [
        OverheadLevel(
            bandwidth=c.value,
            pairs=sorted(c.members),  # type: ignore[arg-type]
            groups=groups_from_pairs(list(c.members)),  # type: ignore[arg-type]
        )
        for c in clusters
    ]

    scalability = [
        memory_scalability(backend, level.example_group, planner=executor)
        if level.example_group
        else []
        for level in levels
    ]

    ref_pid = probe_id(StreamProbe(cores=(reference_core,), sample=0))
    provenance = []
    for i, level in enumerate(levels):
        probes = [ref_pid]
        measurements = {ref_pid: float(ref)}
        for pair in level.pairs:
            pid = probe_id(StreamProbe(cores=tuple(pair), sample=0))
            probes.append(pid)
            measurements[pid] = float(pair_bw[tuple(pair)])
        provenance.append(
            ParameterProvenance(
                parameter=f"memory.level{i}.bandwidth",
                value=level.bandwidth,
                method="bandwidth-clustering",
                probes=probes,
                measurements=measurements,
                note=(
                    f"pairs at least {SIGNIFICANCE:.0%} below the reference "
                    f"(first probe, bytes/s), clustered at {SIMILARITY_TOLERANCE:.0%} "
                    "relative tolerance"
                ),
            )
        )
    return MemoryOverheadResult(
        reference=ref,
        levels=levels,
        pair_bandwidths=pair_bw,
        scalability=scalability,
        provenance=provenance,
    )


def memory_scalability(
    backend: Backend,
    group: Sequence[int],
    planner: PlanExecutor | None = None,
) -> list[float]:
    """Effective bandwidth of ``group[0]`` as group members activate.

    Entry k (0-based) is the first core's copy bandwidth with cores
    ``group[0..k]`` streaming concurrently — one line of Fig. 9(b).
    The paper's observation that one group per overhead level suffices
    (all groups of a level behave alike) is what makes this cheap.
    The k=2 point coincides with the pairwise batch of
    :func:`characterize_memory_overhead`, so issuing it through the
    shared planner turns it into a memo hit.
    """
    if not group:
        raise MeasurementError("scalability needs a non-empty group")
    executor = planner if planner is not None else PlanExecutor(backend)
    curve: list[float] = []
    for k in range(1, len(group) + 1):
        bw = executor.copy_bandwidth(list(group[:k]))
        curve.append(bw[group[0]])
    return curve
