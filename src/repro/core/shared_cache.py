"""Shared-cache topology detection (paper Fig. 5).

For each detected cache level of size CS, run mcalibrator on one core
with an array of ``(2/3) * CS`` (a little over half the cache) as the
reference, then on every pair of cores simultaneously with one such
array each.  Two arrays do not fit together, so cores sharing the cache
keep evicting each other: a cycles ratio above 2 versus the reference
marks the pair as sharing that level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

from ..backends.base import Backend
from ..errors import MeasurementError
from ..obs.provenance import ParameterProvenance
from ..planner import PlanExecutor, TraversalProbe, probe_id
from ..topology.machine import CorePair, all_pairs
from .mcalibrator import STRIDE

#: The Fig. 5 decision threshold on ``c / ref``.
RATIO_THRESHOLD: float = 2.0
#: Fresh allocations averaged per measurement.  On a physically indexed
#: cache the conflict miss rate at ``(2/3)*CS`` depends on the random
#: page placement, so single-allocation ratios have heavy tails that can
#: cross the threshold spuriously.
SAMPLES: int = 3


@dataclass
class SharedCacheResult:
    """Per-level shared-cache pairs plus the measured ratios."""

    #: Cache sizes probed, L1 first (input CS array of Fig. 5).
    cache_sizes: list[int]
    #: Psc of Fig. 5: for each level, the pairs whose ratio exceeded 2.
    shared_pairs: list[list[CorePair]]
    #: All measured ratios, for diagnostics and the Fig. 8 plots.
    ratios: list[dict[CorePair, float]] = field(default_factory=list)
    #: Reference cycles per level.
    references: list[float] = field(default_factory=list)
    #: Per-level evidence trails (``cache.L<n>.sharing``).
    provenance: list[ParameterProvenance] = field(default_factory=list)

    def pairs_with(self, core: int, level: int) -> list[CorePair]:
        """Pairs involving ``core`` sharing cache level ``level`` (1-based)."""
        return [p for p in self.shared_pairs[level - 1] if core in p]

    def sharing_group(self, core: int, level: int) -> list[int]:
        """All cores found to share level ``level`` with ``core``."""
        group = {core}
        for a, b in self.pairs_with(core, level):
            group.update((a, b))
        return sorted(group)


def detect_shared_caches(
    backend: Backend,
    cache_sizes: Sequence[int],
    cores: Sequence[int] | None = None,
    reference_core: int = 0,
    planner: PlanExecutor | None = None,
) -> SharedCacheResult:
    """Run the Fig. 5 algorithm.

    Arrays are traversed at the 1 KB mcalibrator :data:`STRIDE`, each
    measurement averages :data:`SAMPLES` fresh allocations, and a pair
    whose ratio exceeds :data:`RATIO_THRESHOLD` shares the level.

    Parameters
    ----------
    backend:
        Measurement backend.
    cache_sizes:
        The CS array from cache-size detection, L1 first.
    cores:
        Cores to test pairwise (default: every core of the backend;
        the paper tests one node since caches never span nodes).
    planner:
        Measurement executor (pass-through by default).  The per-level
        single-core reference is emitted once through it and memoized,
        so every consumer of the same ``(core, size, stride, sample)``
        traversal — including a second level with the same array size,
        or a resumed run — reuses it instead of re-deriving the setup;
        the pairwise batch may additionally be symmetry-pruned.
    """
    if not cache_sizes:
        raise MeasurementError("need at least one cache level")
    if cores is None:
        cores = list(range(backend.n_cores))
    if len(cores) < 2:
        # A unicore machine shares nothing; keep the shape consistent
        # and leave an explicit give-up trail instead of silence.
        return SharedCacheResult(
            cache_sizes=list(cache_sizes),
            shared_pairs=[[] for _ in cache_sizes],
            ratios=[{} for _ in cache_sizes],
            references=[float("nan") for _ in cache_sizes],
            provenance=[
                ParameterProvenance(
                    parameter=f"cache.L{level}.sharing",
                    value=None,
                    method="undetectable",
                    probes=[],
                    measurements={},
                    note=(
                        "undetectable: sharing needs at least two cores "
                        f"({len(cores)} available)"
                    ),
                )
                for level in range(1, len(cache_sizes) + 1)
            ],
        )

    executor = planner if planner is not None else PlanExecutor(backend)
    shared_pairs: list[list[CorePair]] = []
    ratios: list[dict[CorePair, float]] = []
    references: list[float] = []
    provenance: list[ParameterProvenance] = []
    pairs = all_pairs(list(cores))
    for level_idx, cache_size in enumerate(cache_sizes, start=1):
        array_bytes = (2 * cache_size) // 3
        ref = executor.traversal_reference(
            reference_core, array_bytes, STRIDE, samples=SAMPLES
        )

        def pair_probe(pair: CorePair, sample: int) -> TraversalProbe:
            a, b = pair
            return TraversalProbe(
                arrays=((a, array_bytes), (b, array_bytes)),
                stride=STRIDE,
                sample=sample,
            )

        def pair_cycles(pair: CorePair, raws: list) -> float:
            # "Cycles obtained from mcalibrator run in parallel on the
            # cores of the pair": the pair's cost is what either core
            # experiences; take the mean of the two, then average the
            # fresh-allocation samples.
            a, b = pair
            observations = [(raw[a] + raw[b]) / 2.0 for raw in raws]
            return float(sum(observations)) / len(observations)

        level_cycles = executor.pairwise(
            pairs, probe_factory=pair_probe, value=pair_cycles, samples=SAMPLES
        )
        level_ratios: dict[CorePair, float] = {}
        level_shared: list[CorePair] = []
        for pair in pairs:
            ratio = level_cycles[pair] / ref
            level_ratios[pair] = ratio
            if ratio > RATIO_THRESHOLD:
                level_shared.append(pair)
        shared_pairs.append(level_shared)
        ratios.append(level_ratios)
        references.append(ref)
        ref_pid = probe_id(
            TraversalProbe(((reference_core, array_bytes),), STRIDE, 0)
        )
        measurements = {ref_pid: float(ref)}
        probes = [ref_pid]
        for pair in pairs:
            pid = probe_id(pair_probe(pair, 0))
            probes.append(pid)
            measurements[pid] = float(level_ratios[pair])
        provenance.append(
            ParameterProvenance(
                parameter=f"cache.L{level_idx}.sharing",
                value=[list(p) for p in level_shared],
                method="ratio-threshold",
                probes=probes,
                measurements=measurements,
                note=(
                    f"pairwise cycles / reference > {RATIO_THRESHOLD} marks "
                    f"sharing; arrays of {array_bytes} B (2/3 of "
                    f"{cache_size} B); reference probe listed first "
                    "(cycles), pair probes carry ratios"
                ),
            )
        )
    return SharedCacheResult(
        cache_sizes=list(cache_sizes),
        shared_pairs=shared_pairs,
        ratios=ratios,
        references=references,
        provenance=provenance,
    )
