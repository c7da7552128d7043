"""Communication cost determination (paper Fig. 7 and Section III-D).

Three stages, exactly as the paper structures them:

1. **Layers** — measure the message latency of every pair of cores
   (message size = the L1 cache size, which exposes differences between
   cache-sharing pairs) and cluster similar latencies: each cluster is a
   communication layer (the L/Pl arrays of Fig. 7).
2. **Characterization** — for one representative pair per layer,
   micro-benchmark point-to-point latency/bandwidth across message
   sizes; every other pair of the layer behaves like its
   representative (Figs. 10c/d).
3. **Scalability** — send increasing numbers of concurrent messages
   within a layer and compare against the isolated latency (Fig. 10b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

from ..backends.base import Backend
from ..errors import MeasurementError
from ..obs.provenance import ParameterProvenance
from ..planner import MessageProbe, PlanExecutor, probe_id
from ..topology.machine import CorePair, all_pairs
from ..units import KiB
from .clustering import cluster_similar

#: Relative tolerance for "similar" latencies (Fig. 7 clustering).
SIMILARITY_TOLERANCE: float = 0.15
#: Message sizes characterized per layer (Fig. 10c/d sweep).
MESSAGE_SIZES: tuple[int, ...] = tuple(
    1 * KiB * 2**k for k in range(15)  # 1 KB .. 16 MB
)


@dataclass
class CommLayer:
    """One communication layer: pairs with indistinguishable costs."""

    index: int
    latency: float
    pairs: list[CorePair]

    @property
    def representative(self) -> CorePair:
        """The pair whose micro-benchmarks stand in for the layer."""
        return self.pairs[0]

    def disjoint_pairs(self) -> list[CorePair]:
        """A maximal greedy set of pairs sharing no core (for the
        concurrent-messages scalability probe)."""
        used: set[int] = set()
        chosen: list[CorePair] = []
        for a, b in self.pairs:
            if a not in used and b not in used:
                chosen.append((a, b))
                used.update((a, b))
        return chosen


@dataclass
class CommCostsResult:
    """Layers plus their characterization and scalability curves."""

    probe_size: int
    layers: list[CommLayer]
    #: All pairwise latencies at the probe size (Fig. 10a data).
    pair_latencies: dict[CorePair, float] = field(default_factory=dict)
    #: Per layer: list of (message size, latency s, bandwidth B/s).
    characterization: list[list[tuple[int, float, float]]] = field(
        default_factory=list
    )
    #: Per layer: list of (concurrent messages, worst latency s,
    #: slowdown vs isolated).
    scalability: list[list[tuple[int, float, float]]] = field(default_factory=list)
    #: Per-layer evidence trails (``comm.layer<i>.latency``).
    provenance: list[ParameterProvenance] = field(default_factory=list)

    @property
    def n_layers(self) -> int:
        """The ``n`` output of Fig. 7."""
        return len(self.layers)

    def layer_of(self, pair: CorePair) -> int:
        """Index of the layer containing ``pair``."""
        key = tuple(sorted(pair))
        for layer in self.layers:
            if key in layer.pairs:
                return layer.index
        raise MeasurementError(f"pair {pair} was not measured")

    def latency_estimate(self, pair: CorePair, nbytes: int) -> float:
        """Estimated latency for any pair/size from the characterization.

        This is the lookup an autotuned code performs: find the pair's
        layer, then interpolate the representative's curve (log-linear
        in message size).
        """
        layer_idx = self.layer_of(pair)
        curve = self.characterization[layer_idx]
        if not curve:
            raise MeasurementError(f"layer {layer_idx} was not characterized")
        if nbytes <= curve[0][0]:
            return curve[0][1]
        for (s0, t0, _), (s1, t1, _) in zip(curve, curve[1:]):
            if s0 <= nbytes <= s1:
                frac = (nbytes - s0) / (s1 - s0)
                return t0 + frac * (t1 - t0)
        # Beyond the sweep: extrapolate at the last observed bandwidth.
        s_last, t_last, _ = curve[-1]
        return t_last * nbytes / s_last


def detect_comm_layers(
    backend: Backend,
    probe_size: int,
    cores: Sequence[int] | None = None,
    planner: PlanExecutor | None = None,
) -> CommCostsResult:
    """Stage 1 (Fig. 7): measure every pair and cluster latencies.

    ``probe_size`` should be the detected L1 cache size, per the paper
    ("it allows to find differences in communications when sharing
    other cache levels").  Latencies within
    :data:`SIMILARITY_TOLERANCE` of a layer's mean join that layer.  The all-pairs probe batch goes through the
    measurement ``planner`` (a pass-through executor by default), which
    may prune symmetric pairs.
    """
    if cores is None:
        cores = list(range(backend.n_cores))
    if len(cores) < 2:
        raise MeasurementError("communication layers need at least two cores")
    executor = planner if planner is not None else PlanExecutor(backend)
    pair_latencies = executor.pairwise_message_latency(
        all_pairs(list(cores)), probe_size
    )
    items: list[tuple[CorePair, float]] = []
    for (a, b), latency in pair_latencies.items():
        if not (latency > 0) or latency != latency:
            raise MeasurementError(
                f"latency measurement for pair ({a},{b}) is unusable "
                f"({latency!r})"
            )
        items.append(((a, b), latency))
    clusters = cluster_similar(items, rel_tol=SIMILARITY_TOLERANCE)
    layers = [
        CommLayer(index=i, latency=c.value, pairs=sorted(c.members))  # type: ignore[arg-type]
        for i, c in enumerate(clusters)
    ]
    provenance = []
    for layer in layers:
        probes = []
        measurements = {}
        for pair in layer.pairs:
            pid = probe_id(
                MessageProbe(pair=tuple(pair), nbytes=probe_size, sample=0)
            )
            probes.append(pid)
            measurements[pid] = float(pair_latencies[tuple(pair)])
        provenance.append(
            ParameterProvenance(
                parameter=f"comm.layer{layer.index}.latency",
                value=layer.latency,
                method="latency-clustering",
                probes=probes,
                measurements=measurements,
                note=(
                    f"all-pairs latency at probe size {probe_size} B "
                    f"clustered at {SIMILARITY_TOLERANCE:.0%} relative tolerance; "
                    "each probe carries the pair's measured latency (s)"
                ),
            )
        )
    return CommCostsResult(
        probe_size=probe_size,
        layers=layers,
        pair_latencies=pair_latencies,
        provenance=provenance,
    )


def characterize_layers(
    backend: Backend,
    result: CommCostsResult,
    planner: PlanExecutor | None = None,
) -> None:
    """Stage 2: per-layer micro-benchmark over :data:`MESSAGE_SIZES` (in place).

    Issued through the planner so a sweep size that coincides with the
    stage-1 probe size (L1 is always in the default sweep) reuses the
    already-measured latency instead of paying for it again.
    """
    executor = planner if planner is not None else PlanExecutor(backend)
    result.characterization = []
    for layer in result.layers:
        a, b = layer.representative
        curve: list[tuple[int, float, float]] = []
        for nbytes in MESSAGE_SIZES:
            latency = executor.message_latency(a, b, nbytes)
            curve.append((nbytes, latency, nbytes / latency))
        result.characterization.append(curve)


def layer_scalability(
    backend: Backend,
    result: CommCostsResult,
    planner: PlanExecutor | None = None,
) -> None:
    """Stage 3: concurrent-message slowdown per layer (in place).

    For each layer, ``k`` disjoint pairs exchange simultaneously
    (``2k`` concurrent messages); the worst per-message latency is
    compared against the isolated reference (the Fig. 10b curves).

    The isolated reference is the probe-size latency of the first
    disjoint pair — which stage 1 already measured and recorded in
    :attr:`CommCostsResult.pair_latencies` — so it is looked up there
    instead of being re-measured (and only measured, through the
    planner, when the result object carries no stage-1 data).
    """
    executor = planner if planner is not None else PlanExecutor(backend)
    result.scalability = []
    for layer in result.layers:
        pairs = layer.disjoint_pairs()
        if not pairs:
            result.scalability.append([])
            continue
        reference = result.pair_latencies.get(pairs[0])
        if reference is None:
            reference = executor.message_latency(*pairs[0], result.probe_size)
        curve: list[tuple[int, float, float]] = []
        k = 1
        while k <= len(pairs):
            concurrent = executor.concurrent_message_latency(
                pairs[:k], result.probe_size
            )
            curve.append((2 * k, concurrent.worst, concurrent.worst / reference))
            k = k * 2
        result.scalability.append(curve)


def run_comm_costs(
    backend: Backend,
    l1_size: int,
    cores: Sequence[int] | None = None,
    planner: PlanExecutor | None = None,
) -> CommCostsResult:
    """All three stages of Section III-D in order.

    Stage 2 sweeps :data:`MESSAGE_SIZES`.  One planner serves
    all three stages so stage 2 and 3 reuse stage-1 measurements
    (memoized probes, pruned pairs) for free.
    """
    executor = planner if planner is not None else PlanExecutor(backend)
    result = detect_comm_layers(
        backend, probe_size=l1_size, cores=cores, planner=executor
    )
    characterize_layers(backend, result, planner=executor)
    layer_scalability(backend, result, planner=executor)
    return result
