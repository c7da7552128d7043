"""Collective-algorithm selection from a Servet report.

The collective-tuning literature the paper cites ([5]-[7]) shows that
SMP clusters want hierarchical collectives: cross the slow interconnect
once per node, fan out locally.  Whether that wins — and how the groups
should be formed — depends on the measured layer structure, which is
exactly what a Servet report contains.

The selection works the way a serious autotuner does:

1. derive locality groups from the measured layers (no topology
   documentation involved);
2. **fit** a per-layer cost model (Hockney-style alpha/beta plus a
   concurrency factor) to the report's characterization and
   scalability curves;
3. **simulate** each candidate algorithm's schedule on the fitted model
   (reusing the :mod:`repro.simmpi` event engine) and pick the winner.

The tests and benches validate the predictions against actual execution
on the real (non-fitted) substrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from ..core.clustering import groups_from_pairs
from ..core.report import CommLayerReport, ServetReport
from ..errors import ReproError
from ..netsim.model import LayerParams
from ..units import KiB


def locality_groups(
    report: ServetReport, placement: Sequence[int]
) -> list[list[int]]:
    """Partition ranks into groups connected by faster-than-worst layers.

    Two ranks belong to one group when their cores' measured layer is
    not the slowest one — on a cluster that means "same node" without
    ever being told what a node is.  Singleton groups are kept for
    ranks with no fast neighbour.
    """
    if not report.comm_layers:
        return [[r] for r in range(len(placement))]
    slowest = max(layer.latency for layer in report.comm_layers)
    pairs = []
    n = len(placement)
    for i in range(n):
        for j in range(i + 1, n):
            layer = report.comm_layer_of(placement[i], placement[j])
            if layer.latency < slowest:
                pairs.append((i, j))
    groups = groups_from_pairs(pairs)
    grouped = {r for g in groups for r in g}
    for r in range(n):
        if r not in grouped:
            groups.append([r])
    return sorted(groups)


def fit_layer_params(layer: CommLayerReport) -> LayerParams:
    """Fit Hockney-style parameters to a layer's measured curves.

    ``alpha`` and ``beta`` come from a least-squares affine fit of
    latency against message size over the characterization sweep;
    ``gamma`` from the mean per-message slope of the scalability curve.
    The eager threshold is not observable from these measurements; the
    common 64 KB middleware default is assumed.
    """
    if not layer.characterization:
        return LayerParams(
            name=f"layer{layer.index}",
            base_latency=layer.latency,
            bandwidth=1e9,
        )
    sizes = np.array([s for s, _, _ in layer.characterization], dtype=np.float64)
    times = np.array([t for _, t, _ in layer.characterization], dtype=np.float64)
    # The sweep is log-spaced: a plain least-squares line is dominated
    # by the largest messages and drives the intercept negative.  Take
    # the transfer slope from the tail (bandwidth-bound) and the base
    # latency from the smallest points (latency-bound).
    if len(sizes) >= 3:
        slope = float((times[-1] - times[-3]) / (sizes[-1] - sizes[-3]))
    else:
        slope = float((times[-1] - times[0]) / max(sizes[-1] - sizes[0], 1.0))
    slope = max(slope, 1e-12)
    head = min(3, len(sizes))
    alpha = max(float(np.mean(times[:head] - slope * sizes[:head])), 0.0)
    gamma = 0.0
    if layer.scalability:
        slopes = [
            (factor - 1.0) / (n - 1) for n, _, factor in layer.scalability if n > 1
        ]
        if slopes:
            gamma = max(float(np.mean(slopes)), 0.0)
    return LayerParams(
        name=f"layer{layer.index}",
        base_latency=alpha,
        bandwidth=1.0 / slope,
        eager_threshold=64 * KiB,
        rendezvous_latency=0.0,
        contention_factor=gamma,
    )


class ReportCommModel:
    """A CommConfig-compatible model backed by fitted report layers."""

    def __init__(self, report: ServetReport) -> None:
        self.report = report
        self._fitted = {
            layer.index: fit_layer_params(layer) for layer in report.comm_layers
        }

    def params_for_pair(self, cluster, a: int, b: int) -> LayerParams:
        """Fitted parameters of the measured layer serving cores a, b."""
        layer = self.report.comm_layer_of(a, b)
        return self._fitted[layer.index]


class _ReportCluster:
    """Minimal cluster stand-in so the event runtime can bounds-check."""

    def __init__(self, report: ServetReport) -> None:
        self.n_cores = report.n_cores
        self.name = report.system


def _simulate(report: ServetReport, placement: Sequence[int], program) -> float:
    from ..simmpi.comm import World

    world = World(_ReportCluster(report), ReportCommModel(report), list(placement))
    world.spawn_all(program)
    return world.run().makespan


def predict_flat_bcast(
    report: ServetReport,
    placement: Sequence[int],
    nbytes: int,
    root: int = 0,
) -> float:
    """Predicted completion time of the binomial-tree broadcast."""
    from ..simmpi.collectives import bcast

    def program(rank):
        yield from bcast(rank, root, nbytes)

    return _simulate(report, placement, program)


def predict_hierarchical_bcast(
    report: ServetReport,
    placement: Sequence[int],
    nbytes: int,
    groups: list[list[int]],
    root: int = 0,
) -> float:
    """Predicted completion time of the two-level broadcast."""
    from ..simmpi.collectives import hierarchical_bcast

    if not any(root in g for g in groups):
        raise ReproError("groups must cover the root rank")

    def program(rank):
        yield from hierarchical_bcast(rank, root, nbytes, groups)

    return _simulate(report, placement, program)


@dataclass
class CollectiveChoice:
    """Outcome of the flat-vs-hierarchical comparison."""

    algorithm: str  # "flat" | "hierarchical"
    flat_time: float
    hierarchical_time: float
    groups: list[list[int]]

    @property
    def predicted_speedup(self) -> float:
        """Flat over chosen time (>= 1 when hierarchical wins)."""
        chosen = min(self.flat_time, self.hierarchical_time)
        return self.flat_time / chosen if chosen > 0 else 1.0


def choose_bcast(
    report: ServetReport,
    placement: Sequence[int],
    nbytes: int,
    root: int = 0,
) -> CollectiveChoice:
    """Pick the broadcast algorithm for this placement and size."""
    groups = locality_groups(report, placement)
    flat = predict_flat_bcast(report, placement, nbytes, root)
    if len(groups) <= 1:
        return CollectiveChoice("flat", flat, float("inf"), groups)
    hierarchical = predict_hierarchical_bcast(report, placement, nbytes, groups, root)
    algorithm = "hierarchical" if hierarchical < flat else "flat"
    return CollectiveChoice(algorithm, flat, hierarchical, groups)
