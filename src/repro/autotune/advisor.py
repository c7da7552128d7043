"""One façade over the autotuning helpers.

``Advisor`` is what an autotuned application links against: it loads
the report Servet stored at installation time (Section IV-E) and
answers the questions Section V enumerates — tile sizes, placements,
core throttling and message aggregation.
"""

from __future__ import annotations

from pathlib import Path
from collections.abc import Sequence

import numpy as np

from ..core.report import ServetReport
from ..errors import ReproError
from .aggregation import AggregationAdvice, aggregation_advice
from .collectives import CollectiveChoice, choose_bcast
from .mapping import (
    PlacementResult,
    bandwidth_aware_placement,
    optimize_placement,
    placement_cost,
)
from .tiling import TilePlan, matmul_plan, matmul_tile_side, tile_elements

#: Placements a co-schedule answer ranks unless asked for another count.
COSCHEDULE_TOP: int = 3


class Advisor:
    """Autotuning decisions backed by one Servet report."""

    def __init__(self, report: ServetReport) -> None:
        self.report = report

    @classmethod
    def from_file(cls, path: str | Path) -> "Advisor":
        """Load the report Servet stored at installation time."""
        return cls(ServetReport.load(path))

    # -- tiling -------------------------------------------------------------

    def tile_elements(self, level: int, n_arrays: int, elem_size: int) -> int:
        """Elements per tile for ``n_arrays`` arrays in cache ``level``."""
        return tile_elements(self.report, level, n_arrays, elem_size)

    def matmul_tiles(self, elem_size: int = 8) -> TilePlan:
        """Blocked-matmul tile sides for every cache level."""
        return matmul_plan(self.report, elem_size)

    def matmul_tile(self, level: int, elem_size: int = 8) -> int:
        """Blocked-matmul tile side for one cache level."""
        return matmul_tile_side(self.report, level, elem_size)

    # -- placement ----------------------------------------------------------

    def place(
        self,
        comm_matrix: np.ndarray,
        candidate_cores: Sequence[int] | None = None,
        message_size: int | None = None,
    ) -> PlacementResult:
        """Optimized rank-to-core placement for a communication matrix."""
        return optimize_placement(
            self.report,
            comm_matrix,
            candidate_cores=candidate_cores,
            message_size=message_size,
        )

    def placement_cost(
        self,
        placement: Sequence[int],
        comm_matrix: np.ndarray,
        message_size: int | None = None,
    ) -> float:
        """Modelled cost of an explicit placement."""
        return placement_cost(self.report, placement, comm_matrix, message_size)

    def streaming_placement(self, n_ranks: int) -> list[int]:
        """Cores for bandwidth-bound ranks, avoiding measured contention."""
        return bandwidth_aware_placement(self.report, n_ranks)

    # -- collectives ----------------------------------------------------------

    def choose_bcast(
        self, placement: Sequence[int], nbytes: int, root: int = 0
    ) -> CollectiveChoice:
        """Flat vs hierarchical broadcast for a placement and size."""
        return choose_bcast(self.report, placement, nbytes, root=root)

    # -- core throttling ------------------------------------------------------

    def max_useful_streaming_cores(
        self, group_index: int = 0, efficiency_floor: float = 0.5
    ) -> int:
        """How many cores of an overhead group are worth using for
        bandwidth-bound work.

        "autotuning could optimize codes by limiting the number of cores
        accessing to memory if a poorly scalable memory system is
        detected" (Section III-C).  Returns the largest k whose
        aggregate bandwidth still grows by at least ``efficiency_floor``
        of one isolated core's bandwidth per added core.
        """
        if not self.report.memory_levels:
            return self.report.n_cores
        try:
            level = self.report.memory_levels[group_index]
        except IndexError:
            raise ReproError(f"no memory overhead level {group_index}") from None
        curve = level.scalability
        if not curve:
            return self.report.n_cores
        ref = self.report.memory_reference
        best_k = 1
        for k in range(2, len(curve) + 1):
            aggregate_prev = curve[k - 2] * (k - 1)
            aggregate = curve[k - 1] * k
            if aggregate - aggregate_prev >= efficiency_floor * ref:
                best_k = k
            else:
                break
        return best_k

    # -- aggregation ----------------------------------------------------------

    def should_aggregate(
        self, core_a: int, core_b: int, n_messages: int, message_size: int
    ) -> AggregationAdvice:
        """Aggregate-or-not for traffic between two specific cores."""
        layer = self.report.comm_layer_of(core_a, core_b)
        return aggregation_advice(layer, n_messages, message_size)

    # -- co-scheduling --------------------------------------------------------

    def co_schedule(
        self,
        workloads: Sequence[str],
        seed: int = 0,
        level: int | None = None,
        instances: int | None = None,
        top: int = COSCHEDULE_TOP,
    ):
        """Rank placements of workloads onto the detected sharing topology.

        Each workload is a canonical spec string (see
        :func:`repro.workload.parse_workload`); the returned
        :class:`~repro.workload.coschedule.CoScheduleAdvice` ranks the
        ways of packing them onto the report's shared-cache instances
        by predicted contention.  Imported lazily so reports without a
        shared cache don't pay for the workload model.
        """
        from ..workload import co_schedule

        return co_schedule(
            self.report,
            workloads,
            seed=seed,
            level=level,
            instances=instances,
            top=top,
        )
