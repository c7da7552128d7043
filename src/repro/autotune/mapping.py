"""Process placement driven by measured communication layers.

The mapping optimizations the paper cites (MPIPP, Mercier &
Clet-Ortega) need per-pair communication costs; they read them from
machine specifications, which Servet replaces with measurements.  This
module closes the loop: given a Servet report and an application
communication matrix, it evaluates and optimizes rank-to-core
placements.

Cost model: every (i, j) message pays the measured latency of the layer
serving the core pair, interpolated at the message size
(:meth:`CommLayerReport.estimate_latency`).  Bandwidth-bound ranks are
placed separately, away from measured memory overhead groups
(:func:`bandwidth_aware_placement`).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from ..core.report import ServetReport
from ..errors import ReproError

#: Cap on :func:`optimize_placement`'s improvement rounds.
MAX_ROUNDS: int = 20


def _check_matrix(comm_matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(comm_matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ReproError("communication matrix must be square")
    if (matrix < 0).any():
        raise ReproError("communication matrix must be non-negative")
    return matrix


def compact_placement(n_procs: int) -> list[int]:
    """Ranks packed onto consecutive cores (the common MPI default)."""
    return list(range(n_procs))


def scatter_placement(n_procs: int, n_cores: int) -> list[int]:
    """Ranks spread as far apart as possible (round-robin by stride)."""
    if n_procs > n_cores:
        raise ReproError(f"cannot place {n_procs} ranks on {n_cores} cores")
    stride = max(1, n_cores // n_procs)
    cores = [(i * stride) % n_cores for i in range(n_procs)]
    # Resolve collisions deterministically.
    seen: set[int] = set()
    out: list[int] = []
    for core in cores:
        while core in seen:
            core = (core + 1) % n_cores
        seen.add(core)
        out.append(core)
    return out


def placement_cost(
    report: ServetReport,
    placement: Sequence[int],
    comm_matrix: np.ndarray,
    message_size: int | None = None,
) -> float:
    """Modelled cost (seconds) of one iteration under ``placement``.

    ``comm_matrix[i, j]`` is the number of messages rank i sends to
    rank j per iteration; each costs the measured layer latency at
    ``message_size`` (default: the report's probe size).
    """
    matrix = _check_matrix(comm_matrix)
    n = matrix.shape[0]
    if len(placement) != n:
        raise ReproError("placement length must match the matrix dimension")
    if len(set(placement)) != n:
        raise ReproError("placement maps two ranks to one core")
    size = message_size if message_size is not None else report.comm_probe_size
    cost = 0.0
    for i in range(n):
        for j in range(n):
            if i == j or matrix[i, j] == 0.0:
                continue
            layer = report.comm_layer_of(placement[i], placement[j])
            cost += matrix[i, j] * layer.estimate_latency(size)
    return cost


def bandwidth_aware_placement(report: ServetReport, n_ranks: int) -> list[int]:
    """Place bandwidth-bound ranks to minimize memory contention.

    Greedy: repeatedly pick the core whose addition hurts the aggregate
    the least, judged by the *measured* overhead levels — a pair inside
    a lower-bandwidth group costs more than a pair inside a higher one,
    and cores sharing no group cost nothing.  This is the capability
    P-Ray lacks ("it assumes a uniform cost in the intra-node memory
    access", Section II): without the Fig. 6 measurements every
    placement looks the same.
    """
    cores = list(range(report.n_cores))
    if n_ranks > len(cores):
        raise ReproError(f"cannot place {n_ranks} ranks on {len(cores)} cores")
    if report.memory_reference <= 0:
        return cores[:n_ranks]

    def pair_penalty(a: int, b: int) -> float:
        level = report.memory_level_of(a, b)
        if level is None:
            return 0.0
        return 1.0 - level.bandwidth / report.memory_reference

    chosen: list[int] = []
    for _ in range(n_ranks):
        best_core = None
        best_cost = None
        for core in cores:
            if core in chosen:
                continue
            cost = sum(pair_penalty(core, other) for other in chosen)
            if best_cost is None or cost < best_cost - 1e-12:
                best_core, best_cost = core, cost
        chosen.append(best_core)  # type: ignore[arg-type]
    return chosen


@dataclass
class PlacementResult:
    """An optimized placement and its modelled cost."""

    placement: list[int]
    cost: float
    baseline_cost: float
    iterations: int

    @property
    def improvement(self) -> float:
        """Relative cost reduction vs the starting placement."""
        if self.baseline_cost == 0.0:
            return 0.0
        return 1.0 - self.cost / self.baseline_cost


def optimize_placement(
    report: ServetReport,
    comm_matrix: np.ndarray,
    candidate_cores: Sequence[int] | None = None,
    message_size: int | None = None,
) -> PlacementResult:
    """Hill-climbing placement optimizer (pairwise swaps + relocations).

    Starts from the compact placement and, for up to :data:`MAX_ROUNDS`
    rounds, applies every improving move: swapping the cores of two
    ranks, or relocating a rank to an unused candidate core (tried in
    ascending order, so one report and matrix always give one
    placement).  Guaranteed never to return something worse than
    compact.
    """
    matrix = _check_matrix(comm_matrix)
    n = matrix.shape[0]
    cores = (
        list(candidate_cores)
        if candidate_cores is not None
        else list(range(report.n_cores))
    )
    if n > len(cores):
        raise ReproError(f"cannot place {n} ranks on {len(cores)} cores")
    placement = [cores[i] for i in range(n)]
    baseline = placement_cost(report, placement, matrix, message_size)

    def cost_of(p: Sequence[int]) -> float:
        return placement_cost(report, p, matrix, message_size)

    current = baseline
    rounds = 0
    for rounds in range(1, MAX_ROUNDS + 1):
        improved = False
        # Pairwise swaps.
        for i in range(n):
            for j in range(i + 1, n):
                trial = list(placement)
                trial[i], trial[j] = trial[j], trial[i]
                c = cost_of(trial)
                if c < current - 1e-15:
                    placement, current, improved = trial, c, True
        # Relocations onto free cores.
        free = sorted(set(cores) - set(placement))
        for i in range(n):
            for core in free:
                trial = list(placement)
                trial[i] = core
                c = cost_of(trial)
                if c < current - 1e-15:
                    placement, current, improved = trial, c, True
                    free = sorted(set(cores) - set(placement))
                    break
        if not improved:
            break
    return PlacementResult(
        placement=placement,
        cost=current,
        baseline_cost=baseline,
        iterations=rounds,
    )
