"""Shared-cache contention: composing reuse-distance profiles.

The model follows Barai et al. (*Modeling Shared Cache Performance of
OpenMP Programs using Reuse Distance*): when workloads co-run on one
shared cache, an access's *effective* stack distance is its own reuse
distance plus the distinct lines its neighbours push into the cache
during the reuse interval.  With the lockstep (round-robin)
interleaving the substrate's shared-cache benchmark uses, a reuse
interval spanning ``g`` of the workload's own accesses gives every
co-runner a window of ``g`` accesses too, so

    D_eff = d  +  sum_j  F_j(g)        (j over the co-runners)

where ``F_j`` is workload *j*'s footprint function (distinct lines per
window, estimated from its own profile — see
:meth:`~repro.workload.ReuseProfile.footprint`).  The access
hits the shared cache of ``C`` lines iff ``D_eff < C``; summing over
the profile's histogram rows yields the co-run miss ratio, and a
two-point latency model (hit vs miss cycles) turns miss ratios into
the predicted slowdown each workload experiences relative to running
alone.

Guaranteed properties (pinned by the property suite):

- ``D_eff >= d`` always, so the co-run miss ratio is never below the
  solo one and every predicted slowdown is ``>= 1.0``;
- a workload co-running with nobody reproduces its solo prediction
  *exactly* (slowdown 1.0, not 1.0-and-epsilon);
- the composition is a sum over co-runners, so predictions are
  invariant under permuting the group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

from ..errors import WorkloadError
from .profile import ReuseProfile


@dataclass(frozen=True)
class CachePressureModel:
    """The shared cache as the contention model sees it.

    ``capacity_lines`` is the shared level's size in cache lines;
    ``hit_cycles`` the cost of an access served at (or above) that
    level, ``miss_cycles`` the *extra* cost of going to memory.  The
    slowdown prediction only depends on the ratio of the two, so the
    defaults (an L2/L3-ish 30-cycle hit against a 260-cycle memory
    penalty) give usable rankings even when the report carries no
    latencies; build from a machine model for exact numbers.
    """

    capacity_lines: int
    hit_cycles: float = 30.0
    miss_cycles: float = 260.0
    line_size: int = 64

    def __post_init__(self) -> None:
        if self.capacity_lines <= 0:
            raise WorkloadError("shared cache capacity must be positive")
        if self.hit_cycles <= 0 or self.miss_cycles <= 0:
            raise WorkloadError("hit/miss cycle costs must be positive")

    def cycles_per_access(self, miss_ratio: float) -> float:
        return self.hit_cycles + miss_ratio * self.miss_cycles

    def to_dict(self) -> dict:
        return {
            "capacity_lines": self.capacity_lines,
            "hit_cycles": self.hit_cycles,
            "miss_cycles": self.miss_cycles,
            "line_size": self.line_size,
        }


@dataclass(frozen=True)
class WorkloadPrediction:
    """Predicted solo vs co-run behaviour of one workload in a group."""

    name: str
    solo_miss_ratio: float
    corun_miss_ratio: float
    slowdown: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "solo_miss_ratio": self.solo_miss_ratio,
            "corun_miss_ratio": self.corun_miss_ratio,
            "slowdown": self.slowdown,
        }


@dataclass(frozen=True)
class CorunPrediction:
    """Per-workload predictions for one co-running group."""

    workloads: tuple[WorkloadPrediction, ...] = field(default_factory=tuple)

    @property
    def worst_slowdown(self) -> float:
        return max(w.slowdown for w in self.workloads)

    @property
    def mean_slowdown(self) -> float:
        return sum(w.slowdown for w in self.workloads) / len(self.workloads)

    def to_dict(self) -> dict:
        return {
            "workloads": [w.to_dict() for w in self.workloads],
            "worst_slowdown": self.worst_slowdown,
            "mean_slowdown": self.mean_slowdown,
        }


def corun_miss_ratio(
    profile: ReuseProfile,
    others: Sequence[ReuseProfile],
    capacity_lines: int,
) -> float:
    """Miss ratio of ``profile`` sharing ``capacity_lines`` with ``others``.

    With no co-runners this reduces *bitwise* to
    ``profile.miss_ratio(capacity_lines)`` — both walk the same rows
    and apply the same ``>=`` threshold — which is what makes the solo
    slowdown exactly 1.0.
    """
    if capacity_lines <= 0:
        return 1.0
    if not profile.accesses:
        return 0.0
    missing = profile.cold
    for row in profile.bins:
        effective = row.mean_distance
        if others:
            window = row.mean_gap
            effective += sum(other.footprint(window) for other in others)
        if effective >= capacity_lines:
            missing += row.count
    return missing / profile.accesses


def predict_corun(
    model: CachePressureModel, profiles: Sequence[ReuseProfile]
) -> CorunPrediction:
    """Predict each workload's slowdown when the group shares the cache."""
    if not profiles:
        raise WorkloadError("need at least one workload profile")
    predictions = []
    for i, profile in enumerate(profiles):
        others = [p for j, p in enumerate(profiles) if j != i]
        solo = profile.miss_ratio(model.capacity_lines)
        corun = corun_miss_ratio(profile, others, model.capacity_lines)
        predictions.append(
            WorkloadPrediction(
                name=profile.name,
                solo_miss_ratio=solo,
                corun_miss_ratio=corun,
                slowdown=(
                    model.cycles_per_access(corun)
                    / model.cycles_per_access(solo)
                ),
            )
        )
    return CorunPrediction(workloads=tuple(predictions))
