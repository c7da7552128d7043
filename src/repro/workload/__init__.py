"""Reuse-distance workload model and co-scheduling advisor.

The pipeline, bottom to top:

- :mod:`~repro.workload.recorder` — exact streaming reuse (LRU stack)
  distances with bounded memory.
- :mod:`~repro.workload.profile` — frozen, serializable histograms with
  the derived quantities (miss ratio at any capacity, footprint of any
  access window).
- :mod:`~repro.workload.generators` — canonical synthetic workloads
  (streaming / blocked / zipf / stencil), seeded and memoized.
- :mod:`~repro.workload.contention` — Barai-style reuse-CDF composition
  predicting per-workload miss ratios and slowdowns on a shared cache.
- :mod:`~repro.workload.coschedule` — placement advisor ranking
  assignments of K workloads onto a measured sharing topology.
"""

from .contention import (
    CachePressureModel,
    CorunPrediction,
    WorkloadPrediction,
    corun_miss_ratio,
    predict_corun,
)
from .coschedule import (
    CoScheduleAdvice,
    CoScheduler,
    PlacementOption,
    co_schedule,
    enumerate_partitions,
)
from .generators import (
    GENERATORS,
    Workload,
    generator_names,
    parse_workload,
    profile_workload,
)
from .profile import ReuseBin, ReuseProfile
from .recorder import (
    EXACT_DISTANCES,
    SUB_BUCKETS,
    ReuseDistanceRecorder,
    bucket_of,
)

__all__ = [
    "EXACT_DISTANCES",
    "GENERATORS",
    "SUB_BUCKETS",
    "CachePressureModel",
    "CoScheduleAdvice",
    "CoScheduler",
    "CorunPrediction",
    "PlacementOption",
    "ReuseBin",
    "ReuseDistanceRecorder",
    "ReuseProfile",
    "Workload",
    "WorkloadPrediction",
    "bucket_of",
    "co_schedule",
    "corun_miss_ratio",
    "enumerate_partitions",
    "generator_names",
    "parse_workload",
    "predict_corun",
    "profile_workload",
]
