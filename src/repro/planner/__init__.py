"""Measurement planner: probe → prune → measure.

Sits between the phase algorithms of :mod:`repro.core` and the
:class:`~repro.backends.base.Backend`.  Phases describe each
measurement as a hashable probe; the :class:`PlanExecutor`
deduplicates repeated probes, prunes symmetric core pairs down to one
representative per topology-equivalence class, and measures the rest
one at a time, in order, so no probe disturbs another and simulated
backends stay deterministic.

See DESIGN.md §6 ("Measurement planner") for the pipeline, its
determinism guarantees, and when ``--prune`` is safe.
"""

from .plan import (
    ConcurrentMessageProbe,
    MessageProbe,
    Probe,
    StreamProbe,
    TraversalProbe,
    probe_cores,
    probe_id,
)
from .symmetry import (
    PRUNE_MODES,
    PairClass,
    TopologyClassifier,
    classifier_for,
    validate_prune_mode,
)
from .executor import VERIFY_TOLERANCE, PlanExecutor, PlannerStats

__all__ = [
    "ConcurrentMessageProbe",
    "MessageProbe",
    "Probe",
    "StreamProbe",
    "TraversalProbe",
    "probe_cores",
    "probe_id",
    "PRUNE_MODES",
    "PairClass",
    "TopologyClassifier",
    "classifier_for",
    "validate_prune_mode",
    "VERIFY_TOLERANCE",
    "PlanExecutor",
    "PlannerStats",
]
