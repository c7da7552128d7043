"""Resilient suite execution (robustness layer).

Measurement campaigns at Table-I scale must survive flaky timers,
stuck counters, and hung benchmarks.  This package provides the three
pieces the suite threads together:

- :mod:`repro.resilience.faults` — :class:`FaultInjectingBackend`, a
  deterministic, seeded fault injector that decorates any backend;
- :mod:`repro.resilience.policy` — :class:`HardenedBackend`, giving
  every measurement bounded retries (backoff charged to virtual time),
  per-reading plausibility validation, and repeat-sampling with
  outlier rejection;
- :mod:`repro.resilience.checkpoint` — :class:`SuiteCheckpoint`,
  the JSON state behind ``servet run --checkpoint/--resume``.

See DESIGN.md §6 for degraded-report semantics.
"""

from .checkpoint import SuiteCheckpoint, restore_rng, rng_state_of
from .faults import FAULT_CHANNELS, FaultInjectingBackend, FaultPlan
from .policy import (
    HardenedBackend,
    ReadingBounds,
    relative_spread,
    robust_estimate,
)

__all__ = [
    "FAULT_CHANNELS",
    "FaultPlan",
    "FaultInjectingBackend",
    "HardenedBackend",
    "ReadingBounds",
    "SuiteCheckpoint",
    "relative_spread",
    "robust_estimate",
    "restore_rng",
    "rng_state_of",
]
