"""Measurement hardening: retries, validation, robust repeat-sampling.

LIKWID-style measurement tools treat broken counters and timing noise
as first-class concerns; this module does the same for any
:class:`~repro.backends.base.Backend`.  :class:`HardenedBackend` wraps
a backend and gives every measurement call

- **bounded retries** with exponential backoff, charged to *virtual*
  time (a real campaign pays wall-clock to re-run a benchmark; the
  simulated one pays its virtual clock, keeping Table I honest);
- **per-reading validation** — finite, strictly positive, and inside
  per-channel plausibility bounds;
- **repeat-sampling with outlier rejection** — take ``k`` validated
  samples, combine them with their median, and re-sample
  (up to a cap) while the relative spread exceeds a gate.

The wrapper also counts every incident (retry, invalid reading, hang,
re-sample) so :class:`~repro.core.suite.ServetSuite` can mark a phase
``degraded`` when its result needed fault recovery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Callable, Sequence

from ..backends.base import Backend, ConcurrentLatency
from ..errors import ConfigurationError, MeasurementError, MeasurementTimeout
from ..topology.machine import CorePair

__all__ = [
    "BANDWIDTH_BOUNDS",
    "CYCLES_BOUNDS",
    "LATENCY_BOUNDS",
    "ReadingBounds",
    "HardenedBackend",
    "relative_spread",
    "robust_estimate",
]


# -- robust statistics -----------------------------------------------------


def relative_spread(values: Sequence[float]) -> float:
    """``(max - min) / median`` — 0 for constant or single samples."""
    if len(values) < 2:
        return 0.0
    med = robust_estimate(values)
    if med == 0.0:
        return math.inf if max(values) > min(values) else 0.0
    return (max(values) - min(values)) / abs(med)


def robust_estimate(values: Sequence[float]) -> float:
    """Combine repeated samples into one robust estimate: their median,
    which survives up to half the samples being outliers."""
    if not values:
        raise MeasurementError("cannot estimate from zero samples")
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


@dataclass(frozen=True)
class ReadingBounds:
    """Plausibility window for one measurement channel.

    A reading must be finite, strictly positive, and inside
    ``[lo, hi]``.  Defaults are deliberately generous — they exist to
    catch *broken* readings (1e-300 s "latencies", 1e30 B/s
    "bandwidths"), not to second-guess unusual hardware.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (0 < self.lo < self.hi):
            raise ConfigurationError("bounds need 0 < lo < hi")

    def problem(self, value: float) -> str | None:
        """A human-readable defect, or None for a plausible reading."""
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return f"non-numeric reading {value!r}"
        if math.isnan(value):
            return "NaN reading"
        if math.isinf(value):
            return "infinite reading"
        if value <= 0:
            return f"non-positive reading {value:g}"
        if value < self.lo:
            return f"implausibly small reading {value:g} (< {self.lo:g})"
        if value > self.hi:
            return f"implausibly large reading {value:g} (> {self.hi:g})"
        return None


#: Cycles per access: sub-cycle and million-cycle accesses are broken.
CYCLES_BOUNDS = ReadingBounds(1e-2, 1e6)
#: Bytes per second: 1 B/s .. 1 PB/s.
BANDWIDTH_BOUNDS = ReadingBounds(1.0, 1e15)
#: Seconds: 1 ps .. 1 hour.
LATENCY_BOUNDS = ReadingBounds(1e-12, 3600.0)


#: Virtual seconds charged before the first retry; each further retry
#: waits :data:`BACKOFF_FACTOR` times longer.
BACKOFF_BASE = 0.05
BACKOFF_FACTOR = 2.0
#: With more than one sample, re-sample while any reading's relative
#: spread exceeds this, up to :data:`MAX_EXTRA_SAMPLES` extra samples.
SPREAD_GATE = 0.25
MAX_EXTRA_SAMPLES = 2


#: Incident counter names (all reset by ``take_incidents``).
INCIDENT_KINDS: tuple[str, ...] = (
    "retries",
    "invalid_readings",
    "timeouts",
    "resamples",
)

#: Incidents that mean *fault recovery* happened, marking a suite phase
#: ``degraded``.  Spread-gate resamples are deliberately excluded: on a
#: noisy-but-healthy backend they are routine statistics, not faults.
DEGRADING_INCIDENTS: tuple[str, ...] = (
    "retries",
    "invalid_readings",
    "timeouts",
)


class HardenedBackend(Backend):
    """Retry, validate, and robustly aggregate every measurement.

    Wraps any backend; see the module docstring for semantics.  Each
    measurement is retried up to ``retries`` times and combines
    ``samples`` validated samples.  The wrapper is transparent for
    healthy backends with the default single sample: values pass
    through unchanged.
    """

    def __init__(self, inner: Backend, retries: int = 2, samples: int = 1) -> None:
        if retries < 0:
            raise ConfigurationError("retries must be >= 0")
        if samples < 1:
            raise ConfigurationError("samples must be >= 1")
        self.inner = inner
        self.retries = retries
        self.samples = samples
        self.name = inner.name
        self.n_cores = inner.n_cores
        self.page_size = inner.page_size
        self.incidents: dict[str, int] = {kind: 0 for kind in INCIDENT_KINDS}

    @property
    def virtual_time(self) -> float:
        return self.inner.virtual_time

    @virtual_time.setter
    def virtual_time(self, value: float) -> None:
        self.inner.virtual_time = value

    def __getattr__(self, attr: str):
        if attr == "inner":
            raise AttributeError(attr)
        return getattr(self.inner, attr)

    # -- incident accounting ----------------------------------------------

    def take_incidents(self) -> dict[str, int]:
        """Return and reset incident counters (suite degradation marker)."""
        taken, self.incidents = self.incidents, {k: 0 for k in INCIDENT_KINDS}
        return taken

    @property
    def total_incidents(self) -> int:
        return sum(self.incidents.values())

    # -- hardening machinery ----------------------------------------------

    def _attempt(
        self,
        label: str,
        bounds: ReadingBounds,
        call: Callable[[], dict],
    ) -> dict:
        """One validated measurement, retried up to ``retries`` times."""
        last_problem = "no attempt made"
        for attempt in range(self.retries + 1):
            if attempt:
                self.incidents["retries"] += 1
                self.inner.charge(BACKOFF_BASE * BACKOFF_FACTOR ** (attempt - 1))
            try:
                readings = call()
            except MeasurementTimeout as exc:
                self.incidents["timeouts"] += 1
                last_problem = str(exc)
                continue
            bad = {
                key: problem
                for key, value in readings.items()
                if (problem := bounds.problem(value)) is not None
            }
            if not bad:
                return readings
            self.incidents["invalid_readings"] += len(bad)
            key, problem = next(iter(bad.items()))
            last_problem = f"{problem} for {key}"
            continue
        raise MeasurementError(
            f"{label}: no valid measurement after {self.retries + 1} "
            f"attempt(s); last problem: {last_problem}"
        )

    def _measure(
        self,
        label: str,
        bounds: ReadingBounds,
        call: Callable[[], dict],
    ) -> dict:
        """Repeat ``_attempt`` ``samples`` times and aggregate."""
        batches = [self._attempt(label, bounds, call) for _ in range(self.samples)]
        if self.samples > 1:
            extras = 0
            while extras < MAX_EXTRA_SAMPLES and self._spread_of(batches) > SPREAD_GATE:
                self.incidents["resamples"] += 1
                batches.append(self._attempt(label, bounds, call))
                extras += 1
        if len(batches) == 1:
            return batches[0]
        keys = batches[0].keys()
        return {
            key: robust_estimate([batch[key] for batch in batches])
            for key in keys
        }

    @staticmethod
    def _spread_of(batches: list[dict]) -> float:
        return max(
            relative_spread([batch[key] for batch in batches])
            for key in batches[0]
        )

    # -- Backend API -------------------------------------------------------

    def traversal_cycles(
        self, arrays: Sequence[tuple[int, int]], stride: int
    ) -> dict[int, float]:
        return self._measure(
            "traversal_cycles",
            CYCLES_BOUNDS,
            lambda: self.inner.traversal_cycles(arrays, stride),
        )

    def copy_bandwidth(self, cores: Sequence[int]) -> dict[int, float]:
        return self._measure(
            "copy_bandwidth",
            BANDWIDTH_BOUNDS,
            lambda: self.inner.copy_bandwidth(cores),
        )

    def message_latency(self, core_a: int, core_b: int, nbytes: int) -> float:
        readings = self._measure(
            f"message_latency({core_a},{core_b})",
            LATENCY_BOUNDS,
            lambda: {"value": self.inner.message_latency(core_a, core_b, nbytes)},
        )
        return readings["value"]

    def concurrent_message_latency(
        self, pairs: Sequence[CorePair], nbytes: int
    ) -> ConcurrentLatency:
        def call() -> dict:
            result = self.inner.concurrent_message_latency(pairs, nbytes)
            return {"mean": result.mean, "worst": result.worst}

        readings = self._measure(
            "concurrent_message_latency", LATENCY_BOUNDS, call
        )
        return ConcurrentLatency(mean=readings["mean"], worst=readings["worst"])
