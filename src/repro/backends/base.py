"""The measurement interface Servet's algorithms are written against."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from collections.abc import Sequence

from ..topology.machine import CorePair


@dataclass(frozen=True)
class ConcurrentLatency:
    """Latencies when several messages share an interconnect."""

    mean: float
    worst: float


class Backend(abc.ABC):
    """Everything a Servet benchmark may ask of the system under test.

    All methods return *measurements* (with whatever noise the system
    produces); none of them leaks topology ground truth.  Measurement
    cost is accounted in :attr:`virtual_time` so the suite can report
    Table I-style execution times.
    """

    #: Human-readable system name (used in reports).
    name: str
    #: Number of cores a benchmark may pin work to.
    n_cores: int
    #: OS page size in bytes (available to user code via sysconf in the
    #: real suite, so not considered hidden information).
    page_size: int

    @abc.abstractmethod
    def traversal_cycles(
        self,
        arrays: Sequence[tuple[int, int]],
        stride: int,
    ) -> dict[int, float]:
        """Run mcalibrator traversals concurrently, one per entry.

        ``arrays`` is a sequence of ``(core, array_bytes)``; all listed
        cores traverse their private arrays simultaneously with the
        given ``stride``.  Returns average cycles per access, per core.
        """

    @abc.abstractmethod
    def copy_bandwidth(self, cores: Sequence[int]) -> dict[int, float]:
        """STREAM-copy bandwidth (bytes/s) per core, run concurrently."""

    @abc.abstractmethod
    def message_latency(self, core_a: int, core_b: int, nbytes: int) -> float:
        """One-way message latency (seconds) between two pinned cores."""

    @abc.abstractmethod
    def concurrent_message_latency(
        self, pairs: Sequence[CorePair], nbytes: int
    ) -> ConcurrentLatency:
        """Per-message latency when every pair exchanges simultaneously."""

    # -- measurement-cost accounting --------------------------------------

    #: Accumulated virtual seconds spent measuring (Table I accounting).
    virtual_time: float = 0.0

    def charge(self, seconds: float) -> None:
        """Add measurement cost to the virtual clock."""
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        self.virtual_time += seconds

    def take_virtual_time(self) -> float:
        """Return the accumulated virtual time and reset the clock."""
        elapsed, self.virtual_time = self.virtual_time, 0.0
        return elapsed


#: The four measurement entry points every backend exposes — the hook
#: surface :func:`instrument_backend` wraps.
MEASUREMENT_METHODS: tuple[str, ...] = (
    "traversal_cycles",
    "copy_bandwidth",
    "message_latency",
    "concurrent_message_latency",
)


def instrument_backend(backend: Backend, tracer=None, metrics=None) -> Backend:
    """Attach observability to a backend *instance* (idempotent).

    Wraps the measurement methods so every call emits a
    ``backend.<method>`` span (when a tracer is given) and increments a
    ``backend.calls{method=...}`` counter (when a metrics registry is
    given).  Works on raw
    backends and on the resilience wrappers alike — the wrapper is
    installed on whatever object the suite actually calls, so retries
    inside :class:`~repro.resilience.HardenedBackend` count as one
    call, matching what a phase asked for.

    Re-instrumenting an already-instrumented backend only swaps the
    sinks (tracer/metrics), so a backend reused across suite runs
    reports to the run that is currently driving it.

    Backends exposing a ``bind_metrics(metrics)`` hook (directly or via
    a delegating resilience wrapper) are handed the registry so they
    can export internal counters — e.g. the simulated backend's
    traversal outcome cache hits/misses.  The counters are resolved
    here, once, not per call: the wrapper sits on the hottest path in
    the suite and must not pay a registry lookup per probe.
    """
    if metrics is not None:
        call_counters = {
            m: metrics.counter("backend.calls", method=m)
            for m in MEASUREMENT_METHODS
        }
        bind = getattr(backend, "bind_metrics", None)
        if bind is not None:
            bind(metrics)
    else:
        call_counters = None
    backend._obs_sinks = (tracer, call_counters)
    if getattr(backend, "_obs_instrumented", False):
        return backend
    for method_name in MEASUREMENT_METHODS:
        original = getattr(backend, method_name)

        def wrapper(*args, _original=original, _name=method_name, **kwargs):
            sink_tracer, counters = backend._obs_sinks
            if counters is not None:
                counters[_name].inc()
            if sink_tracer is None:
                return _original(*args, **kwargs)
            with sink_tracer.span(f"backend.{_name}"):
                return _original(*args, **kwargs)

        setattr(backend, method_name, wrapper)
    backend._obs_instrumented = True
    return backend
