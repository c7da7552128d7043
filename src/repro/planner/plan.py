"""Probes: what to measure, as hashable values.

A *probe* is a frozen description of a single
:class:`~repro.backends.base.Backend` measurement.  The phase
algorithms of :mod:`repro.core` hand probes (one at a time, or as a
batch of core pairs) to the
:class:`~repro.planner.executor.PlanExecutor`, which memoizes, prunes
and measures them one after another.

Probes are value objects: two probes compare equal iff they describe
the same measurement, which is exactly the memoization key.  The
``sample`` field distinguishes *intentional* repeats (robust-sampling
loops) from accidental duplicates — repeats carry distinct sample
indices and are never deduplicated against each other.

Each probe class names its ``kind`` (a class variable, so it is not a
field and leaves ``repr``, equality, hashing and :func:`probe_id`
untouched) and knows the one backend call that measures it
(:meth:`measure`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar, Union

from ..backends.base import Backend, ConcurrentLatency
from ..ioutils import sha256_hex
from ..topology.machine import CorePair


@dataclass(frozen=True)
class TraversalProbe:
    """One (possibly concurrent) mcalibrator traversal measurement."""

    kind: ClassVar[str] = "traversal"

    #: ``(core, array_bytes)`` per participating core, in call order.
    arrays: tuple[tuple[int, int], ...]
    stride: int
    sample: int = 0

    @property
    def cores(self) -> tuple[int, ...]:
        return tuple(core for core, _ in self.arrays)

    def measure(self, backend: Backend) -> dict[int, float]:
        return backend.traversal_cycles(list(self.arrays), self.stride)


@dataclass(frozen=True)
class StreamProbe:
    """STREAM-copy bandwidth with ``cores`` running concurrently."""

    kind: ClassVar[str] = "stream"

    cores: tuple[int, ...]
    sample: int = 0

    def measure(self, backend: Backend) -> dict[int, float]:
        return backend.copy_bandwidth(list(self.cores))


@dataclass(frozen=True)
class MessageProbe:
    """Point-to-point latency between one pinned core pair."""

    kind: ClassVar[str] = "message"

    pair: CorePair
    nbytes: int
    sample: int = 0

    @property
    def cores(self) -> tuple[int, ...]:
        return self.pair

    def measure(self, backend: Backend) -> float:
        a, b = self.pair
        return backend.message_latency(a, b, self.nbytes)


@dataclass(frozen=True)
class ConcurrentMessageProbe:
    """Per-message latency with every pair exchanging simultaneously."""

    kind: ClassVar[str] = "concurrent_message"

    pairs: tuple[CorePair, ...]
    nbytes: int
    sample: int = 0

    @property
    def cores(self) -> tuple[int, ...]:
        return tuple(core for pair in self.pairs for core in pair)

    def measure(self, backend: Backend) -> ConcurrentLatency:
        return backend.concurrent_message_latency(list(self.pairs), self.nbytes)


Probe = Union[TraversalProbe, StreamProbe, MessageProbe, ConcurrentMessageProbe]


def probe_cores(probe: Probe) -> tuple[int, ...]:
    """Every core a probe pins work to, in the probe's own order (the
    order a pruned representative's per-core result is re-keyed by)."""
    return probe.cores


@lru_cache(maxsize=65536)
def probe_id(probe: Probe) -> str:
    """Deterministic short identifier for a probe, e.g. ``message:3f2a...``.

    Probes are frozen value objects with deterministic dataclass reprs,
    so hashing the repr gives an ID that is stable across processes and
    runs — the handle provenance records and trace spans use to refer
    to the same measurement.  Memoized: the tracer asks for the ID of
    every issued probe, and the repr + sha256 round trip shows up at
    suite scale.
    """
    digest = sha256_hex(f"{probe.kind}|{probe!r}")
    return f"{probe.kind}:{digest[:12]}"
