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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from ..errors import ConfigurationError
from ..ioutils import sha256_hex
from ..topology.machine import CorePair


@dataclass(frozen=True)
class TraversalProbe:
    """One (possibly concurrent) mcalibrator traversal measurement."""

    #: ``(core, array_bytes)`` per participating core, in call order.
    arrays: tuple[tuple[int, int], ...]
    stride: int
    sample: int = 0

    @property
    def cores(self) -> tuple[int, ...]:
        return tuple(core for core, _ in self.arrays)


@dataclass(frozen=True)
class StreamProbe:
    """STREAM-copy bandwidth with ``cores`` running concurrently."""

    cores: tuple[int, ...]
    sample: int = 0


@dataclass(frozen=True)
class MessageProbe:
    """Point-to-point latency between one pinned core pair."""

    pair: CorePair
    nbytes: int
    sample: int = 0

    @property
    def cores(self) -> tuple[int, ...]:
        return self.pair


@dataclass(frozen=True)
class ConcurrentMessageProbe:
    """Per-message latency with every pair exchanging simultaneously."""

    pairs: tuple[CorePair, ...]
    nbytes: int
    sample: int = 0

    @property
    def cores(self) -> tuple[int, ...]:
        return tuple(core for pair in self.pairs for core in pair)


Probe = Union[TraversalProbe, StreamProbe, MessageProbe, ConcurrentMessageProbe]

#: Probe kinds whose results are pairwise scalars or per-core dicts.
PROBE_KINDS: dict[type, str] = {
    TraversalProbe: "traversal",
    StreamProbe: "stream",
    MessageProbe: "message",
    ConcurrentMessageProbe: "concurrent_message",
}


def probe_kind(probe: Probe) -> str:
    """Short kind name of a probe (stats bucketing, error messages)."""
    try:
        return PROBE_KINDS[type(probe)]
    except KeyError:
        raise ConfigurationError(f"unknown probe type {type(probe).__name__}")


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
    digest = sha256_hex(f"{probe_kind(probe)}|{probe!r}")
    return f"{probe_kind(probe)}:{digest[:12]}"
