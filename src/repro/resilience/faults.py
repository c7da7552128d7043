"""Deterministic fault injection for resilience testing.

Real measurement campaigns hit broken timers (NaN/zero/negative
readings), transient spikes from OS jitter, performance counters that
lock up and return a constant, cores whose readings are garbage, and
measurements that simply hang.  :class:`FaultInjectingBackend` wraps
any :class:`~repro.backends.base.Backend` and injects exactly those
faults according to a seeded, fully deterministic :class:`FaultPlan`,
so resilience behavior is reproducible bit-for-bit.

The wrapper sits *between* the suite and the real backend::

    backend = HardenedBackend(
        FaultInjectingBackend(SimulatedBackend(dunnington()), plan),
        retries=4,
    )

Every fault decision is drawn from the plan's own RNG (never the
wrapped backend's), so enabling faults does not perturb the underlying
measurement stream: a retry after a transient fault re-measures with
the backend exactly where it would have been.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from collections.abc import Sequence

from ..backends.base import Backend, ConcurrentLatency
from ..errors import ConfigurationError, MeasurementTimeout
from ..rng import ensure_rng
from ..topology.machine import CorePair

__all__ = ["FAULT_CHANNELS", "FaultPlan", "FaultInjectingBackend"]

#: Measurement channels a plan may be restricted to.
FAULT_CHANNELS: tuple[str, ...] = ("traversal", "bandwidth", "latency")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic description of which faults to inject.

    All rates are per-reading probabilities in ``[0, 1]``; fault kinds
    are drawn exclusively (a reading suffers at most one fault).  The
    plan is JSON-serializable so the CLI can load one from disk
    (``servet run --fault-plan plan.json``).
    """

    #: Seed of the plan's private RNG (independent of the backend's).
    seed: int = 0
    #: Probability a reading comes back NaN (broken timer).
    nan_rate: float = 0.0
    #: Probability a reading comes back 0 (timer underflow).
    zero_rate: float = 0.0
    #: Probability a reading comes back negated (counter wraparound).
    negative_rate: float = 0.0
    #: Probability a reading is multiplied by :attr:`spike_factor`
    #: (OS jitter / frequency transition).
    spike_rate: float = 0.0
    spike_factor: float = 50.0
    #: Probability a whole measurement hangs: the backend charges
    #: :attr:`hang_seconds` of virtual time and raises
    #: :class:`~repro.errors.MeasurementTimeout`.
    hang_rate: float = 0.0
    hang_seconds: float = 120.0
    #: Cores whose readings are always NaN (dead measurement zone).
    dead_cores: tuple[int, ...] = ()
    #: After this many backend calls every reading locks to
    #: :attr:`lockup_value` (a stuck performance counter).  ``None``
    #: disables the lockup.
    lockup_after: int | None = None
    lockup_value: float = 42.0
    #: Channels the plan applies to; empty means all of
    #: :data:`FAULT_CHANNELS`.
    only: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name in ("nan_rate", "zero_rate", "negative_rate", "spike_rate",
                     "hang_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {rate}")
        total = self.nan_rate + self.zero_rate + self.negative_rate + self.spike_rate
        if total > 1.0:
            raise ConfigurationError(
                f"reading-fault rates sum to {total} > 1 (faults are exclusive)"
            )
        if self.spike_factor <= 0:
            raise ConfigurationError("spike_factor must be > 0")
        if self.hang_seconds < 0:
            raise ConfigurationError("hang_seconds must be >= 0")
        if self.lockup_after is not None and self.lockup_after < 0:
            raise ConfigurationError("lockup_after must be >= 0")
        for channel in self.only:
            if channel not in FAULT_CHANNELS:
                raise ConfigurationError(
                    f"unknown fault channel {channel!r}; "
                    f"expected one of {FAULT_CHANNELS}"
                )
        # Normalize sequences so plans compare/serialize predictably.
        object.__setattr__(self, "dead_cores", tuple(sorted(set(self.dead_cores))))
        object.__setattr__(self, "only", tuple(self.only))

    def applies_to(self, channel: str) -> bool:
        """True when this plan injects faults into ``channel``."""
        return not self.only or channel in self.only

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        data = asdict(self)
        data["dead_cores"] = list(self.dead_cores)
        data["only"] = list(self.only)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        try:
            kwargs = dict(data)
            if "dead_cores" in kwargs:
                kwargs["dead_cores"] = tuple(int(c) for c in kwargs["dead_cores"])
            if "only" in kwargs:
                kwargs["only"] = tuple(str(c) for c in kwargs["only"])
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed fault plan: {exc}") from exc

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read fault plan {path}: {exc}") from exc
        return cls.from_dict(data)

    def with_seed(self, seed: int) -> "FaultPlan":
        """The same plan with a different RNG seed."""
        return replace(self, seed=seed)


@dataclass
class FaultLog:
    """Counters of what a :class:`FaultInjectingBackend` injected."""

    readings: int = 0
    corrupted: int = 0
    hangs: int = 0
    by_kind: dict = field(default_factory=dict)

    def note(self, kind: str) -> None:
        self.corrupted += 1
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1


class FaultInjectingBackend(Backend):
    """Decorate any backend with deterministic, plan-driven faults.

    Virtual-time accounting is forwarded to the wrapped backend so the
    suite's Table I numbers include the cost of hung measurements.
    Attributes the wrapper does not define (``cluster``, ``machine``,
    ...) resolve on the wrapped backend.
    """

    def __init__(self, inner: Backend, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan
        self.name = inner.name
        self.n_cores = inner.n_cores
        self.page_size = inner.page_size
        self.rng = ensure_rng(plan.seed)
        self.calls = 0
        self.log = FaultLog()

    # -- virtual time is the wrapped backend's ----------------------------

    @property
    def virtual_time(self) -> float:
        return self.inner.virtual_time

    @virtual_time.setter
    def virtual_time(self, value: float) -> None:
        self.inner.virtual_time = value

    def __getattr__(self, attr: str):
        if attr == "inner":  # guard against recursion before __init__
            raise AttributeError(attr)
        return getattr(self.inner, attr)

    # -- fault machinery ---------------------------------------------------

    def _locked(self) -> bool:
        return self.plan.lockup_after is not None and self.calls > self.plan.lockup_after

    def _maybe_hang(self, channel: str) -> None:
        plan = self.plan
        if not plan.applies_to(channel) or plan.hang_rate <= 0.0:
            return
        if float(self.rng.random()) < plan.hang_rate:
            self.log.hangs += 1
            self.charge(plan.hang_seconds)
            raise MeasurementTimeout(
                f"injected hang in {channel} measurement "
                f"(waited {plan.hang_seconds:g} virtual seconds)",
                waited=plan.hang_seconds,
            )

    def _corrupt(self, value: float, channel: str, cores: Sequence[int]) -> float:
        plan = self.plan
        self.log.readings += 1
        if not plan.applies_to(channel):
            return value
        if any(core in plan.dead_cores for core in cores):
            self.log.note("dead_core")
            return math.nan
        if self._locked():
            self.log.note("lockup")
            return plan.lockup_value
        draw = float(self.rng.random())
        if draw < plan.nan_rate:
            self.log.note("nan")
            return math.nan
        draw -= plan.nan_rate
        if draw < plan.zero_rate:
            self.log.note("zero")
            return 0.0
        draw -= plan.zero_rate
        if draw < plan.negative_rate:
            self.log.note("negative")
            return -abs(value)
        draw -= plan.negative_rate
        if draw < plan.spike_rate:
            self.log.note("spike")
            return value * plan.spike_factor
        return value

    # -- Backend API -------------------------------------------------------

    def traversal_cycles(
        self, arrays: Sequence[tuple[int, int]], stride: int
    ) -> dict[int, float]:
        self.calls += 1
        self._maybe_hang("traversal")
        readings = self.inner.traversal_cycles(arrays, stride)
        return {
            core: self._corrupt(value, "traversal", (core,))
            for core, value in readings.items()
        }

    def copy_bandwidth(self, cores: Sequence[int]) -> dict[int, float]:
        self.calls += 1
        self._maybe_hang("bandwidth")
        readings = self.inner.copy_bandwidth(cores)
        return {
            core: self._corrupt(value, "bandwidth", (core,))
            for core, value in readings.items()
        }

    def message_latency(self, core_a: int, core_b: int, nbytes: int) -> float:
        self.calls += 1
        self._maybe_hang("latency")
        value = self.inner.message_latency(core_a, core_b, nbytes)
        return self._corrupt(value, "latency", (core_a, core_b))

    def concurrent_message_latency(
        self, pairs: Sequence[CorePair], nbytes: int
    ) -> ConcurrentLatency:
        self.calls += 1
        self._maybe_hang("latency")
        result = self.inner.concurrent_message_latency(pairs, nbytes)
        cores = [c for pair in pairs for c in pair]
        return ConcurrentLatency(
            mean=self._corrupt(result.mean, "latency", cores),
            worst=self._corrupt(result.worst, "latency", cores),
        )
