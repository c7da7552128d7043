"""Virtual-time event loop.

A minimal discrete-event engine: callbacks scheduled at absolute virtual
times, executed in time order (FIFO among equal timestamps).  The
pending set is one binary heap of ``(time, seq, callback)`` entries, so
the schedule sequence breaks every timestamp tie.  Kept deliberately
tiny — the MPI semantics live in :mod:`repro.simmpi.comm`, and the
fleet coordinator drives its message deliveries and lease checks
through the same engine.
"""

from __future__ import annotations

from collections.abc import Callable
from heapq import heappop, heappush

from ..errors import SimulationError, WatchdogError


class Engine:
    """A monotone virtual clock over a ``(time, seq, callback)`` heap."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` ``delay`` virtual seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heappush(self._queue, (self.now + delay, self._seq, fn))
        self._seq += 1

    def schedule_at(self, time: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` at absolute virtual time ``time`` (not before now)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past (t={time:g} < now={self.now:g})"
            )
        heappush(self._queue, (time, self._seq, fn))
        self._seq += 1

    @property
    def pending(self) -> int:
        """Number of not-yet-executed callbacks."""
        return len(self._queue)

    def step(self) -> bool:
        """Execute the earliest callback; False when nothing is pending."""
        if not self._queue:
            return False
        self.now, _, fn = heappop(self._queue)
        fn()
        return True

    def run(
        self, max_time: float | None = None, max_events: int | None = None
    ) -> int:
        """Drain the event queue; returns the number of callbacks run.

        ``max_time`` stops quietly once the next callback lies beyond
        it.  ``max_events`` is a watchdog budget: exceeding it raises
        :class:`~repro.errors.WatchdogError` (a runaway model would
        otherwise spin forever).
        """
        queue = self._queue
        executed = 0
        while queue:
            if max_time is not None and queue[0][0] > max_time:
                return executed
            if max_events is not None and executed >= max_events:
                raise WatchdogError(
                    f"event budget of {max_events} callbacks exhausted at "
                    f"virtual time {self.now:g}s ({len(queue)} still pending)"
                )
            self.now, _, fn = heappop(queue)
            fn()
            executed += 1
        return executed
