"""Property: the event engine runs callbacks in (time, seq) order.

The discrete-event engine's whole contract is its execution order —
time, then schedule sequence.  The oracle here is deliberately naive
and independent of the engine's heap: a plain list scanned for its
minimum ``(time, seq)`` entry on every pop.  Seeded random
self-rescheduling programs (heavy timestamp ties, zero-delay traffic,
mixed magnitudes) must run in the same order on both.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.simmpi.events import Engine

SEEDS = list(range(24))


class NaiveScheduler:
    """The engine's interface over an unordered list (min-scan pops)."""

    def __init__(self) -> None:
        self.now = 0.0
        self._entries: list[tuple[float, int, object]] = []
        self._seq = 0

    def schedule(self, delay: float, fn) -> None:
        self._entries.append((self.now + delay, self._seq, fn))
        self._seq += 1

    def run(self) -> None:
        while self._entries:
            head = min(range(len(self._entries)), key=lambda i: self._entries[i][:2])
            self.now, _, fn = self._entries.pop(head)
            fn()


@pytest.mark.parametrize("seed", SEEDS)
def test_engine_execution_order_matches_naive_scheduler(seed):
    """The engine and the naive scheduler run the same randomized
    self-rescheduling program in the same order."""
    rng = np.random.default_rng(seed)
    script = [
        (float(d), int(k))
        for d, k in zip(
            rng.choice([0.0, 0.0, 1e-6, 1e-3, 0.25], size=40),
            rng.integers(0, 3, size=40),
        )
    ]

    def run(engine) -> list[tuple[int, float]]:
        order: list[tuple[int, float]] = []
        cursor = iter(enumerate(script))

        def fire(event_id: int, fanout: int) -> None:
            order.append((event_id, engine.now))
            # Each event schedules up to `fanout` successors, consuming
            # the shared script so both schedulers see identical requests.
            for _ in range(fanout):
                try:
                    next_id, (delay, next_fanout) = next(cursor)
                except StopIteration:
                    return
                engine.schedule(
                    delay, lambda i=next_id, f=next_fanout: fire(i, f)
                )

        first_id, (first_delay, first_fanout) = next(cursor)
        engine.schedule(first_delay, lambda: fire(first_id, first_fanout))
        # Seed extra roots so the queue never starves early.
        for _ in range(4):
            try:
                root_id, (delay, fanout) = next(cursor)
            except StopIteration:
                break
            engine.schedule(delay, lambda i=root_id, f=fanout: fire(i, f))
        engine.run()
        return order

    engine_order = run(Engine())
    naive_order = run(NaiveScheduler())
    assert engine_order == naive_order
    times = [t for _, t in engine_order]
    assert times == sorted(times)


@pytest.mark.parametrize("seed", SEEDS[:8])
def test_zero_delay_respects_earlier_calendar_event_at_same_time(seed):
    """A delay-0 event must not jump ahead of an earlier-scheduled
    event already pending at exactly the current timestamp."""
    rng = np.random.default_rng(seed)
    t = float(rng.uniform(0.1, 5.0))
    engine = Engine()
    order: list[str] = []

    def arrive():
        order.append("arrive")
        engine.schedule(0.0, lambda: order.append("zero"))

    # arrive (seq 0) runs first and schedules "zero" (seq 2) at t while
    # "pending" (seq 1) already waits at the same timestamp t — (time,
    # seq) must decide.
    engine.schedule(t, arrive)
    engine.schedule(t, lambda: order.append("pending"))
    engine.run()
    assert order == ["arrive", "pending", "zero"]
