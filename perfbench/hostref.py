"""Reference computations that time how fast the host runs right now.

The benchmark runs on a few cores of a shared host whose speed moves by
a third or more from one minute to the next, and a pass's wall time
moves with it.  A reference computation does the same kind of work as
the pass it is set beside and calls no program code, so no change to the
program can move it:

* :func:`compute` for the suite workloads: a generator-driven event
  queue on a binary heap, Fenwick tree updates and queries, small numpy
  arithmetic, and freshly allocated memory (page faults, object churn),
  the mix the simulators do;
* :func:`roundtrip` for the daemon workload: one-byte messages bounced
  between two threads over a local socket pair, which pays the same
  thread wake-ups and system calls as a query to the daemon.

:class:`HostClock` times a reference just before and just after each
timed pass, and the ``*_rel`` metrics divide the pass's wall time by the
median of those times: that takes out the host's speed and leaves the
program's.
"""

from __future__ import annotations

import heapq
import socket
import statistics
import threading
import time

import numpy as np

#: Reference runs per mark; a pass is divided by the median of the runs
#: at the marks before and after it.
MARK_RUNS = 3
#: Round trips in one :func:`roundtrip`.
MESSAGES = 10_000


def _events(steps: int) -> int:
    """A discrete-event loop: generator processes on a time-ordered heap."""

    def process(pid: int):
        delay = pid + 1
        while True:
            yield delay
            delay = (delay * 7 + pid) % 13 + 1

    procs = [process(pid) for pid in range(16)]
    heap = [(0, pid) for pid in range(16)]
    for _ in range(steps):
        now, pid = heapq.heappop(heap)
        heapq.heappush(heap, (now + next(procs[pid]), pid))
    return heap[0][0]


def _fenwick(steps: int, size: int = 4096) -> int:
    """Prefix-sum tree updates and queries over a pseudo-random stream."""
    tree = [0] * (size + 1)
    x, total = 1, 0
    for _ in range(steps):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        i = x % size + 1
        while i <= size:
            tree[i] += 1
            i += i & -i
        i, acc = (x >> 12) % size + 1, 0
        while i:
            acc += tree[i]
            i -= i & -i
        total += acc
    return total


def _arrays(steps: int) -> float:
    """Small numpy arithmetic, as in the traversal engine's cost model."""
    lines = np.arange(512, dtype=np.int64)
    acc = 0.0
    for k in range(steps):
        sets = (lines * (2 * k + 1)) % 64
        acc += float(np.bincount(sets, minlength=64).max())
    return acc


def _allocate(rounds: int) -> int:
    """Fresh 2 MiB arrays and a dict of new objects, then freed.  The
    blocks are small so that the process's peak RSS barely moves."""
    total = 0
    for k in range(rounds):
        block = np.empty(1 << 18, dtype=np.int64)
        block.fill(k)
        total += int(block[::4096].sum())
        del block
    table = {i: (i, str(i)) for i in range(10_000)}
    return total + len(table)


def compute() -> float:
    """About 0.05 s of host work on a 2-vCPU cloud host."""
    return _events(40_000) + _fenwick(6_000) + _arrays(1_500) + _allocate(32)


def roundtrip() -> None:
    """About 0.1 s of thread wake-ups over a local socket pair."""
    left, right = socket.socketpair()

    def echo() -> None:
        for _ in range(MESSAGES):
            right.sendall(right.recv(1))

    thread = threading.Thread(target=echo)
    thread.start()
    try:
        for _ in range(MESSAGES):
            left.sendall(b"x")
            left.recv(1)
    finally:
        left.close()  # ends the echo thread's recv if this loop failed
        thread.join()
        right.close()


class HostClock:
    """Times of a reference computation taken between timed passes."""

    def __init__(self, reference) -> None:
        self.reference = reference
        self.groups: list[list[float]] = []

    def mark(self) -> None:
        """Time the reference :data:`MARK_RUNS` times; call it between passes."""
        group = []
        for _ in range(MARK_RUNS):
            start = time.perf_counter()
            self.reference()
            group.append(time.perf_counter() - start)
        self.groups.append(group)

    def rel(self, wall: float) -> float:
        """``wall``, of the pass between the last two marks, in units of
        the reference timed at those marks."""
        return wall / statistics.median(self.groups[-2] + self.groups[-1])

    def ref_s(self) -> float:
        return statistics.median(t for group in self.groups for t in group)
