"""Best-effort native backend (real timings on the host).

The calibration note for this reproduction is explicit: CPython
interpreter overhead masks cache effects, which is why the accuracy
experiments all run against :class:`SimulatedBackend`.  This backend
still implements the full :class:`Backend` interface with real
measurements so the suite can be pointed at actual hardware — results
are indicative at best (L1-level effects are invisible from Python; a C
extension would be needed to reproduce the paper natively).

Implementation notes:

- Traversals use NumPy fancy-gather over a strided index vector;
  reported "cycles" are nanoseconds per access scaled by a nominal
  1 GHz clock (relative shape is what the detectors use).
- Bandwidth uses ``np.copyto`` on arrays far larger than any cache,
  concurrently via threads (NumPy releases the GIL for large copies).
- Message latency uses ``multiprocessing.Pipe`` ping-pong between
  processes pinned with ``os.sched_setaffinity`` where available.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from concurrent.futures import ThreadPoolExecutor
from collections.abc import Sequence

import numpy as np

from ..errors import MeasurementError
from ..topology.machine import CorePair
from .base import Backend, ConcurrentLatency
from .kernels import gather_traverse

_NOMINAL_HZ = 1e9  # "cycles" = nanoseconds; only relative shape matters


def _pin(core: int) -> None:
    """Pin the calling thread/process to ``core`` if the OS allows."""
    try:
        os.sched_setaffinity(0, {core})
    except (AttributeError, OSError):
        pass


def _pingpong_child(conn, core: int, nbytes: int, reps: int) -> None:
    _pin(core)
    payload = conn.recv_bytes()
    for _ in range(reps):
        conn.send_bytes(payload)
        payload = conn.recv_bytes()
    conn.send_bytes(payload)


class NativeBackend(Backend):
    """Real measurements on the host machine (best effort).

    Traversals use the vectorized gather kernel
    (:func:`~repro.backends.kernels.gather_traverse`), whose interpreter
    overhead per access is two orders of magnitude below the paper's
    pointer-chase loop under CPython.
    """

    def __init__(self, repeats: int = 8) -> None:
        self.name = f"native:{os.uname().nodename}" if hasattr(os, "uname") else "native"
        self.n_cores = os.cpu_count() or 1
        self.page_size = (
            os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096
        )
        self.repeats = repeats
        self.virtual_time = 0.0

    def traversal_cycles(
        self,
        arrays: Sequence[tuple[int, int]],
        stride: int,
    ) -> dict[int, float]:
        if stride % 8 != 0:
            raise MeasurementError("native traversal needs a stride multiple of 8")
        start_wall = time.perf_counter()

        def one(core: int, nbytes: int) -> float:
            _pin(core)
            n = max(nbytes // 8, 1)
            arr = np.zeros(n, dtype=np.int64)
            idx = np.arange(0, n, stride // 8, dtype=np.int64)
            return gather_traverse(arr, idx, self.repeats) * _NOMINAL_HZ

        if len(arrays) == 1:
            core, nbytes = arrays[0]
            result = {core: one(core, nbytes)}
        else:
            with ThreadPoolExecutor(max_workers=len(arrays)) as pool:
                futures = {
                    core: pool.submit(one, core, nbytes) for core, nbytes in arrays
                }
                result = {core: f.result() for core, f in futures.items()}
        self.charge(time.perf_counter() - start_wall)
        return result

    def copy_bandwidth(self, cores: Sequence[int]) -> dict[int, float]:
        start_wall = time.perf_counter()
        nbytes = 64 << 20  # 64 MB defeats any realistic cache

        def one(core: int) -> float:
            _pin(core)
            src = np.zeros(nbytes // 8, dtype=np.float64)
            dst = np.empty_like(src)
            np.copyto(dst, src)  # warm-up / page fault
            start = time.perf_counter()
            for _ in range(3):
                np.copyto(dst, src)
            elapsed = time.perf_counter() - start
            return 3 * 2 * nbytes / elapsed  # read + write traffic

        if len(cores) == 1:
            result = {cores[0]: one(cores[0])}
        else:
            with ThreadPoolExecutor(max_workers=len(cores)) as pool:
                futures = {core: pool.submit(one, core) for core in cores}
                result = {core: f.result() for core, f in futures.items()}
        self.charge(time.perf_counter() - start_wall)
        return result

    def message_latency(self, core_a: int, core_b: int, nbytes: int) -> float:
        start_wall = time.perf_counter()
        reps = 32
        parent, child = mp.Pipe()
        proc = mp.Process(
            target=_pingpong_child, args=(child, core_b, nbytes, reps)
        )
        proc.start()
        _pin(core_a)
        payload = b"\0" * max(nbytes, 1)
        parent.send_bytes(payload)  # hand the payload over; child echoes
        start = time.perf_counter()
        for _ in range(reps):
            payload = parent.recv_bytes()
            parent.send_bytes(payload)
        parent.recv_bytes()
        elapsed = time.perf_counter() - start
        proc.join()
        self.charge(time.perf_counter() - start_wall)
        return elapsed / (2 * (reps + 1))

    def concurrent_message_latency(
        self, pairs: Sequence[CorePair], nbytes: int
    ) -> ConcurrentLatency:
        start_wall = time.perf_counter()
        times: list[float] = []
        with ThreadPoolExecutor(max_workers=len(pairs)) as pool:
            futures = [
                pool.submit(self.message_latency, a, b, nbytes) for a, b in pairs
            ]
            times = [f.result() for f in futures]
        # message_latency already charged inner costs; only the overlap
        # bookkeeping is added here.
        self.charge(max(0.0, time.perf_counter() - start_wall - sum(times)))
        return ConcurrentLatency(mean=float(np.mean(times)), worst=float(np.max(times)))
