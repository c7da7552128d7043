"""Measurement kernels for the native backend.

Two implementations of the mcalibrator inner loop:

- :func:`pointer_chase` — the paper's Fig. 1 kernel, verbatim: the
  array itself stores the stride ("using values read from an array as
  stride, thus avoiding aggressive compiler optimizations"), and the
  loop follows ``j = j + A[j]``.  In CPython the interpreter dominates
  each step, which is exactly the repro-band caveat — but the kernel is
  the real one, and its *relative* curve still moves with the memory
  hierarchy on large arrays.
- :func:`gather_traverse` — a vectorized NumPy equivalent whose
  per-access overhead is ~100x lower; :class:`~repro.backends.NativeBackend`
  measures with it.

Both return seconds per access.
"""

from __future__ import annotations

import time

import numpy as np

from ..errors import MeasurementError


def build_chase_array(array_bytes: int, stride: int) -> np.ndarray:
    """The Fig. 1 array: each visited slot holds the stride in elements.

    Elements are int64 (8 bytes); slot ``j`` is visited when ``j`` is a
    multiple of ``stride // 8``; every visited slot stores
    ``stride // 8`` so the traversal ``j += A[j]`` walks the array in
    stride-sized hops, exactly like the pseudo-code.
    """
    if stride % 8 != 0 or stride <= 0:
        raise MeasurementError("stride must be a positive multiple of 8 bytes")
    n = max(array_bytes // 8, 1)
    arr = np.zeros(n, dtype=np.int64)
    hop = stride // 8
    arr[::hop] = hop
    return arr


def pointer_chase(arr: np.ndarray, repeats: int) -> float:
    """Seconds per access of the Fig. 1 loop over a chase array."""
    if repeats < 1:
        raise MeasurementError("repeats must be >= 1")
    n = len(arr)
    data = arr.tolist()  # plain list: avoids numpy scalar boxing per step
    # Warm-up revolution.
    aux = 0
    j = 0
    accesses = 0
    while j < n:
        step = data[j]
        aux += n
        j += step
        accesses += 1
    start = time.perf_counter()
    for _ in range(repeats):
        j = 0
        while j < n:
            step = data[j]
            aux += n
            j += step
    elapsed = time.perf_counter() - start
    if aux < 0:  # pragma: no cover - keeps `aux` alive like the paper's
        raise AssertionError
    return elapsed / (repeats * accesses)


def gather_traverse(arr: np.ndarray, idx: np.ndarray, repeats: int) -> float:
    """Seconds per access of a vectorized strided gather."""
    if repeats < 1:
        raise MeasurementError("repeats must be >= 1")
    arr[idx].sum()  # warm up
    start = time.perf_counter()
    for _ in range(repeats):
        arr[idx].sum()
    elapsed = time.perf_counter() - start
    return elapsed / (repeats * len(idx))
