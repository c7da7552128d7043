"""Exact reuse-distance recording, one numpy batch per chunk.

The reuse (LRU stack) distance of an access is the number of *distinct
other* lines touched since the previous access to the same line; a
first touch has infinite distance ("cold").  A fully associative LRU
cache of ``C`` lines serves an access iff its distance is ``< C`` —
which is why a reuse-distance histogram is a machine-independent
workload signature: one profiling pass predicts the miss ratio at
*every* capacity (Mattson's stack algorithm), and the shared-cache
composition of :mod:`repro.workload.contention` predicts co-run
behaviour from two solo histograms.

Each ``observe`` call handles its whole chunk as one batch.  One stable
``argsort`` of the line ids gives every access its previous-touch time
``prev`` (inside the chunk, or from the recorder's state).  The lines
touched strictly between ``prev[i]`` and ``i`` are counted once each by
the window's accesses whose own previous touch is older than
``prev[i]``, so for a chunk starting at global clock ``cs``::

    distance(i) = #{j < i in chunk : prev[j] < prev[i]}
                  - max(0, prev[i] - cs + 1)
                  + #{live lines last touched after prev[i]}

The first term is a 2-D dominance count, computed bottom-up in merge
levels with ``searchsorted`` (:func:`_smaller_before`); the second drops
the chunk accesses at or before ``prev[i]``, which the first counts
unconditionally; the third is one ``searchsorted`` over the sorted
last-touch times of the lines live before the chunk.  Between calls
the state is just those lines and their last-touch times, so memory is
``O(distinct lines + chunk)``, never the length of the trace, and the
result is independent of how the stream is chunked.

Alongside each distance the recorder keeps the access-count gap of the
reuse interval (how many of the stream's own accesses fell strictly
between the two touches).  The contention model needs both: the
distance says how much cache the reuse needs, the gap says how long a
window co-runners have to pollute it.
"""

from __future__ import annotations

import numpy as np

from ..errors import MeasurementError

#: Distances below this are binned exactly; beyond it, geometrically
#: with :data:`SUB_BUCKETS` buckets per octave (bounded bucket count
#: for any distance range, <1.6% relative rounding error).
EXACT_DISTANCES = 128

#: Sub-buckets per power of two beyond the exact range.
SUB_BUCKETS = 16

_SHIFT = SUB_BUCKETS.bit_length() - 1  # log2(SUB_BUCKETS)


def bucket_of(distance: int) -> int:
    """Canonical bucket lower edge for a reuse distance.

    Identity below :data:`EXACT_DISTANCES`; beyond that the distance is
    truncated to its geometric bucket's lower edge.  Pure integer math,
    so the binning is platform-independent.
    """
    if distance < EXACT_DISTANCES:
        return distance
    step_bits = distance.bit_length() - 1 - _SHIFT
    return (distance >> step_bits) << step_bits


def _smaller_before(keys: np.ndarray) -> np.ndarray:
    """``#{j < i : keys[j] < keys[i]}`` for every ``i``.

    Equal keys are ordered by position, so an equal earlier key counts
    as smaller.  The keys are replaced by their ranks (a permutation),
    then bottom-up merge levels pair sorted runs of width ``w``: each
    element of a right run gains the number of smaller elements in its
    left run, one ``searchsorted`` for all pairs at once (each row is
    shifted into its own value range).  Counts are accumulated per
    rank, so every search and scatter runs over sorted data.
    ``O(n log^2 n)`` work in ``O(n)`` memory.
    """
    n = len(keys)
    ranks = np.empty(n, np.int64)
    ranks[np.argsort(keys, kind="stable")] = np.arange(n)
    by_rank = np.zeros(n, np.int64)
    runs = ranks.copy()
    w = 1
    while w < n:
        rows = n // (2 * w)
        full = rows * 2 * w
        pairs = runs[:full].reshape(rows, 2, w)
        shift = np.arange(rows, dtype=np.int64)[:, None] * n
        right = pairs[:, 1, :]
        found = np.searchsorted(
            (pairs[:, 0, :] + shift).ravel(), (right + shift).ravel()
        )
        # ``found`` indexes the flattened left runs; drop the rows
        # before each element's own.
        by_rank[right.ravel()] += found - np.arange(0, full // 2, w).repeat(w)
        runs[:full] = np.sort(pairs.reshape(rows, 2 * w), axis=1).ravel()
        if n - full > w:  # one ragged pair at the end
            left, right = runs[full : full + w], runs[full + w :]
            by_rank[right] += np.searchsorted(left, right)
            runs[full:] = np.sort(runs[full:])
        w *= 2
    return by_rank[ranks]


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Indices where a new run of equal values starts (``ordered`` non-empty)."""
    return np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))


class ReuseDistanceRecorder:
    """Exact streaming reuse distances, accumulated into bounded bins.

    ``observe`` consumes 1-D integer line-id vectors in stream order,
    each as one numpy batch; the accumulated state is read out with
    :meth:`~repro.workload.ReuseProfile.from_recorder`.

    Between calls the recorder keeps only the live lines (ascending)
    and each one's last-touch time, so memory is ``O(distinct lines +
    chunk)``.  Any chunking of a stream records the same bins.
    """

    def __init__(self) -> None:
        self._lines = np.empty(0, np.int64)
        self._last = np.empty(0, np.int64)
        self._clock = 0
        self._cold = 0
        # Accumulators: bucket lower edge -> [count, sum distance, sum gap].
        self._bins: dict[int, list[int]] = {}

    def observe(self, lines: np.ndarray | list[int]) -> None:
        """Feed the next chunk of the access stream (in order).

        The chunk must be 1-D with an integer dtype (a list of ints is
        fine); float, bool and object input is refused rather than
        truncated into line ids; an empty chunk is a no-op.  The input
        is never written to.
        """
        chunk = np.asarray(lines)
        if chunk.ndim != 1:
            raise MeasurementError(
                f"line ids must be a 1-D vector, got shape {chunk.shape}"
            )
        n = len(chunk)
        if n == 0:
            return  # whatever its dtype: ``np.asarray([])`` is float
        if chunk.dtype.kind not in "iu":
            raise MeasurementError(
                f"line ids must have an integer dtype, got {chunk.dtype}"
            )
        chunk = chunk.astype(np.int64, copy=False)
        start = self._clock

        # Previous touch of every access: the access before it in its
        # line's group, or the state's last touch for the group's head.
        order = np.argsort(chunk, kind="stable")
        grouped = chunk[order]
        heads = _run_starts(grouped)
        head_lines = grouped[heads]
        prev = np.empty(n, np.int64)
        prev[order[1:]] = order[:-1] + start
        at = np.searchsorted(self._lines, head_lines)
        known = at < len(self._lines)
        known[known] = self._lines[at[known]] == head_lines[known]
        head_prev = np.full(len(heads), -1, np.int64)
        head_prev[known] = self._last[at[known]]
        prev[order[heads]] = head_prev

        reuse = prev >= 0
        p = prev[reuse]
        recency = np.sort(self._last)
        distance = (
            _smaller_before(prev)[reuse]
            - np.maximum(p - start + 1, 0)
            + (len(recency) - np.searchsorted(recency, p, side="right"))
        )
        gap = np.flatnonzero(reuse) + start - p - 1
        self._accumulate(distance, gap)

        # New state: untouched live lines plus each chunk line's last
        # touch (the tail of its group).
        keep = np.ones(len(self._lines), bool)
        keep[at[known]] = False
        tails = np.append(heads[1:], n) - 1
        live = np.concatenate([self._lines[keep], head_lines])
        live_last = np.concatenate([self._last[keep], order[tails] + start])
        by_line = np.argsort(live)
        self._lines = live[by_line]
        self._last = live_last[by_line]
        self._cold += n - len(p)
        self._clock = start + n

    def _accumulate(self, distance: np.ndarray, gap: np.ndarray) -> None:
        """Add reuses to the bins, binning each distinct distance once."""
        if not len(distance):
            return
        order = np.argsort(distance, kind="stable")
        ordered = distance[order]
        starts = _run_starts(ordered)
        values = ordered[starts]
        counts = np.diff(np.append(starts, len(ordered)))
        gaps = np.add.reduceat(gap[order], starts)
        # ``bucket_of`` is monotone, so equal edges are adjacent.
        edges = np.array([bucket_of(v) for v in values.tolist()], np.int64)
        firsts = _run_starts(edges)
        bins = self._bins
        for lo, count, sum_distance, sum_gap in zip(
            edges[firsts].tolist(),
            np.add.reduceat(counts, firsts).tolist(),
            np.add.reduceat(counts * values, firsts).tolist(),
            np.add.reduceat(gaps, firsts).tolist(),
        ):
            row = bins.setdefault(lo, [0, 0, 0])
            row[0] += count
            row[1] += sum_distance
            row[2] += sum_gap

    # -- readout ----------------------------------------------------------

    @property
    def accesses(self) -> int:
        """Total accesses observed so far."""
        return self._clock

    @property
    def cold(self) -> int:
        """First-touch (infinite-distance) accesses."""
        return self._cold

    @property
    def distinct_lines(self) -> int:
        """Distinct lines seen (== cold misses)."""
        return len(self._lines)

    def bins(self) -> list[tuple[int, int, int, int]]:
        """Sorted ``(bucket_lo, count, sum_distance, sum_gap)`` rows."""
        return [
            (lo, c, sd, sg)
            for lo, (c, sd, sg) in sorted(self._bins.items())
        ]
