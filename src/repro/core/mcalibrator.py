"""The mcalibrator micro-benchmark (paper Fig. 1).

Traverses arrays of growing size with a 1 KB stride and records the
average number of cycles per access.  The 1 KB stride is load-bearing
(Section III-A): it exceeds any hardware prefetcher's reach (256-512 B),
exceeds every cache line, and divides every cache size.  Array sizes
double from ``MIN_CACHE`` up to 2 MB and then grow by 1 MB steps up to
``MAX_CACHE``, exactly as in the pseudo-code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..backends.base import Backend
from ..errors import MeasurementError
from ..planner.plan import TraversalProbe, probe_id
from ..units import KiB, MiB, format_size

#: Paper constants (Fig. 1): probe range and stride.
MIN_CACHE: int = 1 * KiB
MAX_CACHE: int = 32 * MiB
STRIDE: int = 1 * KiB
#: Fresh allocations measured and averaged per array size.
SAMPLES: int = 5


def default_sizes(
    min_cache: int = MIN_CACHE,
    max_cache: int = MAX_CACHE,
) -> list[int]:
    """The Fig. 1 size schedule: double to 2 MB, then +1 MB steps."""
    if min_cache <= 0 or max_cache < min_cache:
        raise MeasurementError(
            f"invalid probe range [{min_cache}, {max_cache}]"
        )
    sizes: list[int] = []
    size = min_cache
    while size <= max_cache:
        sizes.append(size)
        if size < 2 * MiB:
            size *= 2
        else:
            size += 1 * MiB
    return sizes


@dataclass
class McalibratorResult:
    """The S and C output arrays of Fig. 1 (sizes and cycles/access)."""

    sizes: np.ndarray
    cycles: np.ndarray
    stride: int
    core: int
    #: Deterministic probe IDs, one per size (sample 0 representative of
    #: the averaged repeats) — the handles provenance records point at.
    probe_ids: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.sizes = np.asarray(self.sizes, dtype=np.int64)
        self.cycles = np.asarray(self.cycles, dtype=np.float64)
        if self.sizes.shape != self.cycles.shape or self.sizes.ndim != 1:
            raise MeasurementError("sizes and cycles must be equal-length vectors")
        if len(self.sizes) < 2:
            raise MeasurementError("mcalibrator needs at least two sizes")
        if not np.all(np.diff(self.sizes) > 0):
            raise MeasurementError("sizes must be strictly increasing")
        if not np.all(np.isfinite(self.cycles)) or np.any(self.cycles <= 0):
            raise MeasurementError(
                "cycle measurements must be finite and positive (a broken "
                "timer or backend produced garbage)"
            )

    @property
    def gradients(self) -> np.ndarray:
        """``C[k+1] / C[k]`` for ``0 <= k < n-1`` (Fig. 2b metric)."""
        return self.cycles[1:] / self.cycles[:-1]

    def slice(self, lo: int, hi: int) -> "McalibratorResult":
        """Sub-result over index range ``[lo, hi)`` (for local analysis)."""
        return McalibratorResult(
            sizes=self.sizes[lo:hi],
            cycles=self.cycles[lo:hi],
            stride=self.stride,
            core=self.core,
            probe_ids=self.probe_ids[lo:hi],
        )

    def table(self) -> list[tuple[str, float, float]]:
        """Rows ``(size, cycles, gradient)`` for pretty-printing."""
        grads = self.gradients
        rows = []
        for i, (size, cyc) in enumerate(zip(self.sizes, self.cycles)):
            grad = float(grads[i]) if i < len(grads) else float("nan")
            rows.append((format_size(int(size)), float(cyc), grad))
        return rows


def run_mcalibrator(
    backend: Backend,
    core: int = 0,
    min_cache: int = MIN_CACHE,
    max_cache: int = MAX_CACHE,
    stride: int = STRIDE,
    samples: int = SAMPLES,
) -> McalibratorResult:
    """Run the Fig. 1 loop on ``core`` and return (S, C).

    ``stride`` is exposed for the prefetcher ablation; production use
    should keep the 1 KB default for the reasons above.

    ``samples`` fresh allocations are measured per size and averaged:
    on a physically indexed cache the conflict pattern depends on the
    random page placement of the run, so a single allocation is a
    one-draw sample of the binomial model the detector fits.
    """
    if samples < 1:
        raise MeasurementError("samples must be >= 1")
    sizes = default_sizes(min_cache, max_cache)
    cycles = []
    probe_ids = []
    for size in sizes:
        # Small allocations cover few pages, so the conflict-miss rate
        # of a single random placement has huge variance (one crowded
        # color dominates).  Scale the sample count to keep the total
        # number of page placements per point roughly constant.
        n_pages = max(1, size // backend.page_size)
        n_samples = samples * min(8, max(1, -(-64 // n_pages)))
        probe_ids.append(probe_id(TraversalProbe(((core, size),), stride, 0)))
        cycles.append(
            float(
                np.mean(
                    [
                        backend.traversal_cycles([(core, size)], stride)[core]
                        for _ in range(n_samples)
                    ]
                )
            )
        )
    return McalibratorResult(
        sizes=np.array(sizes),
        cycles=np.array(cycles),
        stride=stride,
        core=core,
        probe_ids=probe_ids,
    )
