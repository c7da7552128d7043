"""TLB entry-count detection (extension).

Servet's methodological ancestor (Saavedra & Smith, ref. [15] of the
paper) measures the TLB with the same traverse-and-watch-the-cliff idea
as mcalibrator.  The probe accesses one line per page with a stride of
``page_size + line_size``:

- crossing a page per access makes the virtual page number the fast
  variable, so the TLB (virtually indexed) produces a sharp cliff
  exactly at its entry count;
- the extra line per access spreads the lines over *all* cache sets, so
  cache-capacity effects appear only near ``CS / line_size`` accessed
  pages — far from typical TLB entry counts — and can be discounted
  using the already-detected hierarchy.

A TLB whose entry count coincides with a cache's line capacity
(``CS / line_size``) is genuinely ambiguous under this probe; the
detector then reports ``None`` rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..backends.base import Backend
from .cache_size import MIN_RISE, _extend_region, _gradient_regions
from .mcalibrator import McalibratorResult

#: Cache line size assumed by the probe (the suite's compile-time
#: assumption; every machine modelled here uses 64-byte lines).
LINE_SIZE: int = 64
#: Fresh allocations averaged per probed size.
SAMPLES: int = 3
#: Probed page counts: powers of two from ``MIN_PAGES`` to ``MAX_PAGES``.
MIN_PAGES: int = 4
MAX_PAGES: int = 8192


@dataclass
class TLBDetection:
    """Outcome of the TLB probe."""

    #: Detected entry count, or None if no unambiguous TLB cliff was
    #: visible in the probed range.
    entries: int | None
    #: The raw sweep (sizes are ``pages * (page_size + LINE_SIZE)``).
    mcalibrator: McalibratorResult
    #: Gradient regions attributed to cache capacity and skipped.
    discounted_regions: list[tuple[int, int]]


def detect_tlb_entries(
    backend: Backend,
    cache_sizes: list[int],
    core: int = 0,
) -> TLBDetection:
    """Detect the TLB entry count (None when nothing unambiguous shows).

    Parameters
    ----------
    backend:
        Measurement backend.
    cache_sizes:
        The already-detected cache hierarchy; gradient rises positioned
        near a cache's line capacity are capacity artifacts of this
        stride and are discounted.
    """
    stride = backend.page_size + LINE_SIZE
    sizes: list[int] = []
    n = MIN_PAGES
    while n <= MAX_PAGES:
        sizes.append(n * stride)
        n *= 2
    cycles = [
        float(
            np.mean(
                [
                    backend.traversal_cycles([(core, size)], stride)[core]
                    for _ in range(SAMPLES)
                ]
            )
        )
        for size in sizes
    ]
    mres = McalibratorResult(
        sizes=np.array(sizes), cycles=np.array(cycles), stride=stride, core=core
    )

    # Page counts at which a cache's capacity bites under this probe.
    cache_cliffs = [cs // LINE_SIZE for cs in cache_sizes]
    gradients = mres.gradients
    discounted: list[tuple[int, int]] = []
    discounted_delta: dict[int, float] = {}
    candidates: list[int] = []
    # Worklist: a region whose dominant jump is a cache artifact may
    # still hide the TLB cliff in its remainder (e.g. a 1024-entry TLB
    # right next to a 512-line L1 capacity cliff), so split at the
    # discounted peak and keep looking.
    worklist = [(lo, hi, lo, hi) for lo, hi in _gradient_regions(gradients)]
    while worklist:
        lo, hi, lo_bound, hi_bound = worklist.pop(0)
        if lo > hi:
            continue
        xlo, xhi = _extend_region(gradients, lo, hi, lo_bound, hi_bound)
        if mres.cycles[xhi + 1] / mres.cycles[xlo] < MIN_RISE:
            continue
        peak = int(np.argmax(gradients[lo : hi + 1])) + lo
        if gradients[peak] < MIN_RISE:
            continue  # remainder too weak to be a TLB cliff
        pages_at_peak = int(mres.sizes[peak]) // stride
        if any(cliff / 1.5 <= pages_at_peak <= cliff * 1.5
               for cliff in cache_cliffs):
            discounted.append((peak, peak))
            discounted_delta[peak] = float(
                mres.cycles[peak + 1] - mres.cycles[peak]
            )
            worklist.insert(0, (lo, peak - 1, lo_bound, peak - 1))
            worklist.insert(1, (peak + 1, hi, peak + 1, hi_bound))
            continue
        # A candidate right next to a discounted cache cliff can be the
        # *foot* of that same transition (the probe's page numbers are
        # not perfectly consecutive, so a sliver of conflicts precedes
        # the exact capacity).  A real TLB cliff carries a page-walk's
        # worth of cycles; a foot carries a small fraction of the main
        # jump.  Require a comparable delta before believing it.
        delta = float(mres.cycles[peak + 1] - mres.cycles[peak])
        neighbour = next(
            (d for p, d in discounted_delta.items() if abs(p - peak) == 1), None
        )
        if neighbour is not None and delta < 0.25 * neighbour:
            continue
        candidates.append(pages_at_peak)
    return TLBDetection(
        entries=min(candidates) if candidates else None,
        mcalibrator=mres,
        discounted_regions=discounted,
    )
