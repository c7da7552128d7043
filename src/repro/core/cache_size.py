"""Cache level and size detection (paper Fig. 4).

Drives mcalibrator, analyzes the gradient curve ``C[k+1]/C[k]`` and
dispatches each rise to the right size estimator:

- the **first** peak is the virtually indexed L1: its size is read
  positionally (the last array size before the jump);
- a later peak confined to a **single** array size means the OS applies
  page coloring (the cache behaves as virtually indexed): positional
  read again;
- a **wide** peak is the physically indexed, randomly paged case:
  the probabilistic algorithm (Fig. 3) runs on the points around the
  peak where the gradient exceeds 1;
- a still-rising **tail** at the largest sizes also goes to the
  probabilistic algorithm (the cache is near or beyond MAX_CACHE).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..backends.base import Backend
from ..errors import DetectionError
from ..obs.provenance import ParameterProvenance
from ..planner.plan import TraversalProbe, probe_id
from .mcalibrator import MAX_CACHE, SAMPLES, STRIDE, McalibratorResult, run_mcalibrator
from .probabilistic import ProbabilisticEstimate, probabilistic_cache_size

#: A gradient above this marks a significant rise (5 % over flat).
GRADIENT_THRESHOLD: float = 1.05
#: Region edges are extended outwards while the gradient exceeds this.
EXTEND_THRESHOLD: float = 1.01
#: Valley depth (relative to the smaller neighbouring peak's height
#: above 1) below which two maxima in one region are split apart.
VALLEY_FRACTION: float = 0.5
#: Total cycles rise ``C[end] / C[start]`` a region must show to count
#: as a cache boundary (filters single-point measurement noise).
MIN_RISE: float = 1.3
#: Two probabilistic levels carved out of the *same* raw gradient
#: region whose size estimates sit closer than this ratio are one cache
#: whose wide binomial rise got valley-split by noise: real hierarchies
#: keep a factor >= 2 between consecutive level capacities.
MERGE_RATIO: float = 1.75


@dataclass
class CacheLevelEstimate:
    """One detected cache level."""

    level: int
    size: int
    #: "l1-peak", "positional" (page-coloring case) or "probabilistic".
    method: str
    #: Index range ``[lo, hi)`` of mcalibrator points used.
    used_range: tuple[int, int]
    #: Present when the probabilistic algorithm produced the estimate.
    probabilistic: ProbabilisticEstimate | None = None
    #: Probe IDs / cycle measurements behind the estimate when they do
    #: not come from the shared mcalibrator sweep (the densified
    #: refinement pass issues its own probes); empty otherwise — the
    #: provenance builder then reads the mcalibrator window directly.
    probe_ids: list[str] = field(default_factory=list)
    probe_cycles: list[float] = field(default_factory=list)


@dataclass
class CacheDetectionResult:
    """All cache levels detected from one mcalibrator run."""

    levels: list[CacheLevelEstimate]
    mcalibrator: McalibratorResult
    page_size: int
    diagnostics: dict = field(default_factory=dict)

    @property
    def sizes(self) -> list[int]:
        """Detected sizes, L1 first."""
        return [lvl.size for lvl in self.levels]

    def provenance_records(self) -> list[ParameterProvenance]:
        """One ``cache.L<n>.size`` evidence trail per detected level."""
        records = []
        for lvl in self.levels:
            if lvl.probe_ids:
                pids = list(lvl.probe_ids)
                cycles = list(lvl.probe_cycles)
            else:
                lo, hi = lvl.used_range
                hi = min(hi, len(self.mcalibrator.sizes))
                pids = _window_probe_ids(self.mcalibrator, lo, hi)
                cycles = [float(c) for c in self.mcalibrator.cycles[lo:hi]]
            records.append(
                ParameterProvenance(
                    parameter=f"cache.L{lvl.level}.size",
                    value=lvl.size,
                    method=lvl.method,
                    probes=pids,
                    measurements=dict(zip(pids, cycles)),
                    note=(
                        f"mcalibrator window [{lvl.used_range[0]}, "
                        f"{lvl.used_range[1]}), stride "
                        f"{self.mcalibrator.stride}"
                    ),
                )
            )
        return records


def _window_probe_ids(mres: McalibratorResult, lo: int, hi: int) -> list[str]:
    """Probe IDs for mcalibrator points ``[lo, hi)``.

    Falls back to recomputing the IDs when the result was built without
    them (direct construction in analysis-only paths): the sample-0
    representative probe is fully determined by (core, size, stride).
    """
    if mres.probe_ids:
        return list(mres.probe_ids[lo:hi])
    return [
        probe_id(TraversalProbe(((mres.core, int(size)),), mres.stride, 0))
        for size in mres.sizes[lo:hi]
    ]


def _gradient_regions(gradients: np.ndarray) -> list[tuple[int, int]]:
    """Contiguous index runs (inclusive) where the gradient is a rise."""
    above = gradients > GRADIENT_THRESHOLD
    regions: list[tuple[int, int]] = []
    start: int | None = None
    for i, flag in enumerate(above):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            regions.append((start, i - 1))
            start = None
    if start is not None:
        regions.append((start, len(above) - 1))
    return regions


def _prominent_peaks(values: np.ndarray, height: float, prominence: float) -> list[int]:
    """Indices of the peaks of ``values`` at least ``height`` tall and
    ``prominence`` prominent (both inclusive).

    A peak is a strict local maximum away from both ends; a flat top
    reports its middle index, rounded down.  Its prominence is its height
    above the higher of its two bases, each the lowest value passed
    while walking out until a strictly higher value or the array edge.
    These are ``scipy.signal.find_peaks`` semantics.
    """
    x = values.tolist()
    last = len(x) - 1
    peaks: list[int] = []
    i = 1
    while i < last:
        if x[i - 1] < x[i]:
            ahead = i + 1
            while ahead < last and x[ahead] == x[i]:
                ahead += 1
            if x[ahead] < x[i]:
                peaks.append((i + ahead - 1) // 2)
                i = ahead
        i += 1

    def base(peak: int, step: int) -> float:
        lowest, j = x[peak], peak
        while 0 <= j <= last and x[j] <= x[peak]:
            lowest = min(lowest, x[j])
            j += step
        return lowest

    return [
        peak
        for peak in peaks
        if x[peak] >= height
        and x[peak] - max(base(peak, -1), base(peak, 1)) >= prominence
    ]


def _split_at_valleys(gradients: np.ndarray, lo: int, hi: int) -> list[tuple[int, int]]:
    """Split ``[lo, hi]`` at deep valleys between *prominent* maxima.

    Two caches with close sizes produce overlapping rises whose gradient
    region never dips under the threshold; a valley dropping below
    ``1 + VALLEY_FRACTION * (min(peak heights) - 1)`` between two
    prominent peaks separates them.  Prominence filtering
    (``_prominent_peaks``) ignores the small local maxima measurement
    noise sprinkles over a wide binomial smear.
    """
    segment = gradients[lo : hi + 1]
    if len(segment) < 3:
        return [(lo, hi)]
    # Fixed prominence: well above measurement-noise jitter on the
    # gradient (a few percent), well below any real cache boundary's
    # rise.  Scaling it with the tallest peak would suppress a genuine
    # small peak sitting next to a huge L1 cliff.
    prominence = 0.15
    # Pad with flat gradient so a maximum sitting on the region boundary
    # still counts as a peak (peaks are never reported at endpoints).
    padded = np.concatenate(([1.0], segment, [1.0]))
    peaks = [
        peak - 1  # back to segment coordinates
        for peak in _prominent_peaks(
            padded - 1.0, height=GRADIENT_THRESHOLD - 1.0, prominence=prominence
        )
    ]
    if len(peaks) <= 1:
        return [(lo, hi)]
    pieces: list[tuple[int, int]] = []
    piece_start = lo
    for left, right in zip(peaks, peaks[1:]):
        valley_rel = int(np.argmin(segment[left : right + 1])) + left
        depth_cut = 1.0 + VALLEY_FRACTION * (
            min(segment[left], segment[right]) - 1.0
        )
        if segment[valley_rel] < depth_cut:
            pieces.append((piece_start, lo + valley_rel))
            piece_start = lo + valley_rel + 1
    pieces.append((piece_start, hi))
    return pieces


def _extend_region(
    gradients: np.ndarray,
    lo: int,
    hi: int,
    lo_bound: int = 0,
    hi_bound: int | None = None,
) -> tuple[int, int]:
    """Grow the region while the gradient stays above EXTEND_THRESHOLD.

    ``lo_bound``/``hi_bound`` clamp the growth so a region never bleeds
    into a neighbouring region's rise (two nearby cache levels connected
    by a shallow noisy valley would otherwise contaminate each other's
    probabilistic windows).
    """
    if hi_bound is None:
        hi_bound = len(gradients) - 1
    while lo > lo_bound and gradients[lo - 1] > EXTEND_THRESHOLD:
        lo -= 1
    while hi < hi_bound and gradients[hi + 1] > EXTEND_THRESHOLD:
        hi += 1
    return lo, hi


def detect_cache_levels(
    mres: McalibratorResult,
    page_size: int,
) -> CacheDetectionResult:
    """Apply the Fig. 4 decision procedure to an mcalibrator result."""
    gradients = mres.gradients
    raw_regions = _gradient_regions(gradients)
    if not raw_regions:
        raise DetectionError(
            "no gradient peaks found: no cache boundary lies inside the "
            "probed size range"
        )
    split_regions: list[tuple[int, int]] = []
    for lo, hi in raw_regions:
        split_regions.extend(_split_at_valleys(gradients, lo, hi))
    split_regions.sort()

    # The L1 cliff is always a single-point jump (virtually indexed,
    # exact capacity), but on machines whose L2 sits close above the L1
    # the conflict smear starts immediately and the gradient never dips
    # back under the threshold: the first region then contains both.
    # Split it deterministically at the L1 peak.
    lo0, hi0 = split_regions[0]
    peak0 = int(np.argmax(gradients[lo0 : hi0 + 1])) + lo0
    if hi0 > peak0 and mres.cycles[hi0 + 1] / mres.cycles[peak0 + 1] >= MIN_RISE:
        split_regions[0] = (lo0, peak0)
        if len(split_regions) > 1 and split_regions[1][0] == hi0 + 1:
            # The residual is the foot of the next region's rise (the
            # earlier valley split put the boundary inside it): merge.
            split_regions[1] = (peak0 + 1, split_regions[1][1])
        else:
            split_regions.insert(1, (peak0 + 1, hi0))

    # Extend each region towards its neighbours (never across them) and
    # drop regions whose total cycles rise is insignificant: a lone
    # noisy gradient point is not a cache boundary.  Each surviving
    # region remembers which *raw* (pre-split) region it came from so
    # the post-hoc merge below can tell "two rises split by a valley"
    # apart from "two separate rises".
    regions: list[tuple[int, int, int, int]] = []  # (lo, hi, xlo, xhi)
    origins: list[int] = []
    for i, (lo, hi) in enumerate(split_regions):
        lo_bound = split_regions[i - 1][1] + 1 if i > 0 else 0
        hi_bound = (
            split_regions[i + 1][0] - 1
            if i + 1 < len(split_regions)
            else len(gradients) - 1
        )
        xlo, xhi = _extend_region(gradients, lo, hi, lo_bound, hi_bound)
        rise = mres.cycles[xhi + 1] / mres.cycles[xlo]
        if rise >= MIN_RISE:
            regions.append((lo, hi, xlo, xhi))
            origins.append(
                next(
                    (
                        raw_idx
                        for raw_idx, (rlo, rhi) in enumerate(raw_regions)
                        if rlo <= lo <= rhi
                    ),
                    -1 - i,
                )
            )
    if not regions:
        raise DetectionError(
            "gradient peaks were all insignificant; no cache boundary "
            "stands out of the measurement noise"
        )

    levels: list[CacheLevelEstimate] = []
    for region_idx, (lo, hi, xlo, xhi) in enumerate(regions):
        level_number = region_idx + 1
        if region_idx == 0:
            # L1 is virtually indexed: positional read at the peak.
            peak = int(np.argmax(gradients[lo : hi + 1])) + lo
            levels.append(
                CacheLevelEstimate(
                    level=level_number,
                    size=int(mres.sizes[peak]),
                    method="l1-peak",
                    used_range=(peak, peak + 2),
                )
            )
            continue
        # "Peak is related only to a single array size" (Fig. 4): the
        # OS used page coloring, so the cache behaves as virtually
        # indexed.  Noise can smudge a one-point cliff into a short
        # region, so the test is dominance: does one gradient jump
        # carry (almost) the whole rise of the window?
        window = gradients[xlo : xhi + 1]
        peak = int(np.argmax(window)) + xlo
        total_log_rise = float(np.log(mres.cycles[xhi + 1] / mres.cycles[xlo]))
        peak_share = float(np.log(gradients[peak])) / total_log_rise
        # 0.93: a true coloring cliff carries ~99% of the rise in one
        # jump; even the steepest binomial transition (few page colors,
        # e.g. a 512KB/16-way cache with 8 colors) stays below ~0.85.
        if peak_share > 0.93:
            levels.append(
                CacheLevelEstimate(
                    level=level_number,
                    size=int(mres.sizes[peak]),
                    method="positional",
                    used_range=(peak, peak + 2),
                )
            )
            continue
        # Wide peak: probabilistic algorithm over the points where the
        # gradient exceeds 1 around the peak (plus the bounding plateau
        # points so miss rates normalize correctly).
        c_lo, c_hi = xlo, xhi + 2  # C-index window [c_lo, c_hi)
        estimate = probabilistic_cache_size(
            mres.sizes[c_lo:c_hi], mres.cycles[c_lo:c_hi], page_size
        )
        levels.append(
            CacheLevelEstimate(
                level=level_number,
                size=estimate.size,
                method="probabilistic",
                used_range=(c_lo, c_hi),
                probabilistic=estimate,
            )
        )

    # A valley split can cut one cache's wide binomial rise in two when
    # noise digs a deep enough dip between two apparent maxima: both
    # halves then pass MIN_RISE and yield probabilistic estimates a few
    # tens of percent apart.  No real hierarchy has consecutive levels
    # that close, so merge adjacent probabilistic estimates that came
    # from the same raw region and sit within MERGE_RATIO, re-fitting
    # over the combined window.
    merges: list[tuple[int, int]] = []
    i = 0
    while i + 1 < len(levels):
        a, b = levels[i], levels[i + 1]
        if (
            a.method == "probabilistic"
            and b.method == "probabilistic"
            and origins[i] == origins[i + 1]
            and max(a.size, b.size) < MERGE_RATIO * min(a.size, b.size)
        ):
            c_lo = min(a.used_range[0], b.used_range[0])
            c_hi = max(a.used_range[1], b.used_range[1])
            estimate = probabilistic_cache_size(
                mres.sizes[c_lo:c_hi], mres.cycles[c_lo:c_hi], page_size
            )
            merges.append((a.size, b.size))
            levels[i] = CacheLevelEstimate(
                level=a.level,
                size=estimate.size,
                method="probabilistic",
                used_range=(c_lo, c_hi),
                probabilistic=estimate,
            )
            del levels[i + 1]
            del origins[i + 1]
            # Stay on i: the merged estimate may now sit close to the
            # next level carved from the same raw region.
        else:
            i += 1
    for number, lvl in enumerate(levels, start=1):
        lvl.level = number

    return CacheDetectionResult(
        levels=levels,
        mcalibrator=mres,
        page_size=page_size,
        diagnostics={
            "regions": regions,
            "raw_regions": raw_regions,
            "merged_levels": merges,
            "origins": origins,
        },
    )


#: Probabilistic windows with fewer points than this get densified.
MIN_WINDOW_POINTS: int = 8


def _refine_probabilistic(
    backend: Backend,
    core: int,
    stride: int,
    estimate: CacheLevelEstimate,
    mres: McalibratorResult,
) -> CacheLevelEstimate:
    """Re-estimate a level from a densified size sweep over its window.

    The Fig. 1 schedule doubles sizes below 2 MB, leaving only a handful
    of points across a small L2's rise — too few for a stable fit.  This
    adaptive pass re-measures the window with an even step (a refinement
    over the original suite, documented in DESIGN.md).
    """
    import numpy as np  # local alias for clarity

    c_lo, c_hi = estimate.used_range
    lo_size = int(mres.sizes[c_lo])
    hi_size = int(mres.sizes[min(c_hi - 1, len(mres.sizes) - 1)])
    span = hi_size - lo_size
    step = max((span // 14) // stride * stride, stride)
    sizes = list(range(lo_size, hi_size + 1, step))
    if len(sizes) < 4:
        return estimate
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
    refined = probabilistic_cache_size(
        np.asarray(sizes, dtype=np.float64),
        np.asarray(cycles, dtype=np.float64),
        backend.page_size,
    )
    return CacheLevelEstimate(
        level=estimate.level,
        size=refined.size,
        method="probabilistic-refined",
        used_range=estimate.used_range,
        probabilistic=refined,
        probe_ids=[
            probe_id(TraversalProbe(((core, size),), stride, 0))
            for size in sizes
        ],
        probe_cycles=cycles,
    )


def detect_caches(
    backend: Backend,
    core: int = 0,
    stride: int = STRIDE,
) -> CacheDetectionResult:
    """Run mcalibrator on ``backend`` and detect levels (Fig. 4 driver).

    The sweep covers the paper's ``MIN_CACHE`` to :data:`MAX_CACHE` and
    averages :data:`~repro.core.mcalibrator.SAMPLES` allocations per
    size.  Probabilistic estimates whose analysis window contains fewer
    than :data:`MIN_WINDOW_POINTS` measurements are re-estimated from a
    densified sweep of the window.
    """
    mres = run_mcalibrator(backend, core=core, max_cache=MAX_CACHE, stride=stride)
    result = detect_cache_levels(mres, backend.page_size)
    for i, est in enumerate(result.levels):
        c_lo, c_hi = est.used_range
        if est.method == "probabilistic" and c_hi - c_lo < MIN_WINDOW_POINTS:
            result.levels[i] = _refine_probabilistic(backend, core, stride, est, mres)
    _merge_refined_levels(result, backend, core, stride, mres)
    return result


def _merge_refined_levels(
    result: CacheDetectionResult,
    backend: Backend,
    core: int,
    stride: int,
    mres: McalibratorResult,
) -> None:
    """Re-run the close-levels merge after refinement (in place).

    The coarse estimates of a valley-split rise can sit far apart (each
    fit only saw half the transition), so the in-analysis merge misses
    them; refinement then pulls both towards the true capacity and the
    artifact becomes visible as two levels within :data:`MERGE_RATIO`
    of each other inside one raw gradient region.  The merged level is
    re-fitted from a densified sweep over the combined window.
    """
    levels = result.levels
    origins = list(result.diagnostics.get("origins", []))
    if len(origins) != len(levels):
        return
    i = 0
    while i + 1 < len(levels):
        a, b = levels[i], levels[i + 1]
        if (
            a.method.startswith("probabilistic")
            and b.method.startswith("probabilistic")
            and origins[i] == origins[i + 1]
            and max(a.size, b.size) < MERGE_RATIO * min(a.size, b.size)
        ):
            c_lo = min(a.used_range[0], b.used_range[0])
            c_hi = max(a.used_range[1], b.used_range[1])
            seed_est = CacheLevelEstimate(
                level=a.level, size=0, method="probabilistic",
                used_range=(c_lo, c_hi),
            )
            merged = _refine_probabilistic(
                backend, core, stride, seed_est, mres
            )
            if merged is seed_est:  # window too narrow to densify
                estimate = probabilistic_cache_size(
                    mres.sizes[c_lo:c_hi], mres.cycles[c_lo:c_hi],
                    backend.page_size,
                )
                merged = CacheLevelEstimate(
                    level=a.level, size=estimate.size, method="probabilistic",
                    used_range=(c_lo, c_hi), probabilistic=estimate,
                )
            levels[i] = merged
            del levels[i + 1]
            del origins[i + 1]
            result.diagnostics.setdefault("merged_levels", []).append(
                (a.size, b.size)
            )
        else:
            i += 1
    for number, lvl in enumerate(levels, start=1):
        lvl.level = number
    result.diagnostics["origins"] = origins
