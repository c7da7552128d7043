"""X-Ray-style positional cache detection (baseline).

X-Ray (Yotov, Pingali & Stodghill) and its multicore successor P-Ray
estimate every cache level positionally: run a strided traversal over
growing array sizes and read each level's size off the position of the
corresponding jump in the cycles curve.  That is exact for virtually
indexed caches and for physically indexed caches *when the working set
is physically contiguous* (the superpage requirement the paper
criticizes as non-portable) — and systematically wrong under random
page placement, where the conflict smear starts well before the
capacity and the steepest gradient sits below the true size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..backends.base import Backend
from ..core.cache_size import MIN_RISE, _extend_region, _gradient_regions
from ..core.mcalibrator import MAX_CACHE, McalibratorResult, run_mcalibrator
from ..errors import DetectionError


@dataclass
class XRayResult:
    """Positional estimates, L1 first."""

    sizes: list[int]
    mcalibrator: McalibratorResult


def xray_cache_sizes(backend: Backend) -> XRayResult:
    """Estimate every cache level positionally (the X-Ray approach).

    The sweep is Servet's own mcalibrator run on core 0, with its paper
    range, stride and sample count.  Each significant gradient region
    contributes one level whose size is the array size at the region's
    steepest gradient.  No probabilistic correction is applied — this
    is the baseline the paper improves on.
    """
    mres = run_mcalibrator(backend, max_cache=MAX_CACHE)
    gradients = mres.gradients
    regions = _gradient_regions(gradients)
    if not regions:
        raise DetectionError("no gradient peaks in the probed range")
    sizes: list[int] = []
    for i, (lo, hi) in enumerate(regions):
        lo_bound = regions[i - 1][1] + 1 if i > 0 else 0
        hi_bound = (
            regions[i + 1][0] - 1 if i + 1 < len(regions) else len(gradients) - 1
        )
        xlo, xhi = _extend_region(gradients, lo, hi, lo_bound, hi_bound)
        if mres.cycles[xhi + 1] / mres.cycles[xlo] < MIN_RISE:
            continue
        peak = int(np.argmax(gradients[lo : hi + 1])) + lo
        sizes.append(int(mres.sizes[peak]))
    if not sizes:
        raise DetectionError("no significant rises in the probed range")
    return XRayResult(sizes=sizes, mcalibrator=mres)
