"""Plausibility validation of fleet survey results.

A fleet has machines that are not merely slow but *wrong* — failing
DIMMs, broken clocks, firmware that lies.  Their suite runs complete,
so retries and leases never notice; the reports themselves are the
only evidence.  :func:`report_problems` re-uses the resilience layer's
bandwidth and latency windows to ask of a
finished :class:`~repro.core.report.ServetReport`: could a real
machine have produced these numbers?

Only values that are *present* are judged — a degraded report whose
failed phase left a section empty is still plausible (its degradation
is already recorded in ``phase_status``); implausibility means an
existing number no hardware could produce.  Machines that repeatedly
return implausible reports are quarantined by the coordinator.
"""

from __future__ import annotations

import math

from ..core.report import ServetReport
from ..resilience.policy import BANDWIDTH_BOUNDS, LATENCY_BOUNDS, ReadingBounds

__all__ = ["CACHE_BYTES_BOUNDS", "report_problems"]

#: Cache sizes: one cache line .. 100 GiB (generous on purpose — these
#: windows catch broken readings, not unusual hardware).
CACHE_BYTES_BOUNDS = ReadingBounds(32.0, 1e11)


def report_problems(report: ServetReport) -> list[str]:
    """Every implausible reading in ``report``, human-readably.

    An empty list means the report is plausible (which is weaker than
    *correct* — plausibility is the cheapest test that still catches
    negated sizes, NaN bandwidths, and powers-of-ten errors).
    """
    problems: list[str] = []

    previous_size = 0
    for cache in report.caches:
        defect = CACHE_BYTES_BOUNDS.problem(cache.size)
        if defect is not None:
            problems.append(f"L{cache.level} cache size: {defect}")
        elif cache.size <= previous_size:
            problems.append(
                f"L{cache.level} cache size {cache.size} not larger than "
                f"the level below ({previous_size})"
            )
        if defect is None:
            previous_size = cache.size

    if report.caches or report.memory_levels or report.memory_reference:
        defect = BANDWIDTH_BOUNDS.problem(report.memory_reference)
        if defect is not None:
            problems.append(f"memory reference bandwidth: {defect}")
    for i, level in enumerate(report.memory_levels):
        defect = BANDWIDTH_BOUNDS.problem(level.bandwidth)
        if defect is not None:
            problems.append(f"memory overhead level {i} bandwidth: {defect}")

    for layer in report.comm_layers:
        defect = LATENCY_BOUNDS.problem(layer.latency)
        if defect is not None:
            problems.append(f"communication layer {layer.index} latency: {defect}")
        for size, latency, bandwidth in layer.characterization:
            if LATENCY_BOUNDS.problem(latency) is not None:
                problems.append(
                    f"communication layer {layer.index} characterization at "
                    f"{size} B: {LATENCY_BOUNDS.problem(latency)}"
                )
                break

    if report.tlb_entries is not None and report.tlb_entries <= 0:
        problems.append(f"non-positive TLB entry count {report.tlb_entries}")

    for phase, (virtual, wall) in report.timings.items():
        for label, value in (("virtual", virtual), ("wall", wall)):
            if not math.isfinite(value) or value < 0:
                problems.append(f"{phase} {label} time {value!r} is not a duration")

    return problems
