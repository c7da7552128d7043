"""STREAM-style copy bandwidth measurement on the simulated machine.

Servet's memory-overhead benchmark (Fig. 6) measures the bandwidth of
copying one array into another, with both arrays too large for any
cache, on one isolated core and then on pairs/groups of concurrent
cores.  On the substrate that is exactly the max-min fair allocation of
each core's streaming demand through the bandwidth-domain tree.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..errors import MeasurementError
from ..topology.machine import Machine
from .bandwidth import allocate_bandwidth


def stream_copy_bandwidth(machine: Machine, cores: Sequence[int]) -> dict[int, float]:
    """Copy bandwidth (bytes/s) per core with ``cores`` running concurrently.

    The arrays are taken to be four times the largest cache, STREAM's
    rule that the working set must defeat every cache level, so the
    bandwidth is the memory path's alone.
    """
    if not cores:
        raise MeasurementError("need at least one active core")
    if len(set(cores)) != len(cores):
        raise MeasurementError("duplicate cores in concurrent stream run")
    for core in cores:
        if not (0 <= core < machine.n_cores):
            raise MeasurementError(f"core {core} out of range for {machine.name}")
    demands = {core: machine.core_stream_bw for core in cores}
    return allocate_bandwidth(machine.bandwidth_root, demands)
