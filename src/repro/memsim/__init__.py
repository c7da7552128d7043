"""Memory-hierarchy simulator.

The substrate that replaces real hardware (see DESIGN.md §2): explicit
set-associative caches with LRU replacement, virtual/physical set
indexing under configurable page-placement policies, a stride-prefetcher
model, an analytic steady-state traversal engine for mcalibrator-style
workloads (single-core and concurrent), and a max-min fair bandwidth
allocator over the machine's bandwidth-domain tree.
"""

from .cache import SetAssociativeCache, MultiLevelSimulator, TraceAccess
from .outcome import (
    GLOBAL_COMM_CACHE,
    GLOBAL_OUTCOME_CACHE,
    clear_global_cache,
    stream_identity,
)
from .paging import (
    PagePolicy,
    RandomPaging,
    ColoredPaging,
    ContiguousPaging,
    AddressSpace,
)
from .prefetch import PrefetchModel
from .tlb import TLBSpec
from .traversal import (
    Traversal,
    TraversalEngine,
    TraversalResult,
    strided_addresses,
)
from .bandwidth import allocate_bandwidth, effective_bandwidth_curve
from .matmul import (
    MatmulCostEstimate,
    best_tile,
    blocked_matmul_cost,
    tile_sweep,
)
from .stream import stream_copy_bandwidth

__all__ = [
    "GLOBAL_COMM_CACHE",
    "GLOBAL_OUTCOME_CACHE",
    "clear_global_cache",
    "stream_identity",
    "SetAssociativeCache",
    "MultiLevelSimulator",
    "TraceAccess",
    "PagePolicy",
    "RandomPaging",
    "ColoredPaging",
    "ContiguousPaging",
    "AddressSpace",
    "PrefetchModel",
    "TLBSpec",
    "Traversal",
    "TraversalEngine",
    "TraversalResult",
    "strided_addresses",
    "allocate_bandwidth",
    "MatmulCostEstimate",
    "best_tile",
    "blocked_matmul_cost",
    "tile_sweep",
    "effective_bandwidth_curve",
    "stream_copy_bandwidth",
]
