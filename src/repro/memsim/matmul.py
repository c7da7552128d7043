"""Analytic cache-cost model of blocked matrix multiplication.

Used to *validate* the tiling advice derived from a Servet report: for
a given machine (ground truth) and tile side ``b``, estimate the cache
lines fetched by a blocked ``n x n`` matmul.  Two effects shape the
curve over ``b``:

- **traffic**: each of the ``(n/b)^3`` block interactions streams two
  ``b x b`` blocks, so bigger tiles amortize refetches
  (``~ 2 n^3 / b`` elements touched);
- **conflicts/capacity**: the three resident blocks must survive in the
  target cache between reuses; under random page placement their pages
  collide in page colors exactly as in the Fig. 3 binomial model, so
  the *effective* reuse probability of a cached block line is
  ``1 - P(B(NP-1, p) >= K)`` with ``NP`` the pages of the working set.

The result is the classic U-shape: tiny tiles waste bandwidth, tiles
near the cache capacity thrash, and the sweet spot sits around half
the capacity — which is precisely what the advisor's
``fill_fraction = 0.5`` rule targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..topology.cache import CacheLevel, Indexing
from ..topology.machine import Machine

#: Element size of the modelled matrices (float64).
ELEM_SIZE: int = 8
#: Cache level the tiles target (the L2 the tiling ablation validates).
TARGET_LEVEL: int = 2


@dataclass
class MatmulCostEstimate:
    """Estimated cost of one blocked matmul configuration."""

    n: int
    tile: int
    #: Cache lines fetched from beyond the target level (the quantity
    #: tiling minimizes).
    lines_fetched: float
    #: Expected steady-state conflict-miss rate of the tile working set.
    working_set_miss_rate: float


def blocked_matmul_cost(machine: Machine, n: int, tile: int) -> MatmulCostEstimate:
    """Estimate beyond-:data:`TARGET_LEVEL` line fetches of a blocked
    n x n float64 matmul (:data:`ELEM_SIZE`-byte elements).

    ``tile`` is the square block side.  The model counts the element
    traffic of the blocking analysis and inflates the reuse-dependent
    part by the working set's conflict-miss probability in the target
    cache (binomial page-color model for physically indexed caches,
    pure capacity rule for virtually indexed ones).
    """
    if n <= 0 or tile <= 0:
        raise ConfigurationError("n and tile must be positive")
    tile = min(tile, n)
    cache: CacheLevel = machine.level(TARGET_LEVEL)
    spec = cache.spec
    line_elems = max(spec.line_size // ELEM_SIZE, 1)

    # Working set: three b x b blocks.
    ws_bytes = 3 * tile * tile * ELEM_SIZE
    if ws_bytes > spec.size:
        # Pure capacity overflow: no reuse survives.
        miss_rate = 1.0
    elif spec.indexing is Indexing.VIRTUAL:
        miss_rate = 0.0
    else:
        # Imported here: repro.core depends on repro.memsim at package
        # level, so the reverse edge must stay function-local.
        from ..core.probabilistic import predicted_miss_rate

        n_pages = max(ws_bytes // machine.page_size, 1)
        colors = spec.page_colors(machine.page_size)
        miss_rate = float(
            predicted_miss_rate(
                np.array([n_pages], dtype=np.float64), spec.ways, 1.0 / colors
            )[0]
        )

    blocks = (n + tile - 1) // tile
    # Per block interaction (b^3 multiply-adds): the A and B blocks are
    # loaded once (2 b^2 compulsory elements) and then *reused* b-1
    # more times each; a reuse only hits if the line survived in the
    # working set, so each of the ~2 b^2 (b-1) reuse touches refetches
    # its line with the conflict/capacity miss probability.  The C
    # block is resident across the k loop and contributes like one
    # more reused block.
    compulsory_elems = 2.0 * blocks**3 * tile * tile
    reuse_touches = blocks**3 * (2.0 * tile * tile * (tile - 1) + tile * tile)
    refetched = compulsory_elems + reuse_touches * miss_rate
    # Within a block, consecutive elements share lines.
    lines = refetched / line_elems
    return MatmulCostEstimate(
        n=n,
        tile=tile,
        lines_fetched=lines,
        working_set_miss_rate=miss_rate,
    )


def tile_sweep(
    machine: Machine, n: int, tiles: list[int]
) -> list[MatmulCostEstimate]:
    """L2 cost estimates over a list of candidate tile sides."""
    return [blocked_matmul_cost(machine, n, tile) for tile in tiles]


def best_tile(machine: Machine, n: int, tiles: list[int]) -> int:
    """Tile side minimizing the estimated L2 line fetches (oracle answer)."""
    return min(tile_sweep(machine, n, tiles), key=lambda e: e.lines_fetched).tile
