"""Tile-size selection from detected cache sizes.

"Tiling is one of the most widely used optimization techniques and our
suite can help to this technique by providing all the cache sizes in a
portable way" (Section V).  The classic rule: the working set of one
tile iteration — every array block the kernel touches — must fit in a
*fraction* of the target cache (leaving room for other data, and
because a physically indexed cache under random paging thrashes well
before 100% utilization: the very effect Servet's Fig. 3 models).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.report import ServetReport
from ..errors import ReproError

#: Fraction of a cache a tile working set should use.  2/3 mirrors the
#: shared-cache benchmark's observation that (2/3)*CS already conflicts.
DEFAULT_FILL_FRACTION: float = 0.5

#: Cache line size the tile and traffic models assume (bytes).
LINE_SIZE: int = 64
#: float64 elements per :data:`LINE_SIZE` line (the traffic model's unit).
LINE_ELEMS: int = LINE_SIZE // 8


def tile_elements(
    report: ServetReport,
    level: int,
    n_arrays: int,
    elem_size: int,
    fill_fraction: float = DEFAULT_FILL_FRACTION,
) -> int:
    """Elements per array tile so ``n_arrays`` tiles fit in cache ``level``.

    >>> # report with a 32 KB L1, two arrays of float64:
    >>> # 32768 * 0.5 / (2 * 8) = 1024 elements per tile
    """
    if n_arrays < 1 or elem_size < 1:
        raise ReproError("n_arrays and elem_size must be positive")
    if not (0.0 < fill_fraction <= 1.0):
        raise ReproError("fill_fraction must be in (0, 1]")
    for cache in report.caches:
        if cache.level == level:
            budget = cache.size * fill_fraction
            return max(1, int(budget // (n_arrays * elem_size)))
    raise ReproError(f"report has no cache level {level}")


def matmul_tile_side(
    report: ServetReport,
    level: int,
    elem_size: int = 8,
    fill_fraction: float | None = None,
) -> int:
    """Square tile side ``b`` for blocked matmul targeting cache ``level``.

    One iteration touches three ``b x b`` blocks (A, B and C).  With an
    explicit ``fill_fraction`` the classic rule applies:
    ``3 * b^2 * elem_size <= fill_fraction * CS``.

    By default (``fill_fraction=None``) the choice is **conflict-aware**
    when the report carries the level's associativity (a free by-product
    of the probabilistic detection): under random page placement a
    physically indexed cache thrashes well before full occupancy, so
    the best tile balances streaming traffic (``~1/b``) against the
    binomial conflict-miss probability of the working set — computed
    from the *measured* size and associativity with the same model the
    detector fits (see :func:`conflict_aware_tile`).  Without a
    measured associativity the classic half-capacity rule is used.
    """
    if fill_fraction is not None:
        per_array = tile_elements(report, level, 3, elem_size, fill_fraction)
        return max(1, int(math.isqrt(per_array)))
    cache = _cache_level(report, level)
    if cache.ways is not None:
        return conflict_aware_tile(report, level, elem_size)
    per_array = tile_elements(report, level, 3, elem_size, DEFAULT_FILL_FRACTION)
    return max(1, int(math.isqrt(per_array)))


def _cache_level(report: ServetReport, level: int):
    for cache in report.caches:
        if cache.level == level:
            return cache
    raise ReproError(f"report has no cache level {level}")


def conflict_aware_tile(
    report: ServetReport, level: int, elem_size: int = 8
) -> int:
    """Tile side minimizing modelled traffic + conflict refetches.

    Cost of tile ``b`` per block interaction, in :data:`LINE_SIZE` cache
    lines of ``L`` elements:
    ``3 b^2 / L  +  m(b) * (2 b^2 (b-1) + b^2) / L`` where ``m(b)`` is
    the working set's conflict-miss probability from the binomial
    page-color model — evaluated with the report's measured size and
    associativity.  All quantities come from measurements; no ground
    truth is consulted.
    """
    import numpy as np

    from ..core.probabilistic import predicted_miss_rate

    cache = _cache_level(report, level)
    if cache.ways is None:
        raise ReproError(
            f"L{level} has no measured associativity; use fill_fraction"
        )
    line_elems = max(LINE_SIZE // elem_size, 1)
    colors = max(cache.size // (cache.ways * report.page_size), 1)
    max_side = int(math.isqrt(cache.size // (3 * elem_size)))
    best_side, best_cost = 1, float("inf")
    side = 16
    while side <= max_side:
        ws_bytes = 3 * side * side * elem_size
        n_pages = max(ws_bytes // report.page_size, 1)
        miss = float(
            predicted_miss_rate(
                np.array([n_pages], dtype=np.float64), cache.ways, 1.0 / colors
            )[0]
        )
        streaming = 3.0 * side * side / line_elems
        refetch = miss * (2.0 * side * side * (side - 1) + side * side) / line_elems
        # Normalize per multiply-add (b^3) so sides are comparable.
        cost = (streaming + refetch) / side**3
        if cost < best_cost:
            best_side, best_cost = side, cost
        side += 16 if side < 256 else 32
    return best_side


@dataclass
class TilePlan:
    """Tile sides per cache level for a blocked matmul."""

    sides: dict[int, int]

    def innermost(self) -> int:
        """Tile side for the smallest (L1) level."""
        return self.sides[min(self.sides)]

    def outermost(self) -> int:
        """Tile side for the largest cache level."""
        return self.sides[max(self.sides)]


def matmul_plan(report: ServetReport, elem_size: int = 8) -> TilePlan:
    """Tile sides for every detected cache level (multi-level blocking),
    each from the classic :data:`DEFAULT_FILL_FRACTION` rule."""
    return TilePlan(
        sides={
            cache.level: matmul_tile_side(
                report, cache.level, elem_size, DEFAULT_FILL_FRACTION
            )
            for cache in report.caches
        }
    )


def matmul_traffic(n: int, tile: int | None) -> float:
    """Modelled cache-line traffic of an ``n x n`` float64 matmul (lines
    fetched, :data:`LINE_ELEMS` elements per line).

    The standard blocking analysis (e.g. Hennessy & Patterson):

    - untiled (``tile=None``): every element of B is refetched for each
      of the n iterations of i — ``n^3 / LINE_ELEMS`` line fetches
      dominate (A streams, C accumulates in registers).
    - tiled with side ``b``: each of the ``(n/b)^3`` block interactions
      refetches two ``b x b`` blocks — ``2 n^3 / (b * LINE_ELEMS)``
      plus the compulsory ``3 n^2 / LINE_ELEMS``.

    Used by the tiling example to show the measured cache sizes turning
    into a traffic reduction; not a timing model.
    """
    if n <= 0:
        raise ReproError("matrix dimension must be positive")
    compulsory = 3 * n * n / LINE_ELEMS
    if tile is None or tile >= n:
        return n**3 / LINE_ELEMS + compulsory
    if tile < 1:
        raise ReproError("tile side must be >= 1")
    return 2 * n**3 / (tile * LINE_ELEMS) + compulsory
