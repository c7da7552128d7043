"""Value clustering and pair-group inference.

Two small algorithms the paper uses repeatedly:

1. The Figs. 6/7 "is similar to a given X[i]" loop — greedy sequential
   clustering of measured values (bandwidths, latencies) by relative
   tolerance.
2. Turning pair lists into core *groups*: the paper's example — pairs
   (0,1), (0,2), (3,4), (3,5) identify groups {0,1,2} and {3,4,5} — is
   connected components of the pair graph, implemented here with a
   union-find.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Hashable, Iterable, Sequence

from ..errors import DetectionError
from ..topology.machine import CorePair


@dataclass
class SimilarityCluster:
    """One cluster of similar measured values."""

    #: Representative value: the running mean of the members.
    value: float
    members: list[Hashable] = field(default_factory=list)
    _total: float = 0.0

    def add(self, key: Hashable, value: float) -> None:
        """Add a member and update the representative (running mean)."""
        self.members.append(key)
        self._total += value
        self.value = self._total / len(self.members)

    def matches(self, value: float, rel_tol: float) -> bool:
        """True if ``value`` is within ``rel_tol`` of the representative."""
        return abs(value - self.value) <= rel_tol * abs(self.value)


def cluster_similar(
    items: Iterable[tuple[Hashable, float]],
    rel_tol: float,
) -> list[SimilarityCluster]:
    """Greedy sequential clustering, as in the paper's Figs. 6 and 7.

    Each item joins the first existing cluster whose representative is
    within ``rel_tol`` relative distance; otherwise it founds a new one.
    Clusters are returned sorted by representative value (ascending),
    which for latencies means fastest layer first.
    """
    if rel_tol < 0:
        raise DetectionError("rel_tol must be >= 0")
    clusters: list[SimilarityCluster] = []
    for key, value in items:
        for cluster in clusters:
            if cluster.matches(value, rel_tol):
                cluster.add(key, value)
                break
        else:
            fresh = SimilarityCluster(value=value)
            fresh.add(key, value)
            clusters.append(fresh)
    return sorted(clusters, key=lambda c: c.value)


class _UnionFind:
    """Minimal union-find over arbitrary integer keys."""

    def __init__(self) -> None:
        self._parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        parent = self._parent.setdefault(x, x)
        if parent != x:
            parent = self.find(parent)
            self._parent[x] = parent
        return parent

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[max(ra, rb)] = min(ra, rb)


def groups_from_pairs(pairs: Sequence[CorePair]) -> list[list[int]]:
    """Connected components of the pair graph, smallest member first.

    >>> groups_from_pairs([(0, 1), (0, 2), (3, 4), (3, 5)])
    [[0, 1, 2], [3, 4, 5]]
    """
    uf = _UnionFind()
    for a, b in pairs:
        uf.union(a, b)
    components: dict[int, list[int]] = {}
    for core in sorted({c for pair in pairs for c in pair}):
        components.setdefault(uf.find(core), []).append(core)
    return sorted(components.values())
