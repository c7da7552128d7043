"""Machine (node) and cluster descriptions.

A :class:`Machine` is one shared-memory node: cores, a stack of cache
levels with sharing groups, processor/cell groupings, a memory
bandwidth-domain tree and the clock frequency.  A :class:`Cluster` is
``n_nodes`` identical machines joined by an interconnect; cores get
*global* ids ``node_index * cores_per_node + local_id``, matching the
flat MPI rank-to-core view the paper's benchmarks use.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from collections.abc import Iterable, Iterator, Sequence

from ..errors import ConfigurationError
from ..units import format_size
from .cache import CacheLevel, CacheOrganization

#: An unordered pair of core ids, stored sorted.
CorePair = tuple[int, int]


def make_pair(a: int, b: int) -> CorePair:
    """Normalize an unordered core pair to ``(min, max)``."""
    if a == b:
        raise ConfigurationError(f"a core pair needs two distinct cores, got ({a},{b})")
    return (a, b) if a < b else (b, a)


def all_pairs(cores: Sequence[int]) -> list[CorePair]:
    """All unordered pairs of the given cores, sorted lexicographically."""
    return [make_pair(a, b) for a, b in itertools.combinations(sorted(cores), 2)]


@dataclass(frozen=True)
class BandwidthDomain:
    """A node in the memory bandwidth-constraint tree.

    ``capacity`` is the aggregate sustainable copy bandwidth (bytes/s)
    of all concurrent accesses by ``cores`` through this domain (a front
    side bus, a cell-local memory controller, a shared bus...).  The
    water-filling allocator in :mod:`repro.memsim.bandwidth` enforces
    every domain on a core's root path simultaneously.
    """

    name: str
    capacity: float
    cores: frozenset[int]
    children: tuple["BandwidthDomain", ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ConfigurationError(f"domain {self.name!r}: capacity must be > 0")
        child_cores: set[int] = set()
        for child in self.children:
            if not child.cores <= self.cores:
                raise ConfigurationError(
                    f"domain {child.name!r} has cores outside parent {self.name!r}"
                )
            if child_cores & child.cores:
                raise ConfigurationError(
                    f"domain {self.name!r}: children overlap on cores "
                    f"{sorted(child_cores & child.cores)}"
                )
            child_cores |= set(child.cores)

    def walk(self) -> Iterator["BandwidthDomain"]:
        """Depth-first iteration over this domain and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def domains_of(self, core: int) -> list["BandwidthDomain"]:
        """All domains on the path from the root to ``core`` that contain it."""
        if core not in self.cores:
            return []
        path = [self]
        for child in self.children:
            sub = child.domains_of(core)
            if sub:
                path.extend(sub)
                break
        return path


@dataclass(frozen=True)
class CoreClass:
    """A class of identical cores on a heterogeneous machine.

    ``cycle_scale`` multiplies the cycle count of every memory traversal
    executed on the class's cores: big (performance) cores use 1.0,
    little (efficiency) cores something > 1.  The classes of a machine
    must partition its cores.
    """

    name: str
    cores: frozenset[int]
    cycle_scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("core class needs a name")
        if not self.cores:
            raise ConfigurationError(f"core class {self.name!r} has no cores")
        if self.cycle_scale <= 0:
            raise ConfigurationError(
                f"core class {self.name!r}: cycle_scale must be > 0"
            )


@dataclass(frozen=True)
class Machine:
    """One shared-memory multicore node.

    Parameters
    ----------
    name:
        Identifier used in reports and the CLI.
    n_cores:
        Number of cores; core ids are ``0..n_cores-1`` in the *logical*
        (OS) numbering — which, as the paper stresses for Dunnington,
        need not follow the physical layout.
    levels:
        Cache levels ordered L1 first.  Every level must cover all cores.
    processors:
        Partition of cores into physical processors (sockets).
    cells:
        Partition of cores into cells/NUMA domains (defaults to one cell).
    page_size:
        OS page size in bytes.
    mem_latency:
        Extra cycles charged when an access misses every cache level.
    clock_hz:
        Core clock; converts cycle counts to seconds for Table I
        accounting and bandwidth computations.
    core_stream_bw:
        Copy bandwidth (bytes/s) one isolated core can sustain.
    bandwidth_root:
        Root of the bandwidth-domain tree (must cover all cores).
    """

    name: str
    n_cores: int
    levels: tuple[CacheLevel, ...]
    processors: tuple[frozenset[int], ...]
    cells: tuple[frozenset[int], ...]
    page_size: int
    mem_latency: float
    clock_hz: float
    core_stream_bw: float
    bandwidth_root: BandwidthDomain
    #: Optional per-core TLB (extension; see repro.memsim.tlb).  None
    #: models an effectively-unbounded TLB, which is what the paper's
    #: measurement regime assumes.
    tlb: "object | None" = None
    #: Optional heterogeneous core classes (extension; see the machine
    #: zoo).  None models the homogeneous machines of the paper; when
    #: set, the classes must partition the cores and the traversal
    #: engine scales each core's cycle counts by its class.
    core_classes: tuple[CoreClass, ...] | None = None

    def __post_init__(self) -> None:
        cores = frozenset(range(self.n_cores))
        if self.n_cores <= 0:
            raise ConfigurationError("machine needs at least one core")
        if not self.levels:
            raise ConfigurationError("machine needs at least one cache level")
        expected = 1
        for level in self.levels:
            if level.spec.level != expected:
                raise ConfigurationError(
                    f"{self.name}: cache levels must be consecutive from L1, "
                    f"got L{level.spec.level} where L{expected} expected"
                )
            if level.cores != cores:
                raise ConfigurationError(
                    f"{self.name}: {level.spec.describe()} does not cover all cores"
                )
            expected += 1
        # Victim caches are small fully-associative buffers slotted
        # between conventional levels; they are exempt from the monotone
        # size rule, which then applies across them.
        prev_size = self.levels[0].spec.size
        for lvl in self.levels[1:]:
            if lvl.spec.organization is CacheOrganization.VICTIM:
                continue
            if lvl.spec.size <= prev_size:
                raise ConfigurationError(
                    f"{self.name}: cache sizes must strictly increase with level"
                )
            prev_size = lvl.spec.size
        for partition, what in ((self.processors, "processors"), (self.cells, "cells")):
            covered: set[int] = set()
            for group in partition:
                if covered & group:
                    raise ConfigurationError(f"{self.name}: overlapping {what}")
                covered |= set(group)
            if covered != set(cores):
                raise ConfigurationError(f"{self.name}: {what} must partition cores")
        if self.bandwidth_root.cores != cores:
            raise ConfigurationError(
                f"{self.name}: bandwidth tree must cover all cores"
            )
        if self.page_size <= 0 or self.mem_latency < 0 or self.clock_hz <= 0:
            raise ConfigurationError(f"{self.name}: invalid scalar parameter")
        if self.core_stream_bw <= 0:
            raise ConfigurationError(f"{self.name}: core_stream_bw must be > 0")
        if self.core_classes is not None:
            covered = set()
            for cls in self.core_classes:
                if covered & cls.cores:
                    raise ConfigurationError(
                        f"{self.name}: overlapping core classes"
                    )
                covered |= set(cls.cores)
            if covered != set(cores):
                raise ConfigurationError(
                    f"{self.name}: core classes must partition cores"
                )

    # -- cache queries ---------------------------------------------------

    @property
    def cores(self) -> range:
        """Core id range ``0..n_cores-1``."""
        return range(self.n_cores)

    @property
    def cache_sizes(self) -> tuple[int, ...]:
        """Cache sizes, L1 first (ground truth for tests/benches)."""
        return tuple(level.spec.size for level in self.levels)

    def level(self, number: int) -> CacheLevel:
        """The cache level with 1-based level ``number``."""
        for lvl in self.levels:
            if lvl.spec.level == number:
                return lvl
        raise ConfigurationError(f"{self.name} has no L{number}")

    def closest_shared_level(self, a: int, b: int) -> int | None:
        """Smallest (closest-to-core) cache level shared by the pair.

        A Dunnington L2 pair also shares the L3, but its communication
        behaviour is governed by the L2, so the *minimum* shared level
        is the meaningful one.  ``None`` if no cache is shared.
        """
        shared = [lvl.spec.level for lvl in self.levels if lvl.shared_by(a, b)]
        return min(shared) if shared else None

    def shared_level_pairs(self, number: int) -> list[CorePair]:
        """All core pairs sharing a cache instance at the given level."""
        pairs: list[CorePair] = []
        for group in self.level(number).groups:
            pairs.extend(all_pairs(sorted(group)))
        return sorted(pairs)

    # -- structural queries ----------------------------------------------

    def processor_of(self, core: int) -> frozenset[int]:
        """Cores of the physical processor containing ``core``."""
        for group in self.processors:
            if core in group:
                return group
        raise ConfigurationError(f"core {core} not in any processor")

    def cell_of(self, core: int) -> frozenset[int]:
        """Cores of the cell (NUMA domain) containing ``core``."""
        for group in self.cells:
            if core in group:
                return group
        raise ConfigurationError(f"core {core} not in any cell")

    def same_processor(self, a: int, b: int) -> bool:
        """True if the two cores live on the same physical processor."""
        return self.processor_of(a) is self.processor_of(b)

    def same_cell(self, a: int, b: int) -> bool:
        """True if the two cores live in the same cell."""
        return self.cell_of(a) is self.cell_of(b)

    def cycle_scale_of(self, core: int) -> float:
        """Cycle-count multiplier of ``core`` (1.0 on homogeneous machines)."""
        if self.core_classes is None:
            return 1.0
        for cls in self.core_classes:
            if core in cls.cores:
                return cls.cycle_scale
        raise ConfigurationError(f"core {core} not in any core class")

    def summary(self) -> str:
        """Multi-line human-readable description."""
        lines = [
            f"{self.name}: {self.n_cores} cores @ {self.clock_hz / 1e9:.4g} GHz, "
            f"page {format_size(self.page_size)}"
        ]
        for level in self.levels:
            sharing = (
                "private"
                if all(len(g) == 1 for g in level.groups)
                else f"shared by {len(next(iter(level.groups)))} cores"
            )
            lines.append(f"  {level.spec.describe()} ({sharing})")
        lines.append(
            f"  {len(self.processors)} processors, {len(self.cells)} cell(s)"
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class Cluster:
    """``n_nodes`` identical machines behind an interconnect.

    The communication model parameters live in
    :class:`repro.netsim.model.CommConfig`; the cluster only provides
    the structural questions (which node a global core lives on, pair
    relationships).  A single machine is the degenerate 1-node cluster.
    """

    name: str
    node: Machine
    n_nodes: int = 1

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ConfigurationError("cluster needs at least one node")

    @property
    def n_cores(self) -> int:
        """Total number of cores across all nodes."""
        return self.n_nodes * self.node.n_cores

    @property
    def cores(self) -> range:
        """Global core id range."""
        return range(self.n_cores)

    def node_of(self, core: int) -> int:
        """Node index of a global core id."""
        self._check(core)
        return core // self.node.n_cores

    def local_core(self, core: int) -> int:
        """Node-local core id of a global core id."""
        self._check(core)
        return core % self.node.n_cores

    def global_core(self, node: int, local: int) -> int:
        """Global core id of node-local core ``local`` on ``node``."""
        if not (0 <= node < self.n_nodes):
            raise ConfigurationError(f"node {node} out of range")
        if not (0 <= local < self.node.n_cores):
            raise ConfigurationError(f"local core {local} out of range")
        return node * self.node.n_cores + local

    def same_node(self, a: int, b: int) -> bool:
        """True if both global cores are on the same node."""
        return self.node_of(a) == self.node_of(b)

    def relationship(self, a: int, b: int) -> str:
        """Classify a global core pair for communication modelling.

        Returns one of ``"shared-l<N>"`` (deepest shared cache level),
        ``"same-cell"``, ``"same-node"`` or ``"inter-node"``.  This is
        ground truth the communication benchmark must *measure back*.
        """
        if a == b:
            raise ConfigurationError("relationship needs two distinct cores")
        n = self.node.n_cores
        total = self.n_nodes * n
        if not (0 <= a < total and 0 <= b < total):
            self._check(a)
            self._check(b)
        if a // n != b // n:
            return "inter-node"
        return self._node_relationships[a % n][b % n]

    def relationships(self) -> set[str]:
        """All relationship keys that occur between the cluster's cores."""
        keys = {key for row in self._node_relationships for key in row if key}
        if self.n_nodes > 1:
            keys.add("inter-node")
        return keys

    @cached_property
    def _node_relationships(self) -> tuple[tuple[str | None, ...], ...]:
        """Relationship of every node-local core pair (``None`` when equal).

        Built on first use and kept in the instance ``__dict__``, outside
        the dataclass fields, so ``repr``, ``==`` and ``hash`` ignore it.
        """
        node = self.node
        multi_cell = len(node.cells) > 1
        table: list[list[str | None]] = [[None] * node.n_cores for _ in node.cores]
        for a, b in all_pairs(node.cores):
            deepest = node.closest_shared_level(a, b)
            if deepest is not None:
                key = f"shared-l{deepest}"
            # "same-cell" is only a distinct relationship on machines
            # that actually have more than one cell (NUMA domain).
            elif multi_cell and node.same_cell(a, b):
                key = "same-cell"
            else:
                key = "same-node"
            table[a][b] = table[b][a] = key
        return tuple(map(tuple, table))

    def _check(self, core: int) -> None:
        if not (0 <= core < self.n_cores):
            raise ConfigurationError(
                f"core {core} out of range for {self.name} ({self.n_cores} cores)"
            )


def partition_by(cores: Iterable[int], group_size: int) -> tuple[frozenset[int], ...]:
    """Partition sorted ``cores`` into consecutive groups of ``group_size``."""
    ordered = sorted(cores)
    if len(ordered) % group_size != 0:
        raise ConfigurationError(
            f"cannot partition {len(ordered)} cores into groups of {group_size}"
        )
    return tuple(
        frozenset(ordered[i : i + group_size])
        for i in range(0, len(ordered), group_size)
    )
