"""Builders for the machines evaluated in the Servet paper.

Four systems appear in Section IV:

- **Dunnington**: 4x Intel Xeon E7450 hexacore @ 2.40 GHz.  32 KB private
  L1, 3 MB L2 shared by pairs of cores, 12 MB L3 shared by the six cores
  of a processor.  The OS numbering is non-obvious: core 0 shares its L2
  with core **12** and its L3 with cores {1, 2, 12, 13, 14} (Fig. 8a).
- **Finis Terrae** (one HP RX7640 node): 8x Itanium2 Montvale dual-core
  @ 1.60 GHz = 16 cores in two cells of 4 processors; all caches private
  (16 KB L1 / 256 KB L2 / 9 MB L3); memory buses shared by pairs of
  processors; nodes joined by 20 Gbps InfiniBand.
- **Dempsey**: Intel Xeon 5060 dual-core @ 3.20 GHz, 16 KB L1, 2 MB L2.
- **Athlon 3200**: unicore AMD @ 2 GHz, 64 KB L1, 512 KB L2.

Latencies, associativities and bandwidth-domain capacities are
model-calibrated plausible values (the paper reports none); the
*structure* — which the benchmarks must rediscover — is faithful.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from ..errors import ConfigurationError
from ..units import KiB, MiB, parse_size
from .cache import CacheLevel, CacheSpec, Indexing, grouped, private_groups
from .machine import BandwidthDomain, Cluster, Machine, partition_by

GB_S = 1e9  # bytes/second in the decimal convention used for bandwidths


def dunnington() -> Machine:
    """The 24-core Dunnington node (4x Xeon E7450 hexacore)."""
    n = 24
    # Physical socket s holds logical cores {3s..3s+2} u {12+3s..12+3s+2};
    # L2 caches pair logical cores (c, c+12) -- this reproduces the
    # numbering surprise highlighted in Fig. 8a.
    sockets = [sorted({3 * s, 3 * s + 1, 3 * s + 2, 12 + 3 * s, 13 + 3 * s, 14 + 3 * s})
               for s in range(4)]
    l2_pairs = [[c, c + 12] for c in range(12)]
    levels = (
        CacheLevel(
            CacheSpec(1, 32 * KiB, ways=8, indexing=Indexing.VIRTUAL, latency=3.0),
            private_groups(n),
        ),
        CacheLevel(
            CacheSpec(2, 3 * MiB, ways=12, indexing=Indexing.PHYSICAL, latency=14.0),
            grouped(l2_pairs),
        ),
        CacheLevel(
            CacheSpec(3, 12 * MiB, ways=24, indexing=Indexing.PHYSICAL, latency=45.0),
            grouped(sockets),
        ),
    )
    cores = frozenset(range(n))
    # A single front-side-bus-like constraint: every concurrent pair
    # contends identically, matching the uniform overhead of Fig. 9a.
    root = BandwidthDomain("fsb", capacity=4.2 * GB_S, cores=cores)
    return Machine(
        name="dunnington",
        n_cores=n,
        levels=levels,
        processors=grouped(sockets),
        cells=(cores,),
        page_size=4 * KiB,
        mem_latency=260.0,
        clock_hz=2.40e9,
        core_stream_bw=3.0 * GB_S,
        bandwidth_root=root,
    )


def finis_terrae_node() -> Machine:
    """One 16-core HP RX7640 node of the Finis Terrae supercomputer."""
    n = 16
    processors = partition_by(range(n), 2)   # 8 dual-core Itanium2
    cells = partition_by(range(n), 8)        # 2 cells x 4 processors
    buses = partition_by(range(n), 4)        # buses shared by proc pairs
    levels = (
        CacheLevel(
            CacheSpec(1, 16 * KiB, ways=4, indexing=Indexing.VIRTUAL, latency=2.0),
            private_groups(n),
        ),
        CacheLevel(
            CacheSpec(2, 256 * KiB, ways=8, indexing=Indexing.PHYSICAL, latency=8.0),
            private_groups(n),
        ),
        CacheLevel(
            CacheSpec(3, 9 * MiB, ways=9, indexing=Indexing.PHYSICAL, latency=30.0),
            private_groups(n),
        ),
    )
    # Bandwidth tree: node -> 2 cells -> 2 buses each.  Capacities are
    # calibrated so a bus-sharing pair drops hardest, a same-cell pair
    # drops ~25 %, and cross-cell pairs see no contention (Fig. 9a).
    bus_domains = tuple(
        BandwidthDomain(f"bus{i}", capacity=4.6 * GB_S, cores=bus)
        for i, bus in enumerate(buses)
    )
    cell_domains = tuple(
        BandwidthDomain(
            f"cell{i}",
            capacity=5.25 * GB_S,
            cores=cell,
            children=tuple(b for b in bus_domains if b.cores <= cell),
        )
        for i, cell in enumerate(cells)
    )
    root = BandwidthDomain(
        "node", capacity=10.6 * GB_S, cores=frozenset(range(n)), children=cell_domains
    )
    return Machine(
        name="finis_terrae",
        n_cores=n,
        levels=levels,
        processors=processors,
        cells=cells,
        page_size=4 * KiB,
        mem_latency=320.0,
        clock_hz=1.60e9,
        core_stream_bw=3.5 * GB_S,
        bandwidth_root=root,
    )


def finis_terrae(n_nodes: int = 2) -> Cluster:
    """The Finis Terrae cluster (142 nodes in reality; 2 suffice to
    characterize every communication layer, as in Fig. 10a)."""
    return Cluster("finis_terrae", finis_terrae_node(), n_nodes=n_nodes)


def dempsey() -> Machine:
    """The Intel Xeon 5060 (Dempsey) dual-core test machine."""
    n = 2
    levels = (
        CacheLevel(
            CacheSpec(1, 16 * KiB, ways=8, indexing=Indexing.VIRTUAL, latency=3.0),
            private_groups(n),
        ),
        CacheLevel(
            CacheSpec(2, 2 * MiB, ways=8, indexing=Indexing.PHYSICAL, latency=20.0),
            private_groups(n),
        ),
    )
    cores = frozenset(range(n))
    root = BandwidthDomain("fsb", capacity=3.4 * GB_S, cores=cores)
    return Machine(
        name="dempsey",
        n_cores=n,
        levels=levels,
        processors=(cores,),
        cells=(cores,),
        page_size=4 * KiB,
        mem_latency=300.0,
        clock_hz=3.20e9,
        core_stream_bw=2.5 * GB_S,
        bandwidth_root=root,
    )


def athlon_3200() -> Machine:
    """The unicore AMD Athlon 3200 test machine."""
    levels = (
        CacheLevel(
            CacheSpec(1, 64 * KiB, ways=2, indexing=Indexing.VIRTUAL, latency=3.0),
            private_groups(1),
        ),
        CacheLevel(
            CacheSpec(2, 512 * KiB, ways=16, indexing=Indexing.PHYSICAL, latency=18.0),
            private_groups(1),
        ),
    )
    cores = frozenset((0,))
    root = BandwidthDomain("mem", capacity=2.6 * GB_S, cores=cores)
    return Machine(
        name="athlon_3200",
        n_cores=1,
        levels=levels,
        processors=(cores,),
        cells=(cores,),
        page_size=4 * KiB,
        mem_latency=250.0,
        clock_hz=2.00e9,
        core_stream_bw=2.0 * GB_S,
        bandwidth_root=root,
    )


def generic_smp(
    name: str = "smp",
    n_cores: int = 4,
    levels: Sequence[tuple[str | int, int, int, float]] = (
        ("32KB", 8, 1, 3.0),
        ("2MB", 8, 2, 15.0),
    ),
    page_size: str | int = "4KB",
    mem_latency: float = 250.0,
    clock_hz: float = 2.0e9,
    core_stream_bw: float = 3.0 * GB_S,
    tlb=None,
) -> Machine:
    """Build an arbitrary SMP for tests and what-if studies.

    ``levels`` is a sequence of ``(size, ways, shared_by, latency)``;
    ``shared_by`` is the number of *consecutive* cores sharing each
    instance (1 = private).  L1 is virtually indexed, deeper levels
    physically indexed, matching real hardware practice.  All cores
    share one memory bus of 1.4 times a single core's stream bandwidth.
    """
    cache_levels = []
    for i, (size, ways, shared_by, latency) in enumerate(levels, start=1):
        if n_cores % shared_by != 0:
            raise ConfigurationError(
                f"{name}: level {i} shared_by={shared_by} does not divide "
                f"{n_cores} cores"
            )
        indexing = Indexing.VIRTUAL if i == 1 else Indexing.PHYSICAL
        cache_levels.append(
            CacheLevel(
                CacheSpec(i, parse_size(size), ways=ways, indexing=indexing,
                          latency=latency),
                partition_by(range(n_cores), shared_by),
            )
        )
    cores = frozenset(range(n_cores))
    root = BandwidthDomain("mem", capacity=1.4 * core_stream_bw, cores=cores)
    return Machine(
        name=name,
        n_cores=n_cores,
        levels=tuple(cache_levels),
        processors=(cores,),
        cells=(cores,),
        page_size=parse_size(page_size),
        mem_latency=mem_latency,
        clock_hz=clock_hz,
        core_stream_bw=core_stream_bw,
        bandwidth_root=root,
        tlb=tlb,
    )


_BUILDERS: dict[str, Callable[[], Machine]] = {
    "dunnington": dunnington,
    "finis_terrae": finis_terrae_node,
    "dempsey": dempsey,
    "athlon_3200": athlon_3200,
}


def builder_names() -> list[str]:
    """Names accepted by :func:`build_machine` (and the CLI)."""
    return sorted(_BUILDERS)


def build_machine(name: str) -> Machine:
    """Build one of the paper's machines by name."""
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown machine {name!r}; available: {', '.join(builder_names())}"
        ) from None
