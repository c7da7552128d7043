"""Property: the unit kernel of ``TraversalEngine`` equals the per-access one.

``reference_simulate`` below is the engine's cache-miss path as it was
before the kernel learned to work page by page: one cost, one active bit
and one set index per access, masked float adds per level and a boolean
compress per sharing group.  It is kept verbatim (with its own copies of
the exclusive-level capacity, the div/mod page translation and the
``np.unique`` TLB walk count) as the oracle.  The kernel must return an
equal ``TraversalResult`` -- every float bit-for-bit, not approximately
-- on the paper machines, a machine with a small TLB and the zoo
families, under every paging policy, for strides that do and do not
divide a page, sizes that are and are not page multiples, and one to
four concurrent traversals with equal or mixed strides.  The property
also checks that both unit kinds (whole pages and single accesses) were
exercised.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.memsim.paging import (
    AddressSpace,
    ColoredPaging,
    ContiguousPaging,
    RandomPaging,
)
from repro.memsim.prefetch import NO_PREFETCH, PrefetchModel
from repro.memsim.tlb import TLBSpec
from repro.memsim.traversal import (
    Traversal,
    TraversalEngine,
    TraversalResult,
    strided_addresses,
)
from repro.rng import spawn
from repro.topology import dempsey, dunnington, finis_terrae_node, generic_smp
from repro.topology.cache import CacheOrganization, Indexing
from repro.zoo.families import family_names
from repro.zoo.generate import generate_machine

STRIDES = (32, 64, 1000, 1024, 4096, 8192, 12288)
PAPER_MACHINES = {
    "dunnington": dunnington,
    "finis_terrae_node": finis_terrae_node,
    "dempsey": dempsey,
    # The paper's machines model an unbounded TLB; this one has a small one.
    "smp_with_tlb": lambda: generic_smp(
        n_cores=4, tlb=TLBSpec(entries=64, ways=4, walk_cycles=30.0)
    ),
}
MACHINE_NAMES = sorted(PAPER_MACHINES) + [
    f"{family}:{seed}" for family in family_names() for seed in range(3)
]
POLICIES = {
    "random": RandomPaging,
    "colored": lambda: ColoredPaging(256),
    "contiguous": ContiguousPaging,
}


@lru_cache(maxsize=None)
def build_machine(name: str):
    if name in PAPER_MACHINES:
        return PAPER_MACHINES[name]()
    family, seed = name.split(":")
    return generate_machine(family, int(seed)).machine


def reference_physical_lines(
    space: AddressSpace, vaddrs: np.ndarray, line_size: int
) -> np.ndarray:
    """Physical line numbers by div/mod (valid for lines up to a page)."""
    vaddrs = np.asarray(vaddrs, dtype=np.int64)
    if vaddrs.size and (vaddrs.min() < 0 or vaddrs.max() >= space.array_bytes):
        raise SimulationError("virtual address outside the allocation")
    vpage = vaddrs // space.page_size
    offset = vaddrs % space.page_size
    lines_per_page = space.page_size // line_size
    return space.page_table[vpage] * lines_per_page + offset // line_size


def reference_tlb_cycles(engine: TraversalEngine, traversal: Traversal) -> float:
    """Page-walk cycles per access from the sorted distinct pages."""
    tlb = engine.machine.tlb
    if tlb is None:
        return 0.0
    vaddrs = strided_addresses(traversal.array_bytes, traversal.stride)
    vpages = np.unique(vaddrs // engine.machine.page_size)
    sets = vpages % tlb.num_sets
    load = np.bincount(sets.astype(np.int64), minlength=tlb.num_sets)
    overloaded_pages = int(load[load > tlb.effective_ways].sum())
    return overloaded_pages * tlb.walk_cycles / len(vaddrs)


def reference_simulate(
    engine: TraversalEngine,
    traversals: list[Traversal],
    cores: list[int],
    rng: np.random.Generator,
) -> TraversalResult:
    """The per-access steady-state computation the kernel replaced."""
    child_rngs = spawn(rng, len(traversals))

    machine = engine.machine
    line_size = machine.levels[0].spec.line_size
    spaces: dict[int, AddressSpace] = {}
    active: dict[int, np.ndarray] = {}
    cost: dict[int, np.ndarray] = {}
    n_accesses: dict[int, int] = {}
    for t, crng in zip(traversals, child_rngs):
        spaces[t.core] = AddressSpace(
            machine.page_size, engine.paging, t.array_bytes, crng
        )
        n = len(strided_addresses(t.array_bytes, t.stride))
        active[t.core] = np.ones(n, dtype=bool)
        cost[t.core] = np.zeros(n, dtype=np.float64)
        n_accesses[t.core] = n

    miss_fraction: dict[int, list[float]] = {t.core: [] for t in traversals}

    # A tracked stream (small stride) has its beyond-L1 miss
    # latencies hidden by the prefetcher.
    pf_factor = {
        t.core: engine.prefetch.miss_latency_factor(t.stride) for t in traversals
    }

    # Physical line vectors per (core, granule): physically indexed
    # levels with one granule (L2 and L3 on most machines) share a
    # single translation of each traversal's placement.
    plines: dict[tuple[int, int], np.ndarray] = {}
    core_set = set(cores)
    for level_idx, level in enumerate(machine.levels):
        spec = level.spec
        # Sectored caches keep one tag per sector, so their set
        # index (and the cyclic-LRU load count) works at sector
        # granularity; sector_lines == 1 reduces to the line math.
        granule = line_size * spec.sector_lines
        sets: dict[int, np.ndarray] = {}
        for t in traversals:
            if spec.indexing is Indexing.VIRTUAL:
                sets[t.core] = (
                    strided_addresses(t.array_bytes, t.stride) // granule
                ) % spec.num_sets
                continue
            lines = plines.get((t.core, granule))
            if lines is None:
                lines = reference_physical_lines(
                    spaces[t.core],
                    strided_addresses(t.array_bytes, t.stride),
                    granule,
                )
                plines[(t.core, granule)] = lines
            sets[t.core] = lines % spec.num_sets
        for group in level.groups:
            if core_set.isdisjoint(group):
                continue
            members = [c for c in cores if c in group and active[c].any()]
            if not members:
                continue
            combined = np.concatenate([sets[c][active[c]] for c in members])
            load = np.bincount(combined, minlength=spec.num_sets)
            overloaded = load > spec.ways + reference_exclusive_extra_ways(
                engine, level_idx, members
            )
            for c in members:
                latency = spec.latency * (pf_factor[c] if level_idx > 0 else 1.0)
                cost[c][active[c]] += latency
                # Lines in non-overloaded sets hit here and stop.
                active[c] &= overloaded[sets[c]]
        for t in traversals:
            denom = n_accesses[t.core]
            miss_fraction[t.core].append(float(active[t.core].sum()) / denom)

    for t in traversals:
        cost[t.core][active[t.core]] += machine.mem_latency * pf_factor[t.core]

    tlb_extra = {
        t.core: reference_tlb_cycles(engine, t) for t in traversals
    }

    cycles = {
        t.core: float(cost[t.core].mean()) + tlb_extra[t.core]
        for t in traversals
    }
    if machine.core_classes is not None:
        # Heterogeneous (big.LITTLE-style) machines: a little core
        # burns proportionally more cycles per access.
        cycles = {
            c: v * machine.cycle_scale_of(c) for c, v in cycles.items()
        }
    seconds = {
        c: cycles[c] * n_accesses[c] / machine.clock_hz for c in cycles
    }
    return TraversalResult(
        cycles_per_access=cycles,
        miss_fraction=miss_fraction,
        n_accesses=dict(n_accesses),
        seconds_per_round=seconds,
    )


def reference_exclusive_extra_ways(
    engine: TraversalEngine, level_idx: int, members: list[int]
) -> int:
    """Extra per-set capacity an exclusive level gains from inner levels.

    An exclusive cache holds only lines absent from the levels
    between it and the traversing cores, so the cyclic working set
    effectively enjoys ``S_j + sum(inner instance sizes)`` bytes.
    Expressed per set: ``ways + inner_tags / num_sets``.  Only the
    inner instances of cores actually traversing count — an idle
    core's L1 holds no lines of the measured working set.  Returns 0
    for every non-exclusive level, keeping the default model intact.
    """
    spec = engine.machine.levels[level_idx].spec
    if spec.organization is not CacheOrganization.EXCLUSIVE:
        return 0
    inner_instances: set[tuple[int, int]] = set()
    for i in range(level_idx):
        level = engine.machine.levels[i]
        for c in members:
            inner_instances.add((i, level.instance_index(c)))
    inner_bytes = sum(
        engine.machine.levels[i].spec.size for i, _ in inner_instances
    )
    granule = engine.machine.levels[0].spec.line_size * spec.sector_lines
    return inner_bytes // (granule * spec.num_sets)


@st.composite
def cases(draw):
    """A machine, a policy, a prefetcher and 1-4 traversals on it."""
    machine = build_machine(draw(st.sampled_from(MACHINE_NAMES)))
    page = machine.page_size
    n = draw(st.integers(1, min(4, machine.n_cores)))
    cores = draw(
        st.lists(
            st.integers(0, machine.n_cores - 1),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    shared_stride = draw(st.sampled_from(STRIDES))
    same = draw(st.booleans())
    traversals = []
    for core in cores:
        stride = shared_stride if same else draw(st.sampled_from(STRIDES))
        pages = draw(st.integers(1, 3 * 1024))
        # Half the sizes are whole pages, half end inside a page.
        extra = draw(st.one_of(st.just(0), st.integers(1, page - 1)))
        traversals.append(Traversal(core, (pages - 1) * page + (extra or page), stride))
    return (
        machine,
        draw(st.sampled_from(sorted(POLICIES))),
        draw(st.sampled_from([PrefetchModel(), NO_PREFETCH])),
        traversals,
        draw(st.integers(0, 2**32 - 1)),
    )


def test_kernel_equals_reference_simulate():
    kinds: Counter = Counter()

    @given(case=cases())
    @settings(max_examples=150, deadline=None)
    def check(case):
        machine, policy, prefetch, traversals, seed = case
        engine = TraversalEngine(
            machine, POLICIES[policy](), prefetch, outcome_cache=None
        )
        kinds["page" if engine._accesses_per_page(traversals) else "access"] += 1
        got = engine.run(traversals, rng=np.random.default_rng(seed))
        want = reference_simulate(
            engine,
            traversals,
            [t.core for t in traversals],
            np.random.default_rng(seed),
        )
        assert got == want

    check()
    assert kinds["page"] > 0 and kinds["access"] > 0, kinds
