"""Analytic steady-state traversal engine.

Servet's measurement workloads are *cyclic*: every traversal touches a
fixed set of lines over and over in the same order.  Under LRU that has
a crisp steady state:

    A cache set holding at most `ways` distinct lines of the cycle hits
    on every revisit; a set holding more thrashes and misses every time.

(The classic LRU pathology: with a cyclic reference string of w > K
distinct lines in one K-way set, the line needed next is always the one
evicted longest ago.)  This lets the engine compute exact steady-state
miss patterns with vectorized ``bincount`` passes — no per-access
simulation — while remaining provably equal to the explicit simulator of
:mod:`repro.memsim.cache` (see the property tests).

Concurrency is modelled as lockstep interleaving (the paper runs the
mcalibrator instances "in parallel" pinned to two cores): for a shared
cache instance the per-set load is the union of the members' active
lines.

The kernel works on *units*.  When every traversal of a call has one
stride dividing the page and covers whole pages, and every level's
granule fits in a page whose slots fit in the level's sets, each page
fills the same set slots and only its color (the frame, or on a
virtually indexed level the virtual page, masked to the level's page
sets) tells pages apart: loads, overload verdicts and hit levels are
then computed per page.  Otherwise a unit is one access.  Each unit
carries the number of levels it reaches; a per-core table of running
latency sums turns that into the same per-access costs a level-by-level
float accumulation would give, bit for bit.

Everything the engine computes is a pure function of (machine, paging
policy, prefetcher, traversal workloads, RNG stream), so repeats are
served from the :mod:`~repro.memsim.outcome` cache instead of being
re-simulated.  A cache miss draws a fresh
:class:`~repro.memsim.paging.AddressSpace` per traversal from its own
child stream and drops it when the call returns; only the
placement-free geometry (address and virtual set-index vectors) is
memoized across calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..errors import MeasurementError
from ..ioutils import sha256_hex
from ..lru import LRUCache
from ..rng import ensure_rng, spawn
from ..topology.cache import CacheOrganization, Indexing
from ..topology.machine import Machine
from .outcome import GLOBAL_OUTCOME_CACHE, stream_identity
from .paging import AddressSpace, PagePolicy, RandomPaging
from .prefetch import PrefetchModel


def strided_addresses(array_bytes: int, stride: int) -> np.ndarray:
    """Virtual byte addresses touched by an mcalibrator-style traversal.

    One access per ``stride`` bytes starting at 0 — the access pattern
    of the Fig. 1 inner loop (``j = j + A[j]`` with every ``A[j]`` equal
    to the stride).
    """
    if stride <= 0:
        raise MeasurementError(f"stride must be positive, got {stride}")
    if array_bytes <= 0:
        raise MeasurementError(f"array size must be positive, got {array_bytes}")
    return np.arange(0, array_bytes, stride, dtype=np.int64)


@lru_cache(maxsize=256)
def _strided_addresses_shared(array_bytes: int, stride: int) -> np.ndarray:
    """Memoized, read-only address vector for one ``(size, stride)``.

    The engine evaluates the same traversal geometry many times per
    suite run (repeat-sampling, every pair of a pairwise stage); the address
    vector depends only on ``(array_bytes, stride)``, so share one
    immutable copy instead of rebuilding it per call.
    """
    addresses = strided_addresses(array_bytes, stride)
    addresses.setflags(write=False)
    return addresses


def _virtual_lines_shared(array_bytes: int, stride: int, line_size: int) -> np.ndarray:
    """Read-only virtual line numbers for one geometry.

    Not memoized: its callers are the memoized ``_virtual_sets_shared``
    and the reuse recorder, and a cache here had no hits on the
    cold and warm dunnington suites or the co-schedule.
    """
    lines = _strided_addresses_shared(array_bytes, stride) // line_size
    lines.setflags(write=False)
    return lines


@lru_cache(maxsize=1024)
def _virtual_sets_shared(
    array_bytes: int, stride: int, line_size: int, num_sets: int
) -> np.ndarray:
    """Memoized set-index vector for a virtually indexed level."""
    sets = _virtual_lines_shared(array_bytes, stride, line_size) & (num_sets - 1)
    sets.setflags(write=False)
    return sets


@dataclass(frozen=True)
class Traversal:
    """One core's traversal workload: an array and a stride."""

    core: int
    array_bytes: int
    stride: int


@dataclass
class TraversalResult:
    """Steady-state outcome of a (possibly concurrent) traversal run."""

    #: Average cycles per access, per core.
    cycles_per_access: dict[int, float]
    #: Per core, fraction of its accesses that *missed* each level
    #: (denominator = the core's total accesses, so values telescope).
    miss_fraction: dict[int, list[float]]
    #: Number of distinct accesses per revolution, per core.
    n_accesses: dict[int, int]
    #: Simulated wall time of one measured revolution, per core (seconds).
    seconds_per_round: dict[int, float] = field(default_factory=dict)


def _copy_result(result: TraversalResult) -> TraversalResult:
    """A structurally independent copy (cache entries stay pristine)."""
    return TraversalResult(
        cycles_per_access=dict(result.cycles_per_access),
        miss_fraction={c: list(v) for c, v in result.miss_fraction.items()},
        n_accesses=dict(result.n_accesses),
        seconds_per_round=dict(result.seconds_per_round),
    )


#: Sentinel: "use the process-wide outcome cache" (distinct from None,
#: which is the hard bypass).
_USE_GLOBAL_CACHE = object()


class TraversalEngine:
    """Computes steady-state traversal costs on a machine model.

    Parameters
    ----------
    machine:
        The hardware model (cache levels, latencies, page size).
    paging:
        Page-placement policy; defaults to Linux-like random placement,
        the case Servet's probabilistic algorithm targets.
    prefetch:
        Hardware prefetcher model (engages only for small strides).
    outcome_cache:
        Where to memoize whole ``run`` outcomes.  Defaults to the
        process-wide :data:`~repro.memsim.outcome.GLOBAL_OUTCOME_CACHE`;
        pass an explicit :class:`~repro.lru.LRUCache` for a private
        one, or ``None`` to bypass caching entirely (tests, baselines).
    reuse_recorder:
        Optional observer with a ``record(core, lines)`` method (e.g.
        :class:`repro.workload.recorder.TraversalReuseRecorder`); every
        ``run`` feeds it each traversal's virtual-line stream for one
        revolution.  Off (``None``) by default — when set, ``run``
        bypasses the outcome cache so the recorder sees every stream
        and cached-path behaviour stays byte-identical when off.
    """

    def __init__(
        self,
        machine: Machine,
        paging: PagePolicy | None = None,
        prefetch: PrefetchModel | None = None,
        outcome_cache: LRUCache | None | object = _USE_GLOBAL_CACHE,
        reuse_recorder=None,
    ) -> None:
        self.machine = machine
        self.paging = paging if paging is not None else RandomPaging()
        self.prefetch = prefetch if prefetch is not None else PrefetchModel()
        if outcome_cache is _USE_GLOBAL_CACHE:
            outcome_cache = GLOBAL_OUTCOME_CACHE
        self.outcome_cache: LRUCache | None = outcome_cache
        self.reuse_recorder = reuse_recorder
        # Machine identity is by value (equal machines share outcomes
        # across engine/backend instances), hashed once here instead of
        # re-deriving a deep dataclass hash on every lookup.
        self._machine_token = sha256_hex(repr(machine))
        self._paging_token = self.paging.cache_token()
        # Core -> cache instance per level, so a call groups its
        # traversals by instance without scanning the sharing groups.
        self._instance_of: list[list[int]] = []
        for level in machine.levels:
            instance_of = [0] * machine.n_cores
            for index, group in enumerate(level.groups):
                for core in group:
                    instance_of[core] = index
            self._instance_of.append(instance_of)

    def run(
        self,
        traversals: list[Traversal],
        rng: np.random.Generator | int | None = None,
    ) -> TraversalResult:
        """Run the traversals concurrently and return steady-state costs."""
        if not traversals:
            raise MeasurementError("need at least one traversal")
        cores = [t.core for t in traversals]
        if len(set(cores)) != len(cores):
            raise MeasurementError("one traversal per core at most")
        for t in traversals:
            if not (0 <= t.core < self.machine.n_cores):
                raise MeasurementError(
                    f"core {t.core} out of range for {self.machine.name}"
                )
            if t.stride <= 0:
                raise MeasurementError(f"stride must be positive, got {t.stride}")
        rng = ensure_rng(rng)

        recorder = self.reuse_recorder
        if recorder is not None:
            line_size = self.machine.levels[0].spec.line_size
            for t in traversals:
                recorder.record(
                    t.core,
                    _virtual_lines_shared(t.array_bytes, t.stride, line_size),
                )

        cache = self.outcome_cache
        key = None
        if recorder is not None:
            cache = None  # recorded runs must not skip the stream replay
        if cache is not None and self._paging_token is not None:
            identity = stream_identity(rng)
            if identity is not None:
                # Traversals are keyed in *call order*: child streams
                # are assigned by position, so a permutation is a
                # different simulation even with the same workloads.
                key = (
                    self._machine_token,
                    self._paging_token,
                    self.prefetch,
                    tuple(traversals),
                    identity,
                )
                cached = cache.get(key)
                if cached is not None:
                    # Side-effect fidelity: a miss spawns one child
                    # stream per traversal; replay that so cached and
                    # uncached runs leave the RNG in identical states.
                    rng.bit_generator.seed_seq.spawn(len(traversals))
                    return _copy_result(cached)

        result = self._simulate(traversals, rng)
        if key is not None:
            cache.put(key, _copy_result(result))
        return result

    def _simulate(
        self,
        traversals: list[Traversal],
        rng: np.random.Generator,
    ) -> TraversalResult:
        """The actual steady-state computation (cache-miss path).

        One kernel over pages or accesses (see the module docstring and
        :meth:`_accesses_per_page`).
        """
        child_rngs = spawn(rng, len(traversals))

        machine = self.machine
        page_size = machine.page_size
        line_size = machine.levels[0].spec.line_size
        spaces = [
            AddressSpace(page_size, self.paging, t.array_bytes, crng)
            for t, crng in zip(traversals, child_rngs)
        ]
        n_accesses = [-(-t.array_bytes // t.stride) for t in traversals]
        per_page = self._accesses_per_page(traversals)
        per_unit = per_page or 1
        n_units = [n // per_unit for n in n_accesses]
        active = [np.ones(u, dtype=bool) for u in n_units]
        # Levels each unit reaches (the level it hits at, plus one; one
        # more for memory): indexes the per-core cost table below.
        reach = [np.zeros(u, dtype=np.int8) for u in n_units]
        alive = list(n_units)
        miss_fraction: dict[int, list[float]] = {t.core: [] for t in traversals}

        # Physical line vectors per (traversal, granule) for access
        # units: physically indexed levels with one granule (L2 and L3
        # on most machines) share a single translation of a placement.
        plines: dict[tuple[int, int], np.ndarray] = {}

        def unit_sets(i: int, granule: int, bins: int, indexing: Indexing):
            t = traversals[i]
            if per_page:
                if indexing is Indexing.VIRTUAL:
                    pages = np.arange(n_units[i], dtype=np.int64)
                else:
                    pages = spaces[i].page_table
                return pages & (bins - 1)
            if indexing is Indexing.VIRTUAL:
                return _virtual_sets_shared(t.array_bytes, t.stride, granule, bins)
            lines = plines.get((i, granule))
            if lines is None:
                lines = spaces[i].physical_lines(
                    _strided_addresses_shared(t.array_bytes, t.stride), granule
                )
                plines[(i, granule)] = lines
            return lines & (bins - 1)

        for level_idx, level in enumerate(machine.levels):
            spec = level.spec
            # Sectored caches keep one tag per sector, so their set
            # index (and the cyclic-LRU load count) works at sector
            # granularity; sector_lines == 1 reduces to the line math.
            granule = line_size * spec.sector_lines
            if per_page:
                # A page covers page_size/granule consecutive sets; each
                # occupied one gets max(1, granule/stride) accesses.
                bins = spec.num_sets * granule // page_size
                weight = max(1, granule // traversals[0].stride)
            else:
                bins = spec.num_sets
                weight = 1
            instance_of = self._instance_of[level_idx]
            groups: dict[int, list[int]] = {}
            for i, t in enumerate(traversals):
                if alive[i]:
                    groups.setdefault(instance_of[t.core], []).append(i)
            for members in groups.values():
                capacity = spec.ways + self._exclusive_extra_ways(
                    level_idx, [traversals[i].core for i in members]
                )
                sets = {i: unit_sets(i, granule, bins, spec.indexing) for i in members}
                # Inactive units count into a sentinel bin past the end.
                binned = [np.where(active[i], sets[i], bins) for i in members]
                load = np.bincount(
                    binned[0] if len(binned) == 1 else np.concatenate(binned),
                    minlength=bins + 1,
                )
                overloaded = load[:bins] * weight > capacity
                for i in members:
                    reach[i] += active[i]
                    # Units in non-overloaded sets hit here and stop.
                    active[i] &= overloaded[sets[i]]
                    alive[i] = int(np.count_nonzero(active[i]))
            for i, t in enumerate(traversals):
                miss_fraction[t.core].append(
                    float(alive[i] * per_unit) / n_accesses[i]
                )

        cycles: dict[int, float] = {}
        for i, t in enumerate(traversals):
            reach[i] += active[i]
            # A tracked stream (small stride) has its beyond-L1 miss
            # latencies hidden by the prefetcher.  The table adds the
            # latencies in level order, as a per-access running sum
            # would, so every access cost is bit-for-bit the same.
            pf_factor = self.prefetch.miss_latency_factor(t.stride)
            table = [0.0]
            for level_idx, level in enumerate(machine.levels):
                latency = level.spec.latency * (pf_factor if level_idx > 0 else 1.0)
                table.append(table[-1] + latency)
            table.append(table[-1] + machine.mem_latency * pf_factor)
            cost = np.asarray(table)[reach[i]]
            if per_page:
                cost = np.repeat(cost, per_page)
            cycles[t.core] = float(cost.mean()) + self._tlb_cycles_per_access(t)

        if machine.core_classes is not None:
            # Heterogeneous (big.LITTLE-style) machines: a little core
            # burns proportionally more cycles per access.
            cycles = {
                c: v * machine.cycle_scale_of(c) for c, v in cycles.items()
            }
        seconds = {
            t.core: cycles[t.core] * n / machine.clock_hz
            for t, n in zip(traversals, n_accesses)
        }
        return TraversalResult(
            cycles_per_access=cycles,
            miss_fraction=miss_fraction,
            n_accesses={t.core: n for t, n in zip(traversals, n_accesses)},
            seconds_per_round=seconds,
        )

    def _accesses_per_page(self, traversals: list[Traversal]) -> int:
        """Accesses per page when pages can be the kernel's units, else 0.

        Every page of every traversal then puts its accesses in the same
        set slots, so only its color tells pages apart.  That needs one
        stride dividing the page (hence a power of two, nested with every
        granule), whole pages only, and at every level a granule no
        larger than a page and a page spanning at most the level's sets.
        """
        page_size = self.machine.page_size
        stride = traversals[0].stride
        if page_size % stride or any(
            t.stride != stride or t.array_bytes % page_size for t in traversals
        ):
            return 0
        line_size = self.machine.levels[0].spec.line_size
        for level in self.machine.levels:
            granule = line_size * level.spec.sector_lines
            if granule > page_size or page_size // granule > level.spec.num_sets:
                return 0
        return page_size // stride

    def _exclusive_extra_ways(self, level_idx: int, members: list[int]) -> int:
        """Extra per-set capacity an exclusive level gains from inner levels.

        An exclusive cache holds only lines absent from the levels
        between it and the traversing cores, so the cyclic working set
        effectively enjoys ``S_j + sum(inner instance sizes)`` bytes.
        Expressed per set: ``ways + inner_tags / num_sets``.  Only the
        inner instances of cores actually traversing count — an idle
        core's L1 holds no lines of the measured working set.  Returns 0
        for every non-exclusive level, keeping the default model intact.
        """
        spec = self.machine.levels[level_idx].spec
        if spec.organization is not CacheOrganization.EXCLUSIVE:
            return 0
        inner_bytes = sum(
            self.machine.levels[i].spec.size
            * len({self._instance_of[i][c] for c in members})
            for i in range(level_idx)
        )
        granule = self.machine.levels[0].spec.line_size * spec.sector_lines
        return inner_bytes // (granule * spec.num_sets)

    def _tlb_cycles_per_access(self, traversal: Traversal) -> float:
        """Average page-walk cycles per access for one cyclic traversal.

        TLBs are per-core and indexed by virtual page, so the analysis
        needs no page placement: apply the cyclic-LRU rule to the TLB
        sets of the distinct virtual pages the traversal touches.
        Accesses to one page are contiguous in address order, so an
        overloaded page costs one walk per revolution regardless of how
        many accesses it gets.
        """
        tlb = self.machine.tlb
        if tlb is None:
            return 0.0
        page_size = self.machine.page_size
        stride = traversal.stride
        n = -(-traversal.array_bytes // stride)
        if stride < page_size:
            # Every page up to the last access holds at least one.
            vpages = np.arange((n - 1) * stride // page_size + 1)
        else:
            vpages = np.arange(n, dtype=np.int64) * stride // page_size
        load = np.bincount(vpages & (tlb.num_sets - 1), minlength=tlb.num_sets)
        overloaded_pages = int(load[load > tlb.effective_ways].sum())
        return overloaded_pages * tlb.walk_cycles / n

    def single(
        self,
        array_bytes: int,
        stride: int,
        rng: np.random.Generator | int | None = None,
    ) -> float:
        """Average cycles/access for core 0 alone (convenience)."""
        result = self.run([Traversal(0, array_bytes, stride)], rng=rng)
        return result.cycles_per_access[0]
