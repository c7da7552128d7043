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
from .tlb import TLBSpec


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
    suite run (``run`` and ``_tlb_cycles_per_access`` for every probe,
    repeat-sampling, every pair of a pairwise stage); the address
    vector depends only on ``(array_bytes, stride)``, so share one
    immutable copy instead of rebuilding it per call.
    """
    addresses = strided_addresses(array_bytes, stride)
    addresses.setflags(write=False)
    return addresses


@lru_cache(maxsize=512)
def _virtual_lines_shared(array_bytes: int, stride: int, line_size: int) -> np.ndarray:
    """Memoized, read-only virtual line numbers for one geometry."""
    lines = _strided_addresses_shared(array_bytes, stride) // line_size
    lines.setflags(write=False)
    return lines


@lru_cache(maxsize=1024)
def _virtual_sets_shared(
    array_bytes: int, stride: int, line_size: int, num_sets: int
) -> np.ndarray:
    """Memoized set-index vector for a virtually indexed level."""
    sets = _virtual_lines_shared(array_bytes, stride, line_size) % num_sets
    sets.setflags(write=False)
    return sets


@lru_cache(maxsize=4096)
def _tlb_cycles_shared(
    tlb: TLBSpec, page_size: int, array_bytes: int, stride: int
) -> float:
    """Average page-walk cycles per access for one cyclic traversal.

    TLBs are per-core and indexed by virtual page, so the analysis
    needs no page placement: group the accesses by virtual page and
    apply the cyclic-LRU rule to the TLB sets.  Accesses to one page
    are contiguous in address order, so an overloaded page costs one
    walk per revolution regardless of how many accesses it gets.  The
    result is a pure function of the four arguments — memoized because
    every repeat-sample of a probe re-asks it.
    """
    vaddrs = _strided_addresses_shared(array_bytes, stride)
    vpages = np.unique(vaddrs // page_size)
    sets = vpages % tlb.num_sets
    load = np.bincount(sets.astype(np.int64), minlength=tlb.num_sets)
    overloaded_pages = int(load[load > tlb.effective_ways].sum())
    return overloaded_pages * tlb.walk_cycles / len(vaddrs)


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
        self._hits_counter = None
        self._misses_counter = None

    def bind_metrics(self, metrics) -> None:
        """Export cache hit/miss counts through a metrics registry.

        Called by :func:`repro.backends.base.instrument_backend` (via
        the backend's own ``bind_metrics``) so suite runs surface
        ``memsim.outcome.hits`` / ``memsim.outcome.misses``.  The
        counter objects are resolved once and cached — the hot path
        must not pay a registry lookup per probe.
        """
        self._hits_counter = metrics.counter("memsim.outcome.hits")
        self._misses_counter = metrics.counter("memsim.outcome.misses")

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
                    if self._hits_counter is not None:
                        self._hits_counter.inc()
                    return _copy_result(cached)
                if self._misses_counter is not None:
                    self._misses_counter.inc()

        result = self._simulate(traversals, cores, rng)
        if key is not None:
            cache.put(key, _copy_result(result))
        return result

    def _simulate(
        self,
        traversals: list[Traversal],
        cores: list[int],
        rng: np.random.Generator,
    ) -> TraversalResult:
        """The actual steady-state computation (cache-miss path)."""
        child_rngs = spawn(rng, len(traversals))

        machine = self.machine
        line_size = machine.levels[0].spec.line_size
        spaces: dict[int, AddressSpace] = {}
        active: dict[int, np.ndarray] = {}
        cost: dict[int, np.ndarray] = {}
        n_accesses: dict[int, int] = {}
        for t, crng in zip(traversals, child_rngs):
            spaces[t.core] = AddressSpace(
                machine.page_size, self.paging, t.array_bytes, crng
            )
            n = len(_strided_addresses_shared(t.array_bytes, t.stride))
            active[t.core] = np.ones(n, dtype=bool)
            cost[t.core] = np.zeros(n, dtype=np.float64)
            n_accesses[t.core] = n

        miss_fraction: dict[int, list[float]] = {t.core: [] for t in traversals}

        # A tracked stream (small stride) has its beyond-L1 miss
        # latencies hidden by the prefetcher.
        pf_factor = {
            t.core: self.prefetch.miss_latency_factor(t.stride) for t in traversals
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
                    sets[t.core] = _virtual_sets_shared(
                        t.array_bytes, t.stride, granule, spec.num_sets
                    )
                    continue
                lines = plines.get((t.core, granule))
                if lines is None:
                    lines = spaces[t.core].physical_lines(
                        _strided_addresses_shared(t.array_bytes, t.stride),
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
                overloaded = load > spec.ways + self._exclusive_extra_ways(
                    level_idx, members
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
            t.core: self._tlb_cycles_per_access(t) for t in traversals
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
        inner_instances: set[tuple[int, int]] = set()
        for i in range(level_idx):
            level = self.machine.levels[i]
            for c in members:
                inner_instances.add((i, level.instance_index(c)))
        inner_bytes = sum(
            self.machine.levels[i].spec.size for i, _ in inner_instances
        )
        granule = self.machine.levels[0].spec.line_size * spec.sector_lines
        return inner_bytes // (granule * spec.num_sets)

    def _tlb_cycles_per_access(self, traversal: Traversal) -> float:
        """Average page-walk cycles per access (memoized; see module fn)."""
        tlb = self.machine.tlb
        if tlb is None:
            return 0.0
        return _tlb_cycles_shared(
            tlb, self.machine.page_size, traversal.array_bytes, traversal.stride
        )

    def single(
        self,
        array_bytes: int,
        stride: int,
        core: int = 0,
        rng: np.random.Generator | int | None = None,
    ) -> float:
        """Average cycles/access for one isolated core (convenience)."""
        result = self.run([Traversal(core, array_bytes, stride)], rng=rng)
        return result.cycles_per_access[core]
