"""Backend driving the simulated substrate.

Couples the analytic memory simulator, the bandwidth allocator and the
discrete-event MPI runtime behind the :class:`Backend` interface, adds
multiplicative Gaussian measurement noise (real benchmarks are never
exact), and charges a calibrated virtual cost per measurement so the
suite can report Table I-style execution times.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import ClassVar

from ..errors import MeasurementError
from ..ioutils import sha256_hex
from ..lru import LRUCache
from ..memsim.outcome import GLOBAL_COMM_CACHE, GLOBAL_OUTCOME_CACHE
from ..memsim.paging import PagePolicy, RandomPaging
from ..memsim.prefetch import PrefetchModel
from ..memsim.stream import stream_copy_bandwidth
from ..memsim.traversal import Traversal, TraversalEngine
from ..netsim.model import CommConfig
from ..netsim.presets import default_comm_config
from ..rng import ensure_rng
from ..simmpi.primitives import concurrent_exchanges, pingpong_latency
from ..topology.machine import Cluster, CorePair, Machine
from .base import Backend, ConcurrentLatency


# -- measurement costs ---------------------------------------------------------
#
# Virtual seconds one measurement of each kind costs, calibrated to land
# in the regime of the paper's Table I: each measurement pays a setup
# overhead (process launch, pinning, MPI synchronization) plus a minimum
# sampling duration (benchmarks repeat their kernels until timings
# stabilize).

TRAVERSAL_SETUP: float = 0.1
TRAVERSAL_MIN_SAMPLE: float = 0.4
#: Rounds a traversal repeats when that takes longer than its minimum
#: sample.
TRAVERSAL_ROUNDS: int = 8
#: Setup and minimum sample of two or more concurrent traversals.
PAIR_TRAVERSAL_SETUP: float = 0.1
PAIR_TRAVERSAL_MIN_SAMPLE: float = 0.15
STREAM_SETUP: float = 0.3
STREAM_MIN_SAMPLE: float = 3.5
MESSAGE_SETUP: float = 3.0
#: Messages per latency measurement (a ping-pong sends two each).
MESSAGE_REPETITIONS: int = 1000


class SimulatedBackend(Backend):
    """Measurements against the simulated multicore cluster.

    Repeated simulations are answered from the process-wide outcome
    caches (:mod:`repro.memsim.outcome`); cached results are
    byte-identical to fresh ones.

    Parameters
    ----------
    system:
        A :class:`Machine` (wrapped as a 1-node cluster) or a
        :class:`Cluster`.
    comm_config:
        Communication cost model; defaults to the system's preset.
    paging:
        Page-placement policy for the memory simulator (the page-coloring
        ablation swaps this).
    prefetch:
        Hardware prefetcher model.
    noise:
        Relative standard deviation of multiplicative measurement noise
        (0 disables noise).
    seed:
        RNG seed for noise and page placement.
    """

    #: The process-wide caches repeats are answered from, by the prefix
    #: a suite reports their ``hits``/``misses`` under (see
    #: :meth:`repro.core.suite.ServetSuite.run`).
    result_caches: ClassVar[dict[str, LRUCache]] = {
        "memsim.outcome": GLOBAL_OUTCOME_CACHE,
        "simmpi.comm": GLOBAL_COMM_CACHE,
    }

    def __init__(
        self,
        system: Machine | Cluster,
        comm_config: CommConfig | None = None,
        paging: PagePolicy | None = None,
        prefetch: PrefetchModel | None = None,
        noise: float = 0.01,
        seed: int | None = None,
    ) -> None:
        if isinstance(system, Machine):
            system = Cluster(system.name, system, n_nodes=1)
        self.cluster = system
        self.machine = system.node
        self.comm_config = (
            comm_config if comm_config is not None else default_comm_config(system)
        )
        self.comm_config.validate_against(system)
        self.engine = TraversalEngine(
            self.machine,
            paging=paging if paging is not None else RandomPaging(),
            prefetch=prefetch,
        )
        if noise < 0:
            raise MeasurementError("noise must be >= 0")
        self.noise = noise
        self.rng = ensure_rng(seed)
        self.name = system.name
        self.n_cores = system.n_cores
        self.page_size = self.machine.page_size
        self.virtual_time = 0.0
        # The communication substrate is RNG-free: a ping-pong or
        # concurrent exchange is a pure function of this token plus the
        # probe parameters, so repeats skip the event loop entirely.
        self._comm_token = sha256_hex(
            f"{self.cluster!r}|{self.comm_config.canonical()}"
        )

    # -- noise -------------------------------------------------------------

    def _noisy(self, value: float) -> float:
        if self.noise == 0.0:
            return value
        factor = float(self.rng.normal(1.0, self.noise))
        return value * max(factor, 0.5)  # clip pathological draws

    # -- Backend API --------------------------------------------------------

    def traversal_cycles(
        self,
        arrays: Sequence[tuple[int, int]],
        stride: int,
    ) -> dict[int, float]:
        if not arrays:
            raise MeasurementError("traversal_cycles needs at least one array")
        for core, _ in arrays:
            if self.cluster.node_of(core) != self.cluster.node_of(arrays[0][0]):
                raise MeasurementError(
                    "concurrent traversals must share one node (memory is "
                    "not shared across nodes)"
                )
        local = [
            Traversal(self.cluster.local_core(core), nbytes, stride)
            for core, nbytes in arrays
        ]
        result = self.engine.run(local, rng=self.rng)
        if len(arrays) == 1:
            setup, min_sample = TRAVERSAL_SETUP, TRAVERSAL_MIN_SAMPLE
        else:
            setup, min_sample = PAIR_TRAVERSAL_SETUP, PAIR_TRAVERSAL_MIN_SAMPLE
        round_secs = max(result.seconds_per_round.values())
        self.charge(setup + max(min_sample, TRAVERSAL_ROUNDS * round_secs))
        out: dict[int, float] = {}
        for (core, _), trav in zip(arrays, local):
            out[core] = self._noisy(result.cycles_per_access[trav.core])
        return out

    def copy_bandwidth(self, cores: Sequence[int]) -> dict[int, float]:
        if not cores:
            raise MeasurementError("copy_bandwidth needs at least one core")
        nodes = {self.cluster.node_of(c) for c in cores}
        if len(nodes) > 1:
            # Cores on different nodes do not share memory: measure each
            # node's group independently (no interference, like reality).
            out: dict[int, float] = {}
            for node in nodes:
                group = [c for c in cores if self.cluster.node_of(c) == node]
                out.update(self.copy_bandwidth(group))
            return out
        local = {self.cluster.local_core(c): c for c in cores}
        bw = stream_copy_bandwidth(self.machine, list(local))
        self.charge(STREAM_SETUP + STREAM_MIN_SAMPLE)
        return {local[lc]: self._noisy(v) for lc, v in bw.items()}

    def message_latency(self, core_a: int, core_b: int, nbytes: int) -> float:
        key = (self._comm_token, "pingpong", core_a, core_b, nbytes)
        latency = GLOBAL_COMM_CACHE.get(key)
        if latency is None:
            latency = pingpong_latency(
                self.cluster, self.comm_config, core_a, core_b, nbytes,
                repetitions=4,
            )
            GLOBAL_COMM_CACHE.put(key, latency)
        self.charge(MESSAGE_SETUP + 2 * MESSAGE_REPETITIONS * latency)
        return self._noisy(latency)

    def concurrent_message_latency(
        self, pairs: Sequence[CorePair], nbytes: int
    ) -> ConcurrentLatency:
        key = (self._comm_token, "concurrent", tuple(pairs), nbytes)
        cached = GLOBAL_COMM_CACHE.get(key)
        if cached is None:
            result = concurrent_exchanges(
                self.cluster, self.comm_config, pairs, nbytes
            )
            cached = (result.mean, result.worst)
            GLOBAL_COMM_CACHE.put(key, cached)
        mean, worst = cached
        self.charge(MESSAGE_SETUP + MESSAGE_REPETITIONS * worst)
        return ConcurrentLatency(mean=self._noisy(mean), worst=self._noisy(worst))
