"""Per-layer self-time tracing from outside the program.

The traced run patches each layer's public functions *where their
caller looks them up* (a module global such as
``repro.backends.simulated.pingpong_latency``, or a class attribute such
as ``TraversalEngine.run``) with a timing wrapper.  Nothing inside
``src/`` is edited: the wrappers live here and are installed into a
fresh worker process before any backend or suite is built.

A layer's self time is its wrapped time minus the wrapped time of the
calls it makes into other wrapped functions, so the self times of one
traced step add up to the step's wall time.  The self time of a root
(:data:`ROOTS`) is the code no narrower wrapper covers; it is reported
as ``unattributed_s`` together with the time outside every wrapper.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

#: (module, attribute path, layer) for every wrapped entry point.
#: Methods are patched on their class, which is where an instance
#: looks them up; functions are patched in the module that calls them.
WRAPPED: tuple[tuple[str, str, str], ...] = (
    ("repro.core.suite", "ServetSuite.run", "core.suite"),
    ("repro.core.suite", "detect_caches", "core.cache_size"),
    ("repro.core.suite", "detect_shared_caches", "core.shared_caches"),
    ("repro.core.suite", "detect_tlb_entries", "core.tlb_detection"),
    ("repro.core.suite", "characterize_memory_overhead", "core.memory_overhead"),
    ("repro.core.suite", "run_comm_costs", "core.communication_costs"),
    *(
        ("repro.planner.executor", f"PlanExecutor.{name}", "planner")
        for name in (
            "execute",
            "traversal_cycles",
            "copy_bandwidth",
            "message_latency",
            "concurrent_message_latency",
            "traversal_reference",
            "pairwise",
            "pairwise_message_latency",
        )
    ),
    *(
        ("repro.backends.simulated", f"SimulatedBackend.{name}", f"backends.{name}")
        for name in (
            "traversal_cycles",
            "copy_bandwidth",
            "message_latency",
            "concurrent_message_latency",
        )
    ),
    ("repro.memsim.traversal", "TraversalEngine.run", "memsim.traversal"),
    ("repro.backends.simulated", "stream_copy_bandwidth", "memsim.stream"),
    ("repro.backends.simulated", "pingpong_latency", "simmpi.pingpong"),
    ("repro.backends.simulated", "concurrent_exchanges", "simmpi.concurrent"),
    ("repro.simmpi.events", "Engine.run", "simmpi.engine"),
    ("repro.workload", "co_schedule", "workload.coschedule"),
    ("repro.workload.coschedule", "profile_workload", "workload.profile"),
    ("repro.workload.coschedule", "CoScheduler.rank", "workload.rank"),
    ("repro.workload.recorder", "ReuseDistanceRecorder.observe", "workload.recorder"),
)


#: Outermost entry points of the workloads.  Their self time is the code
#: between the wrapped layers, so the layer closure counts it as
#: unattributed rather than letting it absorb every gap.
ROOTS = frozenset({"core.suite", "workload.coschedule"})


class LayerTimer:
    """Self time, inclusive time and call counts per layer.

    Single-threaded by design: the suite and co-schedule steps
    all run on the worker's main thread.
    """

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        #: ``simmpi.events`` (summed ``Engine.run`` results) and
        #: ``workload.recorder.accesses`` (summed ``observe`` lengths).
        self.tallies: Counter[str] = Counter()
        self._children: list[float] = []
        self._active: Counter[str] = Counter()

    def wrap(self, layer: str, fn):
        children, active = self._children, self._active
        self_s, total_s, calls = self.self_s, self.total_s, self.calls
        tallies = self.tallies
        clock = time.perf_counter

        def timed(*args, **kwargs):
            children.append(0.0)
            active[layer] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - children.pop()
                active[layer] -= 1
                if not active[layer]:
                    total_s[layer] += elapsed  # outermost activation only
                calls[layer] += 1
                if children:
                    children[-1] += elapsed
            if layer == "simmpi.engine":
                tallies["simmpi.events"] += result
            elif layer == "workload.recorder":
                tallies["workload.recorder.accesses"] += len(args[1])
            return result

        timed.__wrapped__ = fn
        return timed

    def install(self) -> None:
        """Patch every entry point in :data:`WRAPPED` (once per process)."""
        for module_name, path, layer in WRAPPED:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for name in parents:
                owner = getattr(owner, name)
            setattr(owner, attr, self.wrap(layer, getattr(owner, attr)))

    def snapshot(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "tallies": dict(self.tallies),
        }

