"""The memoizing, pruning, serial probe executor.

:class:`PlanExecutor` sits between the phase algorithms and the
:class:`~repro.backends.base.Backend`:

- **Memoization** — every probe result is cached under the probe's
  value identity, so repeated probes (the per-level reference
  traversals, a characterization sweep revisiting the layer-detection
  probe size, a re-measured isolated latency) are answered for free.
  Intentional repeat-sampling carries distinct ``sample`` indices and
  is never collapsed.
- **Symmetry pruning** — pairwise batches are partitioned into
  topology-equivalence classes (:mod:`repro.planner.symmetry`); one
  representative per class is measured and its result broadcast to the
  rest, turning O(n²) pairwise measurements into O(#classes).
  ``verify`` mode additionally measures one spot-check pair per class
  and falls back to full measurement when it diverges from the
  representative.
- **Serial execution** — probes reach the backend one at a time, in
  the order they are asked for.  Servet's shared-cache and memory-bus
  phases measure how concurrent work on some cores slows down others,
  so overlapping two probes — even on disjoint cores, which may still
  share an L3 or a front-side bus — would corrupt exactly what they
  measure.  Serial order also keeps simulated backends' RNG streams
  and virtual-time accounting deterministic.

Every decision is counted in :class:`PlannerStats` so the suite can
report measurements issued versus measurements saved.
"""

from __future__ import annotations

from contextlib import nullcontext
from collections.abc import Callable, Iterable, Sequence

from ..backends.base import Backend, ConcurrentLatency
from ..errors import ConfigurationError
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer
from ..topology.machine import CorePair
from .plan import (
    ConcurrentMessageProbe,
    MessageProbe,
    Probe,
    StreamProbe,
    TraversalProbe,
    probe_cores,
    probe_id,
    probe_kind,
)
from .symmetry import TopologyClassifier, classifier_for, validate_prune_mode

#: Relative disagreement between representative and spot check above
#: which ``verify`` mode distrusts a class and measures it in full.
#: Chosen just under the phase clustering tolerances (0.08–0.15), so a
#: divergence large enough to change clustering always trips it.
VERIFY_TOLERANCE: float = 0.05


class PlannerStats:
    """Counters of what the executor did (and did not have to do).

    The counts live in :class:`~repro.obs.metrics.Counter` instruments
    (names ``planner.issued`` etc.) inside a metrics registry — the
    same registry a suite run exports with ``--metrics`` — so the
    planner accounting in a report and the metrics document can never
    disagree.  The attribute interface (``stats.issued += 1``) is
    unchanged from the old dataclass.
    """

    #: issued — backend measurements actually performed;
    #: cache_hits — probes answered from the memo cache;
    #: pruned — pairwise probes answered by symmetry broadcast;
    #: spot_checks — verify-mode extras (also counted issued);
    #: verify_fallbacks — classes re-measured in full after divergence;
    #: pairwise_requested / pairwise_measured — asked-for vs reached-
    #: the-backend pairwise probes.
    _COUNTERS = (
        "issued",
        "cache_hits",
        "pruned",
        "spot_checks",
        "verify_fallbacks",
        "pairwise_requested",
        "pairwise_measured",
    )

    def __init__(self, registry: MetricsRegistry | None = None, **initial: int):
        self.registry = registry if registry is not None else MetricsRegistry()
        # Resolve the instruments once: the attribute interface is hit
        # several times per probe, and a registry lookup per access is
        # measurable at suite scale.
        self._instruments = {
            name: self.registry.counter(f"planner.{name}")
            for name in self._COUNTERS
        }
        unknown = set(initial) - set(self._COUNTERS)
        if unknown:
            raise ConfigurationError(f"unknown planner counters: {sorted(unknown)}")
        for name, value in initial.items():
            if value:
                self._instruments[name].inc(value)

    @property
    def saved(self) -> int:
        """Measurements avoided (cache hits + symmetry broadcasts)."""
        return self.cache_hits + self.pruned

    def as_dict(self) -> dict[str, int]:
        data = {name: getattr(self, name) for name in self._COUNTERS}
        data["saved"] = self.saved
        return data

    def merge(self, data: dict) -> None:
        """Add previously accumulated counters (checkpoint resume).

        Keys that are not counters are ignored: report dicts carry
        ``prune`` and ``saved``, and reports written while the planner
        still had a worker pool also carry its ``jobs`` width and
        timeout counter.
        """
        for name in self._COUNTERS:
            increment = int(data.get(name, 0))
            if increment:
                self._instruments[name].inc(increment)


def _stats_counter(name: str) -> property:
    def _get(self: PlannerStats) -> int:
        return int(self._instruments[name].value)

    def _set(self: PlannerStats, value: int) -> None:
        self._instruments[name].set(value)

    return property(_get, _set)


for _name in PlannerStats._COUNTERS:
    setattr(PlannerStats, _name, _stats_counter(_name))
del _name


class PlanExecutor:
    """Measure probes against a backend, one at a time.

    Parameters
    ----------
    backend:
        The measurement backend (possibly wrapped by the resilience
        decorators; attribute delegation makes those transparent).
    prune:
        ``"off"`` | ``"topology"`` | ``"verify"`` — see the module
        docstring.  Topology modes require the backend to expose a
        ``cluster`` model (the simulated backends do).
    classifier:
        Override the pair classifier (tests inject adversarial ones).
    tracer:
        Emit a ``probe`` span around every measurement that reaches the
        backend (None = no tracing overhead).
    metrics:
        Registry backing :attr:`stats` and the per-kind probe counters;
        a private registry is created when not given.
    """

    def __init__(
        self,
        backend: Backend,
        prune: str = "off",
        classifier: TopologyClassifier | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.backend = backend
        self.prune = validate_prune_mode(prune)
        if classifier is None and self.prune != "off":
            classifier = classifier_for(backend)
            if classifier is None:
                raise ConfigurationError(
                    f"prune={self.prune!r} needs a backend with a cluster "
                    "topology model; this backend has none (use prune='off')"
                )
        self.classifier = classifier
        self.tracer = tracer
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.stats = PlannerStats(registry=self.metrics)
        self._memo: dict[Probe, object] = {}
        self._issue_counters: dict[str, object] = {}

    # -- batch execution ----------------------------------------------------

    def execute(self, probes: Iterable[Probe]) -> dict[Probe, object]:
        """Measure every probe not yet memoized, in order; return results.

        A probe already answered (earlier, or earlier in ``probes``)
        counts as a cache hit and does not reach the backend again.
        """
        return {probe: self._memoized(probe) for probe in probes}

    def _issue_counter(self, probe: Probe):
        kind = probe_kind(probe)
        counter = self._issue_counters.get(kind)
        if counter is None:
            counter = self.metrics.counter("planner.probes_issued", kind=kind)
            self._issue_counters[kind] = counter
        return counter

    def _measure(self, probe: Probe):
        self._issue_counter(probe).inc()
        span = (
            self.tracer.span(
                "probe",
                kind=probe_kind(probe),
                probe_id=probe_id(probe),
                cores=list(probe_cores(probe)),
            )
            if self.tracer is not None
            else nullcontext()
        )
        with span:
            return self._dispatch(probe)

    def _dispatch(self, probe: Probe):
        backend = self.backend
        if isinstance(probe, TraversalProbe):
            return backend.traversal_cycles(list(probe.arrays), probe.stride)
        if isinstance(probe, StreamProbe):
            return backend.copy_bandwidth(list(probe.cores))
        if isinstance(probe, MessageProbe):
            a, b = probe.pair
            return backend.message_latency(a, b, probe.nbytes)
        if isinstance(probe, ConcurrentMessageProbe):
            return backend.concurrent_message_latency(
                list(probe.pairs), probe.nbytes
            )
        raise ConfigurationError(f"unknown probe type {type(probe).__name__}")

    # -- memoized single probes ---------------------------------------------

    def _memoized(self, probe: Probe):
        if probe in self._memo:
            self.stats.cache_hits += 1
            return self._memo[probe]
        result = self._measure(probe)
        self._memo[probe] = result
        self.stats.issued += 1
        return result

    def traversal_cycles(
        self,
        arrays: Sequence[tuple[int, int]],
        stride: int,
        sample: int = 0,
    ) -> dict[int, float]:
        probe = TraversalProbe(
            arrays=tuple((int(c), int(n)) for c, n in arrays),
            stride=stride,
            sample=sample,
        )
        return self._memoized(probe)

    def copy_bandwidth(self, cores: Sequence[int]) -> dict[int, float]:
        probe = StreamProbe(cores=tuple(int(c) for c in cores))
        return self._memoized(probe)

    def message_latency(
        self, core_a: int, core_b: int, nbytes: int, sample: int = 0
    ) -> float:
        pair = (core_a, core_b) if core_a < core_b else (core_b, core_a)
        probe = MessageProbe(pair=pair, nbytes=nbytes, sample=sample)
        return self._memoized(probe)

    def concurrent_message_latency(
        self, pairs: Sequence[CorePair], nbytes: int
    ) -> ConcurrentLatency:
        probe = ConcurrentMessageProbe(
            pairs=tuple(tuple(p) for p in pairs), nbytes=nbytes
        )
        return self._memoized(probe)

    def traversal_reference(
        self, core: int, array_bytes: int, stride: int, samples: int = 1
    ) -> float:
        """Mean single-core traversal cycles over ``samples`` repeats.

        Each repeat is a distinct probe (fresh page placement is the
        point of repeat-sampling) but the whole reference is memoized,
        so asking again for the same (core, size, stride, sample) —
        across levels, phases, or resumed runs — costs nothing.
        """
        values = [
            self.traversal_cycles([(core, array_bytes)], stride, sample=s)[core]
            for s in range(samples)
        ]
        return float(sum(values)) / len(values)

    # -- pruned pairwise batches --------------------------------------------

    def pairwise(
        self,
        pairs: Sequence[CorePair],
        probe_factory: Callable[[CorePair, int], Probe],
        value: Callable[[CorePair, list], float],
        samples: int = 1,
    ) -> dict[CorePair, float]:
        """Measure a structurally identical probe for every core pair.

        ``probe_factory(pair, sample)`` builds the probe for one pair
        and sample index; the factory must mention the pair's cores in
        the pair's sorted order, so a representative's raw result can be
        re-keyed onto an equivalent pair.  ``value(pair, raws)`` reduces
        the pair's per-sample raw results to the scalar the phase
        clusters on.

        With pruning off every pair is measured (still memoized).  With
        ``topology``/``verify`` pruning only class representatives (and
        spot checks) reach the backend; everything else is broadcast.
        """
        pairs = list(pairs)
        if samples < 1:
            raise ConfigurationError("samples must be >= 1")
        self.stats.pairwise_requested += len(pairs) * samples

        if self.prune == "off" or self.classifier is None:
            self._measure_pairs(pairs, probe_factory, samples)
            return self._values_of(pairs, probe_factory, value, samples)

        classes = self.classifier.partition(pairs)
        probed: list[CorePair] = []
        spot_of: dict[int, CorePair | None] = {}
        for idx, cls in enumerate(classes):
            probed.append(cls.representative)
            spot = cls.spot_check if self.prune == "verify" else None
            spot_of[idx] = spot
            if spot is not None:
                probed.append(spot)
                self.stats.spot_checks += samples
        self._measure_pairs(probed, probe_factory, samples)

        for idx, cls in enumerate(classes):
            rep = cls.representative
            spot = spot_of[idx]
            measured = {rep} | ({spot} if spot is not None else set())
            if spot is not None and self._diverges(
                value(rep, self._raws(rep, probe_factory, samples)),
                value(spot, self._raws(spot, probe_factory, samples)),
            ):
                # The machine is not as symmetric as the model claims:
                # distrust the whole class and measure it for real.
                self.stats.verify_fallbacks += 1
                rest = [p for p in cls.pairs if p not in measured]
                self._measure_pairs(rest, probe_factory, samples)
                continue
            for member in cls.pairs:
                if member in measured:
                    continue
                for s in range(samples):
                    src = probe_factory(rep, s)
                    dst = probe_factory(member, s)
                    if dst not in self._memo:
                        self._memo[dst] = _rekey(src, dst, self._memo[src])
                        self.stats.pruned += 1
        return self._values_of(pairs, probe_factory, value, samples)

    def pairwise_message_latency(
        self, pairs: Sequence[CorePair], nbytes: int
    ) -> dict[CorePair, float]:
        """All-pairs message latency (the Fig. 5–7 workhorse)."""
        return self.pairwise(
            pairs,
            probe_factory=lambda pair, s: MessageProbe(
                pair=pair, nbytes=nbytes, sample=s
            ),
            value=lambda pair, raws: float(raws[0]),
        )

    # -- helpers ------------------------------------------------------------

    def _measure_pairs(
        self,
        pairs: Sequence[CorePair],
        probe_factory: Callable[[CorePair, int], Probe],
        samples: int,
    ) -> None:
        probes = dict.fromkeys(
            probe_factory(pair, s) for pair in pairs for s in range(samples)
        )
        before = self.stats.issued
        self.execute(probes)
        self.stats.pairwise_measured += self.stats.issued - before

    def _raws(self, pair, probe_factory, samples: int) -> list:
        return [self._memo[probe_factory(pair, s)] for s in range(samples)]

    def _values_of(self, pairs, probe_factory, value, samples: int) -> dict:
        return {
            pair: value(pair, self._raws(pair, probe_factory, samples))
            for pair in pairs
        }

    def _diverges(self, v_rep: float, v_spot: float) -> bool:
        scale = max(abs(v_rep), abs(v_spot))
        if scale == 0.0:
            return False
        return abs(v_rep - v_spot) / scale > VERIFY_TOLERANCE


def _rekey(src: Probe, dst: Probe, raw):
    """Re-key a representative's raw result onto an equivalent pair."""
    if isinstance(raw, dict):
        mapping = dict(zip(probe_cores(src), probe_cores(dst)))
        return {mapping[core]: val for core, val in raw.items()}
    return raw
