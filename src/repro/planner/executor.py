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

from dataclasses import asdict, dataclass, fields
from collections.abc import Callable, Iterable, Sequence

from ..backends.base import Backend, ConcurrentLatency
from ..errors import ConfigurationError
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
)
from .symmetry import TopologyClassifier, classifier_for, validate_prune_mode

#: Relative disagreement between representative and spot check above
#: which ``verify`` mode distrusts a class and measures it in full.
#: Chosen just under the phase clustering tolerances (0.08–0.15), so a
#: divergence large enough to change clustering always trips it.
VERIFY_TOLERANCE: float = 0.05

_MISSING = object()


@dataclass
class PlannerStats:
    """Counts of what the executor did (and did not have to do).

    Plain integers: the suite publishes them to its metrics registry
    once per run (``planner.<name>``), from the same dict that becomes
    ``ServetReport.planner``.
    """

    #: Backend measurements actually performed.
    issued: int = 0
    #: Probes answered from the memo cache.
    cache_hits: int = 0
    #: Pairwise probes answered by symmetry broadcast.
    pruned: int = 0
    #: Verify-mode extras (also counted issued).
    spot_checks: int = 0
    #: Classes re-measured in full after divergence.
    verify_fallbacks: int = 0
    #: Asked-for vs reached-the-backend pairwise probes.
    pairwise_requested: int = 0
    pairwise_measured: int = 0

    @property
    def saved(self) -> int:
        """Measurements avoided (cache hits + symmetry broadcasts)."""
        return self.cache_hits + self.pruned

    def as_dict(self) -> dict[str, int]:
        data = asdict(self)
        data["saved"] = self.saved
        return data

    def merge(self, data: dict) -> None:
        """Add previously accumulated counters (checkpoint resume).

        Keys that are not counters are ignored: report dicts carry
        ``prune``, ``saved`` and ``per_phase``, and reports written
        while the planner still had a worker pool also carry its
        ``jobs`` width and timeout counter.
        """
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + int(data.get(f.name, 0)))


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
    """

    def __init__(
        self,
        backend: Backend,
        prune: str = "off",
        classifier: TopologyClassifier | None = None,
        tracer: Tracer | None = None,
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
        self.stats = PlannerStats()
        self._memo: dict[Probe, object] = {}

    # -- the one probe path -------------------------------------------------

    def _result(self, probe: Probe):
        """The probe's result: memoized, or measured now and memoized.

        Every probe takes this path, and it is the only place the
        executor counts one.
        """
        result = self._memo.get(probe, _MISSING)
        if result is not _MISSING:
            self.stats.cache_hits += 1
            return result
        if self.tracer is None:
            result = probe.measure(self.backend)
        else:
            with self.tracer.span(
                "probe",
                kind=probe.kind,
                probe_id=probe_id(probe),
                cores=list(probe_cores(probe)),
            ):
                result = probe.measure(self.backend)
        self._memo[probe] = result
        self.stats.issued += 1
        return result

    def execute(self, probes: Iterable[Probe]) -> dict[Probe, object]:
        """Measure every probe not yet memoized, in order; return results.

        A probe already answered (earlier, or earlier in ``probes``)
        counts as a cache hit and does not reach the backend again.
        """
        return {probe: self._result(probe) for probe in probes}

    # -- single probes ------------------------------------------------------

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
        return self._result(probe)

    def copy_bandwidth(self, cores: Sequence[int]) -> dict[int, float]:
        probe = StreamProbe(cores=tuple(int(c) for c in cores))
        return self._result(probe)

    def message_latency(
        self, core_a: int, core_b: int, nbytes: int, sample: int = 0
    ) -> float:
        pair = (core_a, core_b) if core_a < core_b else (core_b, core_a)
        probe = MessageProbe(pair=pair, nbytes=nbytes, sample=sample)
        return self._result(probe)

    def concurrent_message_latency(
        self, pairs: Sequence[CorePair], nbytes: int
    ) -> ConcurrentLatency:
        probe = ConcurrentMessageProbe(
            pairs=tuple(tuple(p) for p in pairs), nbytes=nbytes
        )
        return self._result(probe)

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
        probes = {
            pair: [probe_factory(pair, s) for s in range(samples)] for pair in pairs
        }

        if self.prune == "off" or self.classifier is None:
            results = self._measure_pairs(probes, pairs)
        else:
            results = self._measure_pruned(probes, pairs, value, samples)
        return {
            pair: value(pair, [results[probe] for probe in probes[pair]])
            for pair in pairs
        }

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
        self, probes: dict[CorePair, list[Probe]], pairs: Iterable[CorePair]
    ) -> dict[Probe, object]:
        """Measure the probes of ``pairs`` (each once); return their results."""
        before = self.stats.issued
        results = self.execute(
            dict.fromkeys(probe for pair in pairs for probe in probes[pair])
        )
        self.stats.pairwise_measured += self.stats.issued - before
        return results

    def _measure_pruned(
        self,
        probes: dict[CorePair, list[Probe]],
        pairs: list[CorePair],
        value: Callable[[CorePair, list], float],
        samples: int,
    ) -> dict[Probe, object]:
        """Measure one representative (and spot check) per class and
        broadcast its results to the rest of the class."""
        classes = self.classifier.partition(pairs)
        spots = [
            cls.spot_check if self.prune == "verify" else None for cls in classes
        ]
        probed: list[CorePair] = []
        for cls, spot in zip(classes, spots):
            probed.append(cls.representative)
            if spot is not None:
                probed.append(spot)
                self.stats.spot_checks += samples
        results = self._measure_pairs(probes, probed)

        memo = self._memo
        for cls, spot in zip(classes, spots):
            rep = cls.representative
            measured = {rep, spot}
            if spot is not None and self._diverges(
                value(rep, [results[probe] for probe in probes[rep]]),
                value(spot, [results[probe] for probe in probes[spot]]),
            ):
                # The machine is not as symmetric as the model claims:
                # distrust the whole class and measure it for real.
                self.stats.verify_fallbacks += 1
                rest = [p for p in cls.pairs if p not in measured]
                results.update(self._measure_pairs(probes, rest))
                continue
            for member in cls.pairs:
                if member in measured:
                    continue
                for src, dst in zip(probes[rep], probes[member]):
                    if dst not in memo:
                        memo[dst] = _rekey(src, dst, results[src])
                        self.stats.pruned += 1
                    results[dst] = memo[dst]
        return results

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
