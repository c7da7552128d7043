"""Unit tests for the measurement planner (plan / symmetry / executor)."""

from __future__ import annotations

import dataclasses
import threading
import time

import pytest

from repro import SimulatedBackend, dunnington, finis_terrae
from repro.backends.base import Backend, ConcurrentLatency
from repro.errors import ConfigurationError
from repro.planner import (
    ConcurrentMessageProbe,
    MessageProbe,
    PairClass,
    PlanExecutor,
    PlannerStats,
    StreamProbe,
    TopologyClassifier,
    TraversalProbe,
    classifier_for,
    probe_id,
    validate_prune_mode,
)
from repro.topology.machine import all_pairs


class CountingBackend(Backend):
    """Deterministic fake backend that counts every measurement."""

    def __init__(self, n_cores: int = 8) -> None:
        self.name = "counting"
        self.n_cores = n_cores
        self.page_size = 4096
        self.calls: list[tuple] = []

    def traversal_cycles(self, arrays, stride):
        self.calls.append(("traversal", tuple(arrays), stride))
        return {core: 10.0 + core for core, _ in arrays}

    def copy_bandwidth(self, cores):
        self.calls.append(("bandwidth", tuple(cores)))
        return {core: 1e9 / (1 + len(cores)) + core for core in cores}

    def message_latency(self, core_a, core_b, nbytes):
        self.calls.append(("latency", core_a, core_b, nbytes))
        return 1e-6 * nbytes * (1 + abs(core_a - core_b) % 3)

    def concurrent_message_latency(self, pairs, nbytes):
        self.calls.append(("concurrent", tuple(pairs), nbytes))
        lat = 1e-6 * nbytes * len(pairs)
        return ConcurrentLatency(mean=lat, worst=1.5 * lat)


class TestPlanRepresentation:
    def test_probes_are_hashable_value_objects(self):
        a = MessageProbe(pair=(0, 1), nbytes=1024)
        b = MessageProbe(pair=(0, 1), nbytes=1024)
        assert a == b and hash(a) == hash(b)
        assert a != MessageProbe(pair=(0, 1), nbytes=1024, sample=1)

    def test_kind_is_not_a_field(self):
        # ``kind`` is a class variable: repr, equality, hashing and
        # every probe_id are what they were before probes carried it.
        pinned = {
            TraversalProbe(arrays=((2, 64), (5, 64)), stride=8): (
                "TraversalProbe(arrays=((2, 64), (5, 64)), stride=8, sample=0)",
                "traversal:496676ff215b",
            ),
            StreamProbe(cores=(1, 3)): (
                "StreamProbe(cores=(1, 3), sample=0)",
                "stream:62fd4a60ed4a",
            ),
            MessageProbe(pair=(0, 4), nbytes=8): (
                "MessageProbe(pair=(0, 4), nbytes=8, sample=0)",
                "message:8772874db7b9",
            ),
            ConcurrentMessageProbe(pairs=((0, 1), (2, 3)), nbytes=8): (
                "ConcurrentMessageProbe(pairs=((0, 1), (2, 3)), nbytes=8, sample=0)",
                "concurrent_message:33bc94667174",
            ),
        }
        for probe, (text, pid) in pinned.items():
            assert "kind" not in {f.name for f in dataclasses.fields(probe)}
            assert repr(probe) == text
            assert probe_id(probe) == pid
            assert pid.startswith(probe.kind + ":")

    def test_each_probe_measures_itself(self):
        backend = CountingBackend()
        TraversalProbe(arrays=((2, 64), (5, 64)), stride=8).measure(backend)
        StreamProbe(cores=(1, 3)).measure(backend)
        MessageProbe(pair=(0, 4), nbytes=8).measure(backend)
        ConcurrentMessageProbe(pairs=((0, 1), (2, 3)), nbytes=8).measure(backend)
        assert backend.calls == [
            ("traversal", ((2, 64), (5, 64)), 8),
            ("bandwidth", (1, 3)),
            ("latency", 0, 4, 8),
            ("concurrent", ((0, 1), (2, 3)), 8),
        ]

    def test_probe_cores(self):
        assert TraversalProbe(arrays=((2, 64), (5, 64)), stride=8).cores == (2, 5)
        assert StreamProbe(cores=(1, 3)).cores == (1, 3)
        assert MessageProbe(pair=(0, 4), nbytes=8).cores == (0, 4)
        assert ConcurrentMessageProbe(
            pairs=((0, 1), (2, 3)), nbytes=8
        ).cores == (0, 1, 2, 3)

    def test_plan_preserves_order(self):
        executor = PlanExecutor(CountingBackend())
        first = MessageProbe(pair=(2, 3), nbytes=8)
        second = MessageProbe(pair=(0, 1), nbytes=8)
        assert list(executor.execute([first, second])) == [first, second]


class TestMemoization:
    def test_repeated_probe_hits_cache(self):
        backend = CountingBackend()
        executor = PlanExecutor(backend)
        first = executor.message_latency(0, 1, 1024)
        second = executor.message_latency(0, 1, 1024)
        assert first == second
        assert len(backend.calls) == 1
        assert executor.stats.issued == 1
        assert executor.stats.cache_hits == 1

    def test_pair_order_normalized(self):
        backend = CountingBackend()
        executor = PlanExecutor(backend)
        executor.message_latency(3, 1, 64)
        executor.message_latency(1, 3, 64)
        assert len(backend.calls) == 1

    def test_samples_are_distinct_probes(self):
        backend = CountingBackend()
        executor = PlanExecutor(backend)
        executor.message_latency(0, 1, 64, sample=0)
        executor.message_latency(0, 1, 64, sample=1)
        assert len(backend.calls) == 2
        assert executor.stats.cache_hits == 0

    def test_traversal_reference_memoized(self):
        backend = CountingBackend()
        executor = PlanExecutor(backend)
        ref = executor.traversal_reference(0, 4096, 64, samples=3)
        again = executor.traversal_reference(0, 4096, 64, samples=3)
        assert ref == again
        assert executor.stats.issued == 3
        assert executor.stats.cache_hits == 3

    def test_execute_dedupes_within_plan(self):
        backend = CountingBackend()
        executor = PlanExecutor(backend)
        probes = [
            StreamProbe(cores=(0,)),
            StreamProbe(cores=(0, 1)),
            StreamProbe(cores=(0,)),  # duplicate
        ]
        results = executor.execute(probes)
        assert len(backend.calls) == 2
        assert StreamProbe(cores=(0,)) in results

    def test_stats_roundtrip(self):
        stats = PlannerStats(issued=5, cache_hits=2, pruned=3)
        data = stats.as_dict()
        assert data["saved"] == 5
        other = PlannerStats()
        other.merge(data)
        other.merge(data)
        assert other.issued == 10 and other.pruned == 6
        # Non-counter keys (prune/jobs/saved from a report dict) are ignored.
        other.merge({"prune": "topology", "jobs": 4, "saved": 99})
        assert other.issued == 10


class TestTopologyClassifier:
    def test_validate_prune_mode(self):
        assert validate_prune_mode("topology") == "topology"
        with pytest.raises(ConfigurationError):
            validate_prune_mode("aggressive")

    def test_prune_requires_cluster_model(self):
        with pytest.raises(ConfigurationError):
            PlanExecutor(CountingBackend(), prune="topology")

    def test_classifier_for_simulated_backend(self):
        backend = SimulatedBackend(dunnington(), seed=0)
        assert classifier_for(backend) is not None
        assert classifier_for(CountingBackend()) is None

    def test_dunnington_pairs_fall_into_three_classes(self):
        # Exactly the paper's three communication layers: L2-sharing,
        # L3-sharing, and cross-socket pairs.
        classifier = TopologyClassifier(SimulatedBackend(dunnington()).cluster)
        classes = classifier.partition(all_pairs(list(range(24))))
        assert len(classes) == 3
        assert sorted(len(c.pairs) for c in classes) == [12, 48, 216]

    def test_partition_covers_all_pairs_once(self):
        cluster = SimulatedBackend(finis_terrae(2)).cluster
        pairs = all_pairs(list(range(32)))
        classes = TopologyClassifier(cluster).partition(pairs)
        seen = [p for cls in classes for p in cls.pairs]
        assert sorted(seen) == sorted(pairs)
        for cls in classes:
            assert cls.representative == cls.pairs[0]
            if len(cls.pairs) > 1:
                assert cls.spot_check == cls.pairs[-1]
            else:
                assert cls.spot_check is None

    def test_inter_node_pairs_share_one_class(self):
        cluster = SimulatedBackend(finis_terrae(2)).cluster
        classifier = TopologyClassifier(cluster)
        assert classifier.signature((0, 16)) == classifier.signature((5, 31))
        assert classifier.signature((0, 16)) != classifier.signature((0, 1))

    def test_ft2_class_count_is_tiny(self):
        cluster = SimulatedBackend(finis_terrae(2)).cluster
        classes = TopologyClassifier(cluster).partition(all_pairs(list(range(32))))
        # 496 pairs collapse to a handful of classes (the ≤20% budget
        # of the acceptance criterion with lots of headroom).
        assert len(classes) <= 8


class TestPrunedPairwise:
    def test_topology_matches_unpruned_without_noise(self):
        pairs = all_pairs(list(range(24)))
        plain = PlanExecutor(SimulatedBackend(dunnington(), seed=7, noise=0.0))
        pruned = PlanExecutor(
            SimulatedBackend(dunnington(), seed=7, noise=0.0), prune="topology"
        )
        expected = plain.pairwise_message_latency(pairs, 32 * 1024)
        got = pruned.pairwise_message_latency(pairs, 32 * 1024)
        assert got == expected
        assert pruned.stats.pairwise_measured == 3  # one per class
        assert pruned.stats.pruned == len(pairs) - 3
        assert plain.stats.pairwise_measured == len(pairs)

    def test_pruned_backend_charges_less_virtual_time(self):
        pairs = all_pairs(list(range(24)))
        plain_backend = SimulatedBackend(dunnington(), seed=7, noise=0.0)
        pruned_backend = SimulatedBackend(dunnington(), seed=7, noise=0.0)
        PlanExecutor(plain_backend).pairwise_message_latency(pairs, 1024)
        PlanExecutor(pruned_backend, prune="topology").pairwise_message_latency(
            pairs, 1024
        )
        assert pruned_backend.virtual_time < plain_backend.virtual_time / 3.0

    def test_broadcast_rekeys_dict_results(self):
        backend = SimulatedBackend(dunnington(), seed=3, noise=0.0)
        executor = PlanExecutor(backend, prune="topology")
        pairs = all_pairs(list(range(6)))
        result = executor.pairwise(
            pairs,
            probe_factory=lambda pair, s: StreamProbe(cores=pair, sample=s),
            value=lambda pair, raws: raws[0][pair[0]],
        )
        # Every requested pair got a value keyed by its own first core.
        assert set(result) == set(pairs)
        assert all(v > 0 for v in result.values())

    def test_verify_mode_spot_checks_each_class(self):
        backend = SimulatedBackend(dunnington(), seed=7, noise=0.0)
        executor = PlanExecutor(backend, prune="verify")
        pairs = all_pairs(list(range(24)))
        executor.pairwise_message_latency(pairs, 1024)
        assert executor.stats.spot_checks == 3  # one per class
        assert executor.stats.verify_fallbacks == 0

    def test_verify_mode_falls_back_on_divergence(self):
        # An adversarial classifier lumps a fast L3-sharing pair with a
        # slow cross-socket pair: the spot check must catch it and the
        # whole class must be measured for real.
        class LumpEverything:
            def partition(self, pairs):
                return [PairClass(signature=("lump",), pairs=tuple(pairs))]

        pairs = [(0, 1), (0, 2), (0, 3)]  # (0,3) crosses the socket
        truth = PlanExecutor(
            SimulatedBackend(dunnington(), seed=7, noise=0.0)
        ).pairwise_message_latency(pairs, 32 * 1024)
        assert truth[(0, 1)] != truth[(0, 3)]

        backend = SimulatedBackend(dunnington(), seed=7, noise=0.0)
        executor = PlanExecutor(
            backend, prune="verify", classifier=LumpEverything()
        )
        got = executor.pairwise_message_latency(pairs, 32 * 1024)
        assert executor.stats.verify_fallbacks == 1
        assert got == truth

    def test_topology_mode_with_bad_classifier_broadcasts_wrong(self):
        # Counterpart of the fallback test: without the spot check the
        # lumped class silently inherits the representative's latency —
        # this is exactly the failure 'verify' exists to catch.
        class LumpEverything:
            def partition(self, pairs):
                return [PairClass(signature=("lump",), pairs=tuple(pairs))]

        pairs = [(0, 1), (0, 3)]
        backend = SimulatedBackend(dunnington(), seed=7, noise=0.0)
        executor = PlanExecutor(
            backend, prune="topology", classifier=LumpEverything()
        )
        got = executor.pairwise_message_latency(pairs, 32 * 1024)
        assert got[(0, 1)] == got[(0, 3)]


class TestScheduling:
    def test_simulated_backend_never_threads(self):
        # Every measurement runs on the caller's thread: a pool would
        # make the simulated backend's RNG streams order-dependent.
        threads = set()

        class Recording(SimulatedBackend):
            def message_latency(self, core_a, core_b, nbytes):
                threads.add(threading.get_ident())
                return super().message_latency(core_a, core_b, nbytes)

        executor = PlanExecutor(Recording(dunnington(), seed=3, noise=0.0))
        executor.pairwise_message_latency(all_pairs([0, 1, 2, 6, 12]), 1024)
        assert threads == {threading.get_ident()}

    def test_execute_measures_serially_in_input_order(self):
        class NonReentrant(CountingBackend):
            """Fails if a measurement starts while another is running."""

            busy = False

            def message_latency(self, core_a, core_b, nbytes):
                assert not self.busy, "backend re-entered"
                self.busy = True
                try:
                    time.sleep(0.001)  # leave room for an overlap to show
                    return super().message_latency(core_a, core_b, nbytes)
                finally:
                    self.busy = False

        backend = NonReentrant(n_cores=8)
        executor = PlanExecutor(backend)
        executor.message_latency(4, 5, 64)  # memoized before the batch
        # Disjoint and shared cores, repeats within the batch and one
        # probe answered earlier.
        probes = [
            MessageProbe(pair=(6, 7), nbytes=64),
            MessageProbe(pair=(0, 1), nbytes=64),
            MessageProbe(pair=(2, 3), nbytes=64),
            MessageProbe(pair=(0, 1), nbytes=64),
            MessageProbe(pair=(4, 5), nbytes=64),
            MessageProbe(pair=(0, 2), nbytes=64),
            MessageProbe(pair=(6, 7), nbytes=64),
        ]
        before = executor.stats.as_dict()
        results = executor.execute(probes)
        issued = executor.stats.issued - before["issued"]
        hits = executor.stats.cache_hits - before["cache_hits"]
        distinct = list(dict.fromkeys(probes))
        fresh = [p for p in distinct if p.pair != (4, 5)]
        # Each distinct probe reached the backend once, in input order.
        assert [c[1:3] for c in backend.calls[1:]] == [p.pair for p in fresh]
        assert issued == len(fresh)
        assert issued + hits == len(probes)
        assert list(results) == distinct
