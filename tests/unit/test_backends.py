"""Unit tests for the measurement backends."""

import hashlib
import json

import pytest

from repro import ServetSuite
from repro.backends import SimulatedBackend
from repro.backends.simulated import STREAM_MIN_SAMPLE, STREAM_SETUP
from repro.errors import MeasurementError
from repro.memsim import GLOBAL_COMM_CACHE
from repro.memsim.paging import ContiguousPaging
from repro.topology import dunnington, finis_terrae
from repro.units import KiB, MiB


class TestSimulatedBackendBasics:
    def test_wraps_machine_as_cluster(self):
        backend = SimulatedBackend(dunnington(), seed=0)
        assert backend.n_cores == 24
        assert backend.page_size == 4 * KiB
        assert backend.name == "dunnington"

    def test_noise_reproducible_by_seed(self):
        a = SimulatedBackend(dunnington(), seed=5)
        b = SimulatedBackend(dunnington(), seed=5)
        va = a.traversal_cycles([(0, 1 * MiB)], 1024)[0]
        vb = b.traversal_cycles([(0, 1 * MiB)], 1024)[0]
        assert va == vb

    def test_zero_noise_matches_engine(self):
        backend = SimulatedBackend(
            dunnington(), seed=5, noise=0.0, paging=ContiguousPaging()
        )
        v1 = backend.traversal_cycles([(0, 16 * KiB)], 1024)[0]
        assert v1 == pytest.approx(3.0)

    def test_negative_noise_rejected(self):
        with pytest.raises(MeasurementError):
            SimulatedBackend(dunnington(), noise=-0.1)


class TestTraversalSemantics:
    def test_cross_node_concurrent_traversal_rejected(self):
        backend = SimulatedBackend(finis_terrae(2), seed=0)
        with pytest.raises(MeasurementError):
            backend.traversal_cycles([(0, 1 * MiB), (16, 1 * MiB)], 1024)

    def test_global_core_ids_translate(self):
        backend = SimulatedBackend(finis_terrae(2), seed=0)
        # Core 16 is local core 0 of node 1; measuring it must work.
        out = backend.traversal_cycles([(16, 16 * KiB)], 1024)
        assert 16 in out and out[16] > 0


class TestCopyBandwidth:
    def test_cross_node_groups_do_not_interfere(self):
        backend = SimulatedBackend(finis_terrae(2), seed=0, noise=0.0)
        both = backend.copy_bandwidth([0, 16])
        solo = backend.copy_bandwidth([0])
        assert both[0] == pytest.approx(solo[0])

    def test_same_bus_pair_contends(self):
        backend = SimulatedBackend(finis_terrae(2), seed=0, noise=0.0)
        pair = backend.copy_bandwidth([0, 1])
        solo = backend.copy_bandwidth([0])
        assert pair[0] < 0.75 * solo[0]


class TestVirtualTimeAccounting:
    def test_every_measurement_charges(self):
        backend = SimulatedBackend(dunnington(), seed=0)
        backend.take_virtual_time()
        backend.traversal_cycles([(0, 1 * MiB)], 1024)
        t1 = backend.virtual_time
        assert t1 > 0
        backend.copy_bandwidth([0, 1])
        t2 = backend.virtual_time
        assert t2 > t1
        backend.message_latency(0, 1, 32 * KiB)
        assert backend.virtual_time > t2

    def test_take_virtual_time_resets(self):
        backend = SimulatedBackend(dunnington(), seed=0)
        backend.copy_bandwidth([0])
        assert backend.take_virtual_time() > 0
        assert backend.virtual_time == 0.0

    def test_copy_bandwidth_charges_stream_setup_and_min_sample(self):
        backend = SimulatedBackend(dunnington(), seed=0)
        backend.copy_bandwidth([0])
        assert backend.virtual_time == STREAM_SETUP + STREAM_MIN_SAMPLE


class TestMessages:
    def test_latency_positive_and_layered(self):
        backend = SimulatedBackend(dunnington(), seed=0, noise=0.0)
        fast = backend.message_latency(0, 12, 32 * KiB)
        slow = backend.message_latency(0, 3, 32 * KiB)
        assert 0 < fast < slow

    def test_concurrent_latency_fields(self):
        backend = SimulatedBackend(finis_terrae(2), seed=0, noise=0.0)
        result = backend.concurrent_message_latency(
            [(0, 16), (1, 17)], 16 * KiB
        )
        assert result.worst >= result.mean > 0


def _comm_stats(backend):
    return backend.result_caches["simmpi.comm"].stats()


class TestCommCacheKey:
    """A ping-pong is simulated once per (relationship, size): every
    pair of one relationship has a bit-equal latency
    (tests/property/test_prop_relationship_key.py)."""

    def test_pairs_of_one_relationship_share_one_simulation(self):
        GLOBAL_COMM_CACHE.clear()
        backend = SimulatedBackend(finis_terrae(2), seed=0, noise=0.0)
        assert backend.cluster.relationship(0, 16) == "inter-node"
        assert backend.cluster.relationship(1, 17) == "inter-node"
        before = _comm_stats(backend)
        first = backend.message_latency(0, 16, 8 * KiB)
        second = backend.message_latency(1, 17, 8 * KiB)
        after = _comm_stats(backend)
        assert first == second
        assert after["misses"] - before["misses"] == 1
        assert after["hits"] - before["hits"] == 1

    def test_cold_finis_terrae8_suite_simulates_per_relationship(self):
        GLOBAL_COMM_CACHE.clear()
        backend = SimulatedBackend(finis_terrae(8), seed=42, noise=0.0)
        sizes, concurrent = set(), set()
        message_latency = backend.message_latency
        concurrent_latency = backend.concurrent_message_latency

        def record_message(core_a, core_b, nbytes):
            sizes.add(nbytes)
            return message_latency(core_a, core_b, nbytes)

        def record_concurrent(pairs, nbytes):
            concurrent.add((tuple(pairs), nbytes))
            return concurrent_latency(pairs, nbytes)

        backend.message_latency = record_message
        backend.concurrent_message_latency = record_concurrent
        suite = ServetSuite(backend)
        report = suite.run()
        measured = json.dumps(report.measurement_dict(), sort_keys=True, indent=2)
        assert hashlib.sha256((measured + "\n").encode()).hexdigest() == (
            "3b6c4527c3823fe41e882a728ab196ae1716bd55a77590df3b3709e97a0b7a85"
        )
        misses = suite.metrics.value("counter", "simmpi.comm.misses")
        relationships = len(backend.cluster.relationships())
        assert 0 < misses <= relationships * len(sizes) + len(concurrent)
