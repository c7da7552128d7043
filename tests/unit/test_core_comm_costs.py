"""Unit tests for communication-cost determination (Fig. 7, §III-D)."""

import pytest

from repro.backends import SimulatedBackend
from repro.core import comm_costs
from repro.core.comm_costs import (
    characterize_layers,
    detect_comm_layers,
    run_comm_costs,
)
from repro.errors import MeasurementError
from repro.topology import dunnington, finis_terrae
from repro.units import KiB


@pytest.fixture(scope="module")
def dn_backend():
    return SimulatedBackend(dunnington(), seed=42)


@pytest.fixture(scope="module")
def dn_costs(dn_backend):
    return run_comm_costs(dn_backend, 32 * KiB)


class TestLayerDetection:
    def test_dunnington_three_layers(self, dn_costs):
        assert dn_costs.n_layers == 3
        assert [len(layer.pairs) for layer in dn_costs.layers] == [12, 48, 216]

    def test_layers_sorted_fastest_first(self, dn_costs):
        latencies = [layer.latency for layer in dn_costs.layers]
        assert latencies == sorted(latencies)

    def test_shared_l2_pair_is_in_fastest_layer(self, dn_costs):
        assert (0, 12) in dn_costs.layers[0].pairs
        assert dn_costs.layer_of((0, 12)) == 0
        assert dn_costs.layer_of((0, 1)) == 1
        assert dn_costs.layer_of((0, 3)) == 2

    def test_finis_terrae_two_layers_intra_twice_as_fast(self):
        backend = SimulatedBackend(finis_terrae(2), seed=42)
        costs = detect_comm_layers(backend, 16 * KiB)
        assert costs.n_layers == 2
        ratio = costs.layers[1].latency / costs.layers[0].latency
        assert 1.6 < ratio < 2.4  # "around two times faster"

    def test_pair_latencies_cover_all_pairs(self, dn_costs):
        assert len(dn_costs.pair_latencies) == 24 * 23 // 2

    def test_unknown_pair_raises(self, dn_costs):
        with pytest.raises(MeasurementError):
            dn_costs.layer_of((0, 99))

    def test_needs_two_cores(self, dn_backend):
        with pytest.raises(MeasurementError):
            detect_comm_layers(dn_backend, 32 * KiB, cores=[0])


class TestCharacterization:
    def test_curves_have_requested_sizes(self, dn_costs):
        sizes = [s for s, _, _ in dn_costs.characterization[0]]
        assert sizes[0] == 1 * KiB
        assert len(sizes) == 15

    def test_latency_monotone_in_size(self, dn_costs):
        for curve in dn_costs.characterization:
            latencies = [t for _, t, _ in curve]
            # Noise-tolerant monotonicity: each point must beat the one
            # four steps earlier (16x the size).
            for earlier, later in zip(latencies, latencies[4:]):
                assert later > earlier

    def test_latency_estimate_interpolates(self, dn_costs):
        curve = dn_costs.characterization[0]
        (s0, t0, _), (s1, t1, _) = curve[2], curve[3]
        mid = dn_costs.latency_estimate((0, 12), (s0 + s1) // 2)
        assert min(t0, t1) <= mid <= max(t0, t1)

    def test_latency_estimate_extrapolates_beyond_sweep(self, dn_costs):
        far = dn_costs.latency_estimate((0, 12), 64 * 1024 * 1024)
        s_last, t_last, _ = dn_costs.characterization[0][-1]
        assert far > t_last

    def test_custom_sizes(self, dn_backend, monkeypatch):
        monkeypatch.setattr(comm_costs, "MESSAGE_SIZES", (1024, 2048))
        costs = detect_comm_layers(dn_backend, 32 * KiB, cores=[0, 1, 12])
        characterize_layers(dn_backend, costs)
        assert all(len(c) == 2 for c in costs.characterization)


class TestScalability:
    def test_slowdown_grows_with_concurrency(self, dn_costs):
        for curve in dn_costs.scalability:
            if len(curve) >= 2:
                assert curve[-1][2] > curve[0][2]

    def test_ft_interconnect_7x_at_32_messages(self):
        backend = SimulatedBackend(finis_terrae(2), seed=42)
        costs = run_comm_costs(backend, 16 * KiB)
        inter = costs.layers[1]
        assert inter.pairs[0][1] >= 16  # crosses the node boundary
        curve = costs.scalability[1]
        n_msgs, _, factor = curve[-1]
        assert n_msgs == 32
        assert 5.5 < factor < 8.5

    def test_disjoint_pairs_share_no_core(self, dn_costs):
        for layer in dn_costs.layers:
            cores = [c for p in layer.disjoint_pairs() for c in p]
            assert len(cores) == len(set(cores))
