"""Unit tests for the discrete-event MPI runtime."""

import gc
import weakref

import pytest

from repro.errors import SimulationError
from repro.netsim import default_comm_config
from repro.simmpi import (
    ANY_SOURCE,
    Engine,
    World,
    concurrent_exchanges,
    concurrent_transfers,
    pingpong_latency,
)
from repro.topology import Cluster, dunnington, finis_terrae
from repro.units import KiB


class TestEngine:
    def test_ordering(self):
        engine = Engine()
        seen = []
        engine.schedule(2.0, lambda: seen.append("late"))
        engine.schedule(1.0, lambda: seen.append("early"))
        engine.run()
        assert seen == ["early", "late"]
        assert engine.now == 2.0

    def test_fifo_among_equal_timestamps(self):
        engine = Engine()
        seen = []
        engine.schedule(1.0, lambda: seen.append("a"))
        engine.schedule(1.0, lambda: seen.append("b"))
        engine.run()
        assert seen == ["a", "b"]

    def test_rejects_negative_delay(self):
        with pytest.raises(SimulationError):
            Engine().schedule(-1.0, lambda: None)

    def test_schedule_at_uses_the_exact_absolute_time(self):
        engine = Engine()
        seen = []
        start, target = 0.303598551834547, 90.0686292274148
        assert start + (target - start) != target  # a delay would round
        engine.schedule(
            start, lambda: engine.schedule_at(target, lambda: seen.append(engine.now))
        )
        engine.run()
        assert seen == [target]

    def test_schedule_at_rejects_the_past(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(0.5, lambda: None)

    def test_max_time_stops_early(self):
        engine = Engine()
        seen = []
        engine.schedule(1.0, lambda: seen.append(1))
        engine.schedule(5.0, lambda: seen.append(5))
        engine.run(max_time=2.0)
        assert seen == [1]
        assert engine.pending == 1


def _world(system=None, n=2):
    cluster = system if system is not None else Cluster("dunnington", dunnington())
    config = default_comm_config(cluster)
    return World(cluster, config, placement=list(range(n)))


class TestWorldBasics:
    def test_send_recv_roundtrip(self):
        world = _world()
        log = []

        def sender(rank):
            yield rank.send(1, 4096)
            log.append(("sent", rank.now))

        def receiver(rank):
            src, nbytes = yield rank.recv(0)
            log.append(("recv", src, nbytes, rank.now))

        world.add_process(sender, 0)
        world.add_process(receiver, 1)
        result = world.run()
        assert result.messages == 1 and result.bytes_sent == 4096
        assert ("recv", 0, 4096, result.makespan) in log

    def test_any_source_matches(self):
        world = _world()

        def sender(rank):
            yield rank.send(1, 64)

        def receiver(rank):
            src, _ = yield rank.recv(ANY_SOURCE)
            assert src == 0

        world.add_process(sender, 0)
        world.add_process(receiver, 1)
        world.run()

    def test_tag_matching_is_selective(self):
        world = _world()
        order = []

        def sender(rank):
            yield rank.send(1, 64, tag=7)
            yield rank.send(1, 128, tag=9)

        def receiver(rank):
            src, n = yield rank.recv(0, tag=9)
            order.append(n)
            src, n = yield rank.recv(0, tag=7)
            order.append(n)

        world.add_process(sender, 0)
        world.add_process(receiver, 1)
        world.run()
        assert order == [128, 64]

    def test_deadlock_detected(self):
        world = _world()

        def both(rank):
            yield rank.recv((rank.id + 1) % 2)

        world.spawn_all(both)
        with pytest.raises(SimulationError, match="deadlock"):
            world.run()

    def test_eager_sender_does_not_block(self):
        world = _world()
        sent_at = {}

        def sender(rank):
            yield rank.send(1, 1024)  # eager: below threshold
            sent_at["t"] = rank.now

        def receiver(rank):
            yield rank.compute(1.0)  # post the recv very late
            yield rank.recv(0)

        world.add_process(sender, 0)
        world.add_process(receiver, 1)
        result = world.run()
        assert sent_at["t"] < 1e-3  # returned immediately
        assert result.makespan >= 1.0

    def test_rendezvous_sender_blocks(self):
        world = _world()
        sent_at = {}

        def sender(rank):
            yield rank.send(1, 10 * 1024 * 1024)  # far above threshold
            sent_at["t"] = rank.now

        def receiver(rank):
            yield rank.compute(1.0)
            yield rank.recv(0)

        world.add_process(sender, 0)
        world.add_process(receiver, 1)
        world.run()
        assert sent_at["t"] >= 1.0

    def test_compute_advances_clock(self):
        world = _world(n=1)

        def worker(rank):
            yield rank.compute(2.5)

        world.add_process(worker, 0)
        assert world.run().makespan == pytest.approx(2.5)

    def test_send_to_self_rejected(self):
        world = _world()

        def bad(rank):
            yield rank.send(rank.id, 64)

        def idle(rank):
            yield rank.compute(0.0)

        world.add_process(bad, 0)
        world.add_process(idle, 1)
        with pytest.raises(SimulationError):
            world.run()

    def test_finished_world_is_freed_without_the_cycle_collector(self):
        """A suite builds thousands of worlds; one that outlived its run
        in a reference cycle would cost a garbage-collector pass."""
        world = _world(n=3)

        def program(rank):
            if rank.id == 0:
                yield rank.isend(1, 64)
                yield rank.send(2, 256 * KiB)
            elif rank.id == 1:
                handle = yield rank.irecv(0)
                yield rank.wait(handle)
            else:
                yield rank.recv(0)

        world.spawn_all(program)
        world.run()
        alive = weakref.ref(world)
        gc.disable()
        try:
            del world
            assert alive() is None
        finally:
            gc.enable()

    def test_a_second_run_of_a_finished_world_is_refused(self):
        world = _world()
        world.add_process(lambda rank: (yield rank.send(1, 64)), 0)
        world.add_process(lambda rank: (yield rank.recv(0)), 1)
        world.run()
        with pytest.raises(SimulationError, match="resumed after finishing"):
            world.run()


class TestCollectives:
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 8])
    def test_barrier_completes(self, n):
        cluster = Cluster("dunnington", dunnington())
        world = World(cluster, default_comm_config(cluster), list(range(n)))

        def prog(rank):
            yield from rank.barrier()

        world.spawn_all(prog)
        result = world.run()
        assert result.makespan > 0

    @pytest.mark.parametrize("n,root", [(2, 0), (5, 2), (8, 7)])
    def test_bcast_reaches_everyone(self, n, root):
        cluster = Cluster("dunnington", dunnington())
        world = World(cluster, default_comm_config(cluster), list(range(n)))

        def prog(rank):
            yield from rank.bcast(root, 4096)

        world.spawn_all(prog)
        result = world.run()
        assert result.messages == n - 1

    def test_gather_message_count(self):
        cluster = Cluster("dunnington", dunnington())
        world = World(cluster, default_comm_config(cluster), list(range(6)))

        def prog(rank):
            yield from rank.gather(0, 1024)

        world.spawn_all(prog)
        assert world.run().messages == 5

    def test_allgather_message_count(self):
        cluster = Cluster("dunnington", dunnington())
        n = 6
        world = World(cluster, default_comm_config(cluster), list(range(n)))

        def prog(rank):
            yield from rank.allgather(1024)

        world.spawn_all(prog)
        assert world.run().messages == n * (n - 1)


class TestPrimitives:
    def test_pingpong_matches_model(self):
        dn = Cluster("dunnington", dunnington())
        config = default_comm_config(dn)
        measured = pingpong_latency(dn, config, 0, 12, 32 * KiB)
        expected = config.layers["shared-l2"].latency(32 * KiB)
        assert measured == pytest.approx(expected, rel=1e-9)

    def test_concurrent_worse_than_isolated(self):
        ft = finis_terrae(2)
        config = default_comm_config(ft)
        pairs = [(i, 16 + i) for i in range(8)]
        conc = concurrent_exchanges(ft, config, pairs, 16 * KiB)
        solo = pingpong_latency(ft, config, 0, 16, 16 * KiB)
        assert conc.worst > solo
        assert conc.mean <= conc.worst

    def test_paper_7x_slowdown_at_32_messages(self):
        ft = finis_terrae(2)
        config = default_comm_config(ft)
        pairs = [(i, 16 + i) for i in range(16)]  # 32 messages
        conc = concurrent_exchanges(ft, config, pairs, 16 * KiB)
        solo = pingpong_latency(ft, config, 0, 16, 16 * KiB)
        assert 6.0 < conc.worst / solo < 8.0

    def test_concurrent_transfers_unidirectional(self):
        ft = finis_terrae(2)
        config = default_comm_config(ft)
        result = concurrent_transfers(ft, config, [(0, 16), (1, 17)], 16 * KiB)
        assert set(result.per_pair) == {(0, 16), (1, 17)}

    def test_pairs_sharing_cores_rejected(self):
        ft = finis_terrae(2)
        config = default_comm_config(ft)
        from repro.errors import MeasurementError

        with pytest.raises(MeasurementError):
            concurrent_exchanges(ft, config, [(0, 16), (0, 17)], 1024)
