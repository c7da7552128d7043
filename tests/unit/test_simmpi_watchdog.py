"""The simmpi watchdog: event budgets and actionable stuck-rank errors."""

import pytest

from repro.errors import SimulationError, WatchdogError
from repro.netsim.presets import default_comm_config
from repro.simmpi.comm import World
from repro.simmpi.events import Engine
from repro.topology import Cluster, dempsey, dunnington


def make_world(placement=(0, 1)):
    machine = dempsey()
    cluster = Cluster(machine.name, machine, n_nodes=1)
    return World(cluster, default_comm_config(cluster), placement=list(placement))


class TestEngineBudget:
    def test_run_returns_executed_count(self):
        engine = Engine()
        for _ in range(5):
            engine.schedule(0.0, lambda: None)
        assert engine.run() == 5

    def test_budget_exhaustion_raises(self):
        engine = Engine()

        def reschedule():
            engine.schedule(1.0, reschedule)  # never drains

        engine.schedule(0.0, reschedule)
        with pytest.raises(WatchdogError, match="event budget of 100"):
            engine.run(max_events=100)

    def test_budget_not_hit_for_finite_runs(self):
        engine = Engine()
        engine.schedule(0.0, lambda: None)
        assert engine.run(max_events=10) == 1


class TestWorldWatchdog:
    def test_runaway_model_names_stuck_ranks(self):
        world = make_world()

        def spinner(rank):
            while True:
                yield rank.compute(1e-9)

        def waiter(rank):
            yield rank.recv(0, tag=5)  # never satisfied

        world.add_process(spinner, 0)
        world.add_process(waiter, 1)
        with pytest.raises(WatchdogError) as err:
            world.run(max_events=1000)
        message = str(err.value)
        assert "rank 1 blocked on recv(source=0, tag=5)" in message
        assert "event budget" in message

    def test_default_budget_bounds_runaway_worlds(self):
        world = make_world()

        def spinner(rank):
            while True:
                yield rank.compute(1e-9)

        world.add_process(spinner, 0)
        world.add_process(spinner, 1)
        with pytest.raises(WatchdogError):
            world.run()

    def test_deadlock_diagnostics_name_ranks_and_time(self):
        world = make_world()

        def a(rank):
            yield rank.recv(1, tag=1)

        def b(rank):
            yield rank.recv(0, tag=2)

        world.add_process(a, 0)
        world.add_process(b, 1)
        with pytest.raises(SimulationError, match="deadlock") as err:
            world.run()
        message = str(err.value)
        assert "rank 0 blocked on recv(source=1, tag=1)" in message
        assert "rank 1 blocked on recv(source=0, tag=2)" in message

    def test_each_blocker_kind_reads_in_its_exact_words(self):
        """The runtime keeps each blocker as the request a rank yielded
        and formats it only for the diagnostic; the words stay fixed."""
        cluster = Cluster("dunnington", dunnington())
        world = World(cluster, default_comm_config(cluster), [0, 1, 2, 3])

        def program(rank):
            if rank.id == 0:
                yield rank.recv(1, tag=5)
            elif rank.id == 1:
                handle = yield rank.irecv(0)
                yield rank.wait(handle)
            elif rank.id == 2:
                yield rank.send(0, 1 << 20, tag=3)  # rendezvous, never matched
            else:
                while True:
                    yield rank.compute(0.25)

        world.spawn_all(program)
        with pytest.raises(WatchdogError) as err:
            world.run(max_events=50)
        assert str(err.value).endswith(
            "; rank 0 blocked on recv(source=1, tag=5), rank 1 blocked on "
            "wait(handle), rank 2 blocked on send(dest=0, tag=3), rank 3 "
            "blocked on compute(0.25s)"
        )

    def test_watchdog_error_is_a_simulation_error(self):
        assert issubclass(WatchdogError, SimulationError)

    def test_healthy_world_unaffected(self):
        world = make_world()

        def sender(rank):
            yield rank.send(1, 1024)

        def receiver(rank):
            yield rank.recv(0)

        world.add_process(sender, 0)
        world.add_process(receiver, 1)
        result = world.run()
        assert result.messages == 1
