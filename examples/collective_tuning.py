"""Collective tuning: measured layers decide the broadcast algorithm.

The optimizations the paper motivates ([5]-[7]): hierarchical
collectives on SMP clusters.  The autotuner derives node groups from
the Servet report (never from documentation), fits a cost model to the
measured latency/scalability curves, simulates both algorithms on it,
and picks per message size.  We then execute both on the simulated
runtime to check the choices.

Run with:  python examples/collective_tuning.py
"""

from repro import ServetSuite, SimulatedBackend, finis_terrae
from repro.autotune import choose_bcast
from repro.netsim import default_comm_config
from repro.simmpi import World
from repro.simmpi.collectives import bcast, hierarchical_bcast
from repro.units import KiB, format_size, format_time
from repro.viz import ascii_table


def execute(cluster, placement, program) -> float:
    world = World(cluster, default_comm_config(cluster), placement)
    world.spawn_all(program)
    return world.run().makespan


def main() -> None:
    cluster = finis_terrae(2)
    print("Measuring the 2-node Finis Terrae cluster with Servet...")
    report = ServetSuite(SimulatedBackend(cluster, seed=7)).run()
    placement = list(range(32))

    rows = []
    for nbytes in (1 * KiB, 8 * KiB, 64 * KiB, 512 * KiB):
        choice = choose_bcast(report, placement, nbytes)
        groups = choice.groups

        def flat_prog(rank, nbytes=nbytes):
            yield from bcast(rank, 0, nbytes)

        def hier_prog(rank, nbytes=nbytes, groups=groups):
            yield from hierarchical_bcast(rank, 0, nbytes, groups)

        flat_t = execute(cluster, placement, flat_prog)
        hier_t = execute(cluster, placement, hier_prog)
        chosen_t = hier_t if choice.algorithm == "hierarchical" else flat_t
        rows.append(
            (
                format_size(nbytes),
                choice.algorithm,
                format_time(flat_t),
                format_time(hier_t),
                f"{max(flat_t, hier_t) / chosen_t:.2f}x",
            )
        )

    print()
    print(
        ascii_table(
            ["msg size", "autotuner chose", "flat (executed)",
             "hierarchical (executed)", "win vs worst"],
            rows,
            title="32-rank broadcast on 2 Finis Terrae nodes",
        )
    )
    print(
        "\nGroups the autotuner derived from measurements alone: "
        f"{[(g[0], g[-1]) for g in choose_bcast(report, placement, 8 * KiB).groups]}"
        " (= the two nodes, never having been told what a node is)."
    )


if __name__ == "__main__":
    main()
