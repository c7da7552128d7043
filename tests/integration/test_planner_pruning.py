"""Integration: symmetry-pruned suite runs reproduce unpruned reports.

The acceptance bar for the measurement planner (ISSUE: perf_opt):

- with ``noise=0`` a ``prune="topology"`` run produces byte-identical
  *measurements* (``ServetReport.measurement_dict()``) to an unpruned
  run, on both the single-node Dunnington model and the 2-node Finis
  Terrae cluster;
- on the 32-core cluster the pruned run issues at most 20% of the
  pairwise measurements and cuts total virtual time by at least 3x;
- ``prune="verify"`` catches a machine that is less symmetric than its
  model claims (spot-check divergence) and falls back to real
  measurements.
"""

from __future__ import annotations

import json

import pytest

from repro import PlanExecutor, ServetSuite, SimulatedBackend, dunnington, finis_terrae
from repro.core.comm_costs import run_comm_costs
from repro.errors import CheckpointError
from repro.planner import PairClass
from repro.units import KiB


def run_suite(system, prune: str, seed: int = 42):
    backend = SimulatedBackend(system, seed=seed, noise=0.0)
    suite = ServetSuite(backend, prune=prune)
    report = suite.run()
    return report


@pytest.fixture(scope="module")
def dunnington_plain():
    return run_suite(dunnington(), prune="off")


@pytest.fixture(scope="module")
def dunnington_pruned():
    return run_suite(dunnington(), prune="topology")


@pytest.fixture(scope="module")
def ft2_plain():
    return run_suite(finis_terrae(2), prune="off")


@pytest.fixture(scope="module")
def ft2_pruned():
    return run_suite(finis_terrae(2), prune="topology")


def identical(a, b) -> bool:
    return json.dumps(a.measurement_dict(), sort_keys=True) == json.dumps(
        b.measurement_dict(), sort_keys=True
    )


class TestPrunedReportsMatch:
    def test_dunnington_byte_identical(self, dunnington_plain, dunnington_pruned):
        assert identical(dunnington_plain, dunnington_pruned)

    def test_ft2_byte_identical(self, ft2_plain, ft2_pruned):
        assert identical(ft2_plain, ft2_pruned)

    def test_verify_mode_also_matches(self, ft2_plain):
        verified = run_suite(finis_terrae(2), prune="verify")
        assert identical(ft2_plain, verified)
        assert verified.planner["spot_checks"] > 0
        # Message/stream spot checks agree exactly at noise=0, but
        # traversal probes sample fresh random page placements, so a
        # few shared-cache classes legitimately trip the fallback —
        # costing extra measurements, never correctness.
        assert verified.planner["verify_fallbacks"] >= 0
        assert verified.planner["pruned"] > 0

    def test_planner_accounting_in_report(self, ft2_pruned, ft2_plain):
        stats = ft2_pruned.planner
        assert stats["prune"] == "topology"
        # Probes are measured serially; there is no pool width to record.
        assert "jobs" not in stats and "probe_timeouts" not in stats
        assert stats["pruned"] > 0
        assert stats["saved"] >= stats["pruned"]
        assert ft2_plain.planner["pruned"] == 0


class TestAcceptanceBudgets:
    def test_ft2_pairwise_budget(self, ft2_pruned):
        stats = ft2_pruned.planner
        assert stats["pairwise_requested"] > 0
        fraction = stats["pairwise_measured"] / stats["pairwise_requested"]
        assert fraction <= 0.20

    def test_ft2_virtual_time_cut_3x(self, ft2_plain, ft2_pruned):
        plain = sum(v for v, _ in ft2_plain.timings.values())
        pruned = sum(v for v, _ in ft2_pruned.timings.values())
        assert pruned > 0
        assert plain / pruned >= 3.0


class TestVerifyHeterogeneity:
    def test_verify_falls_back_when_model_lies(self):
        # A classifier that lumps every pair together models a machine
        # more symmetric than it really is; on Dunnington the L2-sharing
        # and cross-socket pairs differ wildly, so the spot check must
        # diverge and force real measurements of the whole class.
        class LumpEverything:
            def partition(self, pairs):
                return [PairClass(signature=("lump",), pairs=tuple(pairs))]

        # Cores 0 and 1 share an L3; core 3 sits on another socket, so
        # the lumped class's spot check (1, 3) disagrees with its
        # representative (0, 1).
        cores = [0, 1, 3]
        truth = run_comm_costs(
            SimulatedBackend(dunnington(), seed=11, noise=0.0),
            l1_size=32 * KiB,
            cores=cores,
        )
        backend = SimulatedBackend(dunnington(), seed=11, noise=0.0)
        executor = PlanExecutor(
            backend, prune="verify", classifier=LumpEverything()
        )
        result = run_comm_costs(
            backend, l1_size=32 * KiB, cores=cores, planner=executor
        )
        assert executor.stats.verify_fallbacks > 0
        assert result.pair_latencies == truth.pair_latencies
        assert [len(l.pairs) for l in result.layers] == [
            len(l.pairs) for l in truth.layers
        ]


class TestCheckpointInteraction:
    def test_fingerprint_includes_prune_mode(self, tmp_path):
        path = tmp_path / "ck.json"
        backend = SimulatedBackend(dunnington(), seed=5, noise=0.0)
        ServetSuite(backend, prune="topology").run(checkpoint=path)
        resumer = ServetSuite(
            SimulatedBackend(dunnington(), seed=5, noise=0.0), prune="off"
        )
        with pytest.raises(CheckpointError):
            resumer.run(checkpoint=path, resume=True)

    def test_resume_carries_planner_stats(self, tmp_path):
        path = tmp_path / "ck.json"
        backend = SimulatedBackend(dunnington(), seed=5, noise=0.0)
        first = ServetSuite(backend, prune="topology").run(checkpoint=path)
        # Resuming a finished run re-measures nothing but still reports
        # the whole run's planner accounting from the checkpoint.
        resumed = ServetSuite(
            SimulatedBackend(dunnington(), seed=5, noise=0.0), prune="topology"
        ).run(checkpoint=path, resume=True)
        for key in ("issued", "pruned", "cache_hits", "pairwise_measured"):
            assert resumed.planner[key] == first.planner[key]
