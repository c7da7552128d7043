"""The CLI and the Python API cannot disagree on a default.

Every flag that feeds an API parameter must default to that parameter's
own default (``inspect.signature``), unless :data:`INTENDED` lists the
difference with its reason.
"""

from __future__ import annotations

import argparse
import inspect

import pytest

from repro.backends import SimulatedBackend
from repro.cli import _build_parser
from repro.core import ServetSuite
from repro.fleet import FleetConfig, generate_fleet
from repro.resilience import HardenedBackend
from repro.service import TuningService, run_harness
from repro.serviced import TuningDaemon
from repro.zoo import recover_all, recover_machine

#: (subcommand path, flag dest) -> every (callable, parameter) it feeds.
FEEDS = {
    ("run", "noise"): [(SimulatedBackend, "noise")],
    ("run", "seed"): [(SimulatedBackend, "seed")],
    ("run", "prune"): [(ServetSuite, "prune")],
    ("run", "retries"): [(HardenedBackend, "retries")],
    ("run", "samples"): [(HardenedBackend, "samples")],
    ("serve", "workers"): [(TuningDaemon, "workers")],
    ("serve", "batch_max"): [(TuningDaemon, "batch_max")],
    ("serve", "poll_interval"): [(TuningDaemon, "poll_interval")],
    ("serve", "fingerprint"): [(TuningDaemon, "spec")],
    ("serve", "capacity"): [(TuningDaemon, "capacity"), (TuningService, "capacity")],
    ("serve", "clients"): [(run_harness, "clients")],
    ("serve", "queries"): [(run_harness, "queries_per_client")],
    ("serve", "seed"): [(run_harness, "seed")],
    ("registry refresh", "noise"): [(SimulatedBackend, "noise")],
    ("registry refresh", "seed"): [(SimulatedBackend, "seed")],
    ("registry refresh", "prune"): [(ServetSuite, "prune")],
    ("fleet generate", "seed"): [(generate_fleet, "seed")],
    ("fleet generate", "noise"): [(generate_fleet, "noise")],
    ("fleet generate", "name"): [(generate_fleet, "name")],
    ("fleet survey", "workers"): [(FleetConfig, "workers")],
    ("fleet resume", "workers"): [(FleetConfig, "workers")],
    ("zoo recover", "noise"): [(recover_machine, "noise")],
    ("zoo sweep", "noise"): [(recover_all, "noise")],
}

_SEEDED = (
    "a measured report is reproducible by default, while the library "
    "backend's seed=None draws fresh entropy"
)

_UNHARDENED = "None runs unhardened"

#: (subcommand path, flag dest) -> (flag default, why it differs).
INTENDED = {
    ("run", "retries"): (None, _UNHARDENED),
    ("run", "samples"): (None, _UNHARDENED),
    ("run", "seed"): (42, _SEEDED),
    ("registry refresh", "seed"): (42, _SEEDED),
}


def _subparser(path: str) -> argparse.ArgumentParser:
    parser = _build_parser()
    for name in path.split():
        actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        parser = actions[0].choices[name]
    return parser


def _api_default(fn, name: str):
    return inspect.signature(fn).parameters[name].default


@pytest.mark.parametrize("command,dest", sorted(FEEDS))
def test_flag_default_is_the_api_default(command, dest):
    flag_default = _subparser(command).get_default(dest)
    for fn, name in FEEDS[command, dest]:
        api_default = _api_default(fn, name)
        if (command, dest) in INTENDED:
            expected, _reason = INTENDED[command, dest]
            assert flag_default == expected and api_default != expected
        else:
            assert flag_default == api_default, (command, dest, fn, name)
