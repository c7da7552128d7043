"""Contract: a query kind means the same thing from every entry point.

The kinds come from one table (``repro.service.server.QUERY_KINDS``) and
these tests iterate over it, so a new kind is held to the contract the
moment it is added.  For every kind:

- the dataclass defaults are the generated CLI defaults and what
  ``decode_query`` fills in for a minimal wire dict;
- every default of the ``Advisor`` method its answer calls is the
  dataclass default of the field of that name;
- on the dunnington golden report, the CLI in process, the CLI over
  ``--remote`` to a loopback daemon and ``TuningService.query`` give
  byte-identical canonical-JSON answers.
"""

import dataclasses
import inspect
import json
from pathlib import Path

import pytest

from repro.autotune import Advisor
from repro.cli import _build_parser, main
from repro.core.report import ServetReport
from repro.ioutils import canonical_json
from repro.service import TuningService
from repro.service.server import QUERY_KINDS
from repro.serviced import TuningDaemon
from repro.serviced.protocol import decode_query

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "dunnington.json"

MIX = "streaming:lines=128,rounds=2;zipf:accesses=256,lines=128"

#: Per kind: the flags of a query that gives only the required fields,
#: and those fields as Python values.
MINIMAL = {
    "tile": ([], {}),
    "matmul-tile": ([], {}),
    "streaming-cores": ([], {}),
    "aggregate": (["--pair", "0,12"], {"core_a": 0, "core_b": 12}),
    "bcast": (["--placement", "0,1,2,3"], {"placement": (0, 1, 2, 3)}),
    "latency": (
        ["--pair", "0,1", "--size", "512"],
        {"core_a": 0, "core_b": 1, "nbytes": 512},
    ),
    "co-schedule": (["--workloads", MIX], {"workloads": tuple(MIX.split(";"))}),
}

#: Per kind: the flags of a query that sets optional fields too.
FULL = {
    "tile": (
        ["--level", "2", "--arrays", "3", "--elem", "4"],
        {"level": 2, "n_arrays": 3, "elem_size": 4},
    ),
    "matmul-tile": (["--level", "2", "--elem", "4"], {"level": 2, "elem_size": 4}),
    "streaming-cores": (["--group", "0"], {"group_index": 0}),
    "aggregate": (
        ["--pair", "0,12", "--messages", "4", "--size", "8192"],
        {"core_a": 0, "core_b": 12, "n_messages": 4, "message_size": 8192},
    ),
    "bcast": (
        ["--placement", "0,6,12,18", "--size", "4096", "--root", "1"],
        {"placement": (0, 6, 12, 18), "nbytes": 4096, "root": 1},
    ),
    "latency": (
        ["--pair", "0,12", "--size", "65536"],
        {"core_a": 0, "core_b": 12, "nbytes": 65536},
    ),
    "co-schedule": (
        ["--workloads", MIX, "--cache-level", "2", "--instances", "2",
         "--top", "1", "--seed", "3"],
        {"workloads": tuple(MIX.split(";")), "level": 2, "instances": 2,
         "top": 1, "seed": 3},
    ),
}

KINDS = sorted(QUERY_KINDS)

#: Per kind: the ``Advisor`` method its answer calls, or None when the
#: answer reads the report directly.
ADVISOR_METHOD = {
    "tile": Advisor.tile_elements,
    "matmul-tile": Advisor.matmul_tile,
    "streaming-cores": Advisor.max_useful_streaming_cores,
    "aggregate": Advisor.should_aggregate,
    "bcast": Advisor.choose_bcast,
    "latency": None,
    "co-schedule": Advisor.co_schedule,
}


def wire(fields: dict) -> dict:
    return {k: list(v) if isinstance(v, tuple) else v for k, v in fields.items()}


def test_cases_cover_the_table():
    assert set(MINIMAL) == set(FULL) == set(ADVISOR_METHOD) == set(QUERY_KINDS)


@pytest.mark.parametrize("name", [k for k in KINDS if ADVISOR_METHOD[k] is not None])
def test_field_defaults_are_the_advisor_defaults(name):
    fields = {f.name: f.default for f in dataclasses.fields(QUERY_KINDS[name].cls)}
    params = inspect.signature(ADVISOR_METHOD[name]).parameters
    defaulted = {
        p.name: p.default for p in params.values() if p.default is not inspect.Parameter.empty
    }
    assert defaulted.keys() <= fields.keys()
    assert {k: fields[k] for k in defaulted} == defaulted


@pytest.mark.parametrize("name", KINDS)
def test_defaults_agree(name):
    kind = QUERY_KINDS[name]
    flags, required = MINIMAL[name]
    python = kind.cls(**required)
    args = _build_parser().parse_args(["query", "-", name, *flags])
    defaults = {f.name: f.default for f in dataclasses.fields(kind.cls)}
    for option in kind.options:
        if not option.required:
            assert getattr(args, option.dest) == defaults[option.fields[0]]
    assert kind.from_options(vars(args)) == python
    assert decode_query({"kind": name, **wire(required)}) == python


@pytest.fixture(scope="module")
def golden():
    return ServetReport.load(GOLDEN)


@pytest.fixture(scope="module")
def daemon(golden):
    with TuningDaemon(report=golden, workers=1) as d:
        yield d


@pytest.mark.parametrize("cases", [MINIMAL, FULL], ids=["minimal", "full"])
@pytest.mark.parametrize("name", KINDS)
def test_cli_wire_and_python_agree(name, cases, golden, daemon, capsys):
    flags, fields = cases[name]
    python = TuningService(golden).query(QUERY_KINDS[name].cls(**fields))
    assert main(["query", str(GOLDEN), name, *flags]) == 0
    local = json.loads(capsys.readouterr().out)
    remote_flags = ["--remote", f"{daemon.host}:{daemon.port}"]
    assert main(["query", "-", name, *flags, *remote_flags]) == 0
    remote = json.loads(capsys.readouterr().out)
    assert canonical_json(local) == canonical_json(python)
    assert canonical_json(remote) == canonical_json(python)
