"""Unit tests for the service-layer CLI: serve, query, registry."""

import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def populated(tmp_path_factory):
    """A registry with one dempsey report in it (and the loose file)."""
    root = tmp_path_factory.mktemp("cli-registry")
    registry = root / "registry"
    report = root / "report.json"
    code = main(
        [
            "run",
            "--machine",
            "dempsey",
            "--noise",
            "0",
            "-o",
            str(report),
            "--registry",
            str(registry),
        ]
    )
    assert code == 0
    return registry, report


def test_run_publishes_to_registry(populated, capsys):
    registry, _ = populated
    assert main(["registry", "list", "--registry", str(registry)]) == 0
    out = capsys.readouterr().out
    assert "v1" in out and "dempsey" in out


def test_registry_list_empty(tmp_path, capsys):
    assert main(["registry", "list", "--registry", str(tmp_path / "nope")]) == 0
    assert "is empty" in capsys.readouterr().out


def test_report_accepts_registry_spec(populated, capsys):
    registry, _ = populated
    assert main(["report", "latest", "--registry", str(registry)]) == 0
    assert "dempsey" in capsys.readouterr().out


def test_advise_accepts_registry_spec(populated, capsys):
    registry, _ = populated
    assert main(["advise", "latest", "--registry", str(registry)]) == 0
    assert "matmul tile for L1" in capsys.readouterr().out


def test_report_path_behavior_unchanged(populated, capsys):
    _, report = populated
    assert main(["report", str(report)]) == 0
    assert "dempsey" in capsys.readouterr().out


def test_serve_runs_harness_cleanly(populated, capsys):
    registry, _ = populated
    code = main(
        [
            "serve",
            "--registry",
            str(registry),
            "--clients",
            "4",
            "--queries",
            "100",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "hit rate" in out
    assert "all answers match the uncached reference" in out


def test_serve_from_report_file(populated, capsys):
    _, report = populated
    code = main(
        ["serve", "--report", str(report), "--clients", "2", "--queries", "50"]
    )
    assert code == 0
    assert "q/s" in capsys.readouterr().out


@pytest.mark.parametrize("listen", [[], ["--listen", "127.0.0.1:0"]])
def test_serve_rejects_removed_ttl_flag(populated, listen, capsys):
    # Answers never expire (a report is immutable); the TTL flag is gone.
    _, report = populated
    with pytest.raises(SystemExit) as exc:
        main(["serve", "--report", str(report), *listen, "--ttl", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --ttl" in capsys.readouterr().err


def test_query_returns_json(populated, capsys):
    registry, _ = populated
    code = main(
        [
            "query",
            "latest",
            "matmul-tile",
            "--level",
            "2",
            "--registry",
            str(registry),
        ]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["side"] > 0


def test_query_latency_with_pair(populated, capsys):
    registry, _ = populated
    code = main(
        [
            "query",
            "latest",
            "latency",
            "--pair",
            "0,1",
            "--size",
            "4096",
            "--registry",
            str(registry),
        ]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["latency"] > 0


def test_registry_refresh_up_to_date(populated, capsys):
    registry, _ = populated
    code = main(
        [
            "registry",
            "refresh",
            "--registry",
            str(registry),
            "--machine",
            "dempsey",
            "--noise",
            "0",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "unchanged" in out and "up_to_date" in out


def test_registry_gc(populated, capsys):
    registry, _ = populated
    assert main(["registry", "gc", "--registry", str(registry), "--keep", "5"]) == 0
    assert "removed 0 file(s)" in capsys.readouterr().out


def test_missing_registry_spec_fails_cleanly(tmp_path, capsys):
    code = main(["advise", "latest", "--registry", str(tmp_path / "empty")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["latency", "--pair", "0", "--size", "64"], "--pair"),
        (["latency", "--pair", "0,1,2", "--size", "64"], "--pair"),
        (["aggregate", "--pair", "a,b"], "--pair"),
        (["bcast", "--placement", "0,x"], "--placement"),
        (["bcast", "--placement", ","], "--placement"),
        (["latency", "--pair", "0,1"], "--size"),
    ],
)
def test_query_malformed_flags_exit_cleanly(argv, flag, capsys):
    # Parsing fails before any connection is attempted, so the address
    # is never dialled.
    assert main(["query", "-", *argv, "--remote", "127.0.0.1:9"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err
