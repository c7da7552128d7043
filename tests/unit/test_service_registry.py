"""Unit tests for the versioned report registry.

Covers the schema-roundtrip guarantees: a v1 (pre-envelope) report
loads through the migration hook with an identical
``measurement_dict()``, and a corrupted-checksum file is quarantined —
never crashed on — with fallback to the newest intact version.
"""

import dataclasses
import json

import pytest

from repro import ServetSuite, SimulatedBackend, dempsey
from repro.errors import RegistryError, ReproError
from repro.service.fingerprint import REPORT_SCHEMA_VERSION, fingerprint_of
from repro.service.registry import ReportRegistry, _migrate, report_checksum


@pytest.fixture(scope="module")
def small_report():
    backend = SimulatedBackend(dempsey(), seed=3, noise=0.0)
    report = ServetSuite(backend).run()
    return report, fingerprint_of(backend)


@pytest.fixture
def registry(tmp_path):
    return ReportRegistry(tmp_path / "registry", clock=lambda: 1700000000.0)


def test_put_get_roundtrip(registry, small_report):
    report, fp = small_report
    entry = registry.put(fp, report)
    assert entry.version == 1
    assert entry.schema_version == REPORT_SCHEMA_VERSION
    assert entry.system == "dempsey"
    loaded = registry.get(fp.digest)
    assert loaded.measurement_dict() == report.measurement_dict()


def test_report_with_worker_pool_planner_keys_loads(registry, small_report):
    # Reports stored while the planner had a worker pool carry its width
    # and timeout counter in ``planner``; they still load and render.
    report, fp = small_report
    planner = dict(report.planner, jobs=4, probe_timeouts=0)
    registry.put(fp, dataclasses.replace(report, planner=planner))
    loaded = registry.get(fp.digest)
    assert loaded.measurement_dict() == report.measurement_dict()
    assert loaded.planner == planner
    summary = loaded.summary()
    assert f"Planner: {planner['issued']} measurement(s) issued" in summary
    assert "jobs" not in summary


def test_versions_accumulate_and_pin(registry, small_report):
    report, fp = small_report
    registry.put(fp, report)
    second = registry.put(fp, report)
    assert second.version == 2
    assert [e.version for e in registry.entries(fp.digest)] == [1, 2]
    assert registry.get_with_entry(fp.digest)[1].version == 2
    assert registry.get_with_entry(fp.digest, version=1)[1].version == 1
    with pytest.raises(RegistryError, match="no version 9"):
        registry.get(fp.digest, version=9)


def test_resolve_latest_prefix_ambiguous(registry, small_report):
    report, fp = small_report
    with pytest.raises(RegistryError, match="is empty"):
        registry.resolve("latest")
    registry.put(fp, report)
    assert registry.resolve("latest") == fp.digest
    assert registry.resolve(fp.digest[:8]) == fp.digest
    with pytest.raises(RegistryError, match="no report for fingerprint"):
        registry.resolve("zzzz")
    # A second digest sharing no prefix still resolves; an empty prefix
    # matching both is ambiguous.
    other_dir = registry.root / ("0" * 64)
    other_dir.mkdir(parents=True)
    with pytest.raises(RegistryError, match="ambiguous"):
        registry.resolve("")


def test_v1_loose_file_imports_identically(registry, small_report, tmp_path):
    """Satellite: schema v1 (bare ``ServetReport.save`` output) migrates."""
    report, fp = small_report
    loose = tmp_path / "report.json"
    report.save(loose)
    entry = registry.import_report(loose, fp)
    assert entry.schema_version == REPORT_SCHEMA_VERSION
    assert registry.get(fp.digest).measurement_dict() == report.measurement_dict()


def test_hand_placed_v1_file_loads_through_migration(registry, small_report):
    """A bare payload dropped straight into the digest dir still reads."""
    report, fp = small_report
    digest_dir = registry.root / fp.digest
    digest_dir.mkdir(parents=True)
    (digest_dir / "v000001.json").write_text(json.dumps(report.to_dict()))
    loaded = registry.get(fp.digest)
    assert loaded.measurement_dict() == report.measurement_dict()


def test_corrupted_checksum_quarantined_with_fallback(registry, small_report):
    report, fp = small_report
    registry.put(fp, report)
    bad_entry = registry.put(fp, report)
    envelope = json.loads(bad_entry.path.read_text())
    envelope["report"]["n_cores"] = 999  # tamper without fixing the checksum
    bad_entry.path.write_text(json.dumps(envelope))

    loaded = registry.get(fp.digest)
    assert loaded.n_cores == report.n_cores  # fell back to intact v1
    assert not bad_entry.path.exists()
    assert bad_entry.path.with_name(bad_entry.path.name + ".quarantined").exists()


def test_unparseable_file_quarantined(registry, small_report):
    report, fp = small_report
    registry.put(fp, report)
    entry = registry.put(fp, report)
    entry.path.write_text("{not json")
    assert registry.get(fp.digest).measurement_dict() == report.measurement_dict()
    assert entry.path.with_name(entry.path.name + ".quarantined").exists()


@pytest.mark.parametrize(
    "payload",
    [
        "5",
        "null",
        '"text"',
        "[1, 2]",
        "{}",
        '{"schema_version": 2, "report": 5}',
        '{"schema_version": 2, "version": "x", "report": {}}',
    ],
)
def test_json_that_is_not_a_report_is_quarantined(registry, small_report, payload):
    report, fp = small_report
    registry.put(fp, report)
    entry = registry.put(fp, report)
    entry.path.write_text(payload)
    assert sorted(e.version for e in registry.entries(fp.digest)) in ([1], [1, 2])
    assert registry.resolve("latest") == fp.digest
    assert registry.get(fp.digest).measurement_dict() == report.measurement_dict()
    assert entry.path.with_name(entry.path.name + ".quarantined").exists()
    with pytest.raises(ReproError):  # a typed error, not a TypeError
        registry.import_report(entry.path.with_name(entry.path.name + ".quarantined"), fp)


def test_put_after_quarantine_takes_a_fresh_version(registry, small_report):
    report, fp = small_report
    registry.put(fp, report)
    bad = registry.put(fp, report)
    bad.path.write_text("garbage")
    registry.get(fp.digest)  # quarantines v2
    entry = registry.put(fp, report)
    assert entry.version == 3
    # A daemon still serving the quarantined v2 sees the new version.
    assert registry.latest_version(fp.digest) == 3
    entry.path.write_text("{not json")
    registry.get(fp.digest)  # quarantines v3 beside v2
    names = sorted(p.name for p in bad.path.parent.glob("v*"))
    assert names == [
        "v000001.json", "v000002.json.quarantined", "v000003.json.quarantined"
    ]
    assert registry.quarantined_counts() == {fp.digest: 2}
    assert registry.put(fp, report).version == 4


def test_all_versions_corrupt_raises_listing_quarantined(registry, small_report):
    report, fp = small_report
    entry = registry.put(fp, report)
    entry.path.write_text("garbage")
    with pytest.raises(RegistryError, match="quarantined"):
        registry.get(fp.digest)


def test_future_schema_version_quarantined_not_crashed(registry, small_report):
    report, fp = small_report
    registry.put(fp, report)
    entry = registry.put(fp, report)
    envelope = json.loads(entry.path.read_text())
    envelope["schema_version"] = REPORT_SCHEMA_VERSION + 5
    entry.path.write_text(json.dumps(envelope))
    assert registry.get(fp.digest).measurement_dict() == report.measurement_dict()


def test_migrate_rejects_unknown_gap():
    with pytest.raises(RegistryError, match="no migration"):
        _migrate({"schema_version": 0, "report": {}}, origin="test")


def test_gc_keeps_newest_and_sweeps_quarantine(registry, small_report):
    report, fp = small_report
    for _ in range(3):
        registry.put(fp, report)
    middle = registry.entries(fp.digest)[1]
    middle.path.write_text("garbage")
    registry.get(fp.digest)  # quarantines v2
    removed = registry.gc(keep=1)
    assert len(removed) == 2  # v1 + the quarantined v2
    survivors = registry.entries(fp.digest)
    assert [e.version for e in survivors] == [3]
    with pytest.raises(RegistryError, match="needs keep"):
        registry.gc(keep=0)


def test_latest_version_is_a_stat_probe(registry, small_report, monkeypatch):
    """Satellite: the watcher's version probe never reads payloads."""
    report, fp = small_report
    assert registry.latest_version(fp.digest) == 0  # nothing stored yet
    registry.put(fp, report)
    registry.put(fp, report)
    assert registry.latest_version(fp.digest) == 2
    assert registry.latest_version(fp.digest[:10]) == 2

    # Prove no file payload is opened: corrupt every stored version;
    # the name-based probe must still answer (get() would quarantine).
    for entry in registry.entries(fp.digest):
        entry.path.write_text("garbage")
    assert registry.latest_version(fp.digest) == 2


def test_latest_version_rejects_latest_spec(registry):
    with pytest.raises(RegistryError, match="needs a digest"):
        registry.latest_version("latest")


def test_latest_version_ambiguous_prefix(registry, small_report):
    report, fp = small_report
    registry.put(fp, report)
    other = registry.root / ("0" * 64)
    other.mkdir(parents=True)
    with pytest.raises(RegistryError, match="ambiguous"):
        registry.latest_version("")


def test_latest_version_unknown_digest_is_zero(registry):
    assert registry.latest_version("f" * 64) == 0


def test_refresh_refuses_empty_digest_dir(registry, small_report, tmp_path):
    """incremental_refresh probes latest_version before any payload
    work: a digest directory holding only metadata fails with a clear
    message instead of a deep registry error."""
    from repro import SimulatedBackend, dempsey
    from repro.errors import ServiceError
    from repro.service.staleness import incremental_refresh

    report, fp = small_report
    registry.put(fp, report)
    entry = registry.entries(fp.digest)[-1]
    entry.path.unlink()  # meta.json survives, versions are gone
    backend = SimulatedBackend(dempsey(), seed=3, noise=0.0)
    with pytest.raises(ServiceError, match="no stored versions"):
        incremental_refresh(registry, backend, base=fp.digest)


def test_checksum_is_canonical():
    assert report_checksum({"b": 1, "a": 2}) == report_checksum({"a": 2, "b": 1})


def test_fingerprint_inputs_roundtrip(registry, small_report):
    report, fp = small_report
    registry.put(fp, report)
    assert registry.fingerprint_inputs(fp.digest[:10]) == fp.inputs


def test_quarantined_counts_reflect_disk_state(registry, small_report):
    report, fp = small_report
    assert registry.quarantined_counts() == {}
    registry.put(fp, report)
    for entry in (registry.put(fp, report), registry.put(fp, report)):
        entry.path.write_text("garbage")
    registry.get(fp.digest)  # walks v3, v2 (both quarantined) down to v1
    counts = registry.quarantined_counts()
    assert counts == {fp.digest: 2}
