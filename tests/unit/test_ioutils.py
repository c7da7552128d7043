"""Durability behavior of the atomic write helpers."""

from __future__ import annotations

import os

import pytest

from repro.ioutils import atomic_write_text, fsync_dir


def test_atomic_write_replaces_content(tmp_path):
    target = tmp_path / "file.json"
    atomic_write_text(target, "old")
    atomic_write_text(target, "new")
    assert target.read_text() == "new"
    # No stray temp files left behind.
    assert [p.name for p in tmp_path.iterdir()] == ["file.json"]


def test_durable_write_fsyncs_file_and_directory(tmp_path, monkeypatch):
    synced: list[int] = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        synced.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    atomic_write_text(tmp_path / "file.json", "payload")
    # One fsync for the temp file's data, one for the directory entry
    # (the rename itself) — both are required for power-loss safety.
    assert len(synced) == 2


def test_failed_write_cleans_up_temp_file(tmp_path, monkeypatch):
    def exploding_replace(src, dst):
        raise OSError("disk on fire")

    monkeypatch.setattr(os, "replace", exploding_replace)
    with pytest.raises(OSError, match="disk on fire"):
        atomic_write_text(tmp_path / "file.json", "payload")
    assert list(tmp_path.iterdir()) == []


def test_fsync_dir_tolerates_unsupported_platforms(tmp_path, monkeypatch):
    # Some platforms cannot open directories; the helper must degrade
    # to a no-op instead of failing the surrounding write.
    def no_dir_open(path, flags):
        raise OSError("directories not openable here")

    monkeypatch.setattr(os, "open", no_dir_open)
    fsync_dir(tmp_path)  # must not raise


def test_fsync_dir_syncs_real_directory(tmp_path):
    fsync_dir(tmp_path)  # smoke: real directory, real fsync, no error
