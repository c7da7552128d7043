"""Shared file-I/O helpers: atomic writes, canonical JSON, digests.

Every on-disk artifact the library persists — reports, checkpoints,
registry entries, machine descriptions — goes through
:func:`atomic_write_text`, so a crash mid-write can never leave a
truncated file where a good one used to be.  :func:`canonical_json`
and :func:`sha256_hex` define the byte-level identity used by the
tuning-service fingerprints and registry checksums: sorted keys and
compact separators make the serialization independent of dict
insertion order.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path


def canonical_json(data) -> str:
    """Deterministic JSON: sorted keys, no whitespace.

    Two structurally equal values always serialize to the same bytes,
    which is what fingerprint digests and registry checksums hash.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def sha256_hex(text: str) -> str:
    """Hex SHA-256 of UTF-8 encoded ``text``."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    The temporary file lives in the target directory so the final
    rename stays on one filesystem; readers see either the complete old
    content or the complete new content, never a torn write.

    The temp file is fsync'd before the rename and the parent directory
    after it, so the write also survives *power loss*: without the first
    fsync the rename can land on disk before the data (leaving a
    complete-looking file full of zeros), and without the second the
    rename itself can be lost.
    Registry versions and checkpoints rely on this.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        fsync_dir(path.parent)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def fsync_dir(directory: str | Path) -> None:
    """Flush a directory's entries to disk (no-op where unsupported).

    Renames live in the directory, not the file: after ``os.replace``
    the new name is only durable once the directory itself is synced.
    Some platforms (Windows) cannot open directories — there the call
    degrades to a no-op rather than failing the write.
    """
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)
