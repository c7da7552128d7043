"""Unit tests for the native measurement kernels."""

import numpy as np
import pytest

from repro.backends.kernels import build_chase_array, gather_traverse, pointer_chase
from repro.errors import MeasurementError


class TestBuildChaseArray:
    def test_visited_slots_hold_the_stride(self):
        arr = build_chase_array(8 * 1024, 1024)
        hop = 1024 // 8
        assert arr[0] == hop
        assert arr[hop] == hop
        assert arr[1] == 0  # unvisited slots stay zero

    def test_walk_covers_expected_slots(self):
        arr = build_chase_array(4 * 1024, 512)
        visited = []
        j = 0
        while j < len(arr):
            visited.append(j)
            j += int(arr[j])
        assert visited == list(range(0, 512, 64))

    def test_rejects_unaligned_stride(self):
        with pytest.raises(MeasurementError):
            build_chase_array(4096, 100)


class TestPointerChase:
    def test_returns_positive_seconds_per_access(self):
        arr = build_chase_array(16 * 1024, 1024)
        secs = pointer_chase(arr, repeats=2)
        assert 0 < secs < 1.0

    def test_rejects_zero_repeats(self):
        arr = build_chase_array(4096, 512)
        with pytest.raises(MeasurementError):
            pointer_chase(arr, repeats=0)


class TestGatherTraverse:
    def test_returns_positive_seconds_per_access(self):
        arr = np.zeros(4096, dtype=np.int64)
        idx = np.arange(0, 4096, 128)
        secs = gather_traverse(arr, idx, repeats=2)
        assert 0 < secs < 1.0

    def test_gather_is_much_faster_than_chase(self):
        nbytes = 256 * 1024
        chase_arr = build_chase_array(nbytes, 1024)
        chase = pointer_chase(chase_arr, repeats=2)
        arr = np.zeros(nbytes // 8, dtype=np.int64)
        idx = np.arange(0, nbytes // 8, 128)
        gather = gather_traverse(arr, idx, repeats=2)
        assert gather < chase  # interpreter overhead: the repro-band caveat


class TestNativeKernelSelection:
    def test_chase_kernel_usable(self):
        # The native backend measures with the gather kernel; the Fig. 1
        # loop stays usable on the same geometry.
        arr = build_chase_array(32 * 1024, 1024)
        assert pointer_chase(arr, 1) > 0


def test_cli_validate(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "r.json"
    main(["run", "--machine", "athlon_3200", "-o", str(path)])
    capsys.readouterr()
    assert main(["validate", str(path), "--machine", "athlon_3200"]) == 0
    assert "validation OK" in capsys.readouterr().out
    assert main(["validate", str(path), "--machine", "dempsey"]) == 1
    assert "VALIDATION FAILED" in capsys.readouterr().out
