"""Unit tests for the workload layer: recorder input, parsing, advisor edges."""

import numpy as np
import pytest

from repro.errors import MeasurementError, WorkloadError
from repro.workload import (
    CachePressureModel,
    ReuseDistanceRecorder,
    ReuseProfile,
    co_schedule,
    parse_workload,
    profile_workload,
)
from repro.workload.generators import PROFILE_CACHE


# -- recorder input -------------------------------------------------------


@pytest.mark.parametrize(
    "lines, match",
    [
        (np.array([1.2, 1.9, 2.5]), "integer dtype"),
        (np.array([1.0, 2.0]), "integer dtype"),
        (np.array([True, False, True]), "integer dtype"),
        (np.array([1, 2, 3], dtype=object), "integer dtype"),
        ([1, 2.5], "integer dtype"),
        (np.arange(6).reshape(2, 3), "1-D"),
        (np.int64(3), "1-D"),
    ],
)
def test_observe_rejects_non_integer_or_non_vector_input(lines, match):
    recorder = ReuseDistanceRecorder()
    with pytest.raises(MeasurementError, match=match):
        recorder.observe(lines)
    assert recorder.accesses == 0 and recorder.bins() == []


def test_observe_accepts_int_lists_and_unsigned_vectors():
    from_list = ReuseDistanceRecorder()
    from_list.observe([3, 1, 3, 2, 1])
    from_array = ReuseDistanceRecorder()
    from_array.observe(np.array([3, 1, 3, 2, 1], dtype=np.uint16))
    assert from_list.bins() == from_array.bins() == [(1, 1, 1, 1), (2, 1, 2, 2)]
    assert from_list.cold == from_array.cold == 3
    from_list.observe([])
    assert from_list.accesses == 5


# -- spec parsing ---------------------------------------------------------


def test_parse_workload_rejects_unknown_generator():
    with pytest.raises(WorkloadError, match="unknown workload"):
        parse_workload("quantum:lines=4")


def test_parse_workload_rejects_unknown_key():
    with pytest.raises(WorkloadError, match="warp"):
        parse_workload("zipf:warp=9")


def test_parse_workload_rejects_malformed_value():
    with pytest.raises(WorkloadError):
        parse_workload("streaming:lines=many")


def test_parse_workload_canonicalizes_spec():
    a = parse_workload("zipf:s=1.3,lines=512")
    b = parse_workload("zipf:lines=512,s=1.3")
    assert a.spec == b.spec


# -- profile serialization ------------------------------------------------


def test_profile_dict_roundtrip():
    profile = profile_workload("stencil:lines=128,halo=1,sweeps=2", seed=3)
    again = ReuseProfile.from_dict(profile.to_dict())
    assert again == profile


def test_profile_cache_evicts_only_the_least_recently_used():
    """A full profile memo drops its LRU entry, not every entry."""
    PROFILE_CACHE.clear()
    spec = "zipf:lines=16,accesses=64"
    capacity = PROFILE_CACHE.capacity
    profiles = [profile_workload(spec, seed=seed) for seed in range(capacity + 1)]
    assert len(PROFILE_CACHE) == capacity
    assert PROFILE_CACHE.stats()["evictions"] == 1
    # The most recent and an older survivor are served from the memo...
    assert profile_workload(spec, seed=capacity) is profiles[capacity]
    assert profile_workload(spec, seed=1) is profiles[1]
    # ...and only the least recently used profile had to be recomputed.
    assert profile_workload(spec, seed=0) is not profiles[0]
    PROFILE_CACHE.clear()


def test_profile_from_dict_rejects_corrupt_mass():
    data = profile_workload("streaming:lines=64,rounds=2", seed=0).to_dict()
    data["cold"] += 1  # breaks cold + sum(counts) == accesses
    with pytest.raises(MeasurementError, match="loses mass"):
        ReuseProfile.from_dict(data)


# -- advisor edges --------------------------------------------------------


def test_co_schedule_rejects_private_level(dunnington_report):
    with pytest.raises(WorkloadError, match="private"):
        co_schedule(dunnington_report, ["streaming"], level=1)


def test_co_schedule_rejects_unknown_level(dunnington_report):
    with pytest.raises(WorkloadError, match="no cache level"):
        co_schedule(dunnington_report, ["streaming"], level=9)


def test_co_schedule_rejects_bad_instances(dunnington_report):
    with pytest.raises(WorkloadError):
        co_schedule(dunnington_report, ["streaming"], level=2, instances=0)
    with pytest.raises(WorkloadError):
        co_schedule(dunnington_report, ["streaming"], level=2, instances=99)


def test_co_schedule_rejects_oversized_mix(dunnington_report):
    mix = [f"zipf:lines={64 + i}" for i in range(11)]  # MAX_WORKLOADS = 10
    with pytest.raises(WorkloadError, match="cap"):
        co_schedule(dunnington_report, mix, level=2)


def test_co_schedule_rejects_empty_and_bad_top(dunnington_report):
    with pytest.raises(WorkloadError):
        co_schedule(dunnington_report, [], level=2)
    with pytest.raises(WorkloadError):
        co_schedule(dunnington_report, ["streaming"], level=2, top=0)


def test_co_schedule_infeasible_mix(dunnington_report):
    # 5 workloads cannot fit 2 instances x 2 cores of L2.
    mix = [f"zipf:lines={64 + i}" for i in range(5)]
    with pytest.raises(WorkloadError):
        co_schedule(dunnington_report, mix, level=2, instances=2)


def test_model_rejects_bad_shape():
    with pytest.raises(WorkloadError):
        CachePressureModel(capacity_lines=0)
    with pytest.raises(WorkloadError):
        CachePressureModel(capacity_lines=64, miss_cycles=0.0)
