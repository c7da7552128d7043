"""Property spine of the reuse-distance workload model.

A fixed 24-seed grid (the contract the co-scheduling advisor rests on)
plus hypothesis checks of the recorder against a naive stack:

- profiles are deterministic functions of ``(generator, seed)``;
- histograms conserve mass (``cold + sum(counts) == accesses``);
- CDFs are monotone and bounded by ``1 - cold/accesses``;
- every predicted slowdown is ``>= 1.0``;
- pair predictions are invariant under argument order;
- a solo "co-run" predicts a slowdown of exactly 1.0 (not epsilon-close).
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workload import (
    EXACT_DISTANCES,
    CachePressureModel,
    ReuseDistanceRecorder,
    ReuseProfile,
    bucket_of,
    corun_miss_ratio,
    enumerate_partitions,
    parse_workload,
    predict_corun,
)

SEEDS = list(range(24))

#: Small parameterizations so the 24-seed grid stays fast; every
#: generator archetype is exercised.
GRID = [
    "streaming:lines=512,rounds=3",
    "blocked:lines=512,block=64,repeats=3,rounds=2",
    "zipf:accesses=3072,lines=1024,s=1.2",
    "stencil:lines=384,halo=2,sweeps=2",
]


def fresh_profile(spec: str, seed: int) -> ReuseProfile:
    """Profile without the process-wide memo (for determinism checks)."""
    workload = parse_workload(spec)
    recorder = ReuseDistanceRecorder()
    recorder.observe(workload.lines(seed))
    return ReuseProfile.from_recorder(recorder, workload.spec, seed)


def naive_profile(stream) -> tuple[int, dict[int, list[int]]]:
    """Reference reuse distances via an explicit LRU stack."""
    stack: OrderedDict[int, bool] = OrderedDict()
    last_pos: dict[int, int] = {}
    bins: dict[int, list[int]] = {}
    cold = 0
    for t, raw in enumerate(stream):
        line = int(raw)
        if line in stack:
            keys = list(stack.keys())
            distance = len(keys) - 1 - keys.index(line)
            gap = t - last_pos[line] - 1
            row = bins.setdefault(bucket_of(distance), [0, 0, 0])
            row[0] += 1
            row[1] += distance
            row[2] += gap
            del stack[line]
        else:
            cold += 1
        stack[line] = True
        last_pos[line] = t
    return cold, bins


@given(stream=st.lists(st.integers(0, 40), min_size=1, max_size=400))
@settings(max_examples=60, deadline=None)
def test_recorder_equals_naive_stack(stream):
    """The batch recorder matches the O(n^2) stack."""
    recorder = ReuseDistanceRecorder()
    recorder.observe(np.asarray(stream, dtype=np.int64))
    cold, bins = naive_profile(stream)
    assert recorder.cold == cold
    assert recorder.accesses == len(stream)
    assert recorder.distinct_lines == len(set(stream))
    assert {lo: (c, sd, sg) for lo, c, sd, sg in recorder.bins()} == {
        lo: tuple(row) for lo, row in bins.items()
    }


@given(stream=st.lists(st.integers(0, 30), min_size=1, max_size=200))
@settings(max_examples=40, deadline=None)
def test_recorder_chunking_is_transparent(stream):
    """Feeding one access at a time equals one big observe call."""
    whole = ReuseDistanceRecorder()
    whole.observe(np.asarray(stream, dtype=np.int64))
    chunked = ReuseDistanceRecorder()
    for x in stream:
        chunked.observe([x])
    assert whole.bins() == chunked.bins()
    assert whole.cold == chunked.cold


@given(
    seed=st.integers(0, 2**32 - 1),
    n_lines=st.integers(256, 1000),
    length=st.integers(500, 3000),
    n_cuts=st.integers(0, 40),
)
@settings(max_examples=20, deadline=None)
def test_recorder_geometric_buckets_equal_naive_stack(
    seed, n_lines, length, n_cuts
):
    """Distances past EXACT_DISTANCES bin like the naive stack, however chunked.

    A first sweep over every line makes later random reuses reach back
    across hundreds of distinct lines, into the geometric buckets.
    """
    rng = np.random.default_rng(seed)
    stream = np.concatenate(
        [rng.permutation(n_lines), rng.integers(0, n_lines, length)]
    )
    cold, bins = naive_profile(stream)
    expected = {lo: tuple(row) for lo, row in bins.items()}
    assert max(expected) >= EXACT_DISTANCES
    whole = ReuseDistanceRecorder()
    whole.observe(stream)
    cuts = np.sort(rng.choice(len(stream), n_cuts, replace=False))
    chunked = ReuseDistanceRecorder()
    for part in np.split(stream, cuts):
        chunked.observe(part)
    for recorder in (whole, chunked):
        assert recorder.cold == cold == n_lines
        assert recorder.accesses == len(stream)
        assert recorder.distinct_lines == n_lines
        assert {lo: (c, sd, sg) for lo, c, sd, sg in recorder.bins()} == (
            expected
        )


@given(distance=st.integers(0, 2**40))
@settings(max_examples=200, deadline=None)
def test_bucket_of_bounds(distance):
    """Buckets floor their members and stay within one sub-octave step."""
    lo = bucket_of(distance)
    assert lo <= distance
    if distance < 128:
        assert lo == distance
    else:
        # Relative rounding error bounded by the sub-bucket width.
        assert distance - lo < max(1, distance // 16)
        assert bucket_of(lo) == lo


@pytest.mark.parametrize("spec", GRID)
def test_profiles_deterministic_per_seed(spec):
    for seed in SEEDS:
        first = fresh_profile(spec, seed)
        second = fresh_profile(spec, seed)
        assert first == second, f"{spec} seed {seed} not reproducible"


@pytest.mark.parametrize("spec", GRID)
def test_profiles_conserve_mass_and_monotone_cdf(spec):
    for seed in SEEDS:
        profile = fresh_profile(spec, seed)
        assert profile.cold + sum(b.count for b in profile.bins) == (
            profile.accesses
        )
        cdf = profile.cdf()
        distances = [d for d, _ in cdf]
        shares = [s for _, s in cdf]
        assert distances == sorted(distances)
        assert shares == sorted(shares)
        if shares:
            assert 0.0 < shares[-1] <= 1.0 - profile.cold / profile.accesses + 1e-12
        # miss_ratio is non-increasing in capacity.
        ratios = [profile.miss_ratio(c) for c in (1, 16, 64, 256, 1024)]
        assert ratios == sorted(ratios, reverse=True)
        # footprint is non-decreasing and bounded by the footprint.
        fps = [profile.footprint(w) for w in (1, 10, 100, 1000, 10**6)]
        assert fps == sorted(fps)
        assert fps[-1] <= profile.distinct_lines


def test_slowdowns_at_least_one_across_grid():
    model = CachePressureModel(capacity_lines=256)
    for seed in SEEDS:
        profiles = [fresh_profile(spec, seed) for spec in GRID]
        prediction = predict_corun(model, profiles)
        for w in prediction.workloads:
            assert w.slowdown >= 1.0
            assert w.corun_miss_ratio >= w.solo_miss_ratio - 1e-12
        assert prediction.worst_slowdown >= prediction.mean_slowdown >= 1.0


def test_pair_prediction_symmetric():
    model = CachePressureModel(capacity_lines=200)
    for seed in SEEDS:
        a = fresh_profile(GRID[seed % len(GRID)], seed)
        b = fresh_profile(GRID[(seed + 1) % len(GRID)], seed + 100)
        forward = predict_corun(model, [a, b])
        backward = predict_corun(model, [b, a])
        by_name = {w.name: w for w in backward.workloads}
        for w in forward.workloads:
            assert w == by_name[w.name]


def test_solo_corun_is_exactly_one():
    for seed in SEEDS:
        for spec in GRID:
            profile = fresh_profile(spec, seed)
            for capacity in (1, 32, 700):
                model = CachePressureModel(capacity_lines=capacity)
                solo = predict_corun(model, [profile]).workloads[0]
                assert solo.slowdown == 1.0
                assert solo.corun_miss_ratio == profile.miss_ratio(capacity)
                assert corun_miss_ratio(profile, [], capacity) == (
                    profile.miss_ratio(capacity)
                )


@given(
    n=st.integers(1, 6),
    blocks=st.integers(1, 4),
    size=st.integers(1, 4),
)
@settings(max_examples=60, deadline=None)
def test_partition_enumeration_sound(n, blocks, size):
    from repro.errors import WorkloadError

    if blocks * size < n:
        with pytest.raises(WorkloadError):
            enumerate_partitions(n, blocks, size)
        return
    partitions = enumerate_partitions(n, blocks, size)
    seen = set()
    for partition in partitions:
        # Exact cover of range(n) under both bounds.
        items = [i for block in partition for i in block]
        assert sorted(items) == list(range(n))
        assert len(partition) <= blocks
        assert all(1 <= len(block) <= size for block in partition)
        # Canonical: blocks ascend internally and by first element.
        assert all(list(b) == sorted(b) for b in partition)
        assert [b[0] for b in partition] == sorted(b[0] for b in partition)
        key = frozenset(map(frozenset, partition))
        assert key not in seen, "duplicate partition"
        seen.add(key)
