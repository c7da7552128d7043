"""Properties of similarity clustering and group inference."""

from __future__ import annotations

import functools
import operator
import random

from hypothesis import given, settings, strategies as st

from repro.core.clustering import cluster_similar, groups_from_pairs

values = st.lists(
    st.floats(0.1, 1e6, allow_nan=False, allow_infinity=False),
    min_size=0,
    max_size=40,
)


def assert_means_are_left_to_right(vals, clusters):
    """Bit for bit, on every Python: a representative must not depend on
    the interpreter's ``sum`` (3.12 compensates, 3.11 does not)."""
    for c in clusters:
        member_values = [vals[m] for m in c.members]
        total = functools.reduce(operator.add, member_values, 0.0)
        assert c.value == total / len(member_values)


@given(values, st.floats(0.0, 0.5))
@settings(max_examples=100, deadline=None)
def test_clustering_partitions_input(vals, tol):
    items = list(enumerate(vals))
    clusters = cluster_similar(items, rel_tol=tol)
    members = [m for c in clusters for m in c.members]
    assert sorted(members) == sorted(range(len(vals)))


@given(values, st.floats(0.0, 0.5))
@settings(max_examples=100, deadline=None)
def test_clusters_sorted_and_nonempty(vals, tol):
    clusters = cluster_similar(list(enumerate(vals)), rel_tol=tol)
    reps = [c.value for c in clusters]
    assert reps == sorted(reps)
    assert all(c.members for c in clusters)
    assert_means_are_left_to_right(vals, clusters)


@given(values)
@settings(max_examples=50, deadline=None)
def test_zero_tolerance_groups_equal_values_only(vals):
    clusters = cluster_similar(list(enumerate(vals)), rel_tol=0.0)
    for c in clusters:
        got = {vals[m] for m in c.members}
        assert len(got) == 1


@given(
    st.integers(2000, 6000),
    st.floats(1e-3, 1e6),
    st.floats(0.01, 0.5),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_representative_of_thousands_of_members(n, center, tol, seed):
    """Thousands of values jittered around one center: long running
    sums, where any reordering or compensation would change low bits."""
    rng = random.Random(seed)
    vals = [center * (1.0 + rng.uniform(-tol, tol) / 3.0) for _ in range(n)]
    clusters = cluster_similar(list(enumerate(vals)), rel_tol=tol)
    assert max(len(c.members) for c in clusters) >= n // 2
    assert_means_are_left_to_right(vals, clusters)


@given(
    st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 20)).filter(
            lambda p: p[0] != p[1]
        ),
        max_size=40,
    )
)
@settings(max_examples=100, deadline=None)
def test_groups_are_disjoint_and_cover_pairs(raw_pairs):
    pairs = [tuple(sorted(p)) for p in raw_pairs]
    groups = groups_from_pairs(pairs)
    flat = [c for g in groups for c in g]
    assert len(flat) == len(set(flat))  # disjoint
    mentioned = {c for p in pairs for c in p}
    assert set(flat) == mentioned  # complete
    # Every pair's endpoints are in the same group.
    of = {c: i for i, g in enumerate(groups) for c in g}
    for a, b in pairs:
        assert of[a] == of[b]


@given(
    st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15)).filter(
            lambda p: p[0] != p[1]
        ),
        max_size=30,
    ),
    st.randoms(),
)
@settings(max_examples=50, deadline=None)
def test_groups_order_invariant(raw_pairs, rnd):
    pairs = [tuple(sorted(p)) for p in raw_pairs]
    shuffled = list(pairs)
    rnd.shuffle(shuffled)
    assert groups_from_pairs(pairs) == groups_from_pairs(shuffled)
