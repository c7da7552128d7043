"""Properties of the communication cost models."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.clustering import cluster_similar
from repro.netsim.model import LayerParams
from repro.units import KiB, MiB


@st.composite
def layer_params(draw):
    base = draw(st.floats(1e-7, 1e-4))
    bandwidth = draw(st.floats(1e8, 1e10))
    eager = draw(st.sampled_from([4 * KiB, 16 * KiB, 64 * KiB]))
    rdv = draw(st.floats(0.0, 1e-5))
    gamma = draw(st.floats(0.0, 0.5))
    spill = draw(st.booleans())
    kwargs = dict(
        name="p",
        base_latency=base,
        bandwidth=bandwidth,
        eager_threshold=eager,
        rendezvous_latency=rdv,
        contention_factor=gamma,
    )
    if spill:
        kwargs["cache_capacity"] = draw(st.sampled_from([1 * MiB, 4 * MiB]))
        kwargs["mem_bandwidth"] = draw(st.floats(1e7, bandwidth))
    return LayerParams(**kwargs)


@given(layer_params(), st.integers(0, 1 << 24), st.integers(1, 64))
@settings(max_examples=150, deadline=None)
def test_latency_positive_and_bounded_below_by_base(params, nbytes, conc):
    t = params.latency(nbytes, concurrency=conc)
    assert t >= params.base_latency > 0 or params.base_latency == 0


@given(layer_params(), st.integers(0, 1 << 22), st.integers(1, 32))
@settings(max_examples=150, deadline=None)
def test_latency_monotone_in_size(params, nbytes, conc):
    t1 = params.latency(nbytes, concurrency=conc)
    t2 = params.latency(nbytes + 4096, concurrency=conc)
    assert t2 >= t1 - 1e-15


@given(layer_params(), st.integers(1, 1 << 22), st.integers(1, 31))
@settings(max_examples=150, deadline=None)
def test_latency_monotone_in_concurrency(params, nbytes, conc):
    t1 = params.latency(nbytes, concurrency=conc)
    t2 = params.latency(nbytes, concurrency=conc + 1)
    assert t2 >= t1 - 1e-15


@given(layer_params(), st.integers(1, 1 << 22))
@settings(max_examples=100, deadline=None)
def test_bandwidth_never_exceeds_asymptotic(params, nbytes):
    achieved = params.point_to_point_bandwidth(nbytes)
    assert achieved <= params.bandwidth * (1 + 1e-12)


@given(
    st.lists(st.floats(1e-6, 1e-3), min_size=1, max_size=4, unique=True),
    st.integers(2, 30),
    st.integers(0, 1000),
)
@settings(max_examples=60, deadline=None)
def test_layer_clustering_recovers_separated_latencies(centers, per, seed):
    """Values drawn within 3% of well-separated centers cluster back
    into exactly one layer per center (the Fig. 7 guarantee)."""
    import random

    centers = sorted(centers)
    # Enforce pairwise separation of at least 60% (well beyond the 15%
    # clustering tolerance plus 3% jitter).
    for a, b in zip(centers, centers[1:]):
        if b < a * 1.6:
            return
    rnd = random.Random(seed)
    items = []
    for c_idx, center in enumerate(centers):
        for k in range(per):
            value = center * rnd.uniform(0.97, 1.03)
            items.append(((c_idx, k), value))
    rnd.shuffle(items)
    clusters = cluster_similar(items, rel_tol=0.15)
    assert len(clusters) == len(centers)
    for cluster in clusters:
        origins = {key[0] for key in cluster.members}
        assert len(origins) == 1  # no cluster mixes two true layers
