"""The binomial tail and the peak finder against exact brute-force oracles.

Detection leans on two small numeric kernels: the binomial upper tail
behind the page-conflict model (``_binom_sf``) and the prominence peak
finder that splits merged gradient rises (``_prominent_peaks``).  Each
is checked here against a definition that shares no code with it: exact
rational sums for the tail, run-length plateaus and slice minima for the
peaks.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.cache_size import _prominent_peaks
from repro.core.probabilistic import _binom_sf, predicted_miss_rate

TOL = 1e-12


def exact_sf(k: int, n: int, p: Fraction) -> float:
    """``P(B(n, p) > k)`` in exact rational arithmetic."""
    if n <= k:
        return 0.0
    num, den = p.numerator, p.denominator
    below = sum(comb(n, i) * num**i * (den - num) ** (n - i) for i in range(k + 1))
    return float(Fraction(den**n - below, den**n))


probabilities = st.one_of(
    st.integers(1, 5000).map(lambda colors: Fraction(1, colors)),
    st.integers(2, 1000).flatmap(
        lambda den: st.integers(1, den - 1).map(lambda num: Fraction(num, den))
    ),
)


@given(
    st.integers(0, 32),
    st.lists(st.integers(0, 2000), min_size=1, max_size=8),
    probabilities,
)
@settings(max_examples=150, deadline=None)
def test_tail_matches_exact_sum(k, ns, p):
    got = _binom_sf(k, np.array(ns, dtype=np.float64), float(p))
    want = [exact_sf(k, n, p) for n in ns]
    assert np.allclose(got, want, rtol=0.0, atol=TOL)


@given(st.integers(0, 32), st.lists(st.integers(0, 2000), min_size=1, max_size=8))
@settings(max_examples=40, deadline=None)
def test_tail_at_certain_probabilities(k, ns):
    n = np.array(ns, dtype=np.float64)
    assert not _binom_sf(k, n, 0.0).any()
    assert np.array_equal(_binom_sf(k, n, 1.0), (n > k).astype(np.float64))


def test_tail_is_exactly_zero_when_n_cannot_exceed_k():
    n = np.array([0.0, 1.0, 7.0, 8.0, 9.0])
    out = _binom_sf(8, n, 0.5)
    assert out[:4].tolist() == [0.0, 0.0, 0.0, 0.0]
    assert abs(out[4] - exact_sf(8, 9, Fraction(1, 2))) < TOL


@given(
    st.sampled_from([1, 2, 4, 8, 9, 12, 16, 24, 32]),
    st.lists(st.integers(0, 1500), min_size=1, max_size=6),
    st.integers(1, 512),
)
@settings(max_examples=60, deadline=None)
def test_size_biased_model_is_the_shifted_tail(ways, pages, colors):
    """``P(B(max(NP - 1, 0), p) >= K)``; the paper's form is ``P(B(NP, p) > K)``."""
    p = Fraction(1, colors)
    n = np.array(pages, dtype=np.float64)
    biased = predicted_miss_rate(n, ways, float(p), size_biased=True)
    paper = predicted_miss_rate(n, ways, float(p), size_biased=False)
    assert not biased.flags.writeable
    assert np.allclose(
        biased, [exact_sf(ways - 1, max(m - 1, 0), p) for m in pages], rtol=0.0, atol=TOL
    )
    assert np.allclose(paper, [exact_sf(ways, m, p) for m in pages], rtol=0.0, atol=TOL)


def brute_force_peaks(x: list[float], height: float, prominence: float) -> list[int]:
    """Peaks by definition: interior plateaus (runs of equal values, a
    single point included) strictly above both neighbours, reported at
    the run's middle index rounded down; prominence from the lowest
    value on each side before a strictly higher one."""
    peaks = []
    start = 0
    while start < len(x):
        end = start
        while end + 1 < len(x) and x[end + 1] == x[start]:
            end += 1
        top = x[start]
        if 0 < start and end < len(x) - 1 and x[start - 1] < top > x[end + 1]:
            higher_left = [j for j in range(start) if x[j] > top]
            higher_right = [j for j in range(end + 1, len(x)) if x[j] > top]
            left = min(x[(higher_left[-1] + 1 if higher_left else 0) : start + 1])
            right = min(x[end : (higher_right[0] if higher_right else len(x))])
            if top >= height and top - max(left, right) >= prominence:
                peaks.append((start + end) // 2)
        start = end + 1
    return peaks


# Quarter steps are exact in binary, so equal heights (plateaus) and
# thresholds met with equality both come up often.
quarters = st.integers(-2, 8).map(lambda q: q / 4)


@given(
    st.lists(quarters, max_size=24),
    st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0]),
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.5]),
)
@settings(max_examples=400, deadline=None)
def test_peaks_match_brute_force_with_plateaus(values, height, prominence):
    got = _prominent_peaks(np.array(values, dtype=np.float64), height, prominence)
    assert got == brute_force_peaks(values, height, prominence)


@given(
    st.lists(st.floats(-1.0, 2.0, allow_nan=False), min_size=1, max_size=24),
    st.floats(-1.0, 1.0),
    st.floats(0.0, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_peaks_match_brute_force_on_continuous_values(values, height, prominence):
    got = _prominent_peaks(np.array(values, dtype=np.float64), height, prominence)
    assert got == brute_force_peaks(values, height, prominence)


def test_peak_finder_edge_cases():
    # Maxima at either end are never peaks.
    assert _prominent_peaks(np.array([3.0, 1.0, 2.0]), 0.0, 0.0) == []
    # A plateau reports its middle, rounded down.
    assert _prominent_peaks(np.array([0.0, 2.0, 2.0, 2.0, 2.0, 0.0]), 0.0, 0.0) == [2]
    # A plateau running into the last element is not a peak.
    assert _prominent_peaks(np.array([0.0, 2.0, 2.0]), 0.0, 0.0) == []
    # Inclusive thresholds: height exactly 1, prominence exactly 1.
    assert _prominent_peaks(np.array([0.0, 1.0, 0.0]), 1.0, 1.0) == [1]
    # The lower peak's walk right stops at the higher peak, so its
    # prominence is 0.5 (above the 0.5 valley), not 1 (above the floor).
    x = np.array([0.0, 1.0, 0.5, 2.0, 0.0])
    assert _prominent_peaks(x, 0.0, 0.75) == [3]
    assert _prominent_peaks(x, 0.0, 0.5) == [1, 3]
