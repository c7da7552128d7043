"""Unit tests for the probabilistic cache-size algorithm (Fig. 3)."""

import numpy as np
import pytest

from repro.core import probabilistic
from repro.core.probabilistic import (
    default_candidates,
    predicted_miss_rate,
    probabilistic_cache_size,
)
from repro.errors import DetectionError
from repro.units import KiB, MiB


def synth_curve(cache_size, ways, page_size=4 * KiB, hit=20.0, overhead=300.0,
                sizes=None, size_biased=True):
    """Cycles curve generated from the model itself (perfect data)."""
    if sizes is None:
        lo = cache_size // 4
        sizes = np.array([lo * (1 + k) for k in range(12)], dtype=np.float64)
    colors = cache_size // (ways * page_size)
    n_pages = np.maximum(np.round(np.asarray(sizes, dtype=np.float64) / page_size), 1)
    mr = predicted_miss_rate(n_pages, ways, 1.0 / colors, size_biased)
    return np.asarray(sizes, dtype=np.float64), hit + overhead * mr


class TestPredictedMissRate:
    def test_zero_below_everything(self):
        assert predicted_miss_rate(np.array([1.0]), 8, 1 / 64)[0] < 1e-6

    def test_approaches_one_for_huge_arrays(self):
        assert predicted_miss_rate(np.array([1e6]), 8, 1 / 64)[0] > 0.999

    def test_size_biased_exceeds_paper_formula(self):
        np_pages = np.array([256.0])
        biased = predicted_miss_rate(np_pages, 8, 1 / 64, size_biased=True)[0]
        paper = predicted_miss_rate(np_pages, 8, 1 / 64, size_biased=False)[0]
        assert biased > paper

    def test_size_biased_matches_empirical_conflicts(self):
        rng = np.random.default_rng(0)
        NP, colors, K = 256, 64, 8
        fractions = []
        for _ in range(500):
            counts = np.bincount(
                rng.integers(0, colors, size=NP), minlength=colors
            )
            over = counts > K
            fractions.append(counts[over].sum() / NP)
        expected = predicted_miss_rate(np.array([NP]), K, 1 / colors)[0]
        assert np.mean(fractions) == pytest.approx(expected, rel=0.1)

    def test_monotone_in_pages(self):
        pages = np.array([100.0, 200.0, 400.0, 800.0])
        mr = predicted_miss_rate(pages, 8, 1 / 64)
        assert np.all(np.diff(mr) > 0)


class TestDefaultCandidates:
    def test_includes_paper_cache_sizes(self):
        cands = set(default_candidates(16 * MiB))
        for cs in (512 * KiB, 2 * MiB, 3 * MiB, 9 * MiB, 12 * MiB, 256 * KiB):
            assert cs in cands

    def test_extends_beyond_max(self):
        cands = default_candidates(8 * MiB)
        assert max(cands) >= 16 * MiB


class TestProbabilisticCacheSize:
    @pytest.mark.parametrize(
        "cache_size,ways",
        [
            (2 * MiB, 8),
            (3 * MiB, 12),
            (512 * KiB, 16),
            (9 * MiB, 9),
            (12 * MiB, 24),
        ],
    )
    def test_recovers_size_from_perfect_data(self, cache_size, ways):
        sizes, cycles = synth_curve(cache_size, ways)
        est = probabilistic_cache_size(sizes, cycles, 4 * KiB)
        assert est.size == cache_size

    def test_tolerates_multiplicative_noise(self):
        rng = np.random.default_rng(7)
        sizes, cycles = synth_curve(2 * MiB, 8)
        noisy = cycles * rng.normal(1.0, 0.01, size=len(cycles))
        est = probabilistic_cache_size(sizes, noisy, 4 * KiB)
        assert est.size == 2 * MiB

    def test_paper_normalization_variant_works_on_full_window(self):
        # With both plateaus present and data generated by the paper's
        # own formula, the original normalization recovers the size too.
        sizes, cycles = synth_curve(
            2 * MiB, 8, size_biased=False,
            sizes=np.linspace(256 * KiB, 8 * MiB, 16),
        )
        est = probabilistic_cache_size(
            sizes, cycles, 4 * KiB, size_biased=False, affine_fit=False
        )
        assert est.size == 2 * MiB

    def test_best_entries_are_sorted_by_divergence(self):
        sizes, cycles = synth_curve(2 * MiB, 8)
        est = probabilistic_cache_size(sizes, cycles, 4 * KiB)
        divs = [d for _, _, d in est.best_entries]
        assert divs == sorted(divs)
        assert len(est.best_entries) == 5

    def test_rejects_flat_curve(self):
        sizes = np.array([1e6, 2e6, 3e6])
        cycles = np.array([10.0, 10.0, 10.0])
        with pytest.raises(DetectionError):
            probabilistic_cache_size(sizes, cycles, 4 * KiB)

    def test_rejects_too_few_points(self):
        with pytest.raises(DetectionError):
            probabilistic_cache_size(
                np.array([1e6, 2e6]), np.array([1.0, 2.0]), 4 * KiB
            )

    def test_rejects_bad_page_size(self):
        sizes, cycles = synth_curve(2 * MiB, 8)
        with pytest.raises(DetectionError):
            probabilistic_cache_size(sizes, cycles, 0)

    def test_explicit_candidates_restrict_search(self, monkeypatch):
        monkeypatch.setattr(
            probabilistic, "default_candidates", lambda _: [1 * MiB, 2 * MiB, 4 * MiB]
        )
        sizes, cycles = synth_curve(2 * MiB, 8)
        est = probabilistic_cache_size(sizes, cycles, 4 * KiB)
        assert est.size == 2 * MiB
