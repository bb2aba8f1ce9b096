"""Top-k hit rate metric (Sec. 3.4 / Appendix E)."""

import numpy as np
import pytest

from repro.explain import (
    mean_hit_rate_over_communities,
    normalize_weights,
    topk_hit_rate,
)


def weights_from(scores):
    return {(i, i + 1): float(s) for i, s in enumerate(scores)}


class TestHitRate:
    def test_identical_rankings_hit_one(self):
        weights = weights_from(np.arange(20))
        assert topk_hit_rate(weights, weights, 5) == pytest.approx(1.0)

    def test_disjoint_rankings_hit_zero(self):
        a = weights_from([10, 9, 8, 7, 0, 0, 0, 0])
        b = weights_from([0, 0, 0, 0, 7, 8, 9, 10])
        assert topk_hit_rate(a, b, 4) == pytest.approx(0.0)

    def test_random_weights_expected_rate(self):
        """With k of n edges random-vs-random hits ≈ k/n on average."""
        rng = np.random.default_rng(0)
        rates = []
        for trial in range(30):
            a = weights_from(rng.random(50))
            b = weights_from(rng.random(50))
            rates.append(topk_hit_rate(a, b, 10, draws=1, seed=trial))
        assert abs(np.mean(rates) - 10 / 50) < 0.08

    def test_k_clipped_to_edge_count(self):
        weights = weights_from([3, 2, 1])
        assert topk_hit_rate(weights, weights, 100) == pytest.approx(1.0)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            topk_hit_rate({}, {}, 0)

    def test_empty_weights(self):
        assert topk_hit_rate({}, {}, 5) == 0.0

    def test_ties_averaged_over_draws(self):
        """All-tied scores against a strict ranking: expected hit rate
        is k/n for every k."""
        tied = weights_from(np.ones(10))
        strict = weights_from(np.arange(10))
        rate = topk_hit_rate(tied, strict, 5, draws=400, seed=0)
        assert rate == pytest.approx(0.5, abs=0.07)

    def test_missing_edges_default_zero(self):
        a = {(0, 1): 1.0, (1, 2): 0.9}
        b = {(0, 1): 1.0}
        rate = topk_hit_rate(a, b, 1, draws=200)
        assert rate > 0.9


class TestMeanOverCommunities:
    def test_mean(self):
        same = weights_from(np.arange(10))
        other = weights_from(np.arange(10)[::-1])
        pairs = [(same, same), (same, other)]
        rate = mean_hit_rate_over_communities(pairs, 3, draws=50, seed=0)
        assert 0.3 < rate < 0.9

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean_hit_rate_over_communities([], 5)


class TestNormalize:
    def test_unit_interval(self):
        weights = weights_from([5.0, 10.0, 0.0])
        normalized = normalize_weights(weights)
        values = sorted(normalized.values())
        assert values[0] == 0.0 and values[-1] == 1.0

    def test_constant_maps_to_half(self):
        normalized = normalize_weights(weights_from([3.0, 3.0, 3.0]))
        assert all(v == 0.5 for v in normalized.values())

    def test_preserves_order(self):
        weights = weights_from([1.0, 5.0, 3.0])
        normalized = normalize_weights(weights)
        assert normalized[(1, 2)] > normalized[(2, 3)] > normalized[(0, 1)]

    def test_empty(self):
        assert normalize_weights({}) == {}
