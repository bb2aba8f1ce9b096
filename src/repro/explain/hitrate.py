"""Top-k hit rate between edge-weight rankings (Sec. 3.4 / App. E).

``H_topk = |topk(human) ∩ topk(explainer)| / k`` — the agreement metric
between human edge-importance scores (discrete, heavily tied) and
explainer/centrality weights (continuous).

Ties are the metric's main subtlety: human scores take few distinct
values, so the top-k cut is ambiguous. Following Appendix E, the
top-k selection is randomised over tied edges and the hit rate is
averaged over ``draws`` (paper: 100; 10,000 gave the same results).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

EdgeWeights = Dict[Tuple[int, int], float]

TOPK_GRID: Tuple[int, ...] = (5, 10, 15, 20, 25)


def _aligned_scores(
    weights_a: EdgeWeights, weights_b: EdgeWeights
) -> Tuple[List[Tuple[int, int]], np.ndarray, np.ndarray]:
    """Common edge universe with missing entries scored 0."""
    edges = sorted(set(weights_a) | set(weights_b))
    a = np.array([weights_a.get(edge, 0.0) for edge in edges])
    b = np.array([weights_b.get(edge, 0.0) for edge in edges])
    return edges, a, b


def _topk_with_tiebreak(scores: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Indices of the k largest scores, ties broken uniformly."""
    jitter = rng.random(len(scores)) * 1e-9
    order = np.argsort(-(scores + jitter), kind="stable")
    return order[:k]


def topk_hit_rate(
    weights_a: EdgeWeights,
    weights_b: EdgeWeights,
    k: int,
    draws: int = 100,
    seed: int = 0,
) -> float:
    """Mean hit rate over random tie-breaking draws.

    ``k`` is clipped to the number of edges so that small communities
    still produce a defined score.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    edges, a, b = _aligned_scores(weights_a, weights_b)
    if not edges:
        return 0.0
    k = min(k, len(edges))
    rng = np.random.default_rng(seed)
    hits: List[float] = []
    for _ in range(draws):
        top_a = set(_topk_with_tiebreak(a, k, rng).tolist())
        top_b = set(_topk_with_tiebreak(b, k, rng).tolist())
        hits.append(len(top_a & top_b) / k)
    return float(np.mean(hits))


def mean_hit_rate_over_communities(
    per_community_pairs: Iterable[Tuple[EdgeWeights, EdgeWeights]],
    k: int,
    draws: int = 100,
    seed: int = 0,
) -> float:
    """Average hit rate at one k across communities (a Table-1 cell)."""
    rates = [
        topk_hit_rate(human, explainer, k, draws=draws, seed=seed)
        for human, explainer in per_community_pairs
    ]
    if not rates:
        raise ValueError("no communities provided")
    return float(np.mean(rates))


def normalize_weights(weights: EdgeWeights) -> EdgeWeights:
    """Min-max normalise weights to [0, 1] (hybrid-combination prep).

    Constant weight maps to all-0.5 so the hybrid combination stays
    well-conditioned when a centrality assigns identical scores.
    """
    if not weights:
        return {}
    values = np.array(list(weights.values()))
    low, high = values.min(), values.max()
    if high - low < 1e-12:
        return {edge: 0.5 for edge in weights}
    return {edge: float((value - low) / (high - low)) for edge, value in weights.items()}
