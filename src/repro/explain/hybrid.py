"""The hybrid explainer: ``A·w(c) + B·w(e)`` (Sec. 3.4.2 / Appendix F).

The paper observes a trade-off: GNNExplainer weights (task-aware,
local) and edge-centrality weights (task-agnostic, global) each win on
different communities. The hybrid explainer learns two coefficients —
centrality coefficient ``A`` and explainer coefficient ``B`` — on
training communities, by any of the paper's three optimisers:

1. **grid search** over ``A ∈ {0.00, 0.01, …, 1.00}``, ``B = 1 − A``,
   maximising the mean top-k hit rate on the training communities;
2. **ridge regression** of the human edge-importance score on the
   feature pair ``(w(c), w(e))``, sweeping the regularisation ``α``;
3. **polynomial fit** searching the feature degree (the paper finds
   degree 1, i.e. the linear combination, is best).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .hitrate import EdgeWeights, mean_hit_rate_over_communities, normalize_weights


@dataclass
class CommunityWeights:
    """All weight sources for one community, on a shared edge set."""

    human: EdgeWeights
    centrality: EdgeWeights
    explainer: EdgeWeights

    def combined(self, coeff_centrality: float, coeff_explainer: float) -> EdgeWeights:
        """The hybrid weights ``A*w(c) + B*w(e)``."""
        centrality = normalize_weights(self.centrality)
        explainer = normalize_weights(self.explainer)
        edges = set(centrality) | set(explainer)
        return {
            edge: coeff_centrality * centrality.get(edge, 0.0)
            + coeff_explainer * explainer.get(edge, 0.0)
            for edge in edges
        }


@dataclass
class HybridExplainer:
    """Learned coefficients plus how they were obtained."""

    coeff_centrality: float
    coeff_explainer: float
    method: str

    def weights(self, community: CommunityWeights) -> EdgeWeights:
        """Hybrid edge weights for one community."""
        return community.combined(self.coeff_centrality, self.coeff_explainer)

    def hit_rate(
        self, communities: Sequence[CommunityWeights], k: int, draws: int = 100, seed: int = 0
    ) -> float:
        """Mean top-k hit rate of the hybrid over communities."""
        pairs = [(c.human, self.weights(c)) for c in communities]
        return mean_hit_rate_over_communities(pairs, k, draws=draws, seed=seed)


def fit_grid(
    communities: Sequence[CommunityWeights],
    k: int = 5,
    grid_steps: int = 101,
    draws: int = 50,
    seed: int = 0,
) -> HybridExplainer:
    """Grid search A in [0, 1], B = 1 - A, maximising mean hit rate."""
    if not communities:
        raise ValueError("need at least one training community")
    best_a, best_rate = 0.0, -1.0
    for a in np.linspace(0.0, 1.0, grid_steps):
        explainer = HybridExplainer(float(a), float(1.0 - a), "grid")
        rate = explainer.hit_rate(communities, k, draws=draws, seed=seed)
        if rate > best_rate:
            best_rate, best_a = rate, float(a)
    return HybridExplainer(best_a, 1.0 - best_a, "grid")


def _design_matrix(
    communities: Sequence[CommunityWeights],
) -> Tuple[np.ndarray, np.ndarray]:
    """Stack (w(c), w(e)) features and human targets over all edges."""
    rows: List[Tuple[float, float]] = []
    targets: List[float] = []
    for community in communities:
        centrality = normalize_weights(community.centrality)
        explainer = normalize_weights(community.explainer)
        for edge, human_score in community.human.items():
            rows.append((centrality.get(edge, 0.0), explainer.get(edge, 0.0)))
            targets.append(human_score)
    return np.array(rows), np.array(targets)


def ridge_regression(features: np.ndarray, targets: np.ndarray, alpha: float) -> np.ndarray:
    """Closed-form ridge: ``(X'X + αI)^-1 X'y`` (no intercept penalty).

    An intercept column is appended and left unregularised; only the
    two slope coefficients are returned to the caller's A and B.
    """
    n = len(features)
    design = np.hstack([features, np.ones((n, 1))])
    penalty = alpha * np.eye(design.shape[1])
    penalty[-1, -1] = 0.0
    solution = np.linalg.solve(design.T @ design + penalty, design.T @ targets)
    return solution


def fit_ridge(
    communities: Sequence[CommunityWeights],
    alphas: Optional[Sequence[float]] = None,
    k: int = 5,
    draws: int = 50,
    seed: int = 0,
) -> HybridExplainer:
    """Ridge fit of human scores, α tuned by training hit rate.

    Mirrors Appendix F (3): sweep α over {0.01, …, 0.99}, keep the
    coefficients whose hybrid weights score the best mean hit rate on
    the training communities.
    """
    if not communities:
        raise ValueError("need at least one training community")
    if alphas is None:
        alphas = np.arange(0.01, 1.0, 0.07)
    features, targets = _design_matrix(communities)
    best: Optional[HybridExplainer] = None
    best_rate = -1.0
    for alpha in alphas:
        coefficients = ridge_regression(features, targets, float(alpha))
        candidate = HybridExplainer(float(coefficients[0]), float(coefficients[1]), "ridge")
        rate = candidate.hit_rate(communities, k, draws=draws, seed=seed)
        if rate > best_rate:
            best_rate, best = rate, candidate
    return best


def fit_polynomial_degree(
    communities: Sequence[CommunityWeights],
    degrees: Sequence[int] = range(1, 10),
    alpha: float = 0.5,
) -> Tuple[int, float]:
    """Appendix F (1): search the best polynomial feature degree.

    Fits ridge models on polynomial expansions of (w(c), w(e)) and
    scores them by mean squared error against human scores under
    leave-last-community-out validation. The paper reports degree 1
    wins; this reproduces that check.
    """
    if len(communities) < 2:
        raise ValueError("need at least two communities for validation")
    train, held_out = list(communities[:-1]), [communities[-1]]
    x_train, y_train = _design_matrix(train)
    x_test, y_test = _design_matrix(held_out)

    def expand(x: np.ndarray, degree: int) -> np.ndarray:
        columns = [x**d for d in range(1, degree + 1)]
        return np.hstack(columns)

    errors: Dict[int, float] = {}
    for degree in degrees:
        coefficients = ridge_regression(expand(x_train, degree), y_train, alpha)
        design = np.hstack([expand(x_test, degree), np.ones((len(x_test), 1))])
        predictions = design @ coefficients
        errors[degree] = float(np.mean((predictions - y_test) ** 2))
    # Parsimony rule: the smallest degree within 5% of the best error —
    # higher degrees that only win by validation noise do not justify
    # the complexity (the paper likewise settles on degree 1).
    best_error = min(errors.values())
    best_degree = min(d for d, e in errors.items() if e <= best_error * 1.05 + 1e-12)
    return best_degree, errors[best_degree]
