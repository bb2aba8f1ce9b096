"""repro.explain — the xFraud explainer stack.

Modified GNNExplainer, centrality edge weights, simulated human
annotations with IAA, the top-k hit-rate metric, the learnable hybrid
explainer, and community visualisation / case-study analysis.
"""

from .annotations import (
    AGGREGATIONS,
    AnnotatorPanel,
    cohen_kappa,
    edge_importance_from_nodes,
    ground_truth_importance,
    human_edge_importance,
    mean_pairwise_kappa,
    random_panel,
)
from .centrality import (
    CENTRALITY_MEASURES,
    all_centrality_edge_weights,
    centrality_edge_weights,
    random_edge_weights,
)
from .feature_importance import FeatureReport, feature_report, render_feature_report
from .gnn_explainer import Explanation, ExplainerConfig, GNNExplainer
from .hitrate import (
    TOPK_GRID,
    hit_rate_profile,
    mean_hit_rate_over_communities,
    normalize_weights,
    topk_hit_rate,
)
from .hybrid import (
    CommunityWeights,
    HybridExplainer,
    fit_grid,
    fit_polynomial_degree,
    fit_ridge,
    ridge_regression,
)
from .visualize import (
    CaseStudy,
    classify_communities,
    confusion_by_complexity,
    render_dot,
    render_text,
)

__all__ = [
    "GNNExplainer",
    "ExplainerConfig",
    "Explanation",
    "FeatureReport",
    "feature_report",
    "render_feature_report",
    "CENTRALITY_MEASURES",
    "centrality_edge_weights",
    "all_centrality_edge_weights",
    "random_edge_weights",
    "AnnotatorPanel",
    "AGGREGATIONS",
    "ground_truth_importance",
    "human_edge_importance",
    "edge_importance_from_nodes",
    "cohen_kappa",
    "mean_pairwise_kappa",
    "random_panel",
    "topk_hit_rate",
    "hit_rate_profile",
    "mean_hit_rate_over_communities",
    "normalize_weights",
    "TOPK_GRID",
    "CommunityWeights",
    "HybridExplainer",
    "fit_grid",
    "fit_ridge",
    "fit_polynomial_degree",
    "ridge_regression",
    "CaseStudy",
    "classify_communities",
    "confusion_by_complexity",
    "render_text",
    "render_dot",
]
