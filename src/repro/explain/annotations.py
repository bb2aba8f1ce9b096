"""Simulated human annotations of node importance (Appendix E).

The paper's quantitative explainer evaluation rests on five expert
annotators assigning node importance scores in {0, 1, 2} ("how
important is this node when the seed prediction is made"), averaged
into node importance and aggregated into edge importance.

Without access to eBay's annotators we simulate the panel:

* a **ground-truth importance model** encodes what the paper says the
  experts attend to — risk propagation paths from the seed: nodes close
  to the seed, fraud transactions, and linking entities adjacent to
  fraud score high;
* each **simulated annotator** perturbs the ground truth with
  independent noise calibrated so the mean pairwise inter-annotator
  agreement (Cohen's kappa) lands near the paper's 0.53 (random
  annotators land near 0, reproducing Appendix E's sanity check).

Node→edge aggregation supports the paper's three strategies
("avg" / "sum" / "min").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..graph.community import Community
from ..graph.hetero import NODE_TYPE_IDS
from ..graph.sampling import bfs

EdgeWeights = Dict[Tuple[int, int], float]

AGGREGATIONS = ("avg", "sum", "min")


def ground_truth_importance(community: Community) -> np.ndarray:
    """Expert-model node importance in {0, 1, 2}.

    Heuristics mirroring the paper's annotation protocol discussion:
    the seed and its direct fraud-propagating links matter most,
    two-hop context matters somewhat, the periphery little.
    """
    graph = community.graph
    n = graph.num_nodes
    reached, hops, _ = bfs(graph, [community.seed_local])
    distance = np.full(n, np.inf)
    distance[reached] = hops

    txn_type = NODE_TYPE_IDS["txn"]
    fraud_fraction = np.zeros(n)
    for node in range(n):
        if graph.node_type[node] == txn_type:
            fraud_fraction[node] = 1.0 if graph.labels[node] == 1 else 0.0
        else:
            neighbors = graph.in_neighbors(node)
            txn_neighbors = neighbors[graph.node_type[neighbors] == txn_type]
            if len(txn_neighbors):
                fraud_fraction[node] = float(
                    np.mean(graph.labels[txn_neighbors] == 1)
                )

    degree = graph.degree()
    # Hubs are relative to the community: the warehouse address linked
    # to many transactions is what the paper's annotators flag (their
    # Figure 6 scores such hub edges highest) — a top-5% degree
    # threshold keeps the "high importance" tier selective, which
    # matches the paper's tie statistics (~1/4 of edges at the top).
    hub_threshold = max(4, int(np.quantile(degree, 0.95))) if n else 4
    importance = np.zeros(n, dtype=np.int64)
    for node in range(n):
        risky = fraud_fraction[node] >= 0.5
        hub = degree[node] >= hub_threshold
        if node == community.seed_local:
            importance[node] = 2
        elif hub:
            # The heavily shared entity (warehouse address, reused
            # token) matters wherever it sits — the global part of the
            # annotators' judgment that centrality measures capture.
            importance[node] = 2
        elif distance[node] <= 1 and risky:
            # The local part: direct risky links of the seed, which the
            # task-aware GNNExplainer captures.
            importance[node] = 2
        elif distance[node] <= 1:
            importance[node] = 1
        elif distance[node] <= 2 and risky:
            importance[node] = 1
        else:
            importance[node] = 0

    # Risk flows *through* a hub: its direct counterparties matter at
    # least moderately (the paper's warehouse case studies score the
    # transactions around the shared address, not just the address).
    for node in range(n):
        if importance[node] == 2 and degree[node] >= hub_threshold:
            for neighbor in graph.in_neighbors(node):
                importance[neighbor] = max(importance[neighbor], 1)
    importance[community.seed_local] = 2
    return importance


@dataclass
class AnnotatorPanel:
    """Five simulated annotators with calibrated disagreement."""

    num_annotators: int = 5
    # 0.30 calibrates the mean pairwise Cohen's kappa to ≈0.53, the
    # inter-annotator agreement Appendix E reports for eBay's experts.
    flip_probability: float = 0.30
    seed: int = 0

    def annotate(self, community: Community) -> np.ndarray:
        """(num_annotators, num_nodes) integer scores in {0, 1, 2}."""
        truth = ground_truth_importance(community)
        rng = np.random.default_rng(self.seed + community.seed_original)
        panel = np.tile(truth, (self.num_annotators, 1))
        for annotator in range(self.num_annotators):
            flips = rng.random(len(truth)) < self.flip_probability
            shifts = rng.choice([-1, 1], size=len(truth))
            panel[annotator, flips] = np.clip(
                panel[annotator, flips] + shifts[flips], 0, 2
            )
        return panel

    def node_importance(self, community: Community) -> np.ndarray:
        """Average over annotators (the paper's node importance score)."""
        return self.annotate(community).mean(axis=0)


def random_panel(num_nodes: int, num_annotators: int = 5, seed: int = 0) -> np.ndarray:
    """Uniform random annotators (Appendix E's IAA sanity check)."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 3, size=(num_annotators, num_nodes))


def cohen_kappa(a: Sequence[int], b: Sequence[int]) -> float:
    """Cohen's kappa between two annotators over categories {0, 1, 2}."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape != b.shape or len(a) == 0:
        raise ValueError("annotations must be equal-length and non-empty")
    categories = np.arange(3)
    observed = float(np.mean(a == b))
    expected = float(
        sum(np.mean(a == c) * np.mean(b == c) for c in categories)
    )
    if expected >= 1.0:
        return 1.0
    return (observed - expected) / (1.0 - expected)


def mean_pairwise_kappa(panel: np.ndarray) -> float:
    """Average IAA over all annotator pairs (Appendix E reports 0.53)."""
    num_annotators = panel.shape[0]
    kappas: List[float] = []
    for i in range(num_annotators):
        for j in range(i + 1, num_annotators):
            kappas.append(cohen_kappa(panel[i], panel[j]))
    return float(np.mean(kappas)) if kappas else 1.0


def edge_importance_from_nodes(
    community: Community, node_scores: np.ndarray, aggregation: str = "avg"
) -> EdgeWeights:
    """Edge importance from incident node scores (App. E strategies)."""
    if aggregation not in AGGREGATIONS:
        raise KeyError(f"aggregation must be one of {AGGREGATIONS}")
    weights: EdgeWeights = {}
    for pair in community.undirected_edges():
        u, v = pair
        if aggregation == "avg":
            weights[pair] = float((node_scores[u] + node_scores[v]) / 2.0)
        elif aggregation == "sum":
            weights[pair] = float(node_scores[u] + node_scores[v])
        else:
            weights[pair] = float(min(node_scores[u], node_scores[v]))
    return weights


def human_edge_importance(
    community: Community,
    panel: AnnotatorPanel,
    aggregation: str = "avg",
) -> EdgeWeights:
    """End-to-end: annotate → average → aggregate to edges."""
    node_scores = panel.node_importance(community)
    return edge_importance_from_nodes(community, node_scores, aggregation)
