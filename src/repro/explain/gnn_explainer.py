"""Modified GNNExplainer (Sec. 3.4 / Appendix D).

The xFraud explainer extends the vanilla GNNExplainer (Ying et al.) in
two ways the paper describes:

1. it learns a **node feature mask for every node** of the subgraph
   (``|V| × F``), not just the node-to-explain, enabling node-level
   feature explanations;
2. the loss combines the detector loss (eq. 11) with edge-mask size and
   entropy (eq. 12) and node-feature-mask size and entropy (eq. 13).

The trained detector is frozen in evaluation mode with its parameters
off the tape; only the mask parameters are optimised. Masks are
sigmoid-squashed random initialisations, trained with Adam (paper:
epochs=100, lr=0.01).

Footnote 4: the explainer assigns two weights to the directed edges of
a node pair; human annotations are undirected, so the undirected weight
of a pair is the **larger** of the two.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .. import nn
from ..graph.hetero import HeteroGraph
from ..nn import Tensor
from ..nn import functional as F

#: Appendix D's loss weights: edge-mask size and entropy (eq. 12),
#: node-feature-mask size and entropy (eq. 13).
BETA_EDGE_SIZE = 0.005
BETA_EDGE_ENTROPY = 1.0
BETA_NODE_FEATURE_SIZE = 0.1
BETA_NODE_FEATURE_ENTROPY = 0.1


@dataclass
class ExplainerConfig:
    """Hyperparameters of Appendix D."""

    epochs: int = 100
    learning_rate: float = 0.01
    seed: int = 0


@dataclass
class Explanation:
    """Output of one explainer run on a node-to-explain."""

    node_index: int
    edge_mask: np.ndarray
    node_feature_mask: np.ndarray
    predicted_label: int
    loss_history: List[float] = field(default_factory=list)

    def undirected_edge_weights(self, graph: HeteroGraph) -> Dict[Tuple[int, int], float]:
        """Per-pair weights, taking max over directions (footnote 4)."""
        weights: Dict[Tuple[int, int], float] = {}
        for edge_id, (src, dst) in enumerate(zip(graph.edge_src, graph.edge_dst)):
            pair = (min(int(src), int(dst)), max(int(src), int(dst)))
            weight = float(self.edge_mask[edge_id])
            if pair not in weights or weight > weights[pair]:
                weights[pair] = weight
        return weights

    def top_features(self, node: int, k: int = 5) -> np.ndarray:
        """Indices of the k highest-weighted feature dims of ``node``."""
        return np.argsort(-self.node_feature_mask[node])[:k]


@contextmanager
def _frozen(detector) -> Iterator[None]:
    """``detector`` in eval mode with no parameter requiring a gradient,
    as it was found afterwards: the masks are all an explanation trains,
    so its backward skips the weight halves of the detector's pullbacks
    and leaves every ``.grad`` of a detector that a fine-tuner may share
    untouched."""
    params, was_training = detector.parameters(), detector.training
    flags = [param.requires_grad for param in params]
    detector.eval()
    for param in params:
        param.requires_grad = False
    try:
        yield
    finally:
        for param, flag in zip(params, flags):
            param.requires_grad = flag
        detector.train(was_training)


class GNNExplainer:
    """Mask-learning explainer around a trained detector."""

    def __init__(self, detector, config: Optional[ExplainerConfig] = None) -> None:
        self.detector = detector
        self.config = config or ExplainerConfig()

    def explain(self, graph: HeteroGraph, node_index: int) -> Explanation:
        """Learn edge and node-feature masks for one transaction node.

        ``graph`` should be the community / computation subgraph of the
        node (the explainer trains a mask entry per edge of it).
        """
        config = self.config
        rng = np.random.default_rng(config.seed)
        detector = self.detector
        with _frozen(detector):
            # Target class: the detector's own prediction (mutual
            # information with the model).
            with nn.no_grad():
                base_logits = detector(graph, [node_index])
            target = int(np.argmax(base_logits.data[0]))

            edge_logits = nn.Parameter(rng.normal(0.0, 0.1, size=graph.num_edges))
            feature_logits = nn.Parameter(
                rng.normal(0.0, 0.1, size=(graph.num_nodes, graph.feature_dim))
            )
            optimizer = nn.Adam([edge_logits, feature_logits], lr=config.learning_rate)

            history: List[float] = []
            for _ in range(config.epochs):
                optimizer.zero_grad()
                loss = self._loss(graph, node_index, target, edge_logits, feature_logits)
                loss.backward()
                optimizer.step()
                history.append(loss.item())

            edge_mask = 1.0 / (1.0 + np.exp(-edge_logits.data))
            feature_mask = 1.0 / (1.0 + np.exp(-feature_logits.data))

        return Explanation(
            node_index=int(node_index),
            edge_mask=edge_mask,
            node_feature_mask=feature_mask,
            predicted_label=target,
            loss_history=history,
        )

    # ------------------------------------------------------------------
    def _loss(
        self,
        graph: HeteroGraph,
        node_index: int,
        target: int,
        edge_logits: Tensor,
        feature_logits: Tensor,
    ) -> Tensor:
        edge_mask = edge_logits.sigmoid()
        feature_mask = feature_logits.sigmoid()

        logits = self.detector(
            graph, [node_index], edge_mask=edge_mask, feature_mask=feature_mask
        )
        # eq. 11 for the single node-to-explain.
        detector_loss = F.cross_entropy(logits, np.array([target]))

        # eq. 12: edge-mask size + entropy.
        num_edges = max(graph.num_edges, 1)
        edge_size = edge_mask.sum() * BETA_EDGE_SIZE
        edge_entropy = F.bernoulli_entropy(edge_mask).sum() * (BETA_EDGE_ENTROPY / num_edges)

        # eq. 13: node-feature-mask size + entropy (normalised by |V|).
        num_entries = max(feature_mask.size, 1)
        feature_size = feature_mask.sum() * (BETA_NODE_FEATURE_SIZE / num_entries)
        feature_entropy = F.bernoulli_entropy(feature_mask).sum() * (
            BETA_NODE_FEATURE_ENTROPY / num_entries
        )

        return detector_loss + edge_size + edge_entropy + feature_size + feature_entropy
