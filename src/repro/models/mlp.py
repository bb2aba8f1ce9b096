"""Feature-only MLP baseline.

The pre-GNN production reality at eBay: a model over the risk
identifier's transaction features with no graph. It quantifies how much
signal the graph adds — every GNN in the repo should beat it whenever
fraud is relationally (not just feature-) visible, e.g. stolen-card
bursts whose features mimic legitimate buying.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .. import nn
from ..graph.hetero import HeteroGraph
from ..nn import Tensor
from ..nn import functional as F
from .detector import NUM_CLASSES, DetectorConfig
from .field import loss_field
from .inference import tensor_predict_proba


class FeatureMLP(nn.Module):
    """Two-hidden-layer MLP over raw transaction features.

    Mirrors the detector's FFN head (same widths, dropout, layer norm)
    so the comparison isolates the graph contribution.
    """

    def __init__(self, config: DetectorConfig) -> None:
        super().__init__()
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.net = nn.Sequential(
            nn.Linear(config.feature_dim, config.ffn_hidden_dim, rng=rng),
            nn.Dropout(config.dropout, rng=rng),
            nn.LayerNorm(config.ffn_hidden_dim),
            nn.ReLU(),
            nn.Linear(config.ffn_hidden_dim, config.ffn_hidden_dim, rng=rng),
            nn.Dropout(config.dropout, rng=rng),
            nn.LayerNorm(config.ffn_hidden_dim),
            nn.ReLU(),
            nn.Linear(config.ffn_hidden_dim, NUM_CLASSES, rng=rng),
        )

    def forward(self, graph: HeteroGraph, targets: Sequence[int]) -> Tensor:
        targets = np.asarray(targets, dtype=np.int64)
        return self.net(Tensor(graph.txn_table[graph.txn_rows(targets)]))

    def predict_proba(self, graph: HeteroGraph, targets: Sequence[int]) -> np.ndarray:
        """Fraud probability per target from features alone."""
        return tensor_predict_proba(self, graph, targets)

    def loss(self, graph: HeteroGraph, targets: Sequence[int]) -> Tensor:
        """Softmax cross entropy over labeled target transactions; the
        receptive field of a model with no graph layer is the targets."""
        field, labels = loss_field(graph, targets, hops=0)
        return F.cross_entropy(self.forward(field.graph, field.target_local), labels)
