"""GEM baseline (Liu et al., CIKM 2018) — heterogeneous GCN.

GEM applies a vanilla GCN-style convolution to a heterogeneous graph:
per node-type mean aggregation of neighbours with a per-type weight
matrix, summed with a self transform —

    H^{l+1} = σ( H^l W_self + Σ_t mean_{u ∈ N_t(v)} H^l[u] W_t )

It has no attention, which makes its convolution the cheapest of the
three models (the paper's Table 3 shows GEM with the fastest inference
but lower AUC than detector+).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .. import nn
from ..graph.hetero import NODE_TYPES, HeteroGraph
from ..nn import Tensor
from ..nn import functional as F
from .detector import DetectorConfig
from .field import loss_field
from .inference import padded_features, tensor_predict_proba


class GEMLayer(nn.Module):
    """Mean aggregation per neighbour type + self transform."""

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.out_dim = out_dim
        self.self_linear = nn.Linear(in_dim, out_dim, rng=rng)
        self.type_linear = nn.ModuleDict(
            {t: nn.Linear(in_dim, out_dim, bias=False, rng=rng) for t in NODE_TYPES}
        )

    def forward(self, graph: HeteroGraph, h: Tensor) -> Tensor:
        num_nodes = graph.num_nodes
        out = self.self_linear(h)
        src_types = graph.node_type[graph.edge_src]
        for type_id, type_name in enumerate(NODE_TYPES):
            # No edge of this type is a zero-row block, not a skip: every
            # type's weights get a gradient whatever the graph holds.
            edges = np.flatnonzero(src_types == type_id)
            neighbor_values = nn.gather(h, graph.edge_src[edges])
            mean_by_target = nn.segment_mean(neighbor_values, graph.edge_dst[edges], num_nodes)
            out = out + self.type_linear[type_name](mean_by_target)
        # Vanilla GCN-style output (GEM applies a plain GCN): a single
        # nonlinearity, no residual or normalisation.
        return out.relu()


class GEMModel(nn.Module):
    """GEM stack + the shared transaction-classification head."""

    def __init__(self, config: DetectorConfig) -> None:
        super().__init__()
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.layers = nn.ModuleList()
        for layer in range(config.num_layers):
            in_dim = config.feature_dim if layer == 0 else config.hidden_dim
            self.layers.append(GEMLayer(in_dim, config.hidden_dim, rng=rng))
        head_in = config.hidden_dim + config.feature_dim
        self.head = nn.Sequential(
            nn.Linear(head_in, config.ffn_hidden_dim, rng=rng),
            nn.Dropout(config.dropout, rng=rng),
            nn.LayerNorm(config.ffn_hidden_dim),
            nn.ReLU(),
            nn.Linear(config.ffn_hidden_dim, config.num_classes, rng=rng),
        )

    def node_representations(self, graph: HeteroGraph) -> Tensor:
        """Per-node embeddings after the GEM stack, ``(N, hidden)``."""
        h = Tensor(padded_features(graph))
        for layer in self.layers:
            h = layer(graph, h)
        return h

    def forward(self, graph: HeteroGraph, targets: Sequence[int]) -> Tensor:
        targets = np.asarray(targets, dtype=np.int64)
        h = self.node_representations(graph)
        gnn_out = nn.gather(h, targets).tanh()
        original = Tensor(graph.txn_table[graph.txn_rows(targets)])
        return self.head(nn.concat([gnn_out, original], axis=1))

    def predict_proba(self, graph: HeteroGraph, targets: Sequence[int]) -> np.ndarray:
        """Fraud probability per target transaction (eval mode)."""
        return tensor_predict_proba(self, graph, targets)

    def loss(self, graph: HeteroGraph, targets: Sequence[int]) -> Tensor:
        """Softmax cross entropy over labeled target transactions,
        computed on their receptive field (:mod:`.field`)."""
        field, labels = loss_field(graph, targets, hops=len(self.layers))
        return F.cross_entropy(self.forward(field.graph, field.target_local), labels)
