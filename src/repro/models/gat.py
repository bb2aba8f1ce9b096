"""GAT baseline (Veličković et al.) — type-blind graph attention.

The paper's strongest homogeneous baseline: multi-head additive
attention over neighbours, ignoring node and edge types entirely. The
classification head matches the detector's so the comparison isolates
the convolution.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .. import nn
from ..graph.hetero import HeteroGraph
from ..nn import Tensor
from ..nn import functional as F
from .detector import DetectorConfig
from .field import EdgeRows, loss_field
from .inference import padded_features, tensor_predict_proba


class GATLayer(nn.Module):
    """One multi-head GAT layer with additive attention."""

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        num_heads: int,
        dropout: float,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if out_dim % num_heads != 0:
            raise ValueError("out_dim must be divisible by num_heads")
        rng = rng or np.random.default_rng()
        self.num_heads = num_heads
        self.head_dim = out_dim // num_heads
        self.out_dim = out_dim
        self.dropout_rate = F.check_dropout_rate(dropout)
        self._rng = rng
        self.proj = nn.Linear(in_dim, out_dim, rng=rng)
        bound = 1.0 / np.sqrt(self.head_dim)
        self.att_src = nn.Parameter(rng.uniform(-bound, bound, size=(num_heads, self.head_dim)))
        self.att_dst = nn.Parameter(rng.uniform(-bound, bound, size=(num_heads, self.head_dim)))

    def forward(
        self, graph: HeteroGraph, h: Tensor, edge_rows: Optional[EdgeRows] = None
    ) -> Tensor:
        """``edge_rows``: as :meth:`HeteroConvLayer.forward
        <repro.models.hetero_conv.HeteroConvLayer.forward>`."""
        num_nodes = graph.num_nodes
        src, dst = graph.edge_src, graph.edge_dst
        projected = self.proj(h).reshape(num_nodes, self.num_heads, self.head_dim)

        src_score = (projected * self.att_src).sum(axis=2)
        dst_score = (projected * self.att_dst).sum(axis=2)
        logits = nn.gather(src_score, src) + nn.gather(dst_score, dst)
        logits = F.leaky_relu(logits, negative_slope=0.2)
        attention = nn.segment_softmax(logits, dst, num_nodes)
        attention = F.dropout(
            attention, self.dropout_rate, training=self.training, rng=self._rng, rows=edge_rows
        )

        messages = nn.gather(projected, src) * attention.reshape(graph.num_edges, self.num_heads, 1)
        aggregated = nn.segment_sum(messages, dst, num_nodes).reshape(num_nodes, self.out_dim)
        # Vanilla GAT output: ELU on the aggregation, no residual path
        # or normalisation (Velickovic et al.).
        return F.elu(aggregated)


class GATModel(nn.Module):
    """GAT stack + the shared transaction-classification head."""

    def __init__(self, config: DetectorConfig) -> None:
        super().__init__()
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.layers = nn.ModuleList()
        for layer in range(config.num_layers):
            in_dim = config.feature_dim if layer == 0 else config.hidden_dim
            self.layers.append(
                GATLayer(in_dim, config.hidden_dim, config.num_heads, config.dropout, rng=rng)
            )
        head_in = config.hidden_dim + config.feature_dim
        self.head = nn.Sequential(
            nn.Linear(head_in, config.ffn_hidden_dim, rng=rng),
            nn.Dropout(config.dropout, rng=rng),
            nn.LayerNorm(config.ffn_hidden_dim),
            nn.ReLU(),
            nn.Linear(config.ffn_hidden_dim, config.ffn_hidden_dim, rng=rng),
            nn.Dropout(config.dropout, rng=rng),
            nn.LayerNorm(config.ffn_hidden_dim),
            nn.ReLU(),
            nn.Linear(config.ffn_hidden_dim, config.num_classes, rng=rng),
        )

    def node_representations(
        self, graph: HeteroGraph, edge_rows: Optional[EdgeRows] = None
    ) -> Tensor:
        """Per-node embeddings after the GAT stack, ``(N, hidden)``."""
        h = Tensor(padded_features(graph))
        for layer in self.layers:
            h = layer(graph, h, edge_rows=edge_rows)
        return h

    def forward(
        self,
        graph: HeteroGraph,
        targets: Sequence[int],
        edge_rows: Optional[EdgeRows] = None,
    ) -> Tensor:
        targets = np.asarray(targets, dtype=np.int64)
        h = self.node_representations(graph, edge_rows=edge_rows)
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
        logits = self.forward(
            field.graph, field.target_local, edge_rows=(graph.num_edges, field.edge_ids)
        )
        return F.cross_entropy(logits, labels)
