"""The xFraud detector (Sec. 3.2).

Architecture (Figure 4, left):

1. input — transaction features for ``txn`` nodes (other node types
   start empty), node-type and edge-type embeddings;
2. ``L`` heterogeneous convolution layers with self-attention
   (:class:`~repro.models.hetero_conv.HeteroConvLayer`);
3. ``tanh`` on the GNN output for target transactions, concatenated
   with the **original transaction features**, then a feed-forward
   network with two hidden layers, dropout, layer norm and ReLU;
4. two-logit output; the detector loss is softmax cross entropy
   (eq. 11) and the risk score is the softmax fraud probability.

``XFraudDetector`` (HGSampling) and ``XFraudDetectorPlus`` (GraphSAGE
sampling) share this network — the paper's ablation (Sec. 3.2.3 /
Figure 10) varies only the sampler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..graph.hetero import HeteroGraph
from ..graph.sampling import HGSampler, SageSampler
from ..nn import Tensor
from ..nn import functional as F
from .field import EdgeRows, loss_field
from .hetero_conv import HeteroConvLayer, InferenceLayout


@dataclass
class DetectorConfig:
    """Hyperparameters (paper defaults scaled to simulation size).

    The paper trains with ``n_hid=400, n_heads=8, n_layers=6``; the
    simulated datasets are ~1000× smaller, so defaults here are scaled
    down while remaining configurable back up.
    """

    feature_dim: int = 114
    hidden_dim: int = 64
    num_heads: int = 4
    num_layers: int = 2
    ffn_hidden_dim: int = 64
    dropout: float = 0.2
    num_classes: int = 2
    # Ablation switches (Sec. 3.2.1): xFraud shares weights across
    # node types. ``target_specific_aggregation`` restores HGT-style
    # per-target-type aggregation; ``per_type_projections`` restores
    # type-indexed Q/K/V linears (eq. 2 read literally).
    target_specific_aggregation: bool = False
    per_type_projections: bool = False
    seed: int = 0


class XFraudDetector(nn.Module):
    """Heterogeneous-GNN fraud detector."""

    def __init__(self, config: DetectorConfig) -> None:
        super().__init__()
        self.config = config
        rng = np.random.default_rng(config.seed)
        self._rng = rng

        self.convs = nn.ModuleList()
        for layer in range(config.num_layers):
            in_dim = config.feature_dim if layer == 0 else config.hidden_dim
            self.convs.append(
                HeteroConvLayer(
                    in_dim=in_dim,
                    out_dim=config.hidden_dim,
                    num_heads=config.num_heads,
                    dropout=config.dropout,
                    first_layer=(layer == 0),
                    target_specific=config.target_specific_aggregation,
                    per_type_projections=config.per_type_projections,
                    rng=rng,
                )
            )

        # FFN head: [tanh(GNN out) || original features] -> 2 hidden
        # layers -> logits, with dropout / layer norm / ReLU (Sec 3.2(3)).
        head_in = config.hidden_dim + config.feature_dim
        self.head_fc1 = nn.Linear(head_in, config.ffn_hidden_dim, rng=rng)
        self.head_norm1 = nn.LayerNorm(config.ffn_hidden_dim)
        self.head_fc2 = nn.Linear(config.ffn_hidden_dim, config.ffn_hidden_dim, rng=rng)
        self.head_norm2 = nn.LayerNorm(config.ffn_hidden_dim)
        self.head_out = nn.Linear(config.ffn_hidden_dim, config.num_classes, rng=rng)
        self.head_dropout = nn.Dropout(config.dropout, rng=rng)

    # ------------------------------------------------------------------
    def _laid_out(self, graph: HeteroGraph, targets: Optional[np.ndarray]):
        """``graph`` laid out once for a forward read at ``targets``
        (``None``: every node): each layer's prefix of the layout, the
        nodes the first layer reads, every node's position."""
        layout = InferenceLayout.of(graph, targets, depth=len(self.convs))
        layers = [layout.layer(hops_left) for hops_left in reversed(range(len(self.convs)))]
        return layers, layout.nodes[: layout.reach[-1]], layout.rank

    def _convolve(
        self,
        graph: HeteroGraph,
        targets: Optional[np.ndarray],
        edge_mask: Optional[Tensor],
        feature_mask: Optional[Tensor],
        edge_rows: Optional[EdgeRows],
    ) -> Tuple[np.ndarray, Tensor]:
        """The convolution stack, one tape node per layer, each on the
        rows the next one reads: every node's position and the last
        layer's output — the targets' rows (or all), in layout order."""
        layers, read, rank = self._laid_out(graph, targets)
        h = Tensor(graph.txn_features[read])
        if feature_mask is not None:
            h = h * nn.gather(feature_mask, read)
        for layout, conv in zip(layers, self.convs):
            h = conv(layout, h, edge_mask=edge_mask, edge_rows=edge_rows)
        return rank, h

    def node_representations(
        self,
        graph: HeteroGraph,
        edge_mask: Optional[Tensor] = None,
        feature_mask: Optional[Tensor] = None,
        edge_rows: Optional[EdgeRows] = None,
    ) -> Tensor:
        """Run the convolution stack; returns ``(N, hidden_dim)``.

        ``edge_mask`` / ``feature_mask`` are the GNNExplainer hooks:
        per-edge weights in [0,1] and per-node-feature weights.
        ``edge_rows`` is :meth:`loss`'s: which edges of which parent
        ``graph`` holds (see :meth:`HeteroConvLayer.forward`).
        """
        rank, h = self._convolve(graph, None, edge_mask, feature_mask, edge_rows)
        return nn.gather(h, rank)

    def forward(
        self,
        graph: HeteroGraph,
        targets: Sequence[int],
        edge_mask: Optional[Tensor] = None,
        feature_mask: Optional[Tensor] = None,
        edge_rows: Optional[EdgeRows] = None,
    ) -> Tensor:
        """Logits ``(len(targets), num_classes)`` for target txn nodes."""
        targets = np.asarray(targets, dtype=np.int64)
        rank, h = self._convolve(graph, targets, edge_mask, feature_mask, edge_rows)
        return self.head(graph, targets, nn.gather(h, rank[targets]), feature_mask)

    def head(
        self,
        graph: HeteroGraph,
        targets: np.ndarray,
        h: Tensor,
        feature_mask: Optional[Tensor] = None,
    ) -> Tensor:
        """The FFN head on the targets' convolution output ``h``
        (``(len(targets), hidden_dim)``), on the per-op tape."""
        original = Tensor(graph.txn_features[targets])
        if feature_mask is not None:
            original = original * feature_mask[targets]
        x = nn.concat([h.tanh(), original], axis=1)

        x = self.head_fc1(x)
        x = self.head_dropout(x)
        x = self.head_norm1(x).relu()
        x = self.head_fc2(x)
        x = self.head_dropout(x)
        x = self.head_norm2(x).relu()
        return self.head_out(x)

    # ------------------------------------------------------------------
    def predict_proba(self, graph: HeteroGraph, targets: Sequence[int]) -> np.ndarray:
        """Fraud probability per target: :meth:`forward` in eval mode on
        plain arrays — the layers' own :meth:`HeteroConvLayer.kernel`
        with nothing saved, then the head (no ``Tensor``, no tape, no
        dropout; ``self.training`` is neither read nor changed)."""
        targets = np.asarray(targets, dtype=np.int64)
        layers, read, rank = self._laid_out(graph, targets)
        h = graph.txn_features[read]
        for layout, conv in zip(layers, self.convs):
            h, _ = conv.kernel(layout, h)

        x = np.concatenate([np.tanh(h[rank[targets]]), graph.txn_features[targets]], axis=1)
        for fc, norm in ((self.head_fc1, self.head_norm1), (self.head_fc2, self.head_norm2)):
            x = x @ fc.weight.data + fc.bias.data
            x -= x.sum(axis=-1, keepdims=True) / x.shape[-1]
            x /= np.sqrt((x * x).sum(axis=-1, keepdims=True) / x.shape[-1] + norm.eps)
            x = np.maximum(x * norm.weight.data + norm.bias.data, 0.0)
        logits = x @ self.head_out.weight.data + self.head_out.bias.data
        exp = np.exp(logits - logits.max(axis=-1, keepdims=True))
        return exp[:, 1] / exp.sum(axis=-1)

    def predict_proba_sampled(
        self, graph: HeteroGraph, targets: Sequence[int], deadline=None
    ) -> np.ndarray:
        """Sample the neighbourhood with ``self.sampler`` (set by the
        subclasses: SAGE for detector+, HGSampling for Figure 10's
        subject), then score the sample — the production path.

        ``deadline`` is an optional duck-typed latency budget
        (:class:`repro.serving.Deadline`) propagated into the sampler.
        """
        sampled = self.sampler.sample(graph, targets, deadline=deadline)
        return self.predict_proba(sampled.graph, sampled.target_local)

    def loss(self, graph: HeteroGraph, targets: Sequence[int]) -> Tensor:
        """Detector loss: softmax cross entropy on labeled targets,
        computed on the targets' receptive field (:mod:`.field`)."""
        field, labels = loss_field(graph, targets, hops=len(self.convs))
        logits = self.forward(
            field.graph, field.target_local, edge_rows=(graph.num_edges, field.edge_ids)
        )
        return F.cross_entropy(logits, labels)


class XFraudDetectorPlus(XFraudDetector):
    """detector+ — same network, GraphSAGE-style sampler (Sec. 3.2.3)."""

    def __init__(self, config: DetectorConfig, hops: int = 2, fanout: int = 10) -> None:
        super().__init__(config)
        self.sampler = SageSampler(hops=hops, fanout=fanout, seed=config.seed)


class XFraudDetectorHGT(XFraudDetector):
    """detector — same network, HGSampling (equivalent to HGT).

    Default sampler parameters mirror pyHGT's practice of deep,
    wide type-balanced budgets (the source of the cost the paper's
    Figure 10 measures on sparse transaction graphs).
    """

    def __init__(self, config: DetectorConfig, depth: int = 6, width: int = 64) -> None:
        super().__init__(config)
        self.sampler = HGSampler(depth=depth, width=width, seed=config.seed)
