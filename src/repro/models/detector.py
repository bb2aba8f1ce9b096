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

Like each convolution layer, the head is one kernel on plain arrays
(:meth:`XFraudDetector.head_kernel`): ``predict_proba`` calls it with
nothing saved, ``forward`` records it as one tape node whose backward is
its hand-derived pullback. A training step's tape is then a node per
layer, one for the targets' rows, the head and the loss
(``F.cross_entropy``). The op-by-op head lives in
:mod:`repro.check.reference`, as the spec the node is held to.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..graph.hetero import HeteroGraph
from ..graph.sampling import HGSampler, SageSampler
from ..nn import Tensor
from ..nn import functional as F
from .field import EdgeRows, loss_field
from .hetero_conv import HeteroConvLayer, InferenceLayout

#: The head's modules, and its two (linear, layer norm) blocks.
_HEAD_MODULES = ("head_fc1", "head_norm1", "head_fc2", "head_norm2", "head_out")
_HEAD_BLOCKS = (("head_fc1", "head_norm1"), ("head_fc2", "head_norm2"))


def _layer_norm_vjp(
    d_normed: np.ndarray, centred: np.ndarray, scale: np.ndarray, mean_square: np.ndarray
) -> np.ndarray:
    """Backward of ``normed = centred / scale`` along each row to the
    row before centring — ``centred`` is the row minus its mean,
    ``mean_square`` the mean of its square plus eps, ``scale`` the root
    of that: ``(dn − mean dn − normed · mean(dn · normed)) / scale``,
    taken in the per-op tape's operations and order (``F.layer_norm``
    unwound node by node), so its bits are the tape's."""
    share = 1.0 / centred.shape[-1]
    d_centred = d_normed / scale
    d_scale = ((-d_normed) * centred / scale**2).sum(axis=-1, keepdims=True)
    through_variance = np.broadcast_to(d_scale * 0.5 * mean_square**-0.5 * share, centred.shape)
    through_variance = through_variance * centred  # centred * centred: one term per factor
    d_centred += through_variance
    d_centred += through_variance
    return d_centred + -d_centred.sum(axis=-1, keepdims=True) * share


#: Output classes: the paper's task is binary, fraud vs legit (eq. 11).
NUM_CLASSES = 2


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
        if config.num_layers < 1:  # the head reads the last layer's output
            raise ValueError(f"num_layers must be >= 1, got {config.num_layers}")
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
        self.head_out = nn.Linear(config.ffn_hidden_dim, NUM_CLASSES, rng=rng)
        self.head_dropout = nn.Dropout(config.dropout, rng=rng)
        self._layout_memo = None  # see _convolve

    # ------------------------------------------------------------------
    def _laid_out(self, graph: HeteroGraph, targets: Optional[np.ndarray]):
        """``graph`` laid out once for a forward read at ``targets``
        (``None``: every node): each layer's prefix of the layout, the
        nodes the first layer reads (transactions only), every node's
        position."""
        layout = InferenceLayout.of(graph, targets, depth=len(self.convs))
        layers = [layout.layer(hops_left) for hops_left in reversed(range(len(self.convs)))]
        return layers, layout.nodes[self.convs[0].reads(layers[0])], layout.rank

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
        layer's output — the targets' rows (or all), in layout order.

        The layout is kept for the next forward on the same graph object
        at the same version and targets — an explanation's hundred mask
        steps lay out once; a training step's field is a new graph."""
        key = (graph.version, None if targets is None else targets.tobytes())
        memo = self._layout_memo
        if memo is not None and memo[0]() is graph and memo[1] == key:
            layers, read, rank = memo[2]
        else:
            layers, read, rank = self._laid_out(graph, targets)
            self._layout_memo = (weakref.ref(graph), key, (layers, read, rank))
        h = Tensor(graph.txn_table[graph.txn_row[read]])
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
        """Logits ``(len(targets), NUM_CLASSES)`` for target txn nodes; an entity raises."""
        targets = np.asarray(targets, dtype=np.int64)
        rank, h = self._convolve(graph, targets, edge_mask, feature_mask, edge_rows)
        original = Tensor(graph.txn_table[graph.txn_rows(targets)])
        if feature_mask is not None:
            original = original * feature_mask[targets]
        return self._head(nn.gather(h, rank[targets]), original)

    def _head(self, h: Tensor, original: Tensor) -> Tensor:
        """The tape node: :meth:`head_kernel` forward, its pullback
        backward, parents ``h``, ``original`` and the head's ten
        parameters. (The method's name is the node's row in
        ``Profiler.report()``.)"""
        params = {
            f"{name}.{kind}": getattr(getattr(self, name), kind)
            for name in _HEAD_MODULES
            for kind in ("weight", "bias")
        }
        parents = [h, original, *params.values()]
        recording = nn.is_grad_enabled() and any(parent.requires_grad for parent in parents)
        out, pullback = self.head_kernel(h.data, original.data, self.training, save=recording)

        def backward(grad: np.ndarray) -> None:
            need_params = any(param.requires_grad for param in params.values())
            d_h, d_original, d_params = pullback(grad, need_params)
            if h.requires_grad:
                h._accumulate(d_h)
            if original.requires_grad:
                original._accumulate(d_original)
            for name, d_param in d_params.items():
                if params[name].requires_grad:
                    params[name]._accumulate(d_param)

        return Tensor._make(out, parents, backward)

    def head_kernel(
        self, h: np.ndarray, original: np.ndarray, training: bool = False, save: bool = False
    ) -> Tuple[np.ndarray, Optional[Callable]]:
        """The FFN head on plain arrays: ``(logits, pullback)``.

        ``h`` is the targets' rows of the last layer's output, ``original``
        their feature rows: ``[tanh(h) | original]`` through two blocks
        of linear, dropout, layer norm and ReLU, then the output linear.
        ``training`` draws the two dropout masks first, from the head's
        generator, as ``F.dropout`` would draw them after each linear
        (same shapes, same order, same arithmetic). With ``save`` the
        activations are kept and ``pullback(grad, need_params)`` is the
        hand-derived backward: ``(d_h, d_original, {parameter name:
        gradient})``, no parameter named without ``need_params`` (the
        explainer's frozen detector: the weight half is skipped).
        Without ``save`` ``pullback`` is ``None``.

        The op-by-op form is :func:`repro.check.reference.head`. The
        forward's layer norm divides sums by the width, as scoring always
        has: the tape's arithmetic (a sum times ``1 / width``) wherever
        the width is a power of two. The pullback takes the tape's
        operations in its order, so there a step is the tape's bits.
        """
        masks: List[Optional[np.ndarray]] = [None, None]
        dropout = self.head_dropout
        if training and dropout.rate > 0.0:
            keep = 1.0 - dropout.rate
            shape = (len(h), self.head_fc1.out_features)
            masks = [(dropout._rng.random(shape) < keep).astype(np.float64) / keep for _ in masks]

        tanh_h = np.tanh(h)
        x = np.concatenate([tanh_h, original], axis=1)
        saved = []  # per block: its input, the layer norm's rows and scales, output
        for (fc_name, norm_name), mask in zip(_HEAD_BLOCKS, masks):
            fc, norm = getattr(self, fc_name), getattr(self, norm_name)
            block_in = x
            centred = x @ fc.weight.data + fc.bias.data
            if mask is not None:
                centred *= mask
            centred -= centred.sum(axis=-1, keepdims=True) / centred.shape[-1]
            mean_square = (centred * centred).sum(axis=-1, keepdims=True) / centred.shape[-1]
            mean_square += norm.eps
            scale = np.sqrt(mean_square)
            normed = centred / scale
            x = np.maximum(normed * norm.weight.data + norm.bias.data, 0.0)
            saved.append((block_in, centred, mean_square, scale, normed, x))
        hidden = x
        logits = hidden @ self.head_out.weight.data + self.head_out.bias.data
        if not save:
            return logits, None

        def pullback(grad: np.ndarray, need_params: bool = True):
            """The kernel above, bottom to top."""
            grads: Dict[str, np.ndarray] = {}
            if need_params:
                grads["head_out.weight"] = hidden.T @ grad
                grads["head_out.bias"] = grad.sum(axis=0)
            d = grad @ self.head_out.weight.data.T
            for (fc_name, norm_name), mask, block in reversed(list(zip(_HEAD_BLOCKS, masks, saved))):
                fc, norm = getattr(self, fc_name), getattr(self, norm_name)
                block_in, centred, mean_square, scale, normed, out = block
                d = d * (out > 0.0)
                if need_params:
                    grads[f"{norm_name}.weight"] = (d * normed).sum(axis=0)
                    grads[f"{norm_name}.bias"] = d.sum(axis=0)
                d = _layer_norm_vjp(d * norm.weight.data, centred, scale, mean_square)
                if mask is not None:
                    d *= mask
                if need_params:
                    grads[f"{fc_name}.weight"] = block_in.T @ d
                    grads[f"{fc_name}.bias"] = d.sum(axis=0)
                d = d @ fc.weight.data.T
            width = h.shape[1]
            return d[:, :width] * (1.0 - tanh_h**2), d[:, width:], grads

        return logits, pullback

    # ------------------------------------------------------------------
    def predict_proba(self, graph: HeteroGraph, targets: Sequence[int]) -> np.ndarray:
        """Fraud probability per target: :meth:`forward` in eval mode on plain
        arrays — the layers' own :meth:`HeteroConvLayer.kernel` and the
        :meth:`head_kernel`, nothing saved (no ``Tensor``, no tape, no
        dropout; ``self.training`` is neither read nor changed); an entity
        target raises."""
        targets = np.asarray(targets, dtype=np.int64)
        original = graph.txn_table.take(graph.txn_rows(targets), axis=0)
        layers, read, rank = self._laid_out(graph, targets)
        h = graph.txn_table.take(graph.txn_row[read], axis=0)
        for layout, conv in zip(layers, self.convs):
            h, _ = conv.kernel(layout, h)
        logits, _ = self.head_kernel(h[rank[targets]], original)
        exp = np.exp(logits - logits.max(axis=-1, keepdims=True))
        return exp[:, 1] / exp.sum(axis=-1)

    def predict_proba_sampled(
        self, graph: HeteroGraph, targets: Sequence[int], deadline=None
    ) -> np.ndarray:
        """Sample the neighbourhood with ``self.sampler`` (set by the
        subclasses: SAGE for detector+, HGSampling for Figure 10's
        subject), then score the sample — the production path.

        ``deadline`` is an optional duck-typed latency budget (anything
        with ``check(stage)``, like a micro-batch's
        :class:`repro.serving.Deadline`) propagated into the sampler.
        An entity target is refused with ValueError naming it as passed.
        """
        graph.txn_rows(targets)  # on the parent graph: a sample would name its own index
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
