"""Heterogeneous convolution layer of the xFraud detector (Sec. 3.2.2).

Implements eqs. 2–10 of the paper:

* per-node-type Q/K/V linear maps (``Q-Linear_{τ(v)}`` …), multi-head;
* node-type embeddings ``τ(v)^emb`` and edge-type embeddings
  ``φ(e)^emb`` initialised at **zero** (the paper's choice), added to
  the raw inputs only at the first layer (eqs. 2, 4, 6) — deeper layers
  consume ``H^{l-1}`` directly (eqs. 3, 5, 7);
* additive mutual attention per head
  ``α-head = (K·w_att_src + Q·w_att_dst) / sqrt(d_k)`` (eq. 8), with
  per-node-type attention vectors drawn from uniform distributions;
* softmax over the in-neighbourhood of each target node (eq. 9);
* message passing ``msg = ||_i V^i(v_s) · dropout(α^i)`` (eq. 10),
  summed into targets (the Aggregate of eq. 1).

Unlike HGT there is **no target-specific aggregation**: the output path
(residual + layer norm + ReLU) shares weights across node types, which
the paper reports works better on transaction graphs.

The layer is **one autograd node over one kernel**. The kernel is the
convolution on plain arrays in :class:`InferenceLayout` order, with the
algebra reordered for speed (bilinears on nodes instead of edges, the
``φ(e)^emb`` term as a small table, segment reductions over contiguous
in-neighbourhoods); ``predict_proba`` calls it with nothing saved.
``forward`` calls the same kernel, keeps the activations and puts a
single ``Tensor`` on the tape whose backward is the kernel's
hand-derived vector-Jacobian product — a few dozen numpy calls per
layer and step instead of one tape node per op and per node/edge type.
A layer computes only what the next one reads: nodes are laid out by
distance to the forward's targets, so the rows a layer reads and
outputs and the edges it walks are prefixes (:meth:`InferenceLayout.layer`).
The op-by-op ``Tensor`` version of the layer, on the whole graph, lives
in :mod:`repro.check.reference`, as the spec ``repro check`` and the
tests hold kernel and backward to.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np
from scipy import sparse

from .. import nn
from ..graph.hetero import EDGE_TYPES, NODE_TYPES, HeteroGraph
from ..nn import Tensor
from ..nn import functional as F
from ..nn.segment import row_selector
from .field import EdgeRows

#: Edge-type ids grouped by the projection that serves their source
#: node type — per type name, and all of them under ``"shared"``.
_EDGE_TYPES_BY_SOURCE = {
    name: np.array([i for i, edge in enumerate(EDGE_TYPES) if edge.split("->")[0] == name])
    for name in NODE_TYPES
}
_EDGE_TYPES_BY_SOURCE["shared"] = np.arange(len(EDGE_TYPES))

#: Below this many edges a layer's :meth:`InferenceLayout.segment_sum`
#: reduces with ``np.add.reduceat``; from it on, through a sparse 0/1
#: matrix built once per layer (26 µs). The edges the *layer* walks
#: decide: scoring a stacked batch of 32 walks ~800 in its first layer
#: (two sums: 125 µs by ``reduceat``, 56 through the matrix, built
#: included) and ~130 in its last (22 vs 37); the two meet at 256. A
#: recorded step sums four times and breaks even near 150.
_REDUCEAT_MAX_EDGES = 256


@dataclass
class InferenceLayout:
    """A graph's structure in the order the convolution kernel wants it.

    Built once per forward. Nodes are ordered by (in-hop distance to
    the targets, node type) and edges stably by their target's position,
    so what the layer with ``k`` layers after it computes is a **prefix**
    of every array (:meth:`layer`): the rows it outputs (distance <=
    ``k``), the edges it walks (those entering them) and the rows it
    reads (distance <= ``k + 1``); nodes no target sees within ``depth``
    hops sort last and are never touched. Each (distance, node type) is
    one contiguous block (per-type weights apply to slices, not gathered
    rows) and every in-neighbourhood a contiguous run reducible from its
    first edge. Without targets every node is at distance 0 and every
    prefix the whole. What only a backward needs (:meth:`sum_by_source`,
    :meth:`sum_by_relation`) is built on first use: scoring never pays.
    """

    #: ``rank[v]`` is the position of the graph's node ``v``; ``nodes``
    #: is the inverse, the graph's node at each position.
    rank: np.ndarray
    nodes: np.ndarray
    #: ``(N,)`` node-type id per position, ascending within a distance.
    node_type: np.ndarray
    #: ``(type_id, start, stop)`` per (distance, node type) present.
    type_blocks: List[Tuple[int, int, int]]
    #: ``(E,)`` the graph's edge id per edge here: per-edge inputs in
    #: the graph's order (``edge_mask``, dropout rows) are gathered by
    #: it. :meth:`layer` leaves it whole: ``order[:len(src)]`` are its.
    order: np.ndarray
    #: ``(E,)`` edge endpoints (as positions) and types, sorted by ``dst``.
    src: np.ndarray
    dst: np.ndarray
    edge_type: np.ndarray
    #: ``(S,)`` first edge of each non-empty in-neighbourhood, its
    #: target position, and ``(E,)`` each edge's index into those.
    starts: np.ndarray
    heads: np.ndarray
    segment: np.ndarray
    #: How many nodes lie within ``d = 0 .. depth`` in-hops of a target,
    #: how many edges enter them; the rows a layer here outputs.
    reach: List[int]
    edge_reach: List[int]
    num_out: int

    @classmethod
    def of(
        cls, graph: HeteroGraph, targets: Optional[np.ndarray] = None, depth: int = 0
    ) -> "InferenceLayout":
        """``graph`` laid out for ``depth`` layers read at ``targets`` (``None``: every node)."""
        distance = np.full(graph.num_nodes, depth + 1)
        distance[slice(None) if targets is None else targets] = 0
        for hop in range(1, depth + 1):
            sources = graph.edge_src[distance[graph.edge_dst] == hop - 1]
            distance[sources] = np.minimum(distance[sources], hop)
        key = distance * len(NODE_TYPES) + graph.node_type
        nodes = np.argsort(key, kind="stable")
        rank = np.empty_like(nodes)
        rank[nodes] = np.arange(len(nodes))
        counts = np.bincount(key, minlength=(depth + 2) * len(NODE_TYPES))
        bounds = [0, *np.cumsum(counts).tolist()]
        reach = bounds[len(NODE_TYPES) :: len(NODE_TYPES)][: depth + 1]
        type_blocks = [
            (index % len(NODE_TYPES), start, stop)
            for index, (start, stop) in enumerate(zip(bounds, bounds[1:]))
            if stop > start
        ]
        dst = rank[graph.edge_dst]
        by_dst = np.argsort(dst, kind="stable")
        dst = dst[by_dst]
        first = np.ones(len(dst), dtype=bool)
        first[1:] = dst[1:] != dst[:-1]
        starts = np.flatnonzero(first)
        return cls(
            rank=rank,
            nodes=nodes,
            node_type=graph.node_type[nodes],
            type_blocks=type_blocks,
            order=by_dst,
            src=rank[graph.edge_src[by_dst]],
            dst=dst,
            edge_type=graph.edge_type[by_dst],
            starts=starts,
            heads=dst[starts],
            segment=np.cumsum(first) - 1,
            reach=reach,
            edge_reach=np.searchsorted(dst, reach).tolist(),
            num_out=reach[-1],
        )

    def layer(self, hops_left: int) -> "InferenceLayout":
        """This layout cut to what the layer with ``hops_left`` layers
        after it computes — slices, nothing gathered or re-sorted."""
        num_out, num_in = self.reach[hops_left : hops_left + 2]
        if num_out == len(self.node_type):  # read at every node: nothing to cut
            return self
        num_edges = self.edge_reach[hops_left]
        num_segments = int(self.segment[num_edges - 1]) + 1 if num_edges else 0
        return InferenceLayout(
            self.rank,
            self.nodes,
            self.node_type[:num_in],
            [block for block in self.type_blocks if block[1] < num_in],
            self.order,
            self.src[:num_edges],
            self.dst[:num_edges],
            self.edge_type[:num_edges],
            self.starts[:num_segments],
            self.heads[:num_segments],
            self.segment[:num_edges],
            self.reach,
            self.edge_reach,
            num_out,
        )

    @cached_property
    def _by_target(self) -> sparse.csr_matrix:
        """``(S, E)``: row ``s`` selects in-neighbourhood ``s`` — the
        edges are sorted, so ``starts`` is the CSR row pointer as is."""
        num_edges = len(self.src)
        return sparse.csr_matrix(
            (np.ones(num_edges), np.arange(num_edges), np.append(self.starts, num_edges)),
            shape=(len(self.starts), num_edges),
        )

    @cached_property
    def _by_source(self) -> sparse.csr_matrix:
        return row_selector(self.src, len(self.node_type))

    @cached_property
    def _by_relation(self) -> sparse.csr_matrix:
        relation = self.node_type[self.src] * len(EDGE_TYPES) + self.edge_type
        return row_selector(relation, len(NODE_TYPES) * len(EDGE_TYPES))

    def segment_sum(self, values: np.ndarray) -> np.ndarray:
        """``(E, k)`` per-edge rows summed over each non-empty
        in-neighbourhood: ``(S, k)``, row ``i`` belonging to node
        ``heads[i]``. How is this layout's choice, from its edge count
        (see :data:`_REDUCEAT_MAX_EDGES`)."""
        if len(self.src) < _REDUCEAT_MAX_EDGES:
            return np.add.reduceat(values, self.starts, axis=0)
        return self._by_target @ values

    def sum_by_source(self, values: np.ndarray) -> np.ndarray:
        """``(E, k)`` per-edge rows summed into their source node: ``(N, k)``."""
        return self._by_source.T @ values

    def sum_by_relation(self, values: np.ndarray) -> np.ndarray:
        """``(E, k)`` per-edge rows summed per (source node type, edge
        type): ``(len(NODE_TYPES) * len(EDGE_TYPES), k)``."""
        return self._by_relation.T @ values


def _softmax_vjp(layout: InferenceLayout, attention: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Backward of the per-neighbourhood softmax, ``a·(g − Σ_seg g·a)``."""
    return attention * (grad - layout.segment_sum(grad * attention)[layout.segment])


def _apply_blocks(layout: InferenceLayout, x: np.ndarray, weights: dict) -> np.ndarray:
    """``x W + b`` with each type block through its own ``(W, b)``
    (or all through ``weights["shared"]``); ``x``: a prefix of the rows."""
    if "shared" in weights:
        weight, bias = weights["shared"]
        return x @ weight + bias
    out = np.empty((len(x), weights[NODE_TYPES[0]][0].shape[1]))
    for type_id, start, stop in layout.type_blocks:  # past x's rows: empty slices
        weight, bias = weights[NODE_TYPES[type_id]]
        np.matmul(x[start:stop], weight, out=out[start:stop])
        out[start:stop] += bias
    return out


def _apply_blocks_vjp(
    layout: InferenceLayout, x: np.ndarray, weights: dict, grad: np.ndarray, need_d_x: bool = True
) -> Tuple[Optional[np.ndarray], Dict[str, Tuple[np.ndarray, np.ndarray]]]:
    """Backward of :func:`_apply_blocks`: ``(d_x, {key: (d_W, d_b)})``,
    ``d_x`` only if needed. A type with no rows gets zeros, not nothing:
    an optimiser step (weight decay, moment decay) must not depend on
    which node types a batch's receptive field happens to contain."""
    if "shared" in weights:
        d_x = grad @ weights["shared"][0].T if need_d_x else None
        return d_x, {"shared": (x.T @ grad, grad.sum(axis=0))}
    d_x = np.empty_like(x) if need_d_x else None
    d_weights = {
        key: (np.zeros_like(weight), np.zeros_like(bias)) for key, (weight, bias) in weights.items()
    }
    for type_id, start, stop in layout.type_blocks:  # past x's rows: empty slices
        key = NODE_TYPES[type_id]
        if need_d_x:
            np.matmul(grad[start:stop], weights[key][0].T, out=d_x[start:stop])
        d_weight, d_bias = d_weights[key]  # += : a type is one block per distance
        d_weight += x[start:stop].T @ grad[start:stop]
        d_bias += grad[start:stop].sum(axis=0)
    return d_x, d_weights


class HeteroConvLayer(nn.Module):
    """One attention-based heterogeneous convolution layer."""

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        num_heads: int,
        dropout: float = 0.2,
        first_layer: bool = False,
        target_specific: bool = False,
        per_type_projections: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if out_dim % num_heads != 0:
            raise ValueError("out_dim must be divisible by num_heads")
        rng = rng or np.random.default_rng()
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.num_heads = num_heads
        self.head_dim = out_dim // num_heads
        self.first_layer = first_layer
        self.target_specific = target_specific
        self.per_type_projections = per_type_projections
        self.dropout_rate = F.check_dropout_rate(dropout)
        self._rng = rng

        # Q/K/V projections (eqs. 2–7), each mapping the layer input to
        # num_heads * head_dim. The paper's stated design principle is
        # that *shared weights among node types perform better* (Sec.
        # 3.2.1) — type information flows through the type embeddings
        # and the per-type attention matrices — so the projections are
        # shared by default; ``per_type_projections=True`` restores the
        # HGT-style type-indexed Q-Linear_{τ(v)} of eq. 2 for ablation.
        projection_types = NODE_TYPES if per_type_projections else ("shared",)
        self.q_linear = nn.ModuleDict(
            {t: nn.Linear(in_dim, out_dim, rng=rng) for t in projection_types}
        )
        self.k_linear = nn.ModuleDict(
            {t: nn.Linear(in_dim, out_dim, rng=rng) for t in projection_types}
        )
        self.v_linear = nn.ModuleDict(
            {t: nn.Linear(in_dim, out_dim, rng=rng) for t in projection_types}
        )

        # Per-node-type attention matrices W^att, uniform init per the
        # paper. Note on eq. 8: read literally as a sum of two scalar
        # projections, the target's term would be constant inside the
        # per-target softmax of eq. 9 and cancel — attention would
        # ignore the target. We therefore use the *mutual* (bilinear)
        # form of the HGT architecture the paper builds on:
        # α-head = (K W^att_src) · (Q W^att_dst) / sqrt(d_k).
        bound = 1.0 / np.sqrt(self.head_dim)
        # Identity + uniform noise: attention starts as the plain K·Q
        # dot-product (transformer-style) and per-type deviations are
        # learned on top, which converges far faster than a near-zero
        # bilinear form.
        eye = np.eye(self.head_dim)[None, None]
        self.att_src = nn.Parameter(
            eye
            + rng.uniform(
                -bound, bound,
                size=(len(NODE_TYPES), num_heads, self.head_dim, self.head_dim),
            )
        )
        self.att_dst = nn.Parameter(
            eye
            + rng.uniform(
                -bound, bound,
                size=(len(NODE_TYPES), num_heads, self.head_dim, self.head_dim),
            )
        )

        if first_layer:
            # Type embeddings live in input space and start at zero
            # (Sec. 3.2.2 initialisation (1)).
            self.node_type_emb = nn.Embedding(len(NODE_TYPES), in_dim, rng=rng, zero_init=True)
            self.edge_type_emb = nn.Embedding(len(EDGE_TYPES), in_dim, rng=rng, zero_init=True)

        # Output path. The xFraud design shares it across node types
        # (``target_specific=True`` restores HGT's per-target-type
        # A-Linear for the ablation of Sec. 3.2.1 — the paper reports
        # the shared variant performs better on transaction graphs).
        # Per Sec. 3.2(2) the aggregation feeds a ReLU that emits the
        # next layer's input; we found an HGT-style residual+LayerNorm
        # output slows convergence markedly at simulation scale.
        if target_specific:
            self.a_linear = nn.ModuleDict(
                {t: nn.Linear(out_dim, out_dim, rng=rng) for t in NODE_TYPES}
            )

    # ------------------------------------------------------------------
    def forward(
        self,
        layout: Union[InferenceLayout, HeteroGraph],
        h: Tensor,
        edge_mask: Optional[Tensor] = None,
        edge_rows: Optional[EdgeRows] = None,
    ) -> Tensor:
        """One round of heterogeneous message passing, as one tape node.

        Parameters
        ----------
        layout:
            The :class:`InferenceLayout` of the (sub)graph being
            convolved, built once by the caller for all its layers. A
            layer called on its own may pass the graph itself: it is
            laid out here, and ``h`` and the result are then rows in the
            graph's node order.
        h:
            Input rows ``layout`` reads, in its order — raw transaction
            features at layer 1, ``H^{l-1}`` afterwards; the result is
            its first ``layout.num_out`` rows, those the layer outputs.
        edge_mask:
            The GNNExplainer hook: per-edge weights in [0, 1], in the
            graph's edge order, that scale the normalised attention (in
            place of dropout), so a fully-masked edge contributes
            nothing. Gradients flow to it (exactly 0 on an edge this
            layer does not walk), to ``h`` and to every parameter of
            the layer (zeros for a node type the graph does not hold).
        edge_rows:
            Set when the graph is a
            :func:`~repro.graph.sampling.receptive_field` of a parent
            graph (:data:`~repro.models.field.EdgeRows`): attention
            dropout then gives each edge the mask the parent's forward
            would — the draw is ``F.dropout(..., rows=edge_rows)``'s,
            one ``random((extent, heads))`` per training forward.
        """
        if isinstance(layout, HeteroGraph):
            graph, layout = layout, InferenceLayout.of(layout)
            h = nn.gather(h, layout.nodes)
            return nn.gather(self.forward(layout, h, edge_mask, edge_rows), layout.rank)

        order = layout.order[: len(layout.src)]  # the edges this layer walks
        if edge_mask is not None:
            scale = edge_mask.data.reshape(-1)[order][:, None]
        elif self.training and self.dropout_rate > 0.0:
            # The mask F.dropout gives the attention rows in the graph's
            # edge order (and, with ``edge_rows``, in the parent's): one
            # draw for all of them, this layer's gathered in layout order.
            extent, rows = len(layout.order), order
            if edge_rows is not None:
                extent, rows = edge_rows[0], edge_rows[1][order]
            ones = Tensor(np.ones((len(rows), self.num_heads)))
            scale = F.dropout(
                ones, self.dropout_rate, training=True, rng=self._rng, rows=(extent, rows)
            ).data
        else:
            scale = None
        return self._hetero_conv(layout, h, edge_mask, scale)

    def _hetero_conv(
        self,
        layout: InferenceLayout,
        h: Tensor,
        edge_mask: Optional[Tensor],
        scale: Optional[np.ndarray],
    ) -> Tensor:
        """The tape node: :meth:`kernel` forward, its pullback backward,
        parents ``h``, every parameter and ``edge_mask``. (The method's
        name is the node's row in ``Profiler.report()``.)"""
        params = dict(self.named_parameters())
        parents = [h, *params.values()] + ([] if edge_mask is None else [edge_mask])
        recording = nn.is_grad_enabled() and any(parent.requires_grad for parent in parents)
        out, pullback = self.kernel(layout, h.data, scale, save=recording)

        def backward(grad: np.ndarray) -> None:
            d_h, d_params, d_scale = pullback(grad, h.requires_grad)
            if h.requires_grad:
                h._accumulate(d_h)
            for name, d_param in d_params.items():
                if params[name].requires_grad:
                    params[name]._accumulate(d_param)
            if edge_mask is not None and edge_mask.requires_grad:
                d_mask = np.zeros(len(layout.order))  # an edge not walked: exactly 0
                d_mask[layout.order[: len(layout.src)]] = d_scale.sum(axis=1)
                edge_mask._accumulate(d_mask.reshape(edge_mask.shape))

        return Tensor._make(out, parents, backward)

    # ------------------------------------------------------------------
    def _qkv_weights(self, key: str) -> Tuple[np.ndarray, np.ndarray]:
        """``[Q | K | V]`` weights and biases side by side, so the three
        projections are one matmul. Read from ``param.data`` on every
        call: optimisers and ``load_state_dict`` write parameters in
        place, so nothing derived from them may outlive the call."""
        linears = (self.q_linear[key], self.k_linear[key], self.v_linear[key])
        return (
            np.concatenate([linear.weight.data for linear in linears], axis=1),
            np.concatenate([linear.bias.data for linear in linears]),
        )

    def kernel(
        self,
        layout: InferenceLayout,
        h: np.ndarray,
        scale: Optional[np.ndarray] = None,
        save: bool = False,
    ) -> Tuple[np.ndarray, Optional[Callable]]:
        """The convolution on raw arrays: ``(out, pullback)``.

        ``h`` is ``(num_in, in_dim)``, the rows ``layout`` reads in its
        order; ``out`` the first ``layout.num_out`` of them. ``scale``
        multiplies the normalised attention — ``(num_edges, heads)`` or
        ``(num_edges, 1)``, in ``layout``'s edge order. The algebra is
        eqs. 2–10 reordered, all exact up to float rounding:

        * the attention bilinears act on nodes, not edges:
          ``(K A_src[τ(s)])[s] · (Q A_dst[τ(t)])[t]`` — ``N`` rows
          through the matrices instead of ``2E``, one matmul per type
          block for both sides;
        * the first layer's ``φ(e)^emb`` term is a table with a row per
          (source node type, edge type), pushed through the same
          bilinear and gathered per edge;
        * segment max / sum run over ``layout``'s contiguous
          in-neighbourhoods.

        With ``save`` the activations are kept and ``pullback(grad,
        need_d_h)`` is the hand-derived backward: ``(d_h, {parameter
        name: gradient}, d_scale)`` for the output gradient ``grad``,
        every parameter of the layer named. ``d_scale`` is ``None`` when
        no scale went in, ``d_h`` when not needed (the first layer's
        input is data: that skips the layer's largest matmul). Without
        ``save`` nothing is kept, buffers are reused and ``pullback`` is
        ``None``.
        """
        heads, dim, out_dim = self.num_heads, self.head_dim, self.out_dim
        src, segment, starts = layout.src, layout.segment, layout.starts
        num_in, num_out, num_edges = len(h), layout.num_out, len(src)

        x = h
        if self.first_layer:
            x = h + self.node_type_emb.weight.data[layout.node_type]
        keys = NODE_TYPES if self.per_type_projections else ("shared",)
        weights = {key: self._qkv_weights(key) for key in keys}
        qkv = _apply_blocks(layout, x, weights)
        value = qkv[:, 2 * out_dim :].reshape(num_in, heads, dim)

        # eq. 8 per node: [Q·A_dst[τ(v)] | K·A_src[τ(v)]], heads of
        # both sides batched into one matmul per type block.
        query_key = qkv[:, : 2 * out_dim].reshape(num_in, 2 * heads, dim)
        att = np.concatenate([self.att_dst.data, self.att_src.data], axis=1)
        query_key_att = np.empty_like(query_key)
        for type_id, start, stop in layout.type_blocks:
            query_key_att[start:stop] = np.matmul(
                query_key[start:stop].transpose(1, 0, 2), att[type_id]
            ).transpose(1, 0, 2)
        key_att = query_key_att[:, heads:][src]
        value_edges = value[src]

        if self.first_layer:
            # K(φ) and V(φ) without bias, through the projection of the
            # edge type's source node type.
            edge_emb = self.edge_type_emb.weight.data
            extra = np.empty((len(EDGE_TYPES), 2 * out_dim))
            for key in keys:
                rows = _EDGE_TYPES_BY_SOURCE[key]
                extra[rows] = edge_emb[rows] @ weights[key][0][:, out_dim:]
            extra = extra.reshape(len(EDGE_TYPES), 2 * heads, dim)
            # (source node type, edge type, head, dim): K(φ)·A_src[τ(s)].
            key_extra_att = np.matmul(
                extra[None, :, :heads, None, :], att[:, None, heads:]
            )[:, :, :, 0, :]
            key_att += key_extra_att[layout.node_type[src], layout.edge_type]
            value_edges += extra[layout.edge_type, heads:]

        query_att = query_key_att[:, :heads][layout.dst]
        logits = np.einsum("ehd,ehd->eh", key_att, query_att)
        logits *= dim**-0.5

        # eq. 9: softmax over each contiguous in-neighbourhood.
        logits -= np.maximum.reduceat(logits, starts, axis=0)[segment]
        attention = np.exp(logits, out=logits)
        attention /= layout.segment_sum(attention)[segment] + 1e-16
        scaled = attention if scale is None else attention * scale

        # eq. 10 + eq. 1 Aggregate; targets without in-edges stay zero.
        # A scoring call reuses the value buffer; a recorded one keeps it.
        messages = np.multiply(value_edges, scaled[:, :, None], out=None if save else value_edges)
        aggregated = np.zeros((num_out, out_dim))
        aggregated[layout.heads] = layout.segment_sum(messages.reshape(num_edges, out_dim))
        out = aggregated
        if self.target_specific:
            a_weights = {
                name: (linear.weight.data, linear.bias.data)
                for name, linear in self.a_linear.items()
            }
            out = _apply_blocks(layout, aggregated, a_weights)
        np.maximum(out, 0.0, out=out)
        if not save:
            return out, None

        def pullback(grad: np.ndarray, need_d_h: bool = True):
            """The kernel above, bottom to top."""
            grads: Dict[str, np.ndarray] = {}

            # ReLU, then the per-target-type A-Linear.
            grad = grad * (out > 0.0)
            if self.target_specific:
                grad, d_linears = _apply_blocks_vjp(layout, aggregated, a_weights, grad)
                for key, (d_weight, d_bias) in d_linears.items():
                    grads[f"a_linear.{key}.weight"], grads[f"a_linear.{key}.bias"] = d_weight, d_bias

            # eq. 10: messages = value_edges · scaled attention. Per edge,
            # [d(K·A_src) | dV] side by side, as one by-source sum wants them.
            d_messages = grad.reshape(num_out, heads, dim)[layout.dst]
            by_edge = np.empty((num_edges, 2 * heads, dim))
            np.multiply(d_messages, scaled[:, :, None], out=by_edge[:, heads:])
            d_scaled = np.einsum("ehd,ehd->eh", d_messages, value_edges)
            d_scale = None
            if scale is not None:
                d_scale = d_scaled * attention
                d_scaled = d_scaled * scale

            # eqs. 9 and 8: softmax, then logits = key_att · query_att / sqrt(d).
            d_logits = (_softmax_vjp(layout, attention, d_scaled) * dim**-0.5)[:, :, None]
            np.multiply(d_logits, query_att, out=by_edge[:, :heads])
            by_edge = by_edge.reshape(num_edges, 2 * out_dim)
            by_source = layout.sum_by_source(by_edge).reshape(num_in, 2 * heads, dim)
            # [d(Q·A_dst) | d(K·A_src)] per node: by target, by source.
            d_query_key_att = np.zeros((num_in, 2 * heads, dim))
            d_query_key_att[layout.heads, :heads] = layout.segment_sum(
                (d_logits * key_att).reshape(num_edges, out_dim)
            ).reshape(-1, heads, dim)
            d_query_key_att[:, heads:] = by_source[:, :heads]

            # The bilinears: one matmul per type block for each of
            # d[Q | K] and d[A_dst | A_src]; absent types keep zeros.
            d_qkv = np.empty((num_in, 3 * out_dim))
            d_qkv[:, 2 * out_dim :] = by_source[:, heads:].reshape(num_in, out_dim)
            d_query_key = d_qkv[:, : 2 * out_dim].reshape(num_in, 2 * heads, dim)  # a view
            d_att = np.zeros_like(att)
            for type_id, start, stop in layout.type_blocks:
                block = d_query_key_att[start:stop].transpose(1, 0, 2)
                d_query_key[start:stop] = np.matmul(
                    block, att[type_id].swapaxes(-1, -2)
                ).transpose(1, 0, 2)
                d_att[type_id] += np.matmul(query_key[start:stop].transpose(1, 2, 0), block)
            grads["att_dst"], grads["att_src"] = d_att[:, :heads], d_att[:, heads:]

            # The stacked [Q | K | V] projection: one xᵀ·g / g·Wᵀ pair.
            d_h, d_linears = _apply_blocks_vjp(layout, x, weights, d_qkv, need_d_h)

            if self.first_layer:
                # x = h + τ(v)^emb: a type's row gets its block's column
                # sums of d_qkv through Wᵀ — the block sum of d_x, without d_x.
                d_node_emb = np.zeros_like(self.node_type_emb.weight.data)
                for type_id, start, stop in layout.type_blocks:
                    weight = weights[NODE_TYPES[type_id] if self.per_type_projections else "shared"][0]
                    d_node_emb[type_id] += d_qkv[start:stop].sum(axis=0) @ weight.T
                grads["node_type_emb.weight"] = d_node_emb
                # The φ(e)^emb table: its per-(source type, edge type) rows
                # went through A_src (keys) or straight to the values.
                by_relation = layout.sum_by_relation(by_edge).reshape(
                    len(NODE_TYPES), len(EDGE_TYPES), 2 * heads, dim
                )
                d_key_extra_att = by_relation[:, :, :heads]
                grads["att_src"] = grads["att_src"] + np.einsum(
                    "rhi,trhj->thij", extra[:, :heads], d_key_extra_att
                )
                d_extra = np.concatenate(
                    [
                        np.einsum("trhj,thij->rhi", d_key_extra_att, att[:, heads:]),
                        by_relation[:, :, heads:].sum(axis=0),
                    ],
                    axis=1,
                ).reshape(len(EDGE_TYPES), 2 * out_dim)
                d_edge_emb = np.empty_like(edge_emb)
                for key, (d_weight, _) in d_linears.items():
                    rows = _EDGE_TYPES_BY_SOURCE[key]
                    d_edge_emb[rows] = d_extra[rows] @ weights[key][0][:, out_dim:].T
                    d_weight[:, out_dim:] += edge_emb[rows].T @ d_extra[rows]
                grads["edge_type_emb.weight"] = d_edge_emb

            for key, (d_weight, d_bias) in d_linears.items():
                for position, name in enumerate(("q_linear", "k_linear", "v_linear")):
                    columns = slice(position * out_dim, (position + 1) * out_dim)
                    grads[f"{name}.{key}.weight"] = d_weight[:, columns]
                    grads[f"{name}.{key}.bias"] = d_bias[columns]
            return d_h, grads, d_scale

        return out, pullback
